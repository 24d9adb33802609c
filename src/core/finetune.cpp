#include "core/finetune.hpp"

#include "ml/metrics.hpp"
#include "nn/activation.hpp"
#include "nn/norm.hpp"
#include "nn/optimizer.hpp"

namespace netcut::core {

namespace {

constexpr double kHeadLr = 1e-3;  // the paper's initial learning rate
constexpr double kFullLr = 1e-4;  // the paper's fine-tuning learning rate

AccuracyResult evaluate(nn::Network& net, const data::HandsDataset& dataset) {
  std::vector<tensor::Tensor> preds, labels;
  preds.reserve(dataset.test().size());
  for (const data::Sample& s : dataset.test()) {
    preds.push_back(nn::softmax(net.forward(s.image, false)));
    labels.push_back(s.label);
  }
  AccuracyResult r;
  r.angular_similarity = ml::mean_angular_similarity(preds, labels);
  r.top1 = ml::top1_agreement(preds, labels);
  return r;
}

}  // namespace

FinetuneResult finetune_trn(const nn::Graph& pretrained_trunk, int cut_node,
                            const data::HandsDataset& dataset,
                            const FinetuneConfig& config) {
  util::Rng rng(util::derive_seed(config.seed, "finetune"));
  HeadConfig head;
  head.with_softmax = false;  // train on logits; softmax applied in evaluate()
  nn::Graph trn = build_trn(pretrained_trunk, cut_node, head, rng);
  const int trunk_nodes = layers_remaining(pretrained_trunk, cut_node) + 1;  // + the input
  nn::Network net(std::move(trn));

  // Fine-tuning regime: BatchNorm statistics frozen (the pretrained stats).
  for (int id = 1; id < net.graph().node_count(); ++id) {
    nn::Layer& layer = *net.graph().node(id).layer;
    if (layer.kind() == nn::LayerKind::kBatchNorm)
      static_cast<nn::BatchNorm&>(layer).set_freeze_stats(true);
  }

  FinetuneResult result;

  // Stage 1: head only (trunk frozen by simply not binding its params).
  {
    std::vector<tensor::Tensor*> params, grads;
    for (int id = trunk_nodes; id < net.graph().node_count(); ++id) {
      for (tensor::Tensor* p : net.graph().node(id).layer->params()) params.push_back(p);
      for (tensor::Tensor* g : net.graph().node(id).layer->grads()) grads.push_back(g);
    }
    nn::Adam opt(kHeadLr);
    opt.bind(std::move(params), std::move(grads));
    result.stage1_final_loss = train_epochs(net, opt, dataset.train(), config.head_epochs, rng);
  }
  result.after_head = evaluate(net, dataset);

  // Stage 2: everything, at the lower rate.
  if (config.full_epochs > 0) {
    nn::Adam opt(kFullLr);
    opt.bind(net.params(), net.grads());
    result.stage2_final_loss = train_epochs(net, opt, dataset.train(), config.full_epochs, rng);
  }
  result.after_full = evaluate(net, dataset);
  return result;
}

}  // namespace netcut::core
