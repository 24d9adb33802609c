// Deployment optimizations (Section III-B4): take a trained TRN, fold its
// batch norms, quantize weights per-channel and activations per-tensor from
// a 10% calibration split, and compare fp32 vs int8 accuracy and the
// device-model latency of each deployment variant.
#include <cstdio>

#include "core/pretrained_cache.hpp"
#include "core/trn.hpp"
#include "data/hands.hpp"
#include "data/pretrained.hpp"
#include "hw/device.hpp"
#include "ml/metrics.hpp"
#include "nn/network.hpp"
#include "quant/fusion.hpp"
#include "quant/qnetwork.hpp"
#include "zoo/zoo.hpp"

int main() {
  using namespace netcut;

  data::HandsConfig data_cfg;
  data_cfg.resolution = 24;
  data_cfg.train_count = 150;
  data_cfg.test_count = 60;
  const data::HandsDataset dataset(data_cfg);

  // A mid-cut MobileNetV1-0.5 TRN with pseudo-pretrained weights and a
  // head initialized (untrained heads are fine for an accuracy-delta demo:
  // we compare fp32 vs int8 on identical weights).
  const zoo::NetId base = zoo::NetId::kMobileNetV1_050;
  nn::Graph trunk =
      core::pretrained_trunk(base, 24, data::PretrainedConfig{}, "netcut_weights");
  const auto cuts = core::blockwise_cutpoints(trunk);
  util::Rng rng(11);
  nn::Graph trn = core::build_trn(trunk, cuts[cuts.size() - 3], core::HeadConfig{}, rng);

  nn::Network fp32(trn);
  {
    std::vector<const tensor::Tensor*> calib;
    for (int i = 0; i < 12; ++i) calib.push_back(&dataset.train()[static_cast<std::size_t>(i)].image);
    data::calibrate_batchnorm(fp32, calib);
    // Mirror the calibrated batchnorm stats back into the graph we fold.
    trn = fp32.graph();
  }

  // Fold batch norms.
  quant::FusionReport fr;
  nn::Graph folded = quant::fold_batchnorm(trn, &fr);
  std::printf("BN folding: %d batchnorms absorbed, %d -> %d nodes\n", fr.batchnorms_folded,
              fr.nodes_before, fr.nodes_after);

  // Quantize + calibrate on the paper's 10% calibration split.
  quant::QuantizedNetwork qnet(folded);
  const auto calib_samples = dataset.calibration_set(0.10, 123);
  std::vector<const tensor::Tensor*> calib;
  for (const data::Sample* s : calib_samples) calib.push_back(&s->image);
  qnet.calibrate(calib);
  std::printf("activation calibration on %zu images; max weight quant error %.5f\n",
              calib.size(), qnet.max_weight_error());

  // Output agreement fp32 vs the integer pass on the test split.
  nn::Network fused_fp32(folded);
  double sim = 0.0;
  float max_dev = 0.0f;
  for (const data::Sample& s : dataset.test()) {
    const tensor::Tensor a = fused_fp32.forward(s.image);
    const tensor::Tensor b = qnet.forward_int8(s.image);
    sim += ml::angular_similarity(a, b);
    max_dev = std::max(max_dev, tensor::max_abs_diff(a, b));
  }
  std::printf("fp32 vs int8 output agreement: angular similarity %.4f, max |delta| %.4f\n\n",
              sim / static_cast<double>(dataset.test().size()), max_dev);

  // Device-model latency of the deployment variants at native resolution.
  hw::DeviceModel device;
  nn::Graph native_trunk = zoo::build_trunk(base, zoo::native_resolution(base));
  util::Rng rng2(12);
  const nn::Graph native_trn =
      core::build_trn(native_trunk, cuts[cuts.size() - 3], core::HeadConfig{}, rng2);
  std::printf("device-model latency of %s at native resolution:\n",
              core::trn_name(zoo::net_name(base), native_trunk, cuts[cuts.size() - 3]).c_str());
  std::printf("  fp32, unfused : %.3f ms\n",
              device.network_latency_ms(native_trn, hw::Precision::kFp32, false));
  std::printf("  fp32, fused   : %.3f ms\n",
              device.network_latency_ms(native_trn, hw::Precision::kFp32, true));
  std::printf("  int8, fused   : %.3f ms   <- the paper's deployment configuration\n",
              device.network_latency_ms(native_trn, hw::Precision::kInt8, true));
  return 0;
}
