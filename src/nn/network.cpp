#include "nn/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/verify.hpp"

namespace netcut::nn {

Network::Network(Graph graph) : graph_(std::move(graph)) {
  graph_.infer_shapes();           // validate eagerly (and populate the cache)
  check_graph(graph_, "Network");  // structural lint; no-op when NETCUT_VERIFY=0
}

Network::Network(const Network& other)
    : graph_(other.graph_), have_activations_(other.have_activations_), plans_(other.plans_) {}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  graph_ = other.graph_;
  have_activations_ = other.have_activations_;
  plans_ = other.plans_;
  arena_ = tensor::Arena();
  acts_.clear();
  lanes_.clear();
  return *this;
}

Tensor Network::forward(const Tensor& input, bool train) {
  return forward_collect(input, {}, train)[0];
}

const MemoryPlan& Network::plan_for(const std::vector<int>& collect, bool train, int batch,
                                    int resume) {
  const int n = graph_.node_count();
  for (std::size_t i = 0; i < plans_.size(); ++i) {
    // The batch size and resume node are part of the cache key: a batch-M
    // pass on a batch-N plan would bind lanes past the planned arena (or
    // waste N-M lanes), and a resume-R plan has no slots before node R.
    if (plans_[i].matches(n, collect, train, batch, resume)) {
      if (i != 0) std::rotate(plans_.begin(), plans_.begin() + static_cast<std::ptrdiff_t>(i),
                              plans_.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      return plans_.front();
    }
  }
  plans_.insert(plans_.begin(),
                MemoryPlan(graph_, graph_.infer_shapes(), collect, train, batch, resume));
  // {collect?} x {train?} plus a few live batch sizes in practice.
  constexpr std::size_t kMaxCachedPlans = 6;
  if (plans_.size() > kMaxCachedPlans) plans_.pop_back();
  return plans_.front();
}

void Network::execute(const MemoryPlan& plan, std::span<const Tensor* const> seeds, bool train,
                      const char* who) {
  // Layers size their work from their inputs, not from the planned slots:
  // a seed of any other shape would write past its slots and the arena.
  const int resume = plan.resume();
  const Shape& want = plan.shape(resume);
  for (const Tensor* seed : seeds)
    if (seed->shape() != want)
      throw std::invalid_argument("Network: input shape " + seed->shape().to_string() +
                                  " does not match node " + std::to_string(resume) + " shape " +
                                  want.to_string());
  const int n = graph_.node_count();
  const std::size_t batch = seeds.size();
  arena_.reserve(plan.total_floats());
  // Runtime numerics guard: poison the planned region so a layer that
  // reads or keeps memory it never wrote produces a recognizable pattern,
  // then scan every output as it is produced.
  const bool guard = runtime_verify_enabled();
  std::vector<VerifyReport> reports(guard ? batch : 0);
  if (guard) arena_.poison(0, plan.total_floats());

  if (acts_.size() < batch) acts_.resize(batch);
  if (lanes_.size() < batch) lanes_.resize(batch);
  const std::span<LaneIO> lanes(lanes_.data(), batch);
  for (std::size_t b = 0; b < batch; ++b) {
    acts_[b].assign(static_cast<std::size_t>(n), Tensor());
    // The seed is read-only, so it views the caller's buffer directly
    // instead of being copied into the arena.
    acts_[b][static_cast<std::size_t>(resume)] =
        Tensor::view(want, const_cast<float*>(seeds[b]->data()));
  }
  float* batch_scratch =
      plan.batch_scratch().floats != 0 ? arena_.slot(plan.batch_scratch().offset) : nullptr;

  for (int id = resume + 1; id < n; ++id) {
    Node& nd = graph_.node(id);
    const std::size_t act = plan.activation(id).offset;
    const PlanSlot& scratch = plan.scratch(id);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t base = b * plan.lane_stride();
      LaneIO& io = lanes[b];
      io.in.clear();
      for (int src : nd.inputs) {
        const Tensor& t = acts_[b][static_cast<std::size_t>(src)];
        if (t.empty()) throw std::logic_error("Network: missing activation at node " + nd.name);
        io.in.push_back(&t);
      }
      io.out = Tensor::view(plan.shape(id), arena_.slot(base + act));
      io.scratch = scratch.floats != 0 ? arena_.slot(base + scratch.offset) : nullptr;
    }
    if (batch == 1)
      nd.layer->forward_into(lanes[0].in, lanes[0].out, train, lanes[0].scratch);
    else
      nd.layer->forward_lanes(lanes, batch_scratch);
    for (std::size_t b = 0; b < batch; ++b) {
      std::vector<Tensor>& acts = acts_[b];
      if (guard) scan_activation(lanes[b].out, id, nd.name, reports[b]);
      acts[static_cast<std::size_t>(id)] = std::move(lanes[b].out);
      if (!train && id != n - 1) {
        // Inference: a source whose last consumer just ran is dead — its
        // arena bytes may be reused by a later node, so drop the view now.
        // Pinned nodes (collected / output) have last_use == n-1 and are
        // never dropped; nothing runs after the final node, so skipping the
        // sweep there keeps naturally-late activations distinguishable.
        for (int src : nd.inputs)
          if (src != resume && plan.last_use(src) == id)
            acts[static_cast<std::size_t>(src)] = Tensor();
      }
    }
  }

  if (guard) {
    VerifyReport merged;  // lane order keeps the report deterministic
    for (const VerifyReport& r : reports)
      merged.findings.insert(merged.findings.end(), r.findings.begin(), r.findings.end());
    enforce(merged, std::string(who) + " (runtime numerics guard)");
  }
}

std::vector<Tensor> Network::forward_collect(const Tensor& input,
                                             const std::vector<int>& collect, bool train) {
  const MemoryPlan& plan = plan_for(collect, train);
  have_activations_ = false;
  const Tensor* seed = &input;
  execute(plan, {&seed, 1}, train, "Network::forward");
  have_activations_ = true;

  // push_back copies the views, which materializes owning tensors — the
  // returned activations are independent of the arena.
  const std::vector<Tensor>& acts = acts_[0];
  std::vector<Tensor> out;
  out.reserve(collect.size() + 1);
  if (collect.empty()) {
    out.push_back(acts[static_cast<std::size_t>(graph_.output_node())]);
  } else {
    for (int id : collect) out.push_back(acts[static_cast<std::size_t>(id)]);
  }
  return out;
}

std::vector<std::vector<Tensor>> Network::forward_collect(const std::vector<const Tensor*>& inputs,
                                                          const std::vector<int>& collect) {
  return run_batched(0, inputs, collect, "Network::forward_collect");
}

std::vector<Tensor> Network::forward_batch(const std::vector<const Tensor*>& inputs) {
  return forward_from_batch(0, inputs);
}

void Network::check_resume(int resume) const {
  const int n = graph_.node_count();
  if (resume < 0 || resume >= n - 1)
    throw std::invalid_argument("Network::forward_from: resume node out of range");
  // A resumed suffix may only read the seed node or nodes after it; an edge
  // reaching behind the seed means `resume` is not an output dominator and
  // the skipped prefix activations would be needed.
  for (int id = resume + 1; id < n; ++id)
    for (const int src : graph_.node(id).inputs)
      if (src < resume)
        throw std::invalid_argument("Network::forward_from: node " + std::to_string(id) +
                                    " reads behind resume node " + std::to_string(resume));
}

Tensor Network::forward_from(int resume, const Tensor& seed) {
  return std::move(forward_from_batch(resume, {&seed})[0]);
}

std::vector<Tensor> Network::forward_from_batch(int resume,
                                                const std::vector<const Tensor*>& seeds) {
  std::vector<std::vector<Tensor>> per_seed =
      run_batched(resume, seeds, {}, "Network::forward_from_batch");
  std::vector<Tensor> outputs;
  outputs.reserve(per_seed.size());
  for (std::vector<Tensor>& o : per_seed) outputs.push_back(std::move(o[0]));
  return outputs;
}

std::size_t Network::lanes_for(std::size_t images) {
  const std::size_t batches = (images + kMaxLanes - 1) / kMaxLanes;
  return batches == 0 ? 1 : (images + batches - 1) / batches;
}

std::vector<std::vector<Tensor>> Network::run_batched(int resume,
                                                      const std::vector<const Tensor*>& seeds,
                                                      const std::vector<int>& collect,
                                                      const char* who) {
  std::vector<std::vector<Tensor>> out(seeds.size());
  if (seeds.empty()) return out;
  for (const Tensor* s : seeds) {
    if (s == nullptr) throw std::invalid_argument(std::string(who) + ": null input");
    if (s->shape() != seeds[0]->shape())
      throw std::invalid_argument(std::string(who) + ": inputs must share one shape");
  }
  check_resume(resume);
  // An inference pass leaves no activations for a backward pass.
  have_activations_ = false;

  const int out_node = graph_.output_node();
  const std::size_t lanes = lanes_for(seeds.size());
  for (std::size_t first = 0; first < seeds.size(); first += lanes) {
    const std::size_t batch = std::min(lanes, seeds.size() - first);
    const MemoryPlan& plan =
        plan_for(collect, /*train=*/false, static_cast<int>(batch), resume);
    execute(plan, {seeds.data() + first, batch}, /*train=*/false, who);
    // Copying a view materializes an owning tensor independent of the arena.
    for (std::size_t b = 0; b < batch; ++b) {
      const std::vector<Tensor>& acts = acts_[b];
      std::vector<Tensor>& o = out[first + b];
      if (collect.empty()) {
        o.push_back(acts[static_cast<std::size_t>(out_node)]);
      } else {
        o.reserve(collect.size());
        for (int id : collect) o.push_back(acts[static_cast<std::size_t>(id)]);
      }
    }
  }
  return out;
}

void Network::backward(const Tensor& grad_output) {
  backward_multi({{graph_.output_node(), grad_output}});
}

void Network::backward_multi(const std::vector<std::pair<int, Tensor>>& seed_grads) {
  if (!have_activations_) throw std::logic_error("Network::backward without forward");
  const int n = graph_.node_count();
  std::vector<Tensor> grad(static_cast<std::size_t>(n));
  for (const auto& [node, g] : seed_grads) {
    if (node < 0 || node >= n) throw std::out_of_range("Network::backward_multi: bad node");
    Tensor& acc = grad[static_cast<std::size_t>(node)];
    if (acc.empty())
      acc = g;
    else
      acc += g;
  }
  for (int id = n - 1; id >= 1; --id) {
    Tensor& g = grad[static_cast<std::size_t>(id)];
    if (g.empty()) continue;  // node not on any path to the output
    Node& nd = graph_.node(id);
    std::vector<Tensor> gin = nd.layer->backward(g);
    if (gin.size() != nd.inputs.size())
      throw std::logic_error("Network::backward: gradient arity mismatch at node " + nd.name);
    for (std::size_t i = 0; i < nd.inputs.size(); ++i) {
      Tensor& acc = grad[static_cast<std::size_t>(nd.inputs[i])];
      if (acc.empty())
        acc = std::move(gin[i]);
      else
        acc += gin[i];
    }
  }
}

std::vector<Tensor*> Network::params() {
  std::vector<Tensor*> out;
  for (int id = 1; id < graph_.node_count(); ++id)
    for (Tensor* p : graph_.node(id).layer->params()) out.push_back(p);
  return out;
}

std::vector<Tensor*> Network::grads() {
  std::vector<Tensor*> out;
  for (int id = 1; id < graph_.node_count(); ++id)
    for (Tensor* g : graph_.node(id).layer->grads()) out.push_back(g);
  return out;
}

void Network::zero_grads() {
  for (int id = 1; id < graph_.node_count(); ++id) graph_.node(id).layer->zero_grads();
}

Shape Network::output_shape() const {
  return graph_.infer_shapes()[static_cast<std::size_t>(graph_.output_node())];
}

}  // namespace netcut::nn
