#include "nn/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "nn/verify.hpp"
#include "util/thread_pool.hpp"

namespace netcut::nn {

Network::Network(Graph graph) : graph_(std::move(graph)) {
  graph_.infer_shapes();           // validate eagerly (and populate the cache)
  check_graph(graph_, "Network");  // structural lint; no-op when NETCUT_VERIFY=0
}

Network::Network(const Network& other)
    : graph_(other.graph_),
      activations_(other.activations_),
      have_activations_(other.have_activations_),
      plans_(other.plans_) {}

Network& Network::operator=(const Network& other) {
  if (this == &other) return *this;
  graph_ = other.graph_;
  activations_ = other.activations_;
  have_activations_ = other.have_activations_;
  plans_ = other.plans_;
  arena_ = tensor::Arena();
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

void Network::run_lane(const MemoryPlan& plan, std::size_t base, int resume, const Tensor& seed,
                       std::vector<Tensor>& acts, std::vector<const Tensor*>& in, bool train,
                       VerifyReport* guard) {
  // Layers size their work from their inputs, not from the planned slots:
  // a seed of any other shape would write past its slots and the arena.
  const Shape& want = plan.shape(resume);
  if (seed.shape() != want)
    throw std::invalid_argument("Network: input shape " + seed.shape().to_string() +
                                " does not match node " + std::to_string(resume) + " shape " +
                                want.to_string());
  const int n = graph_.node_count();
  // The seed is read-only, so it views the caller's buffer directly instead
  // of being copied into the arena.
  acts[static_cast<std::size_t>(resume)] =
      Tensor::view(seed.shape(), const_cast<float*>(seed.data()));
  for (int id = resume + 1; id < n; ++id) {
    Node& nd = graph_.node(id);
    in.clear();
    for (int src : nd.inputs) {
      const Tensor& t = acts[static_cast<std::size_t>(src)];
      if (t.empty()) throw std::logic_error("Network: missing activation at node " + nd.name);
      in.push_back(&t);
    }
    Tensor out = Tensor::view(plan.shape(id), arena_.slot(base + plan.activation(id).offset));
    float* scratch = plan.scratch(id).floats != 0
                         ? arena_.slot(base + plan.scratch(id).offset)
                         : nullptr;
    nd.layer->forward_into(in, out, train, scratch);
    if (guard != nullptr) scan_activation(out, id, nd.name, *guard);
    acts[static_cast<std::size_t>(id)] = std::move(out);
    if (!train && id != n - 1) {
      // Inference: a source whose last consumer just ran is dead — its arena
      // bytes may be reused by a later node, so drop the view now. Pinned
      // nodes (collected / output) have last_use == n-1 and are never
      // dropped; nothing runs after the final node, so skipping the sweep
      // there keeps naturally-late activations distinguishable from them.
      for (int src : nd.inputs)
        if (src != resume && plan.last_use(src) == id)
          acts[static_cast<std::size_t>(src)] = Tensor();
    }
  }
}

std::vector<Tensor> Network::forward_collect(const Tensor& input,
                                             const std::vector<int>& collect, bool train) {
  const int n = graph_.node_count();
  const MemoryPlan& plan = plan_for(collect, train);
  arena_.reserve(plan.arena_floats());
  // Runtime numerics guard: poison the planned region so a layer that
  // reads or keeps memory it never wrote produces a recognizable pattern,
  // then scan every output as it is produced.
  const bool guard = runtime_verify_enabled();
  VerifyReport guard_report;
  if (guard) arena_.poison(0, plan.arena_floats());

  have_activations_ = false;
  activations_.assign(static_cast<std::size_t>(n), Tensor());
  lane_inputs_.resize(1);
  run_lane(plan, 0, 0, input, activations_, lane_inputs_[0], train,
           guard ? &guard_report : nullptr);
  have_activations_ = true;
  if (guard) enforce(guard_report, "Network::forward (runtime numerics guard)");

  // push_back copies the views, which materializes owning tensors — the
  // returned activations are independent of the arena.
  std::vector<Tensor> out;
  out.reserve(collect.size() + 1);
  if (collect.empty()) {
    out.push_back(activations_[static_cast<std::size_t>(graph_.output_node())]);
  } else {
    for (int id : collect) out.push_back(activations_[static_cast<std::size_t>(id)]);
  }
  return out;
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
  const int batch = static_cast<int>(seeds.size());
  std::vector<Tensor> outputs(seeds.size());
  if (batch == 0) return outputs;
  for (const Tensor* s : seeds) {
    if (s == nullptr) throw std::invalid_argument("Network::forward_from_batch: null seed");
    if (s->shape() != seeds[0]->shape())
      throw std::invalid_argument("Network::forward_from_batch: seeds must share one shape");
  }
  check_resume(resume);

  const int n = graph_.node_count();
  const int out_node = graph_.output_node();
  const MemoryPlan& plan = plan_for({}, /*train=*/false, batch, resume);
  arena_.reserve(plan.arena_floats());
  const bool guard = runtime_verify_enabled();
  std::vector<VerifyReport> lane_reports(guard ? seeds.size() : 0);
  if (guard) arena_.poison(0, plan.arena_floats());
  if (lane_inputs_.size() < seeds.size()) lane_inputs_.resize(seeds.size());

  // Lanes bind views into disjoint arena regions and write disjoint output
  // slots; every layer's inference forward_into is free of member writes
  // once its scratch is planned, so lanes run concurrently. Kernels are
  // deterministic at any thread count, making the pass bitwise identical to
  // `batch` independent single-seed passes however the pool is sized. A
  // single lane is one chunk, which runs inline on the caller, so the
  // kernels inside it still parallelize.
  util::parallel_for(0, batch, 1, [&](std::int64_t lb, std::int64_t le) {
    for (std::int64_t lane = lb; lane < le; ++lane) {
      const std::size_t l = static_cast<std::size_t>(lane);
      std::vector<Tensor> acts(static_cast<std::size_t>(n));
      run_lane(plan, l * plan.lane_stride(), resume, *seeds[l], acts, lane_inputs_[l],
               /*train=*/false, guard ? &lane_reports[l] : nullptr);
      // Copying the view materializes an owning tensor independent of the
      // arena (and of every other lane).
      outputs[l] = acts[static_cast<std::size_t>(out_node)];
    }
  });
  // An inference pass leaves no activations for a backward pass.
  have_activations_ = false;
  activations_.clear();

  if (guard) {
    VerifyReport merged;  // lane order keeps the report deterministic
    for (const VerifyReport& r : lane_reports)
      merged.findings.insert(merged.findings.end(), r.findings.begin(), r.findings.end());
    enforce(merged, "Network::forward_from_batch (runtime numerics guard)");
  }
  return outputs;
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
