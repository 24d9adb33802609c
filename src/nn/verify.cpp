#include "nn/verify.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "nn/combine.hpp"
#include "tensor/arena.hpp"

namespace netcut::nn {

const char* to_string(Severity severity) {
  return severity == Severity::kError ? "error" : "warning";
}

bool VerifyReport::ok() const { return errors() == 0; }

int VerifyReport::errors() const {
  int n = 0;
  for (const Finding& f : findings)
    if (f.severity == Severity::kError) ++n;
  return n;
}

bool VerifyReport::has(const std::string& rule) const {
  for (const Finding& f : findings)
    if (f.rule == rule) return true;
  return false;
}

std::string VerifyReport::to_string() const {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << nn::to_string(f.severity) << " [" << f.rule << "]";
    if (f.node >= 0) out << " node " << f.node;
    out << ": " << f.message << "\n";
  }
  return out.str();
}

void VerifyReport::add(Severity severity, int node, const char* rule, std::string message) {
  findings.push_back(Finding{severity, node, rule, std::move(message)});
}

// ---- Structural lint ---------------------------------------------------

namespace {

/// Declared input arity of a layer: exact count, or minimum when
/// `at_least` is set (Add/Concat accept any declared arity >= 2, but the
/// node's edge list must match the layer's own declared arity exactly).
int declared_arity(const Layer& layer) {
  switch (layer.kind()) {
    case LayerKind::kInput: return 0;
    case LayerKind::kAdd: return static_cast<const Add&>(layer).arity();
    case LayerKind::kConcat: return static_cast<const Concat&>(layer).arity();
    default: return 1;
  }
}

/// Cycle detection by iterative three-color DFS over input edges. The
/// public Graph API makes cycles unconstructible (inputs < id), but the
/// verifier assumes nothing: a remap bug or direct node mutation can
/// produce arbitrary edge lists.
void find_cycles(const Graph& g, VerifyReport& report) {
  const int n = g.node_count();
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(static_cast<std::size_t>(n), kWhite);
  std::vector<std::pair<int, std::size_t>> stack;  // node, next-input index
  for (int root = 0; root < n; ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    stack.emplace_back(root, 0);
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      const std::vector<int>& inputs = g.node(id).inputs;
      if (next >= inputs.size()) {
        color[static_cast<std::size_t>(id)] = kBlack;
        stack.pop_back();
        continue;
      }
      const int src = inputs[next++];
      if (src < 0 || src >= n) continue;  // reported as dangling-edge
      if (color[static_cast<std::size_t>(src)] == kGray) {
        report.add(Severity::kError, id, rules::kCycle,
                   "edge to node " + std::to_string(src) + " closes a cycle");
        return;  // one witness is enough; deeper analysis needs a valid DAG
      }
      if (color[static_cast<std::size_t>(src)] == kWhite) {
        color[static_cast<std::size_t>(src)] = kGray;
        stack.emplace_back(src, 0);
      }
    }
  }
}

}  // namespace

VerifyReport verify_graph(const Graph& graph) {
  VerifyReport report;
  const int n = graph.node_count();
  if (n == 0) {
    report.add(Severity::kError, -1, rules::kInputNode, "graph is empty");
    return report;
  }

  // Node 0 must be the unique Input placeholder.
  if (graph.node(0).layer->kind() != LayerKind::kInput)
    report.add(Severity::kError, 0, rules::kInputNode, "node 0 is not an Input layer");
  if (!graph.node(0).inputs.empty())
    report.add(Severity::kError, 0, rules::kInputNode, "input node has incoming edges");
  for (int id = 1; id < n; ++id)
    if (graph.node(id).layer->kind() == LayerKind::kInput)
      report.add(Severity::kError, id, rules::kInputNode,
                 "second Input layer (graphs have exactly one input)");

  // Edge validity: in range, topologically ordered, no duplicates. A node
  // is `broken` when its edges cannot be trusted for deeper analysis.
  std::vector<bool> broken(static_cast<std::size_t>(n), false);
  for (int id = 1; id < n; ++id) {
    const Node& nd = graph.node(id);
    for (const int src : nd.inputs) {
      if (src < 0 || src >= n) {
        report.add(Severity::kError, id, rules::kDanglingEdge,
                   "input edge to nonexistent node " + std::to_string(src));
        broken[static_cast<std::size_t>(id)] = true;
      } else if (src >= id) {
        report.add(Severity::kError, id, rules::kTopoOrder,
                   "input edge to node " + std::to_string(src) +
                       " violates topological (execution) order");
        broken[static_cast<std::size_t>(id)] = true;
      }
    }
    std::vector<int> sorted = nd.inputs;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      report.add(Severity::kWarning, id, rules::kDuplicateEdge,
                 "the same source node appears twice in the input list");
  }

  find_cycles(graph, report);

  // Arity: the edge list must match the layer's declared arity.
  for (int id = 1; id < n; ++id) {
    const Node& nd = graph.node(id);
    const int want = declared_arity(*nd.layer);
    const int got = static_cast<int>(nd.inputs.size());
    if (got != want) {
      report.add(Severity::kError, id, rules::kArity,
                 std::string(to_string(nd.layer->kind())) + " (" + nd.name + ") declares " +
                     std::to_string(want) + " input(s) but has " + std::to_string(got));
      broken[static_cast<std::size_t>(id)] = true;
    }
  }

  // Shape re-derivation, independent of Graph::infer_shapes: walk nodes in
  // execution order and ask each layer for its output shape. Nodes whose
  // inputs are broken or unknown are skipped rather than cascading.
  std::vector<Shape> derived(static_cast<std::size_t>(n));
  std::vector<bool> known(static_cast<std::size_t>(n), false);
  if (graph.node(0).layer->kind() == LayerKind::kInput) {
    derived[0] = static_cast<const Input&>(*graph.node(0).layer).declared_shape();
    known[0] = true;
  }
  for (int id = 1; id < n; ++id) {
    if (broken[static_cast<std::size_t>(id)]) continue;
    const Node& nd = graph.node(id);
    std::vector<Shape> in;
    in.reserve(nd.inputs.size());
    bool inputs_known = true;
    for (const int src : nd.inputs) {
      if (src < 0 || src >= id || !known[static_cast<std::size_t>(src)]) {
        inputs_known = false;
        break;
      }
      in.push_back(derived[static_cast<std::size_t>(src)]);
    }
    if (!inputs_known) continue;
    try {
      derived[static_cast<std::size_t>(id)] = nd.layer->output_shape(in);
      known[static_cast<std::size_t>(id)] = true;
    } catch (const std::exception& e) {
      report.add(Severity::kError, id, rules::kShape,
                 std::string(to_string(nd.layer->kind())) + " (" + nd.name +
                     ") rejects its input shapes: " + e.what());
    }
  }

  // Cross-check the Graph's cached shape vector (if one is populated)
  // against the independent derivation — catches a stale cache after an
  // invalidation bug as well as divergence between the two shape passes.
  if (const std::vector<Shape>* cached = graph.cached_shapes()) {
    if (static_cast<int>(cached->size()) != n) {
      report.add(Severity::kError, -1, rules::kShapeCache,
                 "cached shape vector holds " + std::to_string(cached->size()) +
                     " entries for " + std::to_string(n) + " nodes");
    } else {
      for (int id = 0; id < n; ++id) {
        if (!known[static_cast<std::size_t>(id)]) continue;
        if ((*cached)[static_cast<std::size_t>(id)] != derived[static_cast<std::size_t>(id)])
          report.add(Severity::kError, id, rules::kShapeCache,
                     "cached shape " + (*cached)[static_cast<std::size_t>(id)].to_string() +
                         " disagrees with re-derived " +
                         derived[static_cast<std::size_t>(id)].to_string());
      }
    }
  }

  // Reachability: a node outside the output's ancestor set computes an
  // activation the final output never consumes. Warning severity: the
  // pretrained generator legitimately grafts auxiliary deep-supervision
  // heads (read back via forward_collect / backward_multi), but a dead
  // node in a plain trunk is a builder or remap bug.
  if (n > 1 && !report.has(rules::kCycle)) {
    std::vector<bool> live(static_cast<std::size_t>(n), false);
    live[static_cast<std::size_t>(n - 1)] = true;
    for (int id = n - 1; id >= 1; --id) {
      if (!live[static_cast<std::size_t>(id)]) continue;
      for (const int src : graph.node(id).inputs)
        if (src >= 0 && src < id) live[static_cast<std::size_t>(src)] = true;
    }
    for (int id = 1; id < n - 1; ++id)
      if (!live[static_cast<std::size_t>(id)])
        report.add(Severity::kWarning, id, rules::kUnreachable,
                   "node (" + graph.node(id).name + ") is not an ancestor of the output: " +
                       "legitimate only for auxiliary (deep-supervision) heads");
  }

  // Blocks: contiguous id runs, each ending at a node that dominates the
  // output (the blockwise cut-site contract). Dominators are only
  // meaningful on a structurally sound DAG.
  const bool structurally_sound =
      !report.has(rules::kCycle) && !report.has(rules::kDanglingEdge) &&
      !report.has(rules::kTopoOrder) && !report.has(rules::kInputNode);
  if (structurally_sound) {
    std::vector<int> seen_last(static_cast<std::size_t>(n), -1);  // block_id -> last node
    int prev_block = -1;
    for (int id = 1; id < n; ++id) {
      const int b = graph.node(id).block_id;
      if (b < 0) {
        prev_block = -1;
        continue;
      }
      if (b != prev_block && b < n && seen_last[static_cast<std::size_t>(b)] >= 0)
        report.add(Severity::kError, id, rules::kBlock,
                   "block " + std::to_string(b) + " is not contiguous");
      if (b < n) seen_last[static_cast<std::size_t>(b)] = id;
      prev_block = b;
    }
    const std::vector<int> doms = graph.output_dominators();
    for (int b = 0; b < n; ++b) {
      const int last = seen_last[static_cast<std::size_t>(b)];
      if (last < 0) continue;
      if (!std::binary_search(doms.begin(), doms.end(), last))
        report.add(Severity::kError, last, rules::kBlock,
                   "block " + std::to_string(b) + " ends at a node that does not dominate " +
                       "the output (illegal blockwise cut site)");
    }
  }

  return report;
}

VerifyReport verify_cut_site(const Graph& trunk, int cut_node) {
  VerifyReport report;
  const int n = trunk.node_count();
  if (cut_node <= 0 || cut_node >= n) {
    report.add(Severity::kError, cut_node, rules::kCutSite,
               "cut site " + std::to_string(cut_node) + " is not a removable node (graph has " +
                   std::to_string(n) + " nodes)");
    return report;
  }
  const std::vector<int> doms = trunk.output_dominators();
  if (!std::binary_search(doms.begin(), doms.end(), cut_node))
    report.add(Severity::kError, cut_node, rules::kCutSite,
               "cut at node (" + trunk.node(cut_node).name + ") does not dominate the trunk " +
                   "output: cutting here severs an Add/Concat operand inside a block");
  return report;
}

// ---- Memory-plan alias proof -------------------------------------------

void check_slots(const std::vector<SlotView>& slots, std::size_t capacity,
                 VerifyReport& report) {
  for (const SlotView& s : slots)
    if (s.offset + s.floats > capacity)
      report.add(Severity::kError, s.node, rules::kPlanCapacity,
                 std::string(s.is_scratch ? "scratch" : "activation") + " slot [" +
                     std::to_string(s.offset) + ", " + std::to_string(s.offset + s.floats) +
                     ") exceeds arena capacity " + std::to_string(capacity));

  // Sort by offset; for each slot only the slots that start before its end
  // can overlap it in space, so the inner scan terminates early.
  std::vector<const SlotView*> by_offset;
  by_offset.reserve(slots.size());
  for (const SlotView& s : slots)
    if (s.floats > 0) by_offset.push_back(&s);
  std::sort(by_offset.begin(), by_offset.end(),
            [](const SlotView* a, const SlotView* b) { return a->offset < b->offset; });
  for (std::size_t i = 0; i < by_offset.size(); ++i) {
    const SlotView& a = *by_offset[i];
    for (std::size_t j = i + 1; j < by_offset.size(); ++j) {
      const SlotView& b = *by_offset[j];
      if (b.offset >= a.offset + a.floats) break;  // no spatial overlap from here on
      if (a.def <= b.last && b.def <= a.last)
        report.add(Severity::kError, a.node, rules::kPlanAlias,
                   std::string(a.is_scratch ? "scratch" : "activation") + " of node " +
                       std::to_string(a.node) + " [" + std::to_string(a.offset) + ", " +
                       std::to_string(a.offset + a.floats) + ") live [" +
                       std::to_string(a.def) + ", " + std::to_string(a.last) + "] aliases " +
                       (b.is_scratch ? "scratch" : "activation") + " of node " +
                       std::to_string(b.node) + " [" + std::to_string(b.offset) + ", " +
                       std::to_string(b.offset + b.floats) + ") live [" +
                       std::to_string(b.def) + ", " + std::to_string(b.last) + "]");
    }
  }
}

VerifyReport verify_plan(const Graph& graph, const MemoryPlan& plan) {
  VerifyReport report;
  const int n = graph.node_count();
  if (plan.node_count() != n) {
    report.add(Severity::kError, -1, rules::kPlanStructure,
               "plan covers " + std::to_string(plan.node_count()) + " nodes, graph has " +
                   std::to_string(n));
    return report;
  }
  if (n < 2) return report;  // nothing is planned for an input-only graph

  std::vector<Shape> shapes;
  try {
    shapes = graph.infer_shapes();
  } catch (const std::exception& e) {
    report.add(Severity::kError, -1, rules::kPlanStructure,
               std::string("graph does not shape-check: ") + e.what());
    return report;
  }

  // Prefix-resume plans execute only nodes past the seed: the seed views
  // caller memory, skipped prefix nodes must own no slot, and no executed
  // node may read behind the seed (the independent re-check of the
  // planner's dominator assumption).
  const int resume = plan.resume();
  if (resume < 0 || resume >= n - 1) {
    report.add(Severity::kError, resume, rules::kPlanStructure, "resume node out of range");
    return report;
  }
  if (resume > 0) {
    if (plan.train()) {
      report.add(Severity::kError, resume, rules::kPlanStructure,
                 "resume plans are inference-only");
      return report;
    }
    for (int id = resume + 1; id < n; ++id)
      for (const int src : graph.node(id).inputs)
        if (src < resume)
          report.add(Severity::kError, id, rules::kPlanStructure,
                     "node " + std::to_string(id) + " reads node " + std::to_string(src) +
                         " behind resume node " + std::to_string(resume));
    for (const int id : plan.collect())
      if (id < resume)
        report.add(Severity::kError, id, rules::kPlanStructure,
                   "collect id precedes resume node");
    for (int id = 1; id <= resume; ++id)
      if (plan.activation(id).floats != 0 || plan.scratch(id).floats != 0)
        report.add(Severity::kError, id, rules::kPlanStructure,
                   "node before resume owns an arena slot");
    if (!report.ok()) return report;
  }

  // Independent live intervals: def -> last consumer, then pin collected
  // nodes and the output to the end of the pass, and everything when the
  // pass retains activations for backward. This re-implements (and must
  // agree with) the planner's interval analysis.
  const int end = n - 1;
  std::vector<int> last(static_cast<std::size_t>(n));
  for (int id = 0; id < n; ++id) last[static_cast<std::size_t>(id)] = id;
  for (int id = 1; id < n; ++id)
    for (const int src : graph.node(id).inputs)
      last[static_cast<std::size_t>(src)] = std::max(last[static_cast<std::size_t>(src)], id);
  for (const int id : plan.collect()) {
    if (id < 0 || id >= n) {
      report.add(Severity::kError, id, rules::kPlanStructure, "collect id out of range");
      return report;
    }
    last[static_cast<std::size_t>(id)] = end;
  }
  last[static_cast<std::size_t>(end)] = end;
  if (plan.train())
    for (int& l : last) l = end;

  std::vector<SlotView> slots;
  slots.reserve(2 * static_cast<std::size_t>(n));
  for (int id = resume + 1; id < n; ++id) {
    const Shape& shape = shapes[static_cast<std::size_t>(id)];
    if (plan.shape(id) != shape)
      report.add(Severity::kError, id, rules::kPlanShape,
                 "plan binds shape " + plan.shape(id).to_string() + " where the graph infers " +
                     shape.to_string());
    if (plan.last_use(id) != last[static_cast<std::size_t>(id)])
      report.add(Severity::kError, id, rules::kPlanInterval,
                 "plan records last use " + std::to_string(plan.last_use(id)) +
                     ", independent analysis finds " +
                     std::to_string(last[static_cast<std::size_t>(id)]));

    const PlanSlot& act = plan.activation(id);
    const auto want_floats = static_cast<std::size_t>(shape.numel());
    if (act.floats != want_floats)
      report.add(Severity::kError, id, rules::kPlanSlotSize,
                 "activation slot holds " + std::to_string(act.floats) + " floats for a " +
                     std::to_string(want_floats) + "-element activation");
    slots.push_back(SlotView{id, false, act.offset, std::max(act.floats, want_floats), id,
                             last[static_cast<std::size_t>(id)]});

    const Node& nd = graph.node(id);
    std::vector<Shape> in;
    in.reserve(nd.inputs.size());
    for (const int src : nd.inputs) in.push_back(shapes[static_cast<std::size_t>(src)]);
    const std::size_t want_scratch = nd.layer->forward_scratch_floats(in);
    const PlanSlot& scr = plan.scratch(id);
    if (scr.floats != want_scratch)
      report.add(Severity::kError, id, rules::kPlanSlotSize,
                 "scratch slot holds " + std::to_string(scr.floats) + " floats, layer asks " +
                     std::to_string(want_scratch));
    if (want_scratch > 0)
      slots.push_back(SlotView{id, true, scr.offset, std::max(scr.floats, want_scratch), id, id});
    // The batch scratch follows every lane and serves one node at a time,
    // so it only has to be large enough for each node's request.
    const std::size_t want_batch = nd.layer->batch_scratch_floats(in, plan.batch());
    if (want_batch > plan.batch_scratch().floats)
      report.add(Severity::kError, id, rules::kPlanSlotSize,
                 "batch scratch holds " + std::to_string(plan.batch_scratch().floats) +
                     " floats, layer asks " + std::to_string(want_batch));
  }
  check_slots(slots, plan.arena_floats(), report);
  return report;
}

// ---- Numerics guard ----------------------------------------------------

namespace {

constexpr std::uint32_t kExpMask = 0x7F800000u;
constexpr std::uint32_t kMantMask = 0x007FFFFFu;

std::uint32_t float_bits(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

void scan_activation(const Tensor& t, int node, const std::string& name,
                     VerifyReport& report) {
  const float* p = t.data();
  const std::int64_t numel = t.numel();
  std::int64_t poison = 0, nonfinite = 0, denormal = 0;
  std::int64_t first_poison = -1, first_nonfinite = -1;
  for (std::int64_t i = 0; i < numel; ++i) {
    // Inspect bit patterns, not float values: poison must match exactly and
    // sNaN payloads must not pass through the FPU on the way to the check.
    const std::uint32_t bits = float_bits(p[i]);
    const std::uint32_t exp = bits & kExpMask;
    if (exp == kExpMask) {
      if ((bits & ~0x80000000u) == tensor::kArenaPoisonBits) {
        ++poison;
        if (first_poison < 0) first_poison = i;
      } else {
        ++nonfinite;
        if (first_nonfinite < 0) first_nonfinite = i;
      }
    } else if (exp == 0 && (bits & kMantMask) != 0) {
      ++denormal;
    }
  }
  if (poison > 0)
    report.add(Severity::kError, node, rules::kUseBeforeWrite,
               "(" + name + ") left " + std::to_string(poison) + "/" + std::to_string(numel) +
                   " output elements poisoned (first at " + std::to_string(first_poison) +
                   "): the layer read or kept memory it never wrote");
  if (nonfinite > 0)
    report.add(Severity::kError, node, rules::kNonFinite,
               "(" + name + ") produced " + std::to_string(nonfinite) + "/" +
                   std::to_string(numel) + " NaN/Inf output elements (first at " +
                   std::to_string(first_nonfinite) + ")");
  // A few denormals are legitimate underflow; a storm (>5% of the tensor)
  // signals vanishing activations and costs orders of magnitude in kernel
  // throughput on x86.
  if (denormal > 0 && denormal * 20 > numel)
    report.add(Severity::kWarning, node, rules::kDenormal,
               "(" + name + ") wrote " + std::to_string(denormal) + "/" +
                   std::to_string(numel) + " denormal output elements");
}

VerifyReport verify_params(const Graph& graph) {
  VerifyReport report;
  for (int id = 1; id < graph.node_count(); ++id) {
    const Node& nd = graph.node(id);
    for (const Tensor* t : nd.layer->state()) {
      const float* p = t->data();
      for (std::int64_t i = 0; i < t->numel(); ++i) {
        if ((float_bits(p[i]) & kExpMask) == kExpMask) {
          report.add(Severity::kError, id, rules::kParamNonFinite,
                     "(" + nd.name + ") carries a non-finite parameter at flat index " +
                         std::to_string(i));
          break;  // one finding per tensor is enough
        }
      }
    }
  }
  return report;
}

// ---- Mode plumbing and hooks -------------------------------------------

namespace {

VerifyMode mode_from_env() {
  const char* e = std::getenv("NETCUT_VERIFY");
  if (e == nullptr) return VerifyMode::kStatic;
  const std::string v(e);
  if (v == "0" || v == "off") return VerifyMode::kOff;
  if (v == "2" || v == "runtime") return VerifyMode::kRuntime;
  return VerifyMode::kStatic;
}

std::atomic<VerifyMode> g_mode{mode_from_env()};

}  // namespace

VerifyMode verify_mode() { return g_mode.load(std::memory_order_relaxed); }
void set_verify_mode(VerifyMode mode) { g_mode.store(mode, std::memory_order_relaxed); }
bool runtime_verify_enabled() { return verify_mode() == VerifyMode::kRuntime; }

VerifyError::VerifyError(std::string context, VerifyReport report)
    : std::invalid_argument(context + ": graph verification failed\n" + report.to_string()),
      context_(std::move(context)),
      report_(std::move(report)) {}

void enforce(const VerifyReport& report, const std::string& context) {
  if (!report.ok()) throw VerifyError(context, report);
}

void check_graph(const Graph& graph, const char* context) {
  if (verify_mode() == VerifyMode::kOff) return;
  enforce(verify_graph(graph), context);
}

void check_plan(const Graph& graph, const MemoryPlan& plan, const char* context) {
  if (verify_mode() == VerifyMode::kOff) return;
  enforce(verify_plan(graph, plan), context);
}

void check_cut_site(const Graph& trunk, int cut_node, const char* context) {
  if (verify_mode() == VerifyMode::kOff) return;
  enforce(verify_cut_site(trunk, cut_node), context);
}

void check_params(const Graph& graph, const char* context) {
  if (verify_mode() == VerifyMode::kOff) return;
  enforce(verify_params(graph), context);
}

}  // namespace netcut::nn
