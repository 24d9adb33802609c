// nn::verify — the static-analysis wall between graph transforms and
// execution. Three proof obligations:
//  1. zero findings on every real artifact: all seven zoo trunks, every
//     blockwise/iterative TRN cut site, and every memory plan the planner
//     emits in train and inference mode;
//  2. every seeded defect class (cycle, dangling edge, dead node, arity
//     mismatch, shape contradiction, stale shape cache, aliased plan,
//     NaN-poisoned use-before-write, non-finite output/params, illegal cut
//     site) is caught with its stable rule id;
//  3. the verifier is cheap: full graph+plan verification of ResNet-50
//     costs < 5% of one forward pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/trn.hpp"
#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/memory_plan.hpp"
#include "nn/network.hpp"
#include "nn/pooling.hpp"
#include "nn/serialize.hpp"
#include "nn/verify.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

namespace netcut::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Restores the process-wide verify mode when a test exits.
struct ModeGuard {
  VerifyMode saved = verify_mode();
  ~ModeGuard() { set_verify_mode(saved); }
};

Graph diamond_graph() {
  // 0 input -> 1 stem -> {2 a, 3 b} -> 4 add -> 5 out
  Graph g;
  const int in = g.add_input(Shape::chw(2, 8, 8));
  const int stem = g.add(std::make_unique<Conv2D>(2, 4, 3, 1), {in}, "stem");
  const int a = g.add(std::make_unique<Conv2D>(4, 4, 3, 1), {stem}, "a", 0, "blk0");
  const int b = g.add(std::make_unique<Conv2D>(4, 4, 1, 1), {stem}, "b", 0, "blk0");
  const int add = g.add(std::make_unique<Add>(2), {a, b}, "add", 0, "blk0");
  g.add(std::make_unique<ReLU>(false), {add}, "out");
  return g;
}

// ---- 1. Real artifacts verify clean ------------------------------------

TEST(NnVerify, AllZooTrunksVerifyWithZeroFindings) {
  for (const zoo::NetId id : zoo::all_nets()) {
    const Graph g = zoo::build_trunk(id, 32);
    const VerifyReport report = verify_graph(g);
    EXPECT_TRUE(report.findings.empty()) << zoo::net_name(id) << "\n" << report.to_string();
  }
}

TEST(NnVerify, AllZooPlansPassTheIndependentAliasProof) {
  for (const zoo::NetId id : zoo::all_nets()) {
    const Graph g = zoo::build_trunk(id, 32);
    std::vector<int> collect;
    for (const BlockInfo& b : g.blocks()) collect.push_back(b.last_node);
    for (const bool train : {false, true}) {
      for (const std::vector<int>& c : {std::vector<int>{}, collect}) {
        const MemoryPlan plan(g, g.infer_shapes(), c, train);
        const VerifyReport report = verify_plan(g, plan);
        EXPECT_TRUE(report.findings.empty())
            << zoo::net_name(id) << " train=" << train << " collect=" << c.size() << "\n"
            << report.to_string();
      }
    }
  }
}

TEST(NnVerify, EveryBlockwiseCutSiteOfEveryNetIsLegalAndBuildsACleanTrn) {
  util::Rng rng(7);
  for (const zoo::NetId id : zoo::all_nets()) {
    const Graph trunk = zoo::build_trunk(id, 32);
    for (const int cut : core::blockwise_cutpoints(trunk)) {
      EXPECT_TRUE(verify_cut_site(trunk, cut).findings.empty())
          << zoo::net_name(id) << " cut " << cut;
      const Graph trn = core::build_trn(trunk, cut, core::HeadConfig{}, rng);
      const VerifyReport report = verify_graph(trn);
      EXPECT_TRUE(report.findings.empty())
          << zoo::net_name(id) << " cut " << cut << "\n" << report.to_string();
    }
  }
}

TEST(NnVerify, EveryIterativeCutSiteIsLegal) {
  for (const zoo::NetId id : {zoo::NetId::kResNet50, zoo::NetId::kInceptionV3,
                              zoo::NetId::kDenseNet121}) {
    const Graph trunk = zoo::build_trunk(id, 32);
    for (const int cut : core::iterative_cutpoints(trunk))
      EXPECT_TRUE(verify_cut_site(trunk, cut).findings.empty())
          << zoo::net_name(id) << " cut " << cut;
  }
}

// ---- 2. Seeded defect classes ------------------------------------------

TEST(NnVerify, SeededCycleIsCaught) {
  Graph g = diamond_graph();
  g.node(2).inputs = {4};  // 2 <- 4 closes 2 -> 4 -> 2
  g.invalidate_shape_cache();
  const VerifyReport report = verify_graph(g);
  EXPECT_TRUE(report.has(rules::kCycle)) << report.to_string();
  EXPECT_FALSE(report.ok());
}

TEST(NnVerify, SeededDanglingEdgeIsCaught) {
  Graph g = diamond_graph();
  g.node(3).inputs = {99};
  g.invalidate_shape_cache();
  const VerifyReport report = verify_graph(g);
  EXPECT_TRUE(report.has(rules::kDanglingEdge)) << report.to_string();
  EXPECT_FALSE(report.ok());
}

TEST(NnVerify, SeededDeadNodeIsCaught) {
  Graph g;
  const int in = g.add_input(Shape::chw(2, 8, 8));
  const int stem = g.add(std::make_unique<Conv2D>(2, 4, 3, 1), {in}, "stem");
  g.add(std::make_unique<Conv2D>(4, 4, 3, 1), {stem}, "dead");  // nothing consumes this
  g.add(std::make_unique<ReLU>(false), {stem}, "out");
  const VerifyReport report = verify_graph(g);
  EXPECT_TRUE(report.has(rules::kUnreachable)) << report.to_string();
  // Dead nodes are warnings (auxiliary heads are legitimate), not errors.
  EXPECT_TRUE(report.ok());
}

TEST(NnVerify, SeededArityMismatchIsCaught) {
  Graph g = diamond_graph();
  g.node(4).inputs = {2};  // Add declares arity 2
  g.invalidate_shape_cache();
  const VerifyReport report = verify_graph(g);
  EXPECT_TRUE(report.has(rules::kArity)) << report.to_string();
  EXPECT_FALSE(report.ok());
}

TEST(NnVerify, SeededDuplicateEdgeIsCaught) {
  Graph g = diamond_graph();
  g.node(4).inputs = {2, 2};
  g.invalidate_shape_cache();
  EXPECT_TRUE(verify_graph(g).has(rules::kDuplicateEdge));
}

TEST(NnVerify, SeededShapeContradictionIsCaught) {
  Graph g = diamond_graph();
  // Node 3 now demands 8 input channels; its input carries 4.
  g.node(3).layer = std::make_unique<Conv2D>(8, 4, 1, 1);
  g.invalidate_shape_cache();
  const VerifyReport report = verify_graph(g);
  EXPECT_TRUE(report.has(rules::kShape)) << report.to_string();
  EXPECT_FALSE(report.ok());
}

TEST(NnVerify, StaleShapeCacheIsCaught) {
  Graph g = diamond_graph();
  (void)g.infer_shapes();  // populate the cache
  ASSERT_NE(g.cached_shapes(), nullptr);
  // Mutating a node through the non-const accessor without invalidating
  // leaves the cache stale; the verifier's independent re-derivation
  // disagrees with it. GlobalAvgPool keeps the graph well-shaped (CHW in,
  // vector out) so only the cache check can notice.
  g.node(5).layer = std::make_unique<GlobalAvgPool>();
  const VerifyReport stale = verify_graph(g);
  EXPECT_TRUE(stale.has(rules::kShapeCache)) << stale.to_string();
  EXPECT_FALSE(stale.ok());
  g.invalidate_shape_cache();
  EXPECT_TRUE(verify_graph(g).findings.empty());
}

TEST(NnVerify, ShapeCacheInvalidatesOnMutationAndIsSharedByCopies) {
  Graph g = diamond_graph();
  (void)g.infer_shapes();
  ASSERT_NE(g.cached_shapes(), nullptr);
  const Graph copy = g;
  EXPECT_EQ(copy.cached_shapes(), g.cached_shapes());  // shared immutable payload
  g.add(std::make_unique<ReLU>(false), {g.output_node()}, "tail");
  EXPECT_EQ(g.cached_shapes(), nullptr);               // mutation dropped it
  EXPECT_NE(copy.cached_shapes(), nullptr);            // the copy keeps its own
  EXPECT_EQ(g.infer_shapes().size(), 7u);
}

TEST(NnVerify, SeededAliasedPlanIsCaught) {
  // Raw slot proof: two slots that overlap in both time and space.
  VerifyReport raw;
  check_slots({SlotView{1, false, 0, 64, 1, 3}, SlotView{2, false, 32, 64, 2, 4}}, 128, raw);
  EXPECT_TRUE(raw.has(rules::kPlanAlias)) << raw.to_string();

  // End-to-end: a plan built for a chain where node 1 dies at node 2 lets
  // node 3 reuse node 1's bytes. Verified against a graph whose last node
  // still reads node 1, the reuse is an alias and the recorded interval a
  // lie — the independent re-derivation must flag both.
  auto chain = [](int last_input) {
    Graph g;
    const int in = g.add_input(Shape::chw(4, 8, 8));
    const int n1 = g.add(std::make_unique<ReLU>(false), {in}, "n1");
    const int n2 = g.add(std::make_unique<ReLU>(false), {n1}, "n2");
    const int n3 = g.add(std::make_unique<ReLU>(false), {n2}, "n3");
    g.add(std::make_unique<ReLU>(false), {last_input == 1 ? n1 : n3}, "n4");
    return g;
  };
  const Graph honest = chain(3);
  const Graph pinned = chain(1);
  const MemoryPlan plan(honest, honest.infer_shapes(), {}, /*train=*/false);
  ASSERT_TRUE(verify_plan(honest, plan).findings.empty());
  const VerifyReport report = verify_plan(pinned, plan);
  EXPECT_TRUE(report.has(rules::kPlanInterval)) << report.to_string();
  EXPECT_TRUE(report.has(rules::kPlanAlias)) << report.to_string();
}

TEST(NnVerify, SlotBeyondArenaCapacityIsCaught) {
  VerifyReport report;
  check_slots({SlotView{1, false, 96, 64, 1, 2}}, 128, report);
  EXPECT_TRUE(report.has(rules::kPlanCapacity)) << report.to_string();
}

/// A layer that writes only the first half of its output buffer — the
/// use-before-write defect the poison guard exists for.
class HalfWriter final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kReLU; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<HalfWriter>(*this); }
  Shape output_shape(const std::vector<Shape>& in) const override {
    require_arity(in, 1, "HalfWriter");
    return in[0];
  }
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool /*train*/,
                    float* /*scratch*/) override {
    for (std::int64_t i = 0; i < out.numel() / 2; ++i) out[i] = (*in[0])[i];
  }
  std::vector<Tensor> backward(const Tensor& grad_out) override { return {grad_out}; }
  LayerCost cost(const std::vector<Shape>&) const override { return {}; }
};

TEST(NnVerify, PoisonGuardCatchesUseBeforeWrite) {
  ModeGuard guard;
  // HalfWriter consumes the graph input directly so its arena slot cannot
  // reuse bytes some earlier layer already wrote: the unwritten half still
  // carries the poison pattern verbatim when the scan runs.
  Graph g;
  const int in = g.add_input(Shape::chw(2, 8, 8));
  g.add(std::make_unique<HalfWriter>(), {in}, "half");
  util::Rng rng(3);
  init_graph(g, rng);
  Network net(std::move(g));
  const Tensor x = Tensor::randn(Shape::chw(2, 8, 8), rng, 0.5f);

  set_verify_mode(VerifyMode::kStatic);
  EXPECT_NO_THROW(net.forward(x));  // guard off: the bug executes silently

  set_verify_mode(VerifyMode::kRuntime);
  try {
    net.forward(x);
    FAIL() << "poison guard did not fire";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has(rules::kUseBeforeWrite)) << e.what();
  }
}

/// A layer that emits an Inf — the exploding-activation defect.
class InfWriter final : public Layer {
 public:
  LayerKind kind() const override { return LayerKind::kReLU; }
  std::unique_ptr<Layer> clone() const override { return std::make_unique<InfWriter>(*this); }
  Shape output_shape(const std::vector<Shape>& in) const override { return in[0]; }
  void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool /*train*/,
                    float* /*scratch*/) override {
    out.copy_from(*in[0]);
    out[0] = 1e30f;
    out[0] *= 1e30f;  // +inf
  }
  std::vector<Tensor> backward(const Tensor& grad_out) override { return {grad_out}; }
  LayerCost cost(const std::vector<Shape>&) const override { return {}; }
};

TEST(NnVerify, RuntimeGuardCatchesNonFiniteActivations) {
  ModeGuard guard;
  Graph g;
  g.add_input(Shape::chw(2, 4, 4));
  g.add(std::make_unique<InfWriter>(), {0}, "boom");
  Network net(std::move(g));
  util::Rng rng(4);
  const Tensor x = Tensor::randn(Shape::chw(2, 4, 4), rng, 0.5f);
  set_verify_mode(VerifyMode::kRuntime);
  try {
    net.forward(x);
    FAIL() << "numerics guard did not fire";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has(rules::kNonFinite)) << e.what();
  }
}

TEST(NnVerify, RuntimeGuardIsCleanOnARealNet) {
  ModeGuard guard;
  set_verify_mode(VerifyMode::kRuntime);
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  util::Rng rng(5);
  init_graph(g, rng);
  Network net(std::move(g));
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  EXPECT_NO_THROW(net.forward(x));
}

TEST(NnVerify, IllegalCutSiteInsideABlockIsRejected) {
  const Graph trunk = zoo::build_trunk(zoo::NetId::kResNet50, 32);
  const std::vector<int> doms = trunk.output_dominators();
  // Find a block-interior node that is not a dominator: one branch of a
  // residual Add. Cutting there severs the other operand.
  int inside = -1;
  for (int id = 1; id < trunk.node_count() && inside < 0; ++id)
    if (trunk.node(id).block_id >= 0 &&
        !std::binary_search(doms.begin(), doms.end(), id))
      inside = id;
  ASSERT_GT(inside, 0);
  const VerifyReport report = verify_cut_site(trunk, inside);
  EXPECT_TRUE(report.has(rules::kCutSite)) << report.to_string();

  util::Rng rng(6);
  EXPECT_THROW(core::build_trn(trunk, inside, core::HeadConfig{}, rng), VerifyError);
}

TEST(NnVerify, LoadParamsRejectsNonFiniteWeights) {
  Graph g = diamond_graph();
  util::Rng rng(8);
  init_graph(g, rng);
  static_cast<Conv2D&>(*g.node(1).layer).weight()[3] = 1e30f * 1e30f;  // inf
  const std::string path = ::testing::TempDir() + "netcut_verify_nan_params.bin";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    save_params(g, out, path);
  }
  Graph fresh = diamond_graph();
  try {
    std::ifstream in(path, std::ios::binary);
    load_params(fresh, in, path);
    FAIL() << "load_params accepted non-finite weights";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().has(rules::kParamNonFinite)) << e.what();
  }
  std::remove(path.c_str());
}

TEST(NnVerify, CheckHooksAreNoOpsWhenVerificationIsOff) {
  ModeGuard guard;
  set_verify_mode(VerifyMode::kOff);
  Graph g = diamond_graph();
  g.node(4).inputs = {2};  // arity defect
  g.invalidate_shape_cache();
  EXPECT_NO_THROW(check_graph(g, "test"));
  set_verify_mode(VerifyMode::kStatic);
  EXPECT_THROW(check_graph(g, "test"), VerifyError);
}

// ---- 3. Overhead budget ------------------------------------------------

TEST(NnVerify, FullVerificationCostsUnderFivePercentOfAForwardPass) {
  Graph g = zoo::build_trunk(zoo::NetId::kResNet50, 32);
  util::Rng rng(9);
  init_graph(g, rng);
  const MemoryPlan plan(g, g.infer_shapes(), {}, /*train=*/false);
  Network net(g);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  (void)net.forward(x);  // warm up: plan, arena, conv scratch

  using clock = std::chrono::steady_clock;
  auto min_of = [](auto&& fn, int reps) {
    std::chrono::nanoseconds best = std::chrono::nanoseconds::max();
    for (int i = 0; i < reps; ++i) {
      const auto t0 = clock::now();
      fn();
      best = std::min(best, std::chrono::duration_cast<std::chrono::nanoseconds>(
                                clock::now() - t0));
    }
    return best;
  };

  const auto forward_ns = min_of([&] { (void)net.forward(x); }, 3);
  const auto verify_ns = min_of(
      [&] {
        const VerifyReport a = verify_graph(g);
        const VerifyReport b = verify_plan(g, plan);
        ASSERT_TRUE(a.ok() && b.ok());
      },
      3);
  EXPECT_LT(verify_ns.count(), forward_ns.count() / 20)
      << "verify " << verify_ns.count() << " ns vs forward " << forward_ns.count() << " ns";
}

}  // namespace
}  // namespace netcut::nn
