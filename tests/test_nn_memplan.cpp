// Memory-planned execution: a pass whose plan reuses arena bytes must be
// bit-identical to the no-reuse reference — the same executor with every
// node collected, which pins every activation to the end of the pass so no
// slot is shared. Same activations, same collected tensors, same parameter
// gradients, in train and inference mode, at any thread count, on real zoo
// trunks and on a TRN whose head joins the trunk through a multi-input
// combine node. Also pins down the point of the exercise: a steady-state
// pass allocates a fixed handful of tensors, its planned activation peak
// sits below the sum of all activations, and an off-shape input is
// rejected instead of overrunning the arena.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/trn.hpp"
#include "data/pretrained.hpp"
#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/memory_plan.hpp"
#include "nn/norm.hpp"
#include "nn/network.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "zoo/zoo.hpp"

namespace netcut::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

/// Restores the default pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { util::set_num_threads(util::default_thread_count()); }
};

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  ASSERT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(float) * static_cast<std::size_t>(a.numel())),
            0)
      << what;
}

/// The no-reuse reference: every node's activation (indexed by node id)
/// from a pass that collects every node, so the plan gives each activation
/// its own slot for the whole pass.
std::vector<Tensor> no_reuse_activations(const Graph& g, const Tensor& x, bool train) {
  Network net(g);
  std::vector<int> all(static_cast<std::size_t>(g.node_count()));
  std::iota(all.begin(), all.end(), 0);
  return net.forward_collect(x, all, train);
}

/// Checks the reusing plans against the no-reuse reference (computed once,
/// at one thread) at threads 1 and 8: the output of a plain forward, and
/// every intermediate through three passes that each collect every third
/// node — the other two thirds keep reusing slots, so an aliasing bug
/// corrupts a collected activation or the output.
void expect_matches_no_reuse(const Graph& g, const Tensor& x, bool train,
                             const std::string& what) {
  PoolGuard guard;
  util::set_num_threads(1);
  const std::vector<Tensor> ref = no_reuse_activations(g, x, train);
  const int n = g.node_count();
  constexpr int kGroups = 3;
  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    const std::string tag =
        what + (train ? " train" : " inference") + " threads=" + std::to_string(threads);
    Network net(g);
    expect_bitwise_equal(net.forward(x, train), ref[static_cast<std::size_t>(g.output_node())],
                         tag + " output");
    for (int r = 0; r < kGroups; ++r) {
      std::vector<int> group;
      for (int id = r; id < n; id += kGroups) group.push_back(id);
      const std::vector<Tensor> got = net.forward_collect(x, group, train);
      ASSERT_EQ(got.size(), group.size());
      for (std::size_t i = 0; i < group.size(); ++i)
        expect_bitwise_equal(got[i], ref[static_cast<std::size_t>(group[i])],
                             tag + " node " + std::to_string(group[i]));
    }
  }
}

Graph initialized_trunk(zoo::NetId id, int resolution, unsigned seed) {
  Graph g = zoo::build_trunk(id, resolution);
  util::Rng rng(seed);
  init_graph(g, rng);
  return g;
}

class MemPlanZoo : public ::testing::TestWithParam<zoo::NetId> {};

TEST_P(MemPlanZoo, InferenceBitIdenticalAcrossThreadCounts) {
  const Graph g = initialized_trunk(GetParam(), 32, 11);
  util::Rng rng(12);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  expect_matches_no_reuse(g, x, /*train=*/false, zoo::net_name(GetParam()));
}

TEST_P(MemPlanZoo, TrainBitIdenticalAcrossThreadCounts) {
  const Graph g = initialized_trunk(GetParam(), 32, 13);
  util::Rng rng(14);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  expect_matches_no_reuse(g, x, /*train=*/true, zoo::net_name(GetParam()));
}

TEST_P(MemPlanZoo, ForwardCollectMatchesNaive) {
  // The production collect set (features harvested at every block end)
  // against the naive layout, where every activation owns its slot.
  const Graph g = initialized_trunk(GetParam(), 32, 21);
  util::Rng rng(22);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  const std::vector<Tensor> ref = no_reuse_activations(g, x, /*train=*/false);
  std::vector<int> collect;
  for (const BlockInfo& b : g.blocks()) collect.push_back(b.last_node);
  Network net(g);
  const auto got = net.forward_collect(x, collect);
  ASSERT_EQ(got.size(), collect.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_bitwise_equal(got[i], ref[static_cast<std::size_t>(collect[i])],
                         "collect[" + std::to_string(i) + "]");
}

TEST_P(MemPlanZoo, PlannedPeakBelowNaiveSum) {
  Graph g = zoo::build_trunk(GetParam(), 32);
  Network net(std::move(g));
  const MemoryPlan& plan = net.plan_for({}, /*train=*/false);
  EXPECT_LT(plan.planned_activation_floats(), plan.naive_activation_floats())
      << zoo::net_name(GetParam());
  EXPECT_GT(plan.planned_activation_floats(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Nets, MemPlanZoo,
                         ::testing::Values(zoo::NetId::kResNet50, zoo::NetId::kMobileNetV2_100,
                                           zoo::NetId::kInceptionV3),
                         [](const ::testing::TestParamInfo<zoo::NetId>& info) {
                           std::string n = zoo::net_name(info.param);
                           for (char& c : n)
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           return n;
                         });

TEST_P(MemPlanZoo, BatchedForwardBitIdenticalToSingleImageForwards) {
  // The serving layer's contract: one batch-N launch through the lane-
  // replicated arena returns exactly what N independent single-image
  // forwards would, at any thread count.
  PoolGuard guard;
  const Graph g = initialized_trunk(GetParam(), 32, 71);
  util::Rng rng(72);
  std::vector<Tensor> images;
  for (int i = 0; i < 5; ++i) images.push_back(Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f));
  std::vector<const Tensor*> inputs;
  for (const Tensor& t : images) inputs.push_back(&t);

  std::vector<Tensor> singles;
  for (const Tensor& t : images)
    singles.push_back(no_reuse_activations(g, t, false)[static_cast<std::size_t>(g.output_node())]);

  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    Network net(g);
    const std::vector<Tensor> batched = net.forward_batch(inputs);
    ASSERT_EQ(batched.size(), images.size());
    for (std::size_t i = 0; i < images.size(); ++i)
      expect_bitwise_equal(batched[i], singles[i],
                           zoo::net_name(GetParam()) + " lane " + std::to_string(i) +
                               " threads=" + std::to_string(threads));
  }
}

TEST_P(MemPlanZoo, BatchedCollectBitIdenticalToSingleImageCollects) {
  // The harvest's contract: a batched forward_collect at every cut site
  // returns exactly what per-image forward_collect calls return, at any
  // batch size (25 spans more than one planned batch) and thread count.
  PoolGuard guard;
  for (const int res : {24, 32}) {
    const Graph g = initialized_trunk(GetParam(), res, 91);
    const std::vector<int> cuts = core::iterative_cutpoints(g);
    util::Rng rng(92);
    std::vector<Tensor> images;
    for (int i = 0; i < 25; ++i)
      images.push_back(Tensor::randn(Shape::chw(3, res, res), rng, 0.5f));
    util::set_num_threads(1);
    std::vector<std::vector<Tensor>> singles;
    {
      Network net(g);
      for (const Tensor& t : images) singles.push_back(net.forward_collect(t, cuts));
    }
    for (const int threads : {1, 8}) {
      util::set_num_threads(threads);
      Network net(g);
      for (const std::size_t batch : {1u, 2u, 7u, 25u}) {
        std::vector<const Tensor*> inputs;
        for (std::size_t i = 0; i < batch; ++i) inputs.push_back(&images[i]);
        const std::vector<std::vector<Tensor>> got = net.forward_collect(inputs, cuts);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t i = 0; i < batch; ++i) {
          ASSERT_EQ(got[i].size(), cuts.size());
          for (std::size_t k = 0; k < cuts.size(); ++k)
            expect_bitwise_equal(got[i][k], singles[i][k],
                                 zoo::net_name(GetParam()) + " res=" + std::to_string(res) +
                                     " batch=" + std::to_string(batch) + " image " +
                                     std::to_string(i) + " node " + std::to_string(cuts[k]) +
                                     " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(MemPlan, BatchedCalibrationBitIdenticalToPerImageLoop) {
  // BatchNorms collecting statistics normalize each image with the sums of
  // every image before it, so a batched calibration is only right if each
  // BatchNorm runs the images in order. 20 images span two planned batches.
  PoolGuard guard;
  util::set_num_threads(8);
  for (const zoo::NetId id : {zoo::NetId::kResNet50, zoo::NetId::kDenseNet121}) {
    const Graph g = initialized_trunk(id, 24, 101);
    util::Rng rng(102);
    std::vector<Tensor> images;
    std::vector<const Tensor*> inputs;
    for (int i = 0; i < 20; ++i)
      images.push_back(Tensor::randn(Shape::chw(3, 24, 24), rng, 0.5f));
    for (const Tensor& t : images) inputs.push_back(&t);

    Network looped(g);
    Network batched(g);
    data::calibrate_batchnorm(batched, inputs);
    std::vector<BatchNorm*> norms;
    for (int n = 1; n < looped.graph().node_count(); ++n)
      if (auto* bn = dynamic_cast<BatchNorm*>(looped.graph().node(n).layer.get()))
        norms.push_back(bn);
    ASSERT_FALSE(norms.empty());
    for (BatchNorm* bn : norms) bn->begin_stat_collection();
    for (const Tensor& t : images) (void)looped.forward(t);
    for (BatchNorm* bn : norms) bn->end_stat_collection();

    for (int n = 1; n < looped.graph().node_count(); ++n) {
      const auto* want = dynamic_cast<const BatchNorm*>(looped.graph().node(n).layer.get());
      if (want == nullptr) continue;
      const auto& got = dynamic_cast<const BatchNorm&>(*batched.graph().node(n).layer);
      const std::string tag = zoo::net_name(id) + " node " + std::to_string(n);
      expect_bitwise_equal(got.running_mean(), want->running_mean(), tag + " mean");
      expect_bitwise_equal(got.running_var(), want->running_var(), tag + " var");
    }
  }
}

TEST(MemPlan, DistinctBatchSizesNeverShareAPlan) {
  // Regression: the plan-cache key must include the batch size — a batch-4
  // pass reusing a batch-1 plan would run lanes 1..3 through unreserved
  // arena memory.
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  Network net(std::move(g));
  const MemoryPlan& p1 = net.plan_for({}, /*train=*/false, 1);
  EXPECT_EQ(p1.batch(), 1);
  const std::size_t lane = p1.lane_stride();
  EXPECT_EQ(p1.arena_floats(), lane);

  const MemoryPlan& p4 = net.plan_for({}, /*train=*/false, 4);
  EXPECT_EQ(p4.batch(), 4);
  EXPECT_EQ(p4.lane_stride(), lane);  // lane 0 layout is the batch-1 layout
  EXPECT_EQ(p4.arena_floats(), 4 * lane);
  EXPECT_NE(&p1, &p4);

  // Asking for batch 1 again must not hand back the batch-4 plan.
  const MemoryPlan& p1_again = net.plan_for({}, /*train=*/false, 1);
  EXPECT_EQ(p1_again.batch(), 1);
  EXPECT_EQ(p1_again.arena_floats(), lane);
}

TEST(MemPlan, BatchedPlansRejectTrainAndBadBatch) {
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  const auto shapes = g.infer_shapes();
  EXPECT_THROW(MemoryPlan(g, shapes, {}, /*train=*/true, 2), std::invalid_argument);
  EXPECT_THROW(MemoryPlan(g, shapes, {}, /*train=*/false, 0), std::invalid_argument);
}

TEST(MemPlan, EveryZooNetPlansBelowNaiveSum) {
  for (const zoo::NetId id : zoo::all_nets()) {
    Graph g = zoo::build_trunk(id, 32);
    Network net(std::move(g));
    const MemoryPlan& inference = net.plan_for({}, /*train=*/false);
    EXPECT_LT(inference.planned_activation_floats(), inference.naive_activation_floats())
        << zoo::net_name(id);
  }
}

TEST(MemPlan, TrainForwardBackwardBitIdentical) {
  // TRN over a MobileNetV2 prefix: the retraining path. The head attaches
  // through the trunk cut, and a train-mode pass must produce the same
  // parameter gradients as the no-reuse reference.
  PoolGuard guard;
  const Graph trunk = initialized_trunk(zoo::NetId::kMobileNetV2_100, 32, 31);
  const auto cuts = core::blockwise_cutpoints(trunk);
  util::Rng rng(32);
  const Graph trn = core::build_trn(trunk, cuts[cuts.size() / 2], core::HeadConfig{}, rng);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  for (const bool train : {false, true}) expect_matches_no_reuse(trn, x, train, "TRN");

  std::vector<int> all(static_cast<std::size_t>(trn.node_count()));
  std::iota(all.begin(), all.end(), 0);
  for (const int threads : {1, 8}) {
    util::set_num_threads(threads);
    Network planned(trn);
    Network reference(trn);
    const Tensor yp = planned.forward(x, /*train=*/true);
    (void)reference.forward_collect(x, all, /*train=*/true);

    util::Rng grad_rng(33);
    const Tensor gout = Tensor::randn(yp.shape(), grad_rng);
    planned.zero_grads();
    reference.zero_grads();
    planned.backward(gout);
    reference.backward(gout);
    const auto gp = planned.grads();
    const auto gr = reference.grads();
    ASSERT_EQ(gp.size(), gr.size());
    for (std::size_t i = 0; i < gp.size(); ++i)
      expect_bitwise_equal(*gp[i], *gr[i],
                           "grad[" + std::to_string(i) + "] threads=" + std::to_string(threads));
  }
}

TEST(MemPlan, MultiInputCombineBitIdentical) {
  // Diamond with an explicit multi-input combine node, train and inference.
  auto diamond = [] {
    Graph g;
    const int in = g.add_input(Shape::chw(2, 8, 8));
    const int stem = g.add(std::make_unique<Conv2D>(2, 4, 3, 1), {in}, "stem");
    const int a = g.add(std::make_unique<Conv2D>(4, 4, 3, 1), {stem}, "a");
    const int b = g.add(std::make_unique<Conv2D>(4, 4, 1, 1), {stem}, "b");
    const int add = g.add(std::make_unique<Add>(2), {a, b}, "add");
    g.add(std::make_unique<ReLU>(false), {add}, "out");
    return g;
  };
  Graph g = diamond();
  util::Rng rng(41);
  init_graph(g, rng);
  const Tensor x = Tensor::randn(Shape::chw(2, 8, 8), rng, 0.5f);
  for (const bool train : {false, true}) expect_matches_no_reuse(g, x, train, "diamond");
}

TEST(MemPlan, RepeatedPlannedForwardsAllocateFarLess) {
  // The acceptance bar for the arena path: a steady-state forward allocates
  // exactly two tensors (the output copied out of the arena, and the copy
  // Network::forward returns) however many nodes the graph has.
  // The first call builds the plan and sizes the arena, so measure from the
  // second call on.
  const Graph g = initialized_trunk(zoo::NetId::kMobileNetV2_100, 32, 51);
  util::Rng rng(52);
  const Tensor x = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);

  Network net(g);
  const Tensor warm = net.forward(x);  // warm-up: plan + arena + conv scratch

  const std::uint64_t c0 = tensor::tensor_alloc_count();
  const Tensor y = net.forward(x);
  const std::uint64_t allocs = tensor::tensor_alloc_count() - c0;

  expect_bitwise_equal(y, warm, "steady-state forward");
  EXPECT_EQ(allocs, 2u);
}

TEST(MemPlan, CollectedTensorsOutliveTheArena) {
  // Collected activations must be deep copies: mutating the network's state
  // with further passes may not change previously harvested tensors.
  const Graph g = initialized_trunk(zoo::NetId::kMobileNetV1_025, 32, 61);
  util::Rng rng(62);
  const Tensor x1 = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  const Tensor x2 = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  Network net(g);
  std::vector<int> collect;
  for (const BlockInfo& b : net.graph().blocks()) collect.push_back(b.last_node);
  auto first = net.forward_collect(x1, collect);
  std::vector<Tensor> snapshot;
  for (const Tensor& t : first) snapshot.push_back(t);
  (void)net.forward_collect(x2, collect);  // overwrites the arena
  for (std::size_t i = 0; i < first.size(); ++i)
    expect_bitwise_equal(first[i], snapshot[i], "harvested[" + std::to_string(i) + "]");
}

TEST(MemPlan, OffShapeInputsAreRejected) {
  // Layers size their work from their inputs while the slots are sized for
  // the declared shape, so an off-shape input would overrun the arena (a
  // larger one) or leave slots half written (a smaller one). Every entry
  // point must throw before any layer runs.
  const Graph g = initialized_trunk(zoo::NetId::kMobileNetV1_025, 32, 81);
  util::Rng rng(82);
  Network net(g);
  const int cut = core::blockwise_cutpoints(g).front();
  for (const int side : {64, 16}) {
    const Tensor x = Tensor::randn(Shape::chw(3, side, side), rng, 0.5f);
    const std::string tag = "side=" + std::to_string(side);
    EXPECT_THROW(net.forward(x), std::invalid_argument) << tag;
    EXPECT_THROW(net.forward(x, /*train=*/true), std::invalid_argument) << tag;
    EXPECT_THROW(net.forward_collect(x, {cut}), std::invalid_argument) << tag;
    EXPECT_THROW(net.forward_batch({&x, &x}), std::invalid_argument) << tag;
    EXPECT_THROW(net.forward_from(0, x), std::invalid_argument) << tag;
    EXPECT_THROW(net.forward_from_batch(0, {&x}), std::invalid_argument) << tag;
  }
  // A resumed pass checks its seed against the resume node's shape.
  const Shape cut_shape = g.infer_shapes()[static_cast<std::size_t>(cut)];
  const Tensor wrong_seed(Shape::chw(cut_shape[0], cut_shape[1] * 2, cut_shape[2] * 2));
  EXPECT_THROW(net.forward_from(cut, wrong_seed), std::invalid_argument);
  EXPECT_THROW(net.forward_from_batch(cut, {&wrong_seed}), std::invalid_argument);

  // The network still runs on a well-shaped input afterwards.
  const Tensor ok = Tensor::randn(Shape::chw(3, 32, 32), rng, 0.5f);
  EXPECT_NO_THROW(net.forward(ok));
}

TEST(MemPlan, PlanIntervalsNeverAliasLiveBuffers) {
  // Structural invariant: two activations whose live intervals overlap must
  // occupy disjoint arena ranges (offsets are in floats; slots are aligned).
  Graph g = zoo::build_trunk(zoo::NetId::kInceptionV3, 32);
  const auto shapes = g.infer_shapes();
  const MemoryPlan plan(g, shapes, {}, /*train=*/false);
  const int n = plan.node_count();
  for (int i = 1; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const bool overlap = i <= plan.last_use(j) && j <= plan.last_use(i);
      if (!overlap) continue;
      const PlanSlot& si = plan.activation(i);
      const PlanSlot& sj = plan.activation(j);
      const bool disjoint =
          si.offset + si.floats <= sj.offset || sj.offset + sj.floats <= si.offset;
      EXPECT_TRUE(disjoint) << "nodes " << i << " and " << j << " alias";
    }
  }
}

}  // namespace
}  // namespace netcut::nn
