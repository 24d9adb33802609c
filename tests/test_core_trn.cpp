// TRN construction, cutpoints, head attachment, Pareto utilities.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/pareto.hpp"
#include "core/trn.hpp"
#include "nn/network.hpp"
#include "zoo/zoo.hpp"

namespace netcut::core {
namespace {

TEST(Cutpoints, BlockwiseMatchesBlockEnds) {
  const nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_050, 64);
  const auto cuts = blockwise_cutpoints(trunk);
  EXPECT_EQ(cuts.size(), 13u);
  EXPECT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
  EXPECT_EQ(cuts.back(), trunk.output_node());
}

TEST(Cutpoints, IterativeIsSupersetOfBlockwise) {
  for (auto id : {zoo::NetId::kInceptionV3, zoo::NetId::kResNet50}) {
    const nn::Graph trunk = zoo::build_trunk(id, 64);
    const auto blocks = blockwise_cutpoints(trunk);
    const auto iter = iterative_cutpoints(trunk);
    EXPECT_GT(iter.size(), blocks.size());
    for (int b : blocks)
      EXPECT_NE(std::find(iter.begin(), iter.end(), b), iter.end());
  }
}

TEST(AttachHead, PaperHeadStructure) {
  util::Rng rng(1);
  nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  const int trunk_nodes = trunk.node_count();
  HeadConfig head;
  nn::Graph full = append_head(std::move(trunk), head);
  init_head(full, rng);
  // GAP + (FC, ReLU) x2 + FC + Softmax = 7 new nodes.
  EXPECT_EQ(full.node_count(), trunk_nodes + 7);
  const auto shapes = full.infer_shapes();
  EXPECT_EQ(shapes.back(), tensor::Shape::vec(5));

  // The network is executable and emits a probability distribution.
  nn::Network net(std::move(full));
  util::Rng rng2(2);
  const tensor::Tensor y =
      net.forward(tensor::Tensor::randn(tensor::Shape::chw(3, 32, 32), rng2, 0.5f));
  EXPECT_NEAR(y.sum(), 1.0f, 1e-5f);
}

TEST(AttachHead, RequiresChwTrunkOutput) {
  nn::Graph g;
  g.add_input(tensor::Shape::vec(8));
  EXPECT_THROW(append_head(std::move(g), HeadConfig{}), std::invalid_argument);
}

TEST(BuildTrn, CutReducesSizeMonotonically) {
  util::Rng rng(3);
  const nn::Graph trunk = zoo::build_trunk(zoo::NetId::kResNet50, 64);
  const auto cuts = blockwise_cutpoints(trunk);
  std::int64_t prev_flops = 0;
  for (std::size_t i = 0; i < cuts.size(); i += 5) {
    const nn::Graph trn = build_trn(trunk, cuts[i], HeadConfig{}, rng);
    const std::int64_t flops = trn.total_cost().flops;
    EXPECT_GT(flops, prev_flops);
    prev_flops = flops;
  }
}

TEST(BuildTrn, LayerAccountingConsistent) {
  const nn::Graph trunk = zoo::build_trunk(zoo::NetId::kMobileNetV2_100, 64);
  const auto cuts = blockwise_cutpoints(trunk);
  const int cut = cuts[static_cast<std::size_t>(cuts.size() / 2)];
  EXPECT_EQ(layers_removed(trunk, cut) + layers_remaining(trunk, cut), trunk.layer_count());
  EXPECT_GT(layers_removed(trunk, cut), 0);
  const std::string name = trn_name("MobileNetV2-1.00", trunk, cut);
  EXPECT_EQ(name, "MobileNetV2-1.00/" + std::to_string(layers_remaining(trunk, cut)));
}

TEST(Pareto, DominanceDefinition) {
  const TradeoffPoint fast_accurate{"a", 1.0, 0.9};
  const TradeoffPoint slow_inaccurate{"b", 2.0, 0.8};
  const TradeoffPoint fast_inaccurate{"c", 1.0, 0.8};
  EXPECT_TRUE(dominates(fast_accurate, slow_inaccurate));
  EXPECT_TRUE(dominates(fast_accurate, fast_inaccurate));
  EXPECT_FALSE(dominates(slow_inaccurate, fast_accurate));
  EXPECT_FALSE(dominates(fast_accurate, fast_accurate));
}

TEST(Pareto, FrontierExtraction) {
  std::vector<TradeoffPoint> pts{
      {"a", 1.0, 0.5}, {"b", 2.0, 0.7}, {"c", 3.0, 0.6},  // c dominated by b
      {"d", 0.5, 0.4}, {"e", 4.0, 0.9},
  };
  const auto f = pareto_frontier(pts);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_EQ(f[0].name, "d");
  EXPECT_EQ(f[3].name, "e");
  for (std::size_t i = 1; i < f.size(); ++i) {
    EXPECT_GT(f[i].latency_ms, f[i - 1].latency_ms);
    EXPECT_GT(f[i].accuracy, f[i - 1].accuracy);  // frontier is monotone
  }
}

TEST(Pareto, BestUnderDeadline) {
  std::vector<TradeoffPoint> pts{{"a", 0.3, 0.5}, {"b", 0.8, 0.7}, {"c", 1.5, 0.9}};
  EXPECT_EQ(best_under_deadline(pts, 0.9), 1);
  EXPECT_EQ(best_under_deadline(pts, 10.0), 2);
  EXPECT_EQ(best_under_deadline(pts, 0.1), -1);
}

}  // namespace
}  // namespace netcut::core
