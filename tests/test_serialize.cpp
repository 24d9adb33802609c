// Weight serialization round trips and failure modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "data/pretrained.hpp"
#include "nn/init.hpp"
#include "nn/network.hpp"
#include "nn/norm.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"
#include "zoo/zoo.hpp"

namespace netcut::nn {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

void save_file(const Graph& graph, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  save_params(graph, out, path);
}

void load_file(Graph& graph, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  load_params(graph, in, path);
}

TEST(Serialize, RoundTripPreservesEveryParameterAndBnStat) {
  const TempFile file("test_serialize_roundtrip.bin");
  util::Rng rng(5);
  Graph a = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  init_graph(a, rng);
  // Perturb BN running stats so they differ from defaults.
  for (int id = 1; id < a.node_count(); ++id) {
    if (a.node(id).layer->kind() != LayerKind::kBatchNorm) continue;
    auto& bn = static_cast<BatchNorm&>(*a.node(id).layer);
    for (int c = 0; c < bn.channels(); ++c) {
      bn.running_mean()[c] = static_cast<float>(rng.normal(0.0, 0.3));
      bn.running_var()[c] = static_cast<float>(rng.uniform(0.5, 2.0));
    }
  }
  save_file(a, file.path);

  Graph b = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  load_file(b, file.path);

  for (int id = 1; id < a.node_count(); ++id) {
    auto pa = a.node(id).layer->params();
    auto pb = b.node(id).layer->params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t k = 0; k < pa.size(); ++k)
      EXPECT_LT(tensor::max_abs_diff(*pa[k], *pb[k]), 1e-9f);
    if (a.node(id).layer->kind() == LayerKind::kBatchNorm) {
      auto& bna = static_cast<BatchNorm&>(*a.node(id).layer);
      auto& bnb = static_cast<BatchNorm&>(*b.node(id).layer);
      EXPECT_LT(tensor::max_abs_diff(bna.running_mean(), bnb.running_mean()), 1e-9f);
      EXPECT_LT(tensor::max_abs_diff(bna.running_var(), bnb.running_var()), 1e-9f);
    }
  }

  // Identical forward behaviour is the property that actually matters.
  util::Rng probe_rng(6);
  const tensor::Tensor x = tensor::Tensor::randn(tensor::Shape::chw(3, 24, 24), probe_rng);
  Network na(std::move(a)), nb(std::move(b));
  EXPECT_LT(tensor::max_abs_diff(na.forward(x), nb.forward(x)), 1e-9f);
}

TEST(Serialize, LoadAtDifferentResolutionWorks) {
  // Weights are resolution-independent; a file saved from a 24-res trunk
  // must load into a 32-res trunk (the pretrained-cache mechanism).
  const TempFile file("test_serialize_res.bin");
  util::Rng rng(7);
  Graph small = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  init_graph(small, rng);
  save_file(small, file.path);
  Graph big = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 32);
  EXPECT_NO_THROW(load_file(big, file.path));
}

TEST(Serialize, MissingFileThrows) {
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  EXPECT_THROW(load_file(g, "definitely_not_a_file.bin"), std::runtime_error);
}

TEST(Serialize, StructuralMismatchThrows) {
  const TempFile file("test_serialize_mismatch.bin");
  util::Rng rng(8);
  Graph a = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  init_graph(a, rng);
  save_file(a, file.path);
  Graph other = zoo::build_trunk(zoo::NetId::kMobileNetV1_050, 24);
  EXPECT_THROW(load_file(other, file.path), std::runtime_error);
}

TEST(Serialize, CorruptedFileThrows) {
  const TempFile file("test_serialize_corrupt.bin");
  {
    std::ofstream out(file.path, std::ios::binary);
    const char junk[] = "not a weight file at all";
    out.write(junk, sizeof(junk));
  }
  Graph g = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  EXPECT_THROW(load_file(g, file.path), std::runtime_error);
}

TEST(Serialize, TruncatedFileThrows) {
  const TempFile file("test_serialize_truncated.bin");
  util::Rng rng(9);
  Graph a = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  init_graph(a, rng);
  save_file(a, file.path);
  // Chop the file in half.
  std::ifstream in(file.path, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.seekg(0);
  std::vector<char> half(static_cast<std::size_t>(size) / 2);
  in.read(half.data(), static_cast<std::streamsize>(half.size()));
  in.close();
  std::ofstream out(file.path, std::ios::binary | std::ios::trunc);
  out.write(half.data(), static_cast<std::streamsize>(half.size()));
  out.close();
  Graph b = zoo::build_trunk(zoo::NetId::kMobileNetV1_025, 24);
  EXPECT_THROW(load_file(b, file.path), std::runtime_error);
}

}  // namespace
}  // namespace netcut::nn
