// Thread-pool substrate: lifecycle, partitioning edge cases, exception
// propagation, the nested-parallelism rule, and the determinism contract —
// kernel and evaluator outputs must be bit-identical at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/evaluator.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace netcut::util {
namespace {

/// Restores the default pool size when a test exits.
struct PoolGuard {
  ~PoolGuard() { set_num_threads(default_thread_count()); }
};

TEST(ThreadPool, ResizeChangesParticipantCount) {
  PoolGuard guard;
  set_num_threads(4);
  EXPECT_EQ(num_threads(), 4);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);  // clamps to 1
  EXPECT_EQ(num_threads(), 1);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  PoolGuard guard;
  for (const int threads : {1, 3, 8}) {
    set_num_threads(threads);
    for (const std::int64_t range : {1, 2, 7, 64, 1000}) {
      for (const std::int64_t grain : {1, 3, 128}) {
        std::vector<std::atomic<int>> hits(static_cast<std::size_t>(range));
        for (auto& h : hits) h = 0;
        parallel_for(0, range, grain, [&](std::int64_t b, std::int64_t e) {
          ASSERT_LE(b, e);
          for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
        });
        for (std::int64_t i = 0; i < range; ++i)
          EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
              << "threads=" << threads << " range=" << range << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  PoolGuard guard;
  set_num_threads(4);
  bool called = false;
  parallel_for(5, 5, 1, [&](std::int64_t, std::int64_t) { called = true; });
  parallel_for(7, 3, 1, [&](std::int64_t, std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, RangeSmallerThanThreadCount) {
  PoolGuard guard;
  set_num_threads(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h = 0;
  parallel_for(0, 3, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainLargerThanRangeRunsSingleChunk) {
  PoolGuard guard;
  set_num_threads(4);
  std::atomic<int> calls{0};
  parallel_for(0, 10, 100, [&](std::int64_t b, std::int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 10);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, NonPositiveGrainClampsToOne) {
  PoolGuard guard;
  set_num_threads(2);
  std::vector<std::atomic<int>> hits(5);
  for (auto& h : hits) h = 0;
  parallel_for(0, 5, 0, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  PoolGuard guard;
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 100, 1,
                            [&](std::int64_t b, std::int64_t) {
                              if (b == 42) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The pool survives an exception and keeps working.
  std::atomic<int> sum{0};
  parallel_for(0, 10, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyInWorker) {
  PoolGuard guard;
  set_num_threads(4);
  std::atomic<int> outer_hits{0}, inner_hits{0};
  std::atomic<bool> saw_worker_flag{false};
  parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) {
      ++outer_hits;
      if (ThreadPool::in_worker()) saw_worker_flag = true;
      // The nested call must complete inline without deadlocking.
      parallel_for(0, 4, 1, [&](std::int64_t nb, std::int64_t ne) {
        for (std::int64_t j = nb; j < ne; ++j) ++inner_hits;
      });
    }
  });
  EXPECT_EQ(outer_hits.load(), 8);
  EXPECT_EQ(inner_hits.load(), 32);
  EXPECT_TRUE(saw_worker_flag.load());  // with 4 participants some chunk ran on a worker
}

TEST(ThreadPool, DefaultThreadCountIsPositive) { EXPECT_GE(default_thread_count(), 1); }

// --- Determinism contract -------------------------------------------------

template <typename Fn>
std::vector<std::vector<float>> run_at_thread_counts(Fn&& fn) {
  PoolGuard guard;
  std::vector<std::vector<float>> results;
  for (const int threads : {1, 8}) {
    set_num_threads(threads);
    results.push_back(fn());
  }
  return results;
}

void expect_bit_identical(const std::vector<std::vector<float>>& results) {
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].size(), results[1].size());
  ASSERT_FALSE(results[0].empty());
  EXPECT_EQ(std::memcmp(results[0].data(), results[1].data(),
                        results[0].size() * sizeof(float)),
            0);
}

TEST(ThreadDeterminism, GemmBitIdenticalAcrossThreadCounts) {
  Rng rng(11);
  const int m = 67, k = 150, n = 93;  // deliberately tile-unaligned
  const auto a = tensor::Tensor::randn(tensor::Shape{m, k}, rng);
  const auto b = tensor::Tensor::randn(tensor::Shape{k, n}, rng);
  expect_bit_identical(run_at_thread_counts([&] {
    tensor::Tensor c(tensor::Shape{m, n});
    tensor::gemm(a.data(), b.data(), c.data(), m, k, n);
    return std::vector<float>(c.data(), c.data() + c.numel());
  }));
}

TEST(ThreadDeterminism, GemmTransposedVariantsBitIdentical) {
  Rng rng(12);
  const int m = 61, k = 77, n = 129;
  const auto at = tensor::Tensor::randn(tensor::Shape{k, m}, rng);
  const auto bt = tensor::Tensor::randn(tensor::Shape{n, k}, rng);
  const auto a = tensor::Tensor::randn(tensor::Shape{m, k}, rng);
  const auto b = tensor::Tensor::randn(tensor::Shape{k, n}, rng);
  expect_bit_identical(run_at_thread_counts([&] {
    tensor::Tensor c1(tensor::Shape{m, n}), c2(tensor::Shape{m, n});
    tensor::gemm_at(at.data(), b.data(), c1.data(), m, k, n);
    tensor::gemm_bt(a.data(), bt.data(), c2.data(), m, k, n);
    std::vector<float> out(c1.data(), c1.data() + c1.numel());
    out.insert(out.end(), c2.data(), c2.data() + c2.numel());
    return out;
  }));
}

TEST(ThreadDeterminism, ConvForwardBackwardBitIdentical) {
  Rng rng(13);
  const auto x = tensor::Tensor::randn(tensor::Shape::chw(13, 19, 17), rng);
  nn::Conv2D proto(13, 21, 3, 1);
  nn::he_init_conv(proto.weight(), rng);
  const auto gy = tensor::Tensor::randn(tensor::Shape::chw(21, 19, 17), rng);
  expect_bit_identical(run_at_thread_counts([&] {
    nn::Conv2D conv = proto;  // fresh gradients per run
    const tensor::Tensor y = conv.forward({&x}, /*train=*/true);
    const std::vector<tensor::Tensor> gx = conv.backward(gy);
    std::vector<float> out(y.data(), y.data() + y.numel());
    out.insert(out.end(), gx[0].data(), gx[0].data() + gx[0].numel());
    const tensor::Tensor& gw = *conv.grads()[0];
    out.insert(out.end(), gw.data(), gw.data() + gw.numel());
    return out;
  }));
}

TEST(ThreadDeterminism, DepthwiseConvBitIdentical) {
  Rng rng(14);
  const auto x = tensor::Tensor::randn(tensor::Shape::chw(37, 15, 15), rng);
  nn::DepthwiseConv2D proto(37, 3, 1);
  nn::he_init_conv(proto.weight(), rng);
  const auto gy = tensor::Tensor::randn(tensor::Shape::chw(37, 15, 15), rng);
  expect_bit_identical(run_at_thread_counts([&] {
    nn::DepthwiseConv2D conv = proto;
    const tensor::Tensor y = conv.forward({&x}, /*train=*/true);
    const std::vector<tensor::Tensor> gx = conv.backward(gy);
    std::vector<float> out(y.data(), y.data() + y.numel());
    out.insert(out.end(), gx[0].data(), gx[0].data() + gx[0].numel());
    return out;
  }));

  // Stride 2 (its forward splits into three channel-block chunks) and a
  // TRN's 2x2 plane at 528 channels (33 channel blocks; its backward splits
  // the channel range).
  for (const auto& [channels, plane, stride] : {std::tuple{37, 31, 2}, std::tuple{528, 2, 1}}) {
    const auto xs = tensor::Tensor::randn(tensor::Shape::chw(channels, plane, plane), rng);
    nn::DepthwiseConv2D proto_s(channels, 3, stride);
    nn::he_init_conv(proto_s.weight(), rng);
    const auto gys = tensor::Tensor::randn(proto_s.output_shape({xs.shape()}), rng);
    expect_bit_identical(run_at_thread_counts([&] {
      nn::DepthwiseConv2D conv = proto_s;
      const tensor::Tensor y = conv.forward({&xs}, /*train=*/true);
      const std::vector<tensor::Tensor> gx = conv.backward(gys);
      std::vector<float> out(y.data(), y.data() + y.numel());
      out.insert(out.end(), gx[0].data(), gx[0].data() + gx[0].numel());
      return out;
    }));
  }
}

TEST(ThreadDeterminismHeavy, EvaluatorBitIdenticalAcrossThreadCounts) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "trunk pretraining is too slow under TSan";
#endif
  // Same mini configuration as test_integration, so the pretrained-trunk
  // disk cache is shared across the suite.
  data::HandsConfig dc;
  dc.resolution = 24;
  dc.train_count = 80;
  dc.test_count = 40;
  core::EvalConfig ec;
  ec.resolution = 24;
  ec.epochs = 8;
  ec.cache_path = "";  // no memo file: force real recomputation per run
  ec.pretrained.source_images = 80;
  ec.pretrained.epochs = 6;
  const data::HandsDataset dataset(dc);

  PoolGuard guard;
  std::vector<core::AccuracyResult> results;
  for (const int threads : {1, 8}) {
    set_num_threads(threads);
    core::TrnEvaluator evaluator(dataset, ec);
    const auto cuts = evaluator.cutpoints(zoo::NetId::kMobileNetV1_025);
    results.push_back(evaluator.accuracy(zoo::NetId::kMobileNetV1_025, cuts[cuts.size() / 2]));
  }
  // Bitwise equality on the doubles — the determinism contract, not an
  // approximate match.
  EXPECT_EQ(results[0].angular_similarity, results[1].angular_similarity);
  EXPECT_EQ(results[0].top1, results[1].top1);
}

}  // namespace
}  // namespace netcut::util
