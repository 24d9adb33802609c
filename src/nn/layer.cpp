#include "nn/layer.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace netcut::nn {

const char* to_string(LayerKind kind) {
  switch (kind) {
    case LayerKind::kInput: return "Input";
    case LayerKind::kConv2D: return "Conv2D";
    case LayerKind::kDepthwiseConv2D: return "DepthwiseConv2D";
    case LayerKind::kDense: return "Dense";
    case LayerKind::kBatchNorm: return "BatchNorm";
    case LayerKind::kReLU: return "ReLU";
    case LayerKind::kReLU6: return "ReLU6";
    case LayerKind::kMaxPool: return "MaxPool";
    case LayerKind::kAvgPool: return "AvgPool";
    case LayerKind::kGlobalAvgPool: return "GlobalAvgPool";
    case LayerKind::kSoftmax: return "Softmax";
    case LayerKind::kAdd: return "Add";
    case LayerKind::kConcat: return "Concat";
    case LayerKind::kFlatten: return "Flatten";
  }
  return "Unknown";
}

Tensor Layer::forward(const std::vector<const Tensor*>& in, bool train) {
  std::vector<Shape> shapes;
  shapes.reserve(in.size());
  for (const Tensor* t : in) shapes.push_back(t->shape());
  Tensor y(output_shape(shapes));
  forward_into(in, y, train, nullptr);
  return y;
}

std::size_t Layer::forward_scratch_floats(const std::vector<Shape>& /*in*/) const { return 0; }

void Layer::forward_lanes(std::span<LaneIO> lanes, float* /*batch_scratch*/) {
  const auto per_lane = std::max<std::size_t>(1, static_cast<std::size_t>(lanes[0].out.numel()));
  const auto grain = static_cast<std::int64_t>((kLaneParallelElems + per_lane - 1) / per_lane);
  util::parallel_for(0, static_cast<std::int64_t>(lanes.size()), grain,
                     [&](std::int64_t b, std::int64_t e) {
                       for (std::int64_t l = b; l < e; ++l) {
                         LaneIO& io = lanes[static_cast<std::size_t>(l)];
                         forward_into(io.in, io.out, /*train=*/false, io.scratch);
                       }
                     });
}

std::size_t Layer::batch_scratch_floats(const std::vector<Shape>& /*in*/, int /*batch*/) const {
  return 0;
}

void Layer::zero_grads() {
  for (Tensor* g : grads()) g->fill(0.0f);
}

void Layer::require_arity(const std::vector<Shape>& in, int arity, const char* who) {
  if (static_cast<int>(in.size()) != arity)
    throw std::invalid_argument(std::string(who) + ": wrong input arity");
}

void Layer::require_arity(const std::vector<const Tensor*>& in, int arity, const char* who) {
  if (static_cast<int>(in.size()) != arity)
    throw std::invalid_argument(std::string(who) + ": wrong input arity");
}

}  // namespace netcut::nn
