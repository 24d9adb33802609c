// Layer abstraction: every operator in the CNN graphs implements forward_into,
// backward, shape inference, and a hardware-cost descriptor.
//
// Tensors are single images (CHW or a feature vector). A batched inference
// pass hands a layer one LaneIO per image (forward_lanes): Conv2D lowers the
// batch to one GEMM, every other layer runs its images one by one.
// Training is single-image, so BatchNorm runs in inference mode with
// generated/calibrated running statistics during the transfer-learning
// experiments; its training mode uses single-image spatial statistics,
// which is exercised by unit tests and the tiny fine-tuning example.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace netcut::nn {

using tensor::Shape;
using tensor::Tensor;

enum class LayerKind {
  kInput,
  kConv2D,
  kDepthwiseConv2D,
  kDense,
  kBatchNorm,
  kReLU,
  kReLU6,
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kSoftmax,
  kAdd,
  kConcat,
  kFlatten,
};

const char* to_string(LayerKind kind);

/// Static cost descriptor consumed by the hw::DeviceModel and by the
/// analytical latency estimator's feature extractor.
struct LayerCost {
  std::int64_t flops = 0;         // multiply-accumulates counted as 2 ops
  std::int64_t params = 0;        // trainable scalar count
  std::int64_t input_elems = 0;   // activations read
  std::int64_t output_elems = 0;  // activations written
  int kernel = 0;                 // spatial kernel size (0 for non-spatial ops)
};

/// Output elements a forward_lanes chunk should cover before it is worth a
/// pool dispatch: smaller nodes keep their lanes on fewer threads.
inline constexpr std::size_t kLaneParallelElems = std::size_t{1} << 15;

/// One image of a batched inference pass: its input activations, the view
/// its output is written into, and its planned per-image forward scratch
/// (nullptr when the layer asked for none).
struct LaneIO {
  std::vector<const Tensor*> in;
  Tensor out;
  float* scratch = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;
  virtual std::unique_ptr<Layer> clone() const = 0;

  /// Shape of the output given input shapes. Throws on arity/shape mismatch.
  virtual Shape output_shape(const std::vector<Shape>& in) const = 0;

  /// Run the layer into freshly allocated storage of output_shape(...):
  /// forward_into with no planned scratch. With train=true, caches whatever
  /// backward() needs.
  Tensor forward(const std::vector<const Tensor*>& in, bool train);

  /// Run the layer, writing the output into `out` — storage of the exact
  /// output shape, typically an arena view bound by the memory planner.
  /// `scratch` points to forward_scratch_floats(...) floats of per-call
  /// workspace when the caller planned one, nullptr otherwise (the layer
  /// then uses its own buffer). `out` must not alias any input (the planner
  /// guarantees this). The one place a layer implements its forward math.
  virtual void forward_into(const std::vector<const Tensor*>& in, Tensor& out, bool train,
                            float* scratch) = 0;

  /// Per-call forward workspace (in floats) the layer wants planned into
  /// the arena (e.g. Conv2D's im2col column buffer). Zero by default.
  virtual std::size_t forward_scratch_floats(const std::vector<Shape>& in) const;

  /// Inference over a batch of images, `lanes` in image order. Each lane's
  /// output must be bitwise what forward_into(lane.in, lane.out, false,
  /// lane.scratch) writes. `batch_scratch` holds at least
  /// batch_scratch_floats(in, lanes.size()) floats shared by the whole
  /// batch (nullptr when the plan has none). The default runs forward_into
  /// on every lane, the lanes in parallel on the pool, which is only
  /// correct for a layer whose inference forward writes no member state.
  virtual void forward_lanes(std::span<LaneIO> lanes, float* batch_scratch);

  /// Workspace (in floats) forward_lanes wants for `batch` images of input
  /// shapes `in`, beyond each lane's own scratch. Zero by default.
  virtual std::size_t batch_scratch_floats(const std::vector<Shape>& in, int batch) const;

  /// Gradient of the loss w.r.t. each input, given the gradient w.r.t. the
  /// output of the most recent train-mode forward. Accumulates parameter
  /// gradients internally (see grads()).
  virtual std::vector<Tensor> backward(const Tensor& grad_out) = 0;

  virtual std::vector<Tensor*> params() { return {}; }
  /// Parameter gradients, aligned with params(). Sized and zeroed on first
  /// call (or first backward): layers that only run inference hold none.
  virtual std::vector<Tensor*> grads() { return {}; }
  void zero_grads();

  /// Persistent state: parameters plus whatever non-parameter tensors must
  /// survive serialization (BatchNorm running statistics). Serialization
  /// and the verifier's non-finite-parameter scan both walk this list.
  virtual std::vector<Tensor*> state() { return params(); }

  virtual LayerCost cost(const std::vector<Shape>& in) const = 0;

 protected:
  static void require_arity(const std::vector<Shape>& in, int arity, const char* who);
  static void require_arity(const std::vector<const Tensor*>& in, int arity, const char* who);
  /// `grad`, sized like `param` and zeroed when it has no storage yet.
  static Tensor& grad_for(Tensor& grad, const Tensor& param) {
    if (grad.empty()) grad = Tensor(param.shape());
    return grad;
  }
};

}  // namespace netcut::nn
