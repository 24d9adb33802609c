// Layer abstraction: every operator in the CNN graphs implements forward_into,
// backward, shape inference, and a hardware-cost descriptor.
//
// Execution is batch-free (one CHW image at a time). BatchNorm consequently
// runs in inference mode with generated/calibrated running statistics during
// the transfer-learning experiments; its training mode uses single-image
// spatial statistics, which is exercised by unit tests and the tiny
// fine-tuning example.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

  /// Gradient of the loss w.r.t. each input, given the gradient w.r.t. the
  /// output of the most recent train-mode forward. Accumulates parameter
  /// gradients internally (see grads()).
  virtual std::vector<Tensor> backward(const Tensor& grad_out) = 0;

  virtual std::vector<Tensor*> params() { return {}; }
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
};

}  // namespace netcut::nn
