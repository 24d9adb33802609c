// Owning dense float tensor. Row-major, CHW for activations, OIHW for conv
// weights. Deliberately minimal: the nn layer zoo supplies the math.
//
// A tensor is either *owning* (heap storage in an internal vector) or a
// *view* over externally managed memory (an Arena slot assigned by the
// memory planner). Views never own or free their pointer. Copying any
// tensor — owning or view — materializes an owning deep copy, so a view
// handed out of a planned forward pass (e.g. a collected activation)
// detaches from the arena the moment it escapes; moves preserve view-ness.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/shape.hpp"
#include "util/rng.hpp"

namespace netcut::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);
  Tensor(Shape shape, std::vector<float> values);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  /// Non-owning view over `data` (shape.numel() floats). The caller keeps
  /// the memory alive for the view's lifetime; copying the view detaches.
  static Tensor view(Shape shape, float* data);

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return size_; }
  bool empty() const { return size_ == 0; }

  float* data() { return ptr_; }
  const float* data() const { return ptr_; }

  float& operator[](std::int64_t i) { return ptr_[i]; }
  float operator[](std::int64_t i) const { return ptr_[i]; }

  /// Bounds-checked CHW element access for rank-3 tensors.
  float& at(int c, int h, int w);
  float at(int c, int h, int w) const;
  /// Bounds-checked OIHW element access for rank-4 tensors.
  float& at(int o, int i, int h, int w);
  float at(int o, int i, int h, int w) const;

  void fill(float v);
  /// Copy the elements of `src` (same numel) into this tensor's existing
  /// storage, without reallocating or changing view-ness. The shape is kept.
  void copy_from(const Tensor& src);
  /// Returns a tensor with identical data but a new shape of equal numel.
  Tensor reshaped(Shape new_shape) const;

  // ---- Elementwise helpers (sizes must match) ----
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float s);

  float sum() const;
  float max() const;
  float min() const;
  /// L2 norm of all elements.
  float norm() const;
  /// Mean of all elements.
  float mean() const;

  // ---- Random fills (deterministic given the Rng) ----
  static Tensor randn(Shape shape, util::Rng& rng, float stdev = 1.0f);
  static Tensor uniform(Shape shape, util::Rng& rng, float lo, float hi);

 private:
  void adopt_storage();  // point ptr_/size_ at data_ and count the allocation

  Shape shape_;
  std::vector<float> data_;       // owning storage; empty for views
  float* ptr_ = nullptr;          // data_.data() or the viewed buffer
  std::int64_t size_ = 0;
};

/// Max absolute elementwise difference; shapes must match.
float max_abs_diff(const Tensor& a, const Tensor& b);

/// Process-wide count of owning tensor-storage acquisitions (constructions
/// and deep copies with numel > 0). Monotonic, thread-safe; benchmarks and
/// tests diff it around a region to count heap-allocation traffic.
std::uint64_t tensor_alloc_count();

}  // namespace netcut::tensor
