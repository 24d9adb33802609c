// Tensor shapes. Activations are CHW (we run batch-free, image at a time,
// which keeps the training/inference core simple and cache-friendly on the
// single-core experiment host); weights are OIHW.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace netcut::tensor {

class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<int> dims);
  explicit Shape(std::vector<int> dims);

  int rank() const { return static_cast<int>(dims_.size()); }
  int dim(int i) const;
  int operator[](int i) const { return dim(i); }

  /// Total element count (1 for rank-0).
  std::int64_t numel() const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  const std::vector<int>& dims() const { return dims_; }
  std::string to_string() const;

  // Channel count of a rank-3 CHW activation shape.
  int channels() const { return dim(0); }

  static Shape chw(int c, int h, int w) { return Shape{c, h, w}; }
  static Shape vec(int n) { return Shape{n}; }

 private:
  std::vector<int> dims_;
};

}  // namespace netcut::tensor
