#include "tensor/tensor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace netcut::tensor {

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

std::uint64_t tensor_alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }

void Tensor::adopt_storage() {
  ptr_ = data_.data();
  size_ = static_cast<std::int64_t>(data_.size());
  if (size_ > 0) g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(static_cast<std::size_t>(shape_.numel()), fill) {
  adopt_storage();
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (static_cast<std::int64_t>(data_.size()) != shape_.numel())
    throw std::invalid_argument("Tensor: value count does not match shape");
  adopt_storage();
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  data_.assign(other.ptr_, other.ptr_ + other.size_);
  adopt_storage();
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  data_.assign(other.ptr_, other.ptr_ + other.size_);
  adopt_storage();
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept {
  const bool owning = !other.data_.empty();
  shape_ = std::move(other.shape_);
  data_ = std::move(other.data_);
  ptr_ = owning ? data_.data() : other.ptr_;  // views keep their pointer
  size_ = other.size_;
  other.shape_ = Shape();
  other.data_.clear();
  other.ptr_ = nullptr;
  other.size_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  const bool owning = !other.data_.empty();
  shape_ = std::move(other.shape_);
  data_ = std::move(other.data_);
  ptr_ = owning ? data_.data() : other.ptr_;
  size_ = other.size_;
  other.shape_ = Shape();
  other.data_.clear();
  other.ptr_ = nullptr;
  other.size_ = 0;
  return *this;
}

Tensor Tensor::view(Shape shape, float* data) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.ptr_ = data;
  t.size_ = t.shape_.numel();
  return t;
}

namespace {
[[noreturn]] void bad_access() { throw std::out_of_range("Tensor::at: index out of range"); }
}  // namespace

float& Tensor::at(int c, int h, int w) {
  if (shape_.rank() != 3) throw std::logic_error("Tensor::at(c,h,w) on non-rank-3 tensor");
  const int C = shape_[0], H = shape_[1], W = shape_[2];
  if (c < 0 || c >= C || h < 0 || h >= H || w < 0 || w >= W) bad_access();
  return ptr_[(static_cast<std::int64_t>(c) * H + h) * W + w];
}

float Tensor::at(int c, int h, int w) const { return const_cast<Tensor*>(this)->at(c, h, w); }

float& Tensor::at(int o, int i, int h, int w) {
  if (shape_.rank() != 4) throw std::logic_error("Tensor::at(o,i,h,w) on non-rank-4 tensor");
  const int O = shape_[0], I = shape_[1], H = shape_[2], W = shape_[3];
  if (o < 0 || o >= O || i < 0 || i >= I || h < 0 || h >= H || w < 0 || w >= W) bad_access();
  return ptr_[((static_cast<std::int64_t>(o) * I + i) * H + h) * W + w];
}

float Tensor::at(int o, int i, int h, int w) const {
  return const_cast<Tensor*>(this)->at(o, i, h, w);
}

void Tensor::fill(float v) { std::fill(ptr_, ptr_ + size_, v); }

void Tensor::copy_from(const Tensor& src) {
  if (src.size_ != size_) throw std::invalid_argument("Tensor::copy_from: size mismatch");
  if (size_ > 0 && ptr_ != src.ptr_)
    std::memcpy(ptr_, src.ptr_, sizeof(float) * static_cast<std::size_t>(size_));
}

Tensor Tensor::reshaped(Shape new_shape) const {
  if (new_shape.numel() != shape_.numel())
    throw std::invalid_argument("Tensor::reshaped: numel mismatch");
  return Tensor(std::move(new_shape), std::vector<float>(ptr_, ptr_ + size_));
}

namespace {
void require_same_numel(const Tensor& a, const Tensor& b, const char* fn) {
  if (a.numel() != b.numel())
    throw std::invalid_argument(std::string(fn) + ": size mismatch");
}
}  // namespace

Tensor& Tensor::operator+=(const Tensor& rhs) {
  require_same_numel(*this, rhs, "Tensor::operator+=");
  for (std::int64_t i = 0; i < numel(); ++i) ptr_[i] += rhs[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  require_same_numel(*this, rhs, "Tensor::operator-=");
  for (std::int64_t i = 0; i < numel(); ++i) ptr_[i] -= rhs[i];
  return *this;
}

Tensor& Tensor::operator*=(float s) {
  for (std::int64_t i = 0; i < numel(); ++i) ptr_[i] *= s;
  return *this;
}

float Tensor::sum() const {
  double s = 0.0;
  for (std::int64_t i = 0; i < size_; ++i) s += ptr_[i];
  return static_cast<float>(s);
}

float Tensor::max() const {
  if (empty()) throw std::logic_error("Tensor::max on empty tensor");
  return *std::max_element(ptr_, ptr_ + size_);
}

float Tensor::min() const {
  if (empty()) throw std::logic_error("Tensor::min on empty tensor");
  return *std::min_element(ptr_, ptr_ + size_);
}

float Tensor::norm() const {
  double s = 0.0;
  for (std::int64_t i = 0; i < size_; ++i) s += static_cast<double>(ptr_[i]) * ptr_[i];
  return static_cast<float>(std::sqrt(s));
}

float Tensor::mean() const {
  if (empty()) throw std::logic_error("Tensor::mean on empty tensor");
  return sum() / static_cast<float>(numel());
}

Tensor Tensor::randn(Shape shape, util::Rng& rng, float stdev) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, stdev));
  return t;
}

Tensor Tensor::uniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) throw std::invalid_argument("max_abs_diff: shape mismatch");
  float m = 0.0f;
  for (std::int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

}  // namespace netcut::tensor
