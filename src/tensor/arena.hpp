// Aligned activation arena: one contiguous 64-byte-aligned float buffer the
// memory planner carves into offset slots. The arena itself does no
// lifetime bookkeeping — nn::MemoryPlan assigns non-overlapping offsets to
// tensors whose live intervals intersect, and execution binds Tensor views
// at those offsets before every planned forward pass.
//
// An arena is not thread-safe: one nn::Network owns it, and the lanes and
// kernels of a batched pass write disjoint slots of it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace netcut::tensor {

/// Bit pattern Arena::poison writes into slots: a signaling NaN with a
/// recognizable payload (exponent all-ones, quiet bit clear, mantissa
/// 0x25A5A5). nn::verify's runtime numerics guard scans layer outputs for
/// this exact pattern to catch use-before-write: a slot the planner bound
/// but the layer never stored to still carries the poison bits verbatim.
inline constexpr std::uint32_t kArenaPoisonBits = 0x7FA5A5A5u;

class Arena {
 public:
  Arena() = default;
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;

  /// Grow capacity to at least `floats` elements. Existing contents are NOT
  /// preserved and any outstanding views are invalidated, so executors
  /// reserve before binding views for a pass. Shrink requests are ignored.
  void reserve(std::size_t floats);

  std::size_t capacity() const { return capacity_; }

  /// Pointer to the slot starting `offset` floats into the buffer. The
  /// caller guarantees offset (+ slot size) <= capacity().
  float* slot(std::size_t offset) { return base_ + offset; }

  /// Fill `floats` elements starting at `offset` with kArenaPoisonBits
  /// (clamped to capacity). The runtime numerics guard poisons the planned
  /// region before a pass so unwritten reads are detectable.
  void poison(std::size_t offset, std::size_t floats);

 private:
  void release();

  float* base_ = nullptr;
  std::size_t capacity_ = 0;
};

}  // namespace netcut::tensor
