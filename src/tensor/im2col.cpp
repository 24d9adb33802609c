#include "tensor/im2col.hpp"

#include <cstdint>
#include <cstring>
#include <vector>

#include "tensor/backend.hpp"
#include "util/thread_pool.hpp"

namespace netcut::tensor {

namespace {

// Channels are fully independent in both directions (channel c only touches
// its own image plane and its own block of `patch` column rows), so both
// kernels partition the channel range. Per-channel work order is unchanged,
// keeping results bit-identical at any thread count.
constexpr std::int64_t kParallelElemCutoff = 1 << 14;

/// For each kernel tap p and output pixel j, the offset in an input plane
/// that column element (p, j) copies, or -1 where it reads padding: one
/// small table per call turns im2col's bounds tests into a gather, which
/// is what keeps the tiny planes of a 24-32 px trunk cheap. The table lives
/// in the calling thread; workers of the call's parallel_for only read it.
const std::int32_t* tap_offsets(const ConvGeometry& g) {
  static thread_local std::vector<std::int32_t> table;
  const int oh = g.out_h();
  const int ow = g.out_w();
  table.resize(static_cast<std::size_t>(g.patch()) * static_cast<std::size_t>(oh) *
               static_cast<std::size_t>(ow));
  std::int32_t* t = table.data();
  for (int p = 0; p < g.patch(); ++p) {
    const int kh = p / g.kernel_w;
    const int kw = p % g.kernel_w;
    for (int y = 0; y < oh; ++y) {
      const int iy = y * g.stride + kh - g.pad_h;
      for (int x = 0; x < ow; ++x) {
        const int ix = x * g.stride + kw - g.pad_w;
        *t++ = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w ? iy * g.in_w + ix : -1;
      }
    }
  }
  return table.data();
}

/// Rows of channels [c0, c1), `ld` floats apart.
void im2col_channels(const float* img, const ConvGeometry& g, const std::int32_t* taps,
                     float* cols, std::int64_t ld, std::int64_t c0, std::int64_t c1) {
  const std::int64_t hw = static_cast<std::int64_t>(g.out_h()) * g.out_w();
  const int patch = g.patch();
  for (std::int64_t c = c0; c < c1; ++c) {
    const float* chan = img + c * g.in_h * g.in_w;
    for (int p = 0; p < patch; ++p) {
      float* row = cols + (c * patch + p) * ld;
      const std::int32_t* tap = taps + p * hw;
      for (std::int64_t j = 0; j < hw; ++j) row[j] = tap[j] >= 0 ? chan[tap[j]] : 0.0f;
    }
  }
}

void col2im_channels(const float* cols, const ConvGeometry& g, float* img, std::int64_t c0,
                     std::int64_t c1) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int patch = g.patch();
  for (std::int64_t c = c0; c < c1; ++c) {
    float* chan = img + c * g.in_h * g.in_w;
    for (int p = 0; p < patch; ++p) {
      const int kh = p / g.kernel_w;
      const int kw = p % g.kernel_w;
      const float* row = cols + (c * patch + p) * oh * ow;
      for (int y = 0; y < oh; ++y) {
        const int iy = y * g.stride + kh - g.pad_h;
        if (iy < 0 || iy >= g.in_h) continue;
        float* dst = chan + static_cast<std::int64_t>(iy) * g.in_w;
        for (int x = 0; x < ow; ++x) {
          const int ix = x * g.stride + kw - g.pad_w;
          if (ix >= 0 && ix < g.in_w) dst[ix] += row[y * ow + x];
        }
      }
    }
  }
}

void im2col_u8_channels(const std::uint8_t* img, const ConvGeometry& g, std::uint8_t* cols,
                        std::uint8_t zero_point, std::int64_t c0, std::int64_t c1) {
  const int oh = g.out_h();
  const int ow = g.out_w();
  const int patch = g.patch();
  for (std::int64_t c = c0; c < c1; ++c) {
    const std::uint8_t* chan = img + c * g.in_h * g.in_w;
    for (int p = 0; p < patch; ++p) {
      const int kh = p / g.kernel_w;
      const int kw = p % g.kernel_w;
      std::uint8_t* row = cols + (c * patch + p) * oh * ow;
      for (int y = 0; y < oh; ++y) {
        const int iy = y * g.stride + kh - g.pad_h;
        if (iy < 0 || iy >= g.in_h) {
          for (int x = 0; x < ow; ++x) row[y * ow + x] = zero_point;
          continue;
        }
        const std::uint8_t* src = chan + static_cast<std::int64_t>(iy) * g.in_w;
        for (int x = 0; x < ow; ++x) {
          const int ix = x * g.stride + kw - g.pad_w;
          row[y * ow + x] = (ix >= 0 && ix < g.in_w) ? src[ix] : zero_point;
        }
      }
    }
  }
}

std::int64_t channel_grain(const ConvGeometry& g) {
  const std::int64_t per_channel =
      static_cast<std::int64_t>(g.patch()) * g.out_h() * g.out_w();
  if (per_channel <= 0) return 1;
  return (kParallelElemCutoff + per_channel - 1) / per_channel;
}

}  // namespace

int same_pad(int kernel) { return (kernel - 1) / 2; }

void im2col(const float* img, const ConvGeometry& g, float* cols) {
  const std::int64_t hw = static_cast<std::int64_t>(g.out_h()) * g.out_w();
  const std::int64_t work = static_cast<std::int64_t>(g.in_c) * g.patch() * hw;
  const std::int32_t* taps = tap_offsets(g);
  if (work < kParallelElemCutoff) {
    im2col_channels(img, g, taps, cols, hw, 0, g.in_c);
    return;
  }
  util::parallel_for(0, g.in_c, channel_grain(g), [&](std::int64_t c0, std::int64_t c1) {
    im2col_channels(img, g, taps, cols, hw, c0, c1);
  });
}

void im2col_batch(const float* const* imgs, int batch, const ConvGeometry& g, float* cols) {
  const std::int64_t hw = static_cast<std::int64_t>(g.out_h()) * g.out_w();
  const std::int64_t ld = hw * batch;
  // A 1x1 stride-1 unpadded kernel's columns are the image planes.
  const bool copy = g.patch() == 1 && g.stride == 1 && g.pad_h == 0 && g.pad_w == 0;
  const std::int64_t per_channel = g.patch() * ld;
  const std::int64_t grain =
      per_channel > 0 ? (kParallelElemCutoff + per_channel - 1) / per_channel : 1;
  const std::int32_t* taps = copy ? nullptr : tap_offsets(g);
  util::parallel_for(0, g.in_c, grain, [&](std::int64_t c0, std::int64_t c1) {
    for (int b = 0; b < batch; ++b) {
      float* dst = cols + b * hw;
      if (!copy) {
        im2col_channels(imgs[b], g, taps, dst, ld, c0, c1);
        continue;
      }
      for (std::int64_t c = c0; c < c1; ++c)
        std::memcpy(dst + c * ld, imgs[b] + c * hw, sizeof(float) * static_cast<std::size_t>(hw));
    }
  });
}

void im2col_u8(const std::uint8_t* img, const ConvGeometry& g, std::uint8_t* cols,
               std::uint8_t zero_point) {
  const std::int64_t work = static_cast<std::int64_t>(g.in_c) * g.patch() * g.out_h() * g.out_w();
  if (work < kParallelElemCutoff) {
    im2col_u8_channels(img, g, cols, zero_point, 0, g.in_c);
    return;
  }
  util::parallel_for(0, g.in_c, channel_grain(g), [&](std::int64_t c0, std::int64_t c1) {
    im2col_u8_channels(img, g, cols, zero_point, c0, c1);
  });
}

void col2im(const float* cols, const ConvGeometry& g, float* img) {
  const std::int64_t work = static_cast<std::int64_t>(g.in_c) * g.patch() * g.out_h() * g.out_w();
  if (work < kParallelElemCutoff) {
    col2im_channels(cols, g, img, 0, g.in_c);
    return;
  }
  util::parallel_for(0, g.in_c, channel_grain(g), [&](std::int64_t c0, std::int64_t c1) {
    col2im_channels(cols, g, img, c0, c1);
  });
}

void depthwise_conv(const float* img, const float* w, const float* bias, float* out,
                    const ConvGeometry& g, float* scratch) {
  active_backend().depthwise(img, w, bias, out, g, scratch);
}

}  // namespace netcut::tensor
