#include "quant/qnetwork.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/pooling.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace netcut::quant {

namespace {

/// Offsets inside the int8 arena are handed out 64-byte aligned so the i32
/// accumulator region is naturally aligned and GEMM panels start on cache
/// lines.
std::size_t align64(std::size_t bytes) { return (bytes + 63) & ~std::size_t{63}; }

/// Floats per requantization chunk (a stack buffer).
constexpr int kChunk = 256;

/// Per-output-channel sums of the int8 weights. Folding the activation zero
/// point through these is exact: sum (a - zp) * w == sum a*w - zp * sum w
/// in integer arithmetic, so the raw-product s8u8 GEMM loses nothing.
std::vector<std::int32_t> weight_rowsums(const ChannelQuant& qw, int out_channels) {
  std::vector<std::int32_t> sums(static_cast<std::size_t>(out_channels), 0);
  const std::size_t per = qw.values.size() / static_cast<std::size_t>(out_channels);
  for (int o = 0; o < out_channels; ++o) {
    const std::int8_t* row = qw.values.data() + static_cast<std::size_t>(o) * per;
    std::int32_t s = 0;
    for (std::size_t i = 0; i < per; ++i) s += row[i];
    sums[static_cast<std::size_t>(o)] = s;
  }
  return sums;
}

/// Channels per block of the integer depthwise kernel: 16 i32 lanes are two
/// AVX2 vectors per tap.
constexpr int kDwLanes = 16;

/// Depthwise int8 weights [C, K*K] -> per channel block, tap-major lanes:
/// taps[(b * K*K + t) * kDwLanes + j] = w[b * kDwLanes + j][t], zero past
/// the last channel.
std::vector<std::int32_t> depthwise_taps(const ChannelQuant& qw, int channels) {
  const int taps = static_cast<int>(qw.values.size() / static_cast<std::size_t>(channels));
  const int blocks = (channels + kDwLanes - 1) / kDwLanes;
  std::vector<std::int32_t> out(static_cast<std::size_t>(blocks) * taps * kDwLanes, 0);
  for (int c = 0; c < channels; ++c)
    for (int t = 0; t < taps; ++t)
      out[(static_cast<std::size_t>(c / kDwLanes) * taps + t) * kDwLanes + c % kDwLanes] =
          qw.values[static_cast<std::size_t>(c) * taps + t];
  return out;
}

/// Channel blocks per pool chunk of the integer depthwise; chunk boundaries
/// depend only on the geometry.
std::int64_t depthwise_grain(const tensor::ConvGeometry& g) {
  const std::int64_t block_ops = 2LL * g.patch() * g.out_h() * g.out_w() * kDwLanes;
  return ((1 << 16) + block_ops - 1) / block_ops;
}

/// Bytes of one padded HWC input tile of a channel block (widened to i32,
/// so the tap loop is plain same-width integer multiply-adds).
std::size_t depthwise_tile_bytes(const tensor::ConvGeometry& g) {
  return align64(static_cast<std::size_t>(g.in_h + 2 * g.pad_h) *
                 static_cast<std::size_t>(g.in_w + 2 * g.pad_w) * kDwLanes * sizeof(std::int32_t));
}

/// Scratch bytes of the integer depthwise: one tile per pool chunk.
std::size_t depthwise_tiles_bytes(const tensor::ConvGeometry& g) {
  const std::int64_t blocks = (g.in_c + kDwLanes - 1) / kDwLanes;
  const std::int64_t grain = depthwise_grain(g);
  return static_cast<std::size_t>((blocks + grain - 1) / grain) * depthwise_tile_bytes(g);
}

/// Raw depthwise products acc[c][pixel] = sum over all K*K taps of w * a,
/// with the input padded by `zero_point`, which folds out through the
/// per-channel rowsums exactly as im2col_u8's padding does. Each block of
/// kDwLanes channels is transposed into a padded HWC tile, so one tap of one
/// pixel is a kDwLanes-wide integer multiply-add. Each pool chunk reuses its
/// own tile in `tiles` (depthwise_tiles_bytes), so chunks write disjoint
/// bytes.
/// Integer sums are exact, so the result is the same on every backend and
/// at any thread count.
void depthwise_s8u8(const std::uint8_t* x, const std::int32_t* taps, const tensor::ConvGeometry& g,
                    std::int32_t zero_point, std::uint8_t* tiles, std::int32_t* acc) {
  const int ih = g.in_h, iw = g.in_w, pad = g.pad_h;
  const int ph = ih + 2 * pad, pw = iw + 2 * pad;
  const int oh = g.out_h(), ow = g.out_w();
  const int kernel = g.kernel_h, stride = g.stride;
  const int kk = kernel * kernel;
  const std::int64_t ihw = static_cast<std::int64_t>(ih) * iw;
  const std::int64_t ohw = static_cast<std::int64_t>(oh) * ow;
  const std::int64_t blocks = (g.in_c + kDwLanes - 1) / kDwLanes;
  const std::int64_t grain = depthwise_grain(g);
  util::parallel_for(0, blocks, grain, [&](std::int64_t b0, std::int64_t b1) {
    auto* tile = reinterpret_cast<std::int32_t*>(
        tiles + static_cast<std::size_t>(b0 / grain) * depthwise_tile_bytes(g));
    for (std::int64_t b = b0; b < b1; ++b) {
      const int c0 = static_cast<int>(b) * kDwLanes;
      const int lanes = std::min(kDwLanes, g.in_c - c0);
      std::fill(tile, tile + static_cast<std::int64_t>(ph) * pw * kDwLanes, zero_point);
      for (int j = 0; j < lanes; ++j) {
        const std::uint8_t* chan = x + (c0 + j) * ihw;
        for (int iy = 0; iy < ih; ++iy) {
          std::int32_t* dst = tile + (static_cast<std::int64_t>(iy + pad) * pw + pad) * kDwLanes + j;
          for (int ix = 0; ix < iw; ++ix) dst[ix * kDwLanes] = chan[iy * iw + ix];
        }
      }
      const std::int32_t* wb = taps + b * kk * kDwLanes;
      for (int yo = 0; yo < oh; ++yo)
        for (int xo = 0; xo < ow; ++xo) {
          std::int32_t sum[kDwLanes] = {};
          for (int kh = 0; kh < kernel; ++kh) {
            const std::int32_t* row =
                tile + (static_cast<std::int64_t>(yo * stride + kh) * pw + xo * stride) * kDwLanes;
            const std::int32_t* wrow = wb + kh * kernel * kDwLanes;
            for (int kw = 0; kw < kernel; ++kw)
              for (int j = 0; j < kDwLanes; ++j)
                sum[j] += wrow[kw * kDwLanes + j] * row[kw * kDwLanes + j];
          }
          for (int j = 0; j < lanes; ++j) acc[(c0 + j) * ohw + yo * ow + xo] = sum[j];
        }
    }
  });
}

/// Requantize raw s8u8 accumulators into the node's uint8 activation slot:
/// float = (acc - zp * rowsum) * (w_scale * in_scale) + bias. The floats
/// fill a stack chunk across row boundaries, so the many one- and four-pixel
/// rows of a cut trunk still reach quantize_row in full chunks.
void requantize_rows(const std::int32_t* acc, int rows, int cols, const std::vector<float>& scales,
                     const std::vector<std::int32_t>& rowsums, const QuantParams& in_p,
                     const float* bias, const QuantParams& out_p, std::uint8_t* out) {
  float buf[kChunk];
  int filled = 0;
  for (int o = 0; o < rows; ++o) {
    const float requant = scales[static_cast<std::size_t>(o)] * in_p.scale;
    const std::int32_t fold = in_p.zero_point * rowsums[static_cast<std::size_t>(o)];
    const float b = bias ? bias[o] : 0.0f;
    const std::int32_t* arow = acc + static_cast<std::int64_t>(o) * cols;
    for (int j = 0; j < cols;) {
      const int len = std::min(cols - j, kChunk - filled);
      for (int t = 0; t < len; ++t)
        buf[filled + t] = static_cast<float>(arow[j + t] - fold) * requant + b;
      filled += len;
      j += len;
      if (filled == kChunk) {
        quantize_row(buf, kChunk, out_p, out);  // out is contiguous, row after row
        out += kChunk;
        filled = 0;
      }
    }
  }
  quantize_row(buf, static_cast<std::size_t>(filled), out_p, out);
}

/// 256-entry uint8 -> float dequantization table.
std::array<float, 256> dequant_lut(const QuantParams& p) {
  std::array<float, 256> lut{};
  for (int v = 0; v < 256; ++v)
    lut[static_cast<std::size_t>(v)] = dequantize_value(static_cast<std::uint8_t>(v), p);
  return lut;
}

/// 256-entry uint8 -> uint8 requantization table for `f` applied in float.
template <typename F>
std::array<std::uint8_t, 256> requant_lut(const QuantParams& in_p, const QuantParams& out_p,
                                          F&& f) {
  std::array<std::uint8_t, 256> lut{};
  for (int v = 0; v < 256; ++v)
    lut[static_cast<std::size_t>(v)] =
        quantize_value(f(dequantize_value(static_cast<std::uint8_t>(v), in_p)), out_p);
  return lut;
}

}  // namespace

QuantizedNetwork::QuantizedNetwork(nn::Graph fused_graph) : net_(std::move(fused_graph)) {
  // Round-trip every conv/depthwise/dense weight through per-channel int8
  // now; the information loss is baked into the stored weights, and the
  // integer form (values packed once into GEMM panels, or depthwise tap
  // lanes; scales; per-channel rowsums) is kept for forward_int8.
  for (int id = 1; id < net_.graph().node_count(); ++id) {
    nn::Layer& layer = *net_.graph().node(id).layer;
    tensor::Tensor* w = nullptr;
    int out_channels = 0;
    switch (layer.kind()) {
      case nn::LayerKind::kConv2D: {
        auto& conv = static_cast<nn::Conv2D&>(layer);
        w = &conv.weight();
        out_channels = conv.out_channels();
        break;
      }
      case nn::LayerKind::kDepthwiseConv2D: {
        auto& conv = static_cast<nn::DepthwiseConv2D&>(layer);
        w = &conv.weight();
        out_channels = conv.channels();
        break;
      }
      case nn::LayerKind::kDense: {
        auto& dense = static_cast<nn::Dense&>(layer);
        w = &dense.weight();
        out_channels = dense.out_features();
        break;
      }
      default: break;
    }
    if (!w) continue;
    ChannelQuant q = quantize_weights_per_channel(*w);
    const tensor::Tensor restored = dequantize_weights(q, w->shape());
    max_weight_error_ = std::max(max_weight_error_, tensor::max_abs_diff(*w, restored));
    *w = restored;
    NodeWeights nw;
    nw.rowsums = weight_rowsums(q, out_channels);
    if (layer.kind() == nn::LayerKind::kDepthwiseConv2D)
      nw.taps = depthwise_taps(q, out_channels);
    else
      nw.panels = tensor::pack_s8_panels(q.values.data(), out_channels,
                                         static_cast<int>(w->numel() / out_channels));
    nw.scales = std::move(q.scales);
    node_weights_.emplace(id, std::move(nw));
  }
}

void QuantizedNetwork::calibrate(const std::vector<const tensor::Tensor*>& images,
                                 const CalibrationConfig& config) {
  scales_ = calibrate_activations(net_, images, config);
  const nn::Graph& g = net_.graph();
  tables_.assign(static_cast<std::size_t>(g.node_count()), NodeTables{});
  for (int id = 1; id < g.node_count(); ++id) {
    const nn::Node& nd = g.node(id);
    NodeTables& t = tables_[static_cast<std::size_t>(id)];
    const QuantParams& out_p = scales_.at(id);
    switch (nd.layer->kind()) {
      case nn::LayerKind::kReLU:
      case nn::LayerKind::kReLU6: {
        const bool clip6 = nd.layer->kind() == nn::LayerKind::kReLU6;
        t.requant = requant_lut(scales_.at(nd.inputs[0]), out_p, [clip6](float v) {
          v = std::max(v, 0.0f);
          return clip6 ? std::min(v, 6.0f) : v;
        });
        break;
      }
      case nn::LayerKind::kFlatten:
      case nn::LayerKind::kMaxPool:
        t.requant = requant_lut(scales_.at(nd.inputs[0]), out_p, [](float v) { return v; });
        break;
      case nn::LayerKind::kAdd:
        for (int src : nd.inputs) t.dequant.push_back(dequant_lut(scales_.at(src)));
        break;
      default: break;
    }
  }
}

void QuantizedNetwork::plan_int8(const tensor::Shape& in_shape) {
  nn::Graph& g = net_.graph();
  const int n = g.node_count();
  Int8Plan plan;
  plan.in_shape = in_shape;
  plan.shapes.resize(static_cast<std::size_t>(n));
  plan.act_offsets.resize(static_cast<std::size_t>(n));
  plan.shapes[0] = in_shape;

  std::size_t bytes = 0;
  std::size_t cols_bytes = 0;
  std::size_t acc_bytes = 0;
  for (int id = 0; id < n; ++id) {
    if (id > 0) {
      const nn::Node& nd = g.node(id);
      std::vector<tensor::Shape> in;
      in.reserve(nd.inputs.size());
      for (int src : nd.inputs) in.push_back(plan.shapes[static_cast<std::size_t>(src)]);
      plan.shapes[static_cast<std::size_t>(id)] = nd.layer->output_shape(in);
    }
    plan.act_offsets[static_cast<std::size_t>(id)] = bytes;
    bytes += align64(static_cast<std::size_t>(plan.shapes[static_cast<std::size_t>(id)].numel()));

    const nn::Node& nd = g.node(id);
    if (id > 0 && nd.layer->kind() == nn::LayerKind::kConv2D) {
      const auto& conv = static_cast<const nn::Conv2D&>(*nd.layer);
      const tensor::ConvGeometry geo =
          conv.geometry(plan.shapes[static_cast<std::size_t>(nd.inputs[0])]);
      const std::size_t pixels =
          static_cast<std::size_t>(geo.out_h()) * static_cast<std::size_t>(geo.out_w());
      if (!conv.im2col_is_identity())
        cols_bytes = std::max(cols_bytes, static_cast<std::size_t>(geo.in_c) *
                                              static_cast<std::size_t>(geo.patch()) * pixels);
      acc_bytes = std::max(acc_bytes,
                           static_cast<std::size_t>(conv.out_channels()) * pixels * sizeof(std::int32_t));
    } else if (id > 0 && nd.layer->kind() == nn::LayerKind::kDepthwiseConv2D) {
      const auto& dw = static_cast<const nn::DepthwiseConv2D&>(*nd.layer);
      const tensor::ConvGeometry geo =
          dw.geometry(plan.shapes[static_cast<std::size_t>(nd.inputs[0])]);
      cols_bytes = std::max(cols_bytes, depthwise_tiles_bytes(geo));
      acc_bytes = std::max(acc_bytes, static_cast<std::size_t>(dw.channels()) *
                                          static_cast<std::size_t>(geo.out_h() * geo.out_w()) *
                                          sizeof(std::int32_t));
    } else if (id > 0 && nd.layer->kind() == nn::LayerKind::kDense) {
      const auto& dense = static_cast<const nn::Dense&>(*nd.layer);
      acc_bytes =
          std::max(acc_bytes, static_cast<std::size_t>(dense.out_features()) * sizeof(std::int32_t));
    } else if (id > 0 && nd.layer->kind() == nn::LayerKind::kAdd) {
      const std::size_t count =
          static_cast<std::size_t>(plan.shapes[static_cast<std::size_t>(id)].numel());
      acc_bytes = std::max(acc_bytes, count * sizeof(float));  // the float sums
    }
  }
  plan.cols_offset = bytes;
  bytes += align64(cols_bytes);
  plan.acc_offset = bytes;
  bytes += align64(acc_bytes);
  plan.total_floats = (bytes + sizeof(float) - 1) / sizeof(float);

  int8_arena_.reserve(plan.total_floats);
  int8_plan_ = std::move(plan);
}

tensor::Tensor QuantizedNetwork::forward_int8(const tensor::Tensor& input) {
  if (!calibrated()) throw std::logic_error("QuantizedNetwork: calibrate first");
  if (int8_plan_.shapes.empty() || !(int8_plan_.in_shape == input.shape()))
    plan_int8(input.shape());
  const Int8Plan& plan = int8_plan_;

  nn::Graph& g = net_.graph();
  const int n = g.node_count();
  std::uint8_t* base = reinterpret_cast<std::uint8_t*>(int8_arena_.slot(0));
  const auto act = [&](int id) { return base + plan.act_offsets[static_cast<std::size_t>(id)]; };
  const auto numel = [&](int id) {
    return static_cast<std::size_t>(plan.shapes[static_cast<std::size_t>(id)].numel());
  };

  // Input node: quantize once with the calibrated input params.
  {
    const QuantParams& p0 = scales_.at(0);
    const float* x = input.data();
    std::uint8_t* q = act(0);
    const std::size_t count = numel(0);
    for (std::size_t i = 0; i < count; ++i) q[i] = quantize_value(x[i], p0);
  }

  for (int id = 1; id < n; ++id) {
    const nn::Node& nd = g.node(id);
    const int src0 = nd.inputs.empty() ? 0 : nd.inputs[0];
    const QuantParams& in_p = scales_.at(src0);
    const QuantParams& out_p = scales_.at(id);
    const tensor::Shape& in_shape = plan.shapes[static_cast<std::size_t>(src0)];
    const NodeTables& tables = tables_[static_cast<std::size_t>(id)];

    switch (nd.layer->kind()) {
      case nn::LayerKind::kConv2D: {
        const auto& conv = static_cast<const nn::Conv2D&>(*nd.layer);
        const NodeWeights& nw = node_weights_.at(id);
        const tensor::ConvGeometry geo = conv.geometry(in_shape);
        const int pixels = geo.out_h() * geo.out_w();
        const std::uint8_t* cols = act(src0);
        if (!conv.im2col_is_identity()) {
          std::uint8_t* buf = base + plan.cols_offset;
          tensor::im2col_u8(act(src0), geo, buf, static_cast<std::uint8_t>(in_p.zero_point));
          cols = buf;
        }
        auto* acc = reinterpret_cast<std::int32_t*>(base + plan.acc_offset);
        tensor::gemm_s8u8(nw.panels, cols, acc, pixels);
        requantize_rows(acc, conv.out_channels(), pixels, nw.scales, nw.rowsums, in_p,
                        conv.has_bias() ? conv.bias().data() : nullptr, out_p, act(id));
        break;
      }
      case nn::LayerKind::kDepthwiseConv2D: {
        const auto& dw = static_cast<const nn::DepthwiseConv2D&>(*nd.layer);
        const NodeWeights& nw = node_weights_.at(id);
        const tensor::ConvGeometry geo = dw.geometry(in_shape);
        auto* acc = reinterpret_cast<std::int32_t*>(base + plan.acc_offset);
        depthwise_s8u8(act(src0), nw.taps.data(), geo, in_p.zero_point, base + plan.cols_offset,
                       acc);
        requantize_rows(acc, dw.channels(), geo.out_h() * geo.out_w(), nw.scales, nw.rowsums, in_p,
                        dw.has_bias() ? dw.bias().data() : nullptr, out_p, act(id));
        break;
      }
      case nn::LayerKind::kDense: {
        const auto& dense = static_cast<const nn::Dense&>(*nd.layer);
        const NodeWeights& nw = node_weights_.at(id);
        auto* acc = reinterpret_cast<std::int32_t*>(base + plan.acc_offset);
        tensor::gemm_s8u8(nw.panels, act(src0), acc, 1);
        requantize_rows(acc, dense.out_features(), 1, nw.scales, nw.rowsums, in_p,
                        dense.has_bias() ? dense.bias().data() : nullptr, out_p, act(id));
        break;
      }
      case nn::LayerKind::kReLU:
      case nn::LayerKind::kReLU6: {
        const std::array<std::uint8_t, 256>& lut = tables.requant;
        const std::uint8_t* x = act(src0);
        std::uint8_t* y = act(id);
        const std::size_t count = numel(id);
        for (std::size_t i = 0; i < count; ++i) y[i] = lut[x[i]];
        break;
      }
      case nn::LayerKind::kAdd: {
        // The fallback's arithmetic without its float tensors: dequantize
        // each input through a 256-entry table, sum in Add's order (input
        // 0, then += each next input) in the float scratch, requantize.
        float* sum = reinterpret_cast<float*>(base + plan.acc_offset);
        const std::size_t count = numel(id);
        for (std::size_t t = 0; t < nd.inputs.size(); ++t) {
          const std::array<float, 256>& lut = tables.dequant[t];
          const std::uint8_t* x = act(nd.inputs[t]);
          for (std::size_t i = 0; i < count; ++i)
            sum[i] = t == 0 ? lut[x[i]] : sum[i] + lut[x[i]];
        }
        quantize_row(sum, count, out_p, act(id));
        break;
      }
      case nn::LayerKind::kFlatten: {
        // Pure relabeling of the same elements; only the calibrated scale
        // changes between the two node outputs.
        const std::array<std::uint8_t, 256>& lut = tables.requant;
        const std::uint8_t* x = act(src0);
        std::uint8_t* y = act(id);
        const std::size_t count = numel(id);
        for (std::size_t i = 0; i < count; ++i) y[i] = lut[x[i]];
        break;
      }
      case nn::LayerKind::kMaxPool: {
        // uint8 max commutes with dequantization (the affine map is
        // monotonic), so pool in the quantized domain and requantize the
        // winners. Window clamping mirrors Pool2D::forward_into.
        const auto& pool = static_cast<const nn::Pool2D&>(*nd.layer);
        const std::array<std::uint8_t, 256>& lut = tables.requant;
        const tensor::Shape& os = plan.shapes[static_cast<std::size_t>(id)];
        const int C = in_shape[0], ih = in_shape[1], iw = in_shape[2];
        const int oh = os[1], ow = os[2];
        const int kk = pool.kernel(), st = pool.stride(), pd = pool.pad();
        const std::uint8_t* x = act(src0);
        std::uint8_t* y = act(id);
        for (int c = 0; c < C; ++c) {
          const std::uint8_t* chan = x + static_cast<std::int64_t>(c) * ih * iw;
          std::uint8_t* dst = y + static_cast<std::int64_t>(c) * oh * ow;
          for (int yo = 0; yo < oh; ++yo) {
            const int y0 = std::max(0, yo * st - pd);
            const int y1 = std::min(ih, yo * st - pd + kk);
            for (int xo = 0; xo < ow; ++xo) {
              const int x0 = std::max(0, xo * st - pd);
              const int x1 = std::min(iw, xo * st - pd + kk);
              std::uint8_t best = 0;
              for (int yy = y0; yy < y1; ++yy)
                for (int xx = x0; xx < x1; ++xx)
                  best = std::max(best, chan[yy * iw + xx]);
              dst[yo * ow + xo] = lut[best];
            }
          }
        }
        break;
      }
      default: {
        // Fallback for kinds without a dedicated integer kernel (BatchNorm,
        // Concat, pooling averages, Softmax): dequantize the inputs, run the
        // float layer through Layer::forward, requantize the output. It
        // heap-allocates per node; the hot conv, depthwise and dense nodes
        // above never take it.
        std::vector<tensor::Tensor> fin;
        fin.reserve(nd.inputs.size());
        for (int src : nd.inputs) {
          const QuantParams& p = scales_.at(src);
          tensor::Tensor t(plan.shapes[static_cast<std::size_t>(src)]);
          const std::uint8_t* qd = act(src);
          float* fd = t.data();
          const std::size_t count = static_cast<std::size_t>(t.numel());
          for (std::size_t i = 0; i < count; ++i) fd[i] = dequantize_value(qd[i], p);
          fin.push_back(std::move(t));
        }
        std::vector<const tensor::Tensor*> fin_ptrs;
        fin_ptrs.reserve(fin.size());
        for (const tensor::Tensor& t : fin) fin_ptrs.push_back(&t);
        const tensor::Tensor fy = nd.layer->forward(fin_ptrs, false);
        const float* fd = fy.data();
        std::uint8_t* y = act(id);
        const std::size_t count = numel(id);
        for (std::size_t i = 0; i < count; ++i) y[i] = quantize_value(fd[i], out_p);
        break;
      }
    }
  }

  const int out_id = n - 1;
  const QuantParams& out_p = scales_.at(out_id);
  tensor::Tensor out(plan.shapes[static_cast<std::size_t>(out_id)]);
  const std::uint8_t* q = act(out_id);
  float* f = out.data();
  const std::size_t count = static_cast<std::size_t>(out.numel());
  for (std::size_t i = 0; i < count; ++i) f[i] = dequantize_value(q[i], out_p);
  return out;
}

}  // namespace netcut::quant
