#include "nn/serialize.hpp"

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "nn/verify.hpp"

namespace netcut::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4E43574Du;  // "NCWM"
}  // namespace

void save_params(const Graph& graph, std::ostream& out, const std::string& context) {
  auto put_u32 = [&](std::uint32_t v) { out.write(reinterpret_cast<const char*>(&v), 4); };
  put_u32(kMagic);
  put_u32(static_cast<std::uint32_t>(graph.node_count()));
  for (int id = 1; id < graph.node_count(); ++id) {
    Layer& layer = *const_cast<Graph&>(graph).node(id).layer;
    put_u32(static_cast<std::uint32_t>(layer.kind()));
    const auto tensors = layer.state();
    put_u32(static_cast<std::uint32_t>(tensors.size()));
    for (const Tensor* t : tensors) {
      put_u32(static_cast<std::uint32_t>(t->numel()));
      out.write(reinterpret_cast<const char*>(t->data()),
                static_cast<std::streamsize>(sizeof(float)) * t->numel());
    }
  }
  if (!out) throw std::runtime_error("save_params: write failed for " + context);
}

void load_params(Graph& graph, std::istream& in, const std::string& context) {
  auto get_u32 = [&]() {
    std::uint32_t v = 0;
    in.read(reinterpret_cast<char*>(&v), 4);
    if (!in) throw std::runtime_error("load_params: truncated file " + context);
    return v;
  };
  if (get_u32() != kMagic) throw std::runtime_error("load_params: bad magic in " + context);
  if (get_u32() != static_cast<std::uint32_t>(graph.node_count()))
    throw std::runtime_error("load_params: node count mismatch in " + context);
  for (int id = 1; id < graph.node_count(); ++id) {
    Layer& layer = *graph.node(id).layer;
    if (get_u32() != static_cast<std::uint32_t>(layer.kind()))
      throw std::runtime_error("load_params: layer kind mismatch at node " +
                               std::to_string(id));
    const auto tensors = layer.state();
    if (get_u32() != tensors.size())
      throw std::runtime_error("load_params: tensor count mismatch at node " +
                               std::to_string(id));
    for (Tensor* t : tensors) {
      if (get_u32() != static_cast<std::uint32_t>(t->numel()))
        throw std::runtime_error("load_params: tensor size mismatch at node " +
                                 std::to_string(id));
      in.read(reinterpret_cast<char*>(t->data()),
              static_cast<std::streamsize>(sizeof(float)) * t->numel());
      if (!in) throw std::runtime_error("load_params: truncated tensor data in " + context);
    }
  }
  // A weight file that parses can still carry corrupt contents; lint the
  // deserialized graph and scan every loaded tensor for non-finite values.
  check_graph(graph, "load_params");
  check_params(graph, "load_params");
}

void copy_state(const Graph& from, Graph& to) {
  if (from.node_count() < to.node_count())
    throw std::invalid_argument("copy_state: source graph has fewer nodes");
  for (int id = 1; id < to.node_count(); ++id) {
    Layer& src = *from.node(id).layer;
    Layer& dst = *to.node(id).layer;
    const auto s = src.state();
    const auto d = dst.state();
    if (src.kind() != dst.kind() || s.size() != d.size())
      throw std::invalid_argument("copy_state: layer mismatch at node " + std::to_string(id));
    for (std::size_t k = 0; k < s.size(); ++k) {
      if (s[k]->numel() != d[k]->numel())
        throw std::invalid_argument("copy_state: tensor size mismatch at node " +
                                    std::to_string(id));
      *d[k] = *s[k];
    }
  }
}

}  // namespace netcut::nn
