#include "gradcheck.hpp"

#include <algorithm>
#include <cmath>

namespace netcut::nn {

namespace {

/// Accumulates |a - n| and the gradient magnitude scale; the relative error
/// is normalized by the *largest* gradient entry seen, so near-zero entries
/// (where float noise dominates any pointwise ratio) don't produce spurious
/// failures.
struct ErrorAccumulator {
  double max_abs_error = 0.0;
  double max_magnitude = 0.0;

  void fold(double analytic, double numeric) {
    max_abs_error = std::max(max_abs_error, std::abs(analytic - numeric));
    max_magnitude = std::max({max_magnitude, std::abs(analytic), std::abs(numeric)});
  }

  GradCheckResult result() const {
    GradCheckResult r;
    r.max_abs_error = max_abs_error;
    r.max_rel_error = max_abs_error / std::max(max_magnitude, 1e-8);
    return r;
  }
};

}  // namespace

GradCheckResult check_input_gradient(
    Network& net, const Tensor& input,
    const std::function<double(const Tensor&)>& scalar_loss,
    const std::function<Tensor(const Tensor&)>& loss_grad, double eps) {
  // Network::backward discards the gradient at the input node, so mirror
  // the DAG backward here and keep grad[0] for the comparison.
  ErrorAccumulator acc;

  Tensor out = net.forward(input, /*train=*/true);
  Tensor g = loss_grad(out);

  // Manual DAG backward mirroring Network::backward, but keeping grad[0].
  const Graph& graph = net.graph();
  const int n = graph.node_count();
  std::vector<Tensor> grad(static_cast<std::size_t>(n));
  grad[static_cast<std::size_t>(graph.output_node())] = g;
  for (int id = n - 1; id >= 1; --id) {
    Tensor& go = grad[static_cast<std::size_t>(id)];
    if (go.empty()) continue;
    Node& nd = const_cast<Graph&>(graph).node(id);
    std::vector<Tensor> gin = nd.layer->backward(go);
    for (std::size_t i = 0; i < nd.inputs.size(); ++i) {
      Tensor& sink = grad[static_cast<std::size_t>(nd.inputs[i])];
      if (sink.empty())
        sink = std::move(gin[i]);
      else
        sink += gin[i];
    }
  }
  const Tensor& analytic = grad[0];

  Tensor probe = input;
  const std::int64_t stride = std::max<std::int64_t>(1, input.numel() / 64);
  for (std::int64_t i = 0; i < input.numel(); i += stride) {
    const float orig = probe[i];
    probe[i] = orig + static_cast<float>(eps);
    const double up = scalar_loss(net.forward(probe, true));
    probe[i] = orig - static_cast<float>(eps);
    const double down = scalar_loss(net.forward(probe, true));
    probe[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    acc.fold(analytic[i], numeric);
  }
  return acc.result();
}

GradCheckResult check_param_gradients(
    Network& net, const Tensor& input,
    const std::function<double(const Tensor&)>& scalar_loss,
    const std::function<Tensor(const Tensor&)>& loss_grad, double eps,
    int max_params_per_tensor) {
  ErrorAccumulator acc;
  net.zero_grads();
  Tensor out = net.forward(input, /*train=*/true);
  net.backward(loss_grad(out));

  auto params = net.params();
  auto grads = net.grads();
  for (std::size_t k = 0; k < params.size(); ++k) {
    Tensor& p = *params[k];
    const Tensor& g = *grads[k];
    const std::int64_t stride = std::max<std::int64_t>(1, p.numel() / max_params_per_tensor);
    for (std::int64_t i = 0; i < p.numel(); i += stride) {
      const float orig = p[i];
      p[i] = orig + static_cast<float>(eps);
      const double up = scalar_loss(net.forward(input, true));
      p[i] = orig - static_cast<float>(eps);
      const double down = scalar_loss(net.forward(input, true));
      p[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      acc.fold(g[i], numeric);
    }
  }
  return acc.result();
}

}  // namespace netcut::nn
