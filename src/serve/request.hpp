// The unit of work flowing through the serving layer: one inference request
// with an absolute deadline on a shared millisecond timeline, tagged with
// the tenant that submitted it and that tenant's SLO class.
//
// The serving layer is clock-agnostic: it never reads a wall clock. Callers
// stamp arrivals and pass `now` into every call. Tests, serve_demo and
// bench/serve_snapshot run it on a deterministic simulated clock; the one
// wall-clock caller is the perfbench `serve` workload (perfbench/serve.cpp),
// which derives `now` from std::chrono::steady_clock.
#pragma once

#include <cstdint>

#include "tensor/tensor.hpp"

namespace netcut::serve {

struct Request {
  std::uint64_t id = 0;
  double arrival_ms = 0.0;   // when the request entered the system
  double deadline_ms = 0.0;  // absolute: respond by this time or it is a miss
  /// Who submitted it. Tenants are opaque ids; the fleet's admission
  /// control and per-tenant accounting key on this.
  std::uint32_t tenant = 0;
  /// Index into the fleet's SLO class table (deadline slack, p99 budget,
  /// admission weight). Single-tenant callers leave the default class 0.
  std::uint32_t slo = 0;
  /// Input image (one CHW tensor). Borrowed: the submitter keeps it alive
  /// until the completion for this id is delivered.
  const tensor::Tensor* input = nullptr;
};

}  // namespace netcut::serve
