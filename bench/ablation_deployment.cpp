// Ablation harness for the design choices DESIGN.md calls out on the
// latency side (no retraining required):
//
//  1. Deployment optimizations (Section III-B4): latency under
//     fp32/unfused -> fp32/fused -> int8/fused for every base network.
//  2. The paper's Section IV-B2 observation: "inference latency decreases
//     almost linearly w.r.t. the number of layers removed" — per network,
//     fit latency ~ a + b * layers_removed over the blockwise TRN sweep and
//     report R^2.
//  3. Measurement-protocol ablation: how much the warm-up phase matters
//     (mean of the first 50 runs vs the protocol's post-warm-up mean).
#include "bench_common.hpp"

#include "util/stats.hpp"

int main() {
  using namespace netcut;
  using namespace netcut::bench;

  print_header("Ablation: deployment optimizations & latency linearity");

  core::LatencyLab lab(lab_config());
  const hw::DeviceModel& dev = lab.device();

  // Latency reads shapes only, so the untrained trunk and head price the
  // same as trained ones.
  util::Rng head_rng(1);
  util::Table table({"network", "fp32_unfused_ms", "fp32_fused_ms", "int8_fused_ms",
                     "fusion_gain", "int8_gain"});
  for (zoo::NetId net : zoo::all_nets()) {
    const nn::Graph trunk = zoo::build_trunk(net, zoo::native_resolution(net));
    const nn::Graph trn = core::build_trn(trunk, trunk.output_node(), core::HeadConfig{}, head_rng);
    const double a = dev.network_latency_ms(trn, hw::Precision::kFp32, false);
    const double b = dev.network_latency_ms(trn, hw::Precision::kFp32, true);
    const double c = dev.network_latency_ms(trn, hw::Precision::kInt8, true);
    table.add_row({zoo::net_name(net), util::Table::num(a, 3), util::Table::num(b, 3),
                   util::Table::num(c, 3), util::Table::num(a / b, 2) + "x",
                   util::Table::num(b / c, 2) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("latency vs layers-removed linearity (blockwise sweep, measured):\n");
  for (zoo::NetId net : zoo::all_nets()) {
    std::vector<double> xs, ys;
    const auto cuts = lab.blockwise(net);
    for (int cut : cuts) {
      xs.push_back(static_cast<double>(lab.layers_removed(net, cut)));
      ys.push_back(lab.measured_ms(net, cut));
    }
    // R^2 of the least-squares line.
    const double mx = util::mean(xs), my = util::mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      sxy += (xs[i] - mx) * (ys[i] - my);
      sxx += (xs[i] - mx) * (xs[i] - mx);
      syy += (ys[i] - my) * (ys[i] - my);
    }
    const double r2 = sxy * sxy / (sxx * syy);
    const double slope_us = sxy / sxx * 1000.0;
    std::printf("  %-18s R^2 = %.4f   slope %+.2f us/layer   [paper: 'almost linear']\n",
                zoo::net_name(net).c_str(), r2, slope_us);
  }

  std::printf("\nwarm-up ablation (MobileNetV1-0.50, full network):\n");
  {
    const hw::LatencyMeasurer measurer;
    const zoo::NetId net = zoo::NetId::kMobileNetV1_050;
    const double truth = lab.true_ms(net, lab.full_cut(net));  // int8, fused
    util::Rng rng(77);
    std::vector<double> cold, warm;
    for (int i = 0; i < 50; ++i) cold.push_back(measurer.simulate_run_ms(truth, i, rng));
    for (int i = 0; i < 50; ++i)
      warm.push_back(measurer.simulate_run_ms(truth, 200 + i, rng));
    std::printf("  first-50-run mean : %.4f ms (clock ramp inflates by %.1f%%)\n",
                util::mean(cold), (util::mean(cold) / truth - 1.0) * 100.0);
    std::printf("  post-warm-up mean : %.4f ms (true %.4f ms)\n", util::mean(warm), truth);
    std::printf("  -> the paper's 200-inference warm-up phase is what makes the\n"
                "     800-run average land on the true latency.\n");
  }
  return 0;
}
