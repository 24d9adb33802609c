// Quickstart: the NetCut public API in ~60 lines.
//
//   1. pick a pretrained base network from the zoo,
//   2. look at its latency on the embedded device,
//   3. run NetCut against a deadline to get the one TRN worth retraining,
//   4. retrain its head and report accuracy.
//
// Build & run:   ./build/examples/quickstart
#include <cstdio>

#include "core/netcut.hpp"

int main() {
  using namespace netcut;

  // The simulated Jetson-Xavier-class device with int8 + fusion deployment.
  core::LatencyLab lab;

  // A small synthetic HANDS dataset (grasp-type images, soft labels).
  data::HandsConfig data_cfg;
  data_cfg.resolution = 24;
  data_cfg.train_count = 150;
  data_cfg.test_count = 60;
  const data::HandsDataset dataset(data_cfg);

  core::EvalConfig eval_cfg;
  eval_cfg.resolution = 24;
  eval_cfg.epochs = 10;
  eval_cfg.cache_path.clear();  // standalone demo: no memo file
  core::TrnEvaluator evaluator(dataset, eval_cfg);

  // Step 1-2: the base network and its measured latency.
  const zoo::NetId base = zoo::NetId::kMobileNetV2_140;
  const double base_ms = lab.measured_ms(base, lab.full_cut(base));
  std::printf("base network %s: %.3f ms on %s\n", zoo::net_name(base).c_str(), base_ms,
              hw::kDeviceName);

  // Step 3: NetCut with the profiler-based estimator and a deadline the
  // base network misses.
  const double deadline_ms = 0.45;
  core::ProfilerEstimator estimator(lab);
  core::NetCut netcut(lab, evaluator);
  core::NetCutConfig cfg;
  cfg.deadline_ms = deadline_ms;
  cfg.networks = {base};
  const core::NetCutResult result = netcut.run(estimator, cfg);

  if (result.selected < 0) {
    std::printf("no TRN of %s can meet %.2f ms\n", zoo::net_name(base).c_str(), deadline_ms);
    return 1;
  }

  // Step 4: the proposal was retrained by the evaluator inside run().
  const core::NetCutProposal& p = result.winner();
  std::printf("deadline %.2f ms -> proposed TRN %s\n", deadline_ms, p.trn.trn_name.c_str());
  std::printf("  estimated %.3f ms, measured %.3f ms (%s)\n", p.estimated_ms,
              p.trn.latency_ms, p.meets_deadline ? "meets deadline" : "MISSES deadline");
  std::printf("  layers removed: %d of %d\n", p.trn.layers_removed,
              p.trn.layers_removed + p.trn.layers_remaining);
  std::printf("  retrained accuracy (angular similarity): %.4f (top-1 %.3f)\n",
              p.trn.accuracy, p.trn.top1);
  std::printf("  retraining bill on the training server: %.2f GPU-hours\n",
              p.trn.train_hours);
  return 0;
}
