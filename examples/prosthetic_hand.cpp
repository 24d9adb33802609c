// The paper's motivating application end to end (Section III, Fig 2):
// a robotic prosthetic hand whose control loop fuses an EMG classifier with
// a visual grasp classifier under a hard 0.9 ms per-frame budget.
//
// The example compares the deployed control loop with three visual
// classifiers: the most accurate network overall (misses the deadline —
// frames get dropped), the best off-the-shelf network under the deadline,
// and a NetCut-selected TRN (meets the deadline with higher accuracy).
#include <cstdio>

#include "app/control_loop.hpp"
#include "core/netcut.hpp"

int main() {
  using namespace netcut;

  core::LatencyLab lab;

  data::HandsConfig data_cfg;
  data_cfg.resolution = 24;
  data_cfg.train_count = 200;
  data_cfg.test_count = 80;
  const data::HandsDataset dataset(data_cfg);

  core::EvalConfig eval_cfg;
  eval_cfg.resolution = 24;
  eval_cfg.epochs = 10;
  eval_cfg.cache_path.clear();
  core::TrnEvaluator evaluator(dataset, eval_cfg);

  // EMG path: synthetic Myo-band stream + trained MLP classifier.
  const data::EmgGenerator emg_gen;
  app::MlpConfig emg_mlp;
  emg_mlp.epochs = 20;
  const app::EmgClassifier emg(emg_gen, 200, emg_mlp);
  std::printf("EMG classifier angular similarity: %.4f  fusion weight: %.3f\n",
              emg.test_accuracy(emg_gen, 100, 31), emg.reliability());

  // Candidate visual classifiers.
  struct Setup {
    const char* label;
    zoo::NetId base;
    int cut;
  };
  std::vector<Setup> setups;

  // (a) most accurate but over-deadline: full ResNet-50.
  setups.push_back({"ResNet50 (full, misses deadline)", zoo::NetId::kResNet50,
                    lab.full_cut(zoo::NetId::kResNet50)});
  // (b) best off-the-shelf under the deadline: MobileNetV1-0.5.
  setups.push_back({"MobileNetV1-0.50 (off-the-shelf)", zoo::NetId::kMobileNetV1_050,
                    lab.full_cut(zoo::NetId::kMobileNetV1_050)});
  // (c) NetCut's pick for ResNet-50 at 0.9 ms.
  core::ProfilerEstimator estimator(lab);
  core::NetCut netcut(lab, evaluator);
  core::NetCutConfig nc_cfg;
  nc_cfg.deadline_ms = 0.9;
  nc_cfg.networks = {zoo::NetId::kResNet50};
  const core::NetCutResult nc = netcut.run(estimator, nc_cfg);
  if (nc.selected >= 0)
    setups.push_back({"NetCut TRN of ResNet50", zoo::NetId::kResNet50,
                      nc.winner().trn.cut_node});

  app::MlpConfig head_cfg;
  head_cfg.epochs = 12;
  app::ControlLoopConfig loop_cfg;
  loop_cfg.episodes = 30;

  std::printf("\n%-36s %10s %8s %8s %8s %8s %8s\n", "visual classifier", "latency",
              "weight", "miss%", "frames", "top1", "ang-sim");
  for (const Setup& s : setups) {
    const double latency = lab.measured_ms(s.base, s.cut);
    const app::VisualClassifier vision(s.base, s.cut, dataset, head_cfg,
                                       data::PretrainedConfig{});
    app::ControlLoop loop({{"", latency, &vision, {}}}, emg, emg_gen, loop_cfg);
    const app::ControlLoopReport r = loop.run(dataset);
    std::printf("%-36s %7.3f ms %8.3f %7.1f%% %8.1f %8.3f %8.4f\n", s.label, latency,
                vision.reliability(), r.deadline_miss_rate * 100.0, r.mean_frames_used,
                r.top1_accuracy, r.mean_angular_similarity);
  }

  std::printf(
      "\nReading: the over-deadline network loses every visual frame and the loop\n"
      "degrades to EMG-only; the NetCut TRN keeps the frames *and* carries more\n"
      "accuracy than the small off-the-shelf network that also fits the budget.\n"
      "Each source is fused at its weight, its chance-corrected held-out top-1:\n"
      "a classifier at weight 0 cannot move the decision.\n");
  return 0;
}
