#include "core/cascade.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace netcut::core {

namespace {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

double parse_num(const std::string& s, const std::string& clause) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(v))
    throw std::invalid_argument("--cascade: bad number '" + s + "' in clause '" + clause + "'");
  return v;
}

int parse_ordinal(const std::string& s, const std::string& clause) {
  const double v = parse_num(s, clause);
  if (v != std::floor(v) || v < 0.0 || v > 2147483647.0)
    throw std::invalid_argument("--cascade: '" + s + "' is not a cut ordinal >= 0 in clause '" +
                                clause + "'");
  return static_cast<int>(v);
}

int checked_resume(const nn::Graph& trunk, int shallow_cut, int deep_cut) {
  if (shallow_cut >= deep_cut)
    throw std::invalid_argument("CascadeTrn: shallow cut must precede deep cut");
  return resume_node(trunk, shallow_cut);
}

}  // namespace

CascadeSpec parse_cascade_spec(std::string_view spec) {
  CascadeSpec cfg;
  if (spec.empty()) return cfg;

  bool have_shallow = false, have_deep = false, have_thr = false;
  for (const std::string& clause : split(spec, ',')) {
    if (clause.empty()) continue;
    if (clause == "off") return CascadeSpec{};

    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("--cascade: clause '" + clause +
                                  "' is not key=value (or 'off')");
    const std::string key = clause.substr(0, eq);
    const std::string val = clause.substr(eq + 1);

    if (key == "shallow") {
      cfg.shallow = parse_ordinal(val, clause);
      have_shallow = true;
    } else if (key == "deep") {
      cfg.deep = parse_ordinal(val, clause);
      have_deep = true;
    } else if (key == "thr") {
      cfg.threshold = parse_num(val, clause);
      if (cfg.threshold < 0.0 || cfg.threshold > 1.0)
        throw std::invalid_argument("--cascade: threshold out of [0,1] in clause '" + clause +
                                    "'");
      have_thr = true;
    } else {
      throw std::invalid_argument("--cascade: unknown clause '" + clause + "'");
    }
  }
  if (!have_shallow || !have_deep || !have_thr)
    throw std::invalid_argument("--cascade: spec needs shallow=, deep= and thr= clauses");
  if (cfg.shallow >= cfg.deep)
    throw std::invalid_argument("--cascade: shallow ordinal must be < deep ordinal");
  cfg.enabled = true;
  return cfg;
}

std::string format_cascade_spec(const CascadeSpec& spec) {
  if (!spec.enabled) return "off";
  // %.17g is round-trip exact for doubles and contains no grammar
  // separators, so parse(format(s)) == s for every enabled spec.
  char buf[96];
  std::snprintf(buf, sizeof buf, "shallow=%d,deep=%d,thr=%.17g", spec.shallow, spec.deep,
                spec.threshold);
  return buf;
}

double softmax_margin(const tensor::Tensor& probs) {
  const int n = static_cast<int>(probs.numel());
  if (n < 1) throw std::invalid_argument("softmax_margin: empty distribution");
  float top1 = 0.0f, top2 = 0.0f;
  for (int k = 0; k < n; ++k) {
    if (probs[k] > top1) {
      top2 = top1;
      top1 = probs[k];
    } else if (probs[k] > top2) {
      top2 = probs[k];
    }
  }
  return static_cast<double>(top1) - static_cast<double>(top2);
}

// ---- CascadeTrn --------------------------------------------------------

CascadeTrn::CascadeTrn(const nn::Graph& trunk, int shallow_cut, int deep_cut,
                       const HeadConfig& head, util::Rng& rng)
    : shallow_cut_(shallow_cut),
      deep_cut_(deep_cut),
      resume_node_(checked_resume(trunk, shallow_cut, deep_cut)),
      shallow_(build_trn(trunk, shallow_cut, head, rng)),
      deep_(build_trn(trunk, deep_cut, head, rng)) {}

CascadeTrn::Stage1 CascadeTrn::stage1(const tensor::Tensor& input) {
  // One pass harvests both the prediction and the trunk activation the
  // second stage resumes from.
  std::vector<tensor::Tensor> got =
      shallow_.forward_collect(input, {resume_node_, shallow_.graph().output_node()});
  Stage1 s;
  s.trunk_act = std::move(got[0]);
  s.output = std::move(got[1]);
  s.margin = softmax_margin(s.output);
  return s;
}

std::vector<CascadeTrn::Stage1> CascadeTrn::stage1_batch(
    const std::vector<const tensor::Tensor*>& inputs) {
  // A loop of singles: forward_batch is documented bitwise identical to N
  // independent forwards, so this is the same result by contract, and the
  // collect set (trunk activation + output) keeps the single-pass path the
  // simpler one.
  std::vector<Stage1> out;
  out.reserve(inputs.size());
  for (const tensor::Tensor* in : inputs) {
    if (in == nullptr) throw std::invalid_argument("CascadeTrn::stage1_batch: null input");
    out.push_back(stage1(*in));
  }
  return out;
}

tensor::Tensor CascadeTrn::escalate(const Stage1& s) {
  return deep_.forward_from(resume_node_, s.trunk_act);
}

std::vector<tensor::Tensor> CascadeTrn::escalate_batch(
    const std::vector<const Stage1*>& stages) {
  std::vector<const tensor::Tensor*> seeds;
  seeds.reserve(stages.size());
  for (const Stage1* s : stages) {
    if (s == nullptr) throw std::invalid_argument("CascadeTrn::escalate_batch: null stage");
    seeds.push_back(&s->trunk_act);
  }
  return deep_.forward_from_batch(resume_node_, seeds);
}

CascadeTrn::Result CascadeTrn::classify(const tensor::Tensor& input, double threshold) {
  Stage1 s = stage1(input);
  Result r;
  r.margin = s.margin;
  if (s.margin < threshold) {
    r.output = escalate(s);
    r.escalated = true;
  } else {
    r.output = std::move(s.output);
  }
  return r;
}

// ---- CascadeExplorer ---------------------------------------------------

CascadeExplorer::CascadeExplorer(TrnEvaluator& evaluator, LatencyLab& lab)
    : evaluator_(evaluator), lab_(lab) {}

std::vector<double> CascadeExplorer::default_thresholds() {
  return {0.0, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0};
}

double CascadeExplorer::escalation_rate(zoo::NetId base, int shallow_cut, double threshold) {
  const PerImageEval& sh = evaluator_.per_image(base, shallow_cut);
  int escalated = 0, total = 0;
  for (std::size_t i = 0; i < sh.margin.size(); i += 2) {  // calibration half
    ++total;
    if (sh.margin[i] < threshold) ++escalated;
  }
  if (total == 0) throw std::logic_error("CascadeExplorer: empty calibration split");
  return static_cast<double>(escalated) / static_cast<double>(total);
}

CascadeOperatingPoint CascadeExplorer::operating_point(zoo::NetId base, int shallow_cut,
                                                       int deep_cut, double threshold) {
  if (shallow_cut >= deep_cut)
    throw std::invalid_argument("CascadeExplorer: shallow cut must precede deep cut");
  const PerImageEval& sh = evaluator_.per_image(base, shallow_cut);
  const PerImageEval& dp = evaluator_.per_image(base, deep_cut);

  CascadeOperatingPoint p;
  p.shallow_cut = shallow_cut;
  p.deep_cut = deep_cut;
  p.threshold = threshold;
  p.p_escalate = escalation_rate(base, shallow_cut, threshold);

  // Accuracy on the eval half (odd indices): each image scores with the
  // stage the gate would actually answer from.
  double sum = 0.0;
  int count = 0;
  for (std::size_t i = 1; i < sh.margin.size(); i += 2) {
    sum += sh.margin[i] >= threshold ? sh.angular[i] : dp.angular[i];
    ++count;
  }
  if (count == 0) throw std::logic_error("CascadeExplorer: empty eval split");
  p.accuracy = sum / static_cast<double>(count);

  p.latency_ms = lab_.measured_ms(base, shallow_cut) +
                 p.p_escalate * lab_.measured_stage2_ms(base, shallow_cut, deep_cut);

  char thr[32];
  std::snprintf(thr, sizeof thr, "%g", threshold);
  p.name = lab_.name(base, shallow_cut) + "+" +
           std::to_string(lab_.layers_remaining(base, deep_cut)) + "@" + thr;
  return p;
}

std::vector<CascadeOperatingPoint> CascadeExplorer::sweep(zoo::NetId base,
                                                          const std::vector<int>& cuts,
                                                          const std::vector<double>& thresholds) {
  std::vector<CascadeOperatingPoint> out;
  for (std::size_t i = 0; i < cuts.size(); ++i)
    for (std::size_t j = i + 1; j < cuts.size(); ++j)
      for (const double thr : thresholds)
        out.push_back(operating_point(base, cuts[i], cuts[j], thr));
  return out;
}

std::vector<TradeoffPoint> CascadeExplorer::single_cut_points(zoo::NetId base,
                                                              const std::vector<int>& cuts) {
  std::vector<TradeoffPoint> out;
  out.reserve(cuts.size());
  for (const int cut : cuts) {
    const PerImageEval& e = evaluator_.per_image(base, cut);
    double sum = 0.0;
    int count = 0;
    for (std::size_t i = 1; i < e.angular.size(); i += 2) {
      sum += e.angular[i];
      ++count;
    }
    if (count == 0) throw std::logic_error("CascadeExplorer: empty eval split");
    out.push_back({lab_.name(base, cut), lab_.measured_ms(base, cut),
                   sum / static_cast<double>(count)});
  }
  return out;
}

bool cascade_improves(const std::vector<CascadeOperatingPoint>& cascade_points,
                      const std::vector<TradeoffPoint>& single_cut_front) {
  for (const CascadeOperatingPoint& p : cascade_points) {
    const TradeoffPoint tp = p.as_tradeoff();
    for (const TradeoffPoint& q : single_cut_front)
      if (dominates(tp, q)) return true;
  }
  return false;
}

}  // namespace netcut::core
