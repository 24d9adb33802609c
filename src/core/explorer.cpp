#include "core/explorer.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "tensor/backend.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace netcut::core {

namespace {

constexpr const char* kJournalTag = "#netcut-journal v1 ";

std::vector<std::string> split_fields(const std::string& line, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t end = line.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

bool parse_full_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0' && std::isfinite(out);
}

std::string journal_row(const std::string& base_name, int cut_node, const AccuracyResult& r) {
  std::ostringstream os;
  os.precision(17);  // lossless double round trip
  os << base_name << ',' << cut_node << ',' << r.angular_similarity << ',' << r.top1;
  std::string row = os.str();
  std::ostringstream ck;
  ck << std::hex << util::fnv1a64(row);
  return row + ',' + ck.str();
}

/// Rejects torn lines, non-numeric fields, and checksum mismatches — a
/// crash mid-append leaves exactly one such row at the tail.
bool parse_journal_row(const std::string& line, std::string& base_name, int& cut_node,
                       AccuracyResult& r) {
  const auto fields = split_fields(line, ',');
  if (fields.size() != 5 || fields[0].empty()) return false;
  double cut = 0.0;
  if (!parse_full_double(fields[1], cut) || cut != std::floor(cut)) return false;
  if (!parse_full_double(fields[2], r.angular_similarity)) return false;
  if (!parse_full_double(fields[3], r.top1)) return false;
  const std::string prefix =
      fields[0] + ',' + fields[1] + ',' + fields[2] + ',' + fields[3];
  std::ostringstream ck;
  ck << std::hex << util::fnv1a64(prefix);
  if (ck.str() != fields[4]) return false;
  base_name = fields[0];
  cut_node = static_cast<int>(cut);
  return true;
}

}  // namespace

BlockwiseExplorer::BlockwiseExplorer(LatencyLab& lab, TrnEvaluator& evaluator)
    : lab_(lab), evaluator_(evaluator) {}

std::uint64_t BlockwiseExplorer::journal_key() const {
  // Everything the journalled accuracies depend on: the evaluator identity
  // (dataset + head + pretraining config), the kernel backend the features
  // are computed on, plus the lab settings that select which TRN is being
  // explored under which deployment mode.
  const LabConfig& lc = lab_.config();
  std::ostringstream os;
  os << lc.device.name << '|' << hw::to_string(lc.precision) << '|' << lc.fuse << '|'
     << lc.measure.seed << '|' << tensor::backend_name(tensor::active_backend_kind());
  return util::derive_seed(evaluator_.config_hash(), os.str());
}

void BlockwiseExplorer::set_journal(const std::string& path) {
  // Setup-time API, but the journal state is guarded so the load cannot
  // race a straggling sweep's appends.
  util::MutexLock lock(journal_mutex_);
  journal_path_ = path;
  journal_.clear();
  journal_hits_ = 0;
  if (path.empty()) return;

  std::ostringstream key_hex;
  key_hex << std::hex << journal_key();
  const std::string header = kJournalTag + key_hex.str();

  std::ifstream in(path);
  if (in) {
    std::string line;
    bool header_ok = std::getline(in, line) && line == header;
    if (!header_ok) {
      in.close();
      const std::string moved = util::quarantine_file(path);
      std::fprintf(stderr,
                   "[netcut] WARNING: exploration journal %s was written under a different "
                   "configuration (or is corrupt); quarantined as %s, starting fresh\n",
                   path.c_str(), moved.c_str());
    } else {
      int skipped = 0;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::string base_name;
        int cut_node = 0;
        AccuracyResult r;
        if (parse_journal_row(line, base_name, cut_node, r))
          journal_[{base_name, cut_node}] = r;
        else
          ++skipped;
      }
      if (skipped > 0) {
        std::fprintf(stderr,
                     "[netcut] WARNING: exploration journal %s: skipped %d torn/corrupt "
                     "row(s), resuming from %zu completed retraining(s)\n",
                     path.c_str(), skipped, journal_.size());
        // Heal before appending: a torn tail row has no trailing newline, so
        // a straight append would concatenate onto it and corrupt the next
        // row too. Rewriting the surviving rows atomically resets the file
        // to a clean append point.
        std::ostringstream healed;
        healed << header << '\n';
        for (const auto& [bc, r] : journal_) healed << journal_row(bc.first, bc.second, r) << '\n';
        util::atomic_write_text(path, healed.str());
      }
      return;  // keep appending to the validated file
    }
  }

  // Missing (or just quarantined): publish a fresh journal, header first,
  // atomically — a crash here leaves either no file or a valid empty one.
  util::atomic_write_text(path, header + '\n');
}

void BlockwiseExplorer::journal_append(const std::string& base_name, int cut_node,
                                       const AccuracyResult& r) {
  // Append-only: a crash can tear at most the final row, which the next
  // load rejects via its checksum and simply recomputes.
  std::ofstream out(journal_path_, std::ios::app);
  out << journal_row(base_name, cut_node, r) << '\n';
}

Candidate BlockwiseExplorer::lab_stub(zoo::NetId base, int cut_node, int blocks_removed) {
  Candidate c;
  c.base = base;
  c.base_name = zoo::net_name(base);
  c.trn_name = lab_.name(base, cut_node);
  c.cut_node = cut_node;
  c.blocks_removed = blocks_removed;
  c.layers_removed = lab_.layers_removed(base, cut_node);
  c.layers_remaining = lab_.layers_remaining(base, cut_node);
  c.latency_ms = lab_.measured_ms(base, cut_node);
  c.train_hours = lab_.training_hours(base, cut_node);
  return c;
}

Candidate BlockwiseExplorer::evaluate_cut(zoo::NetId base, int cut_node, int blocks_removed) {
  Candidate c = lab_stub(base, cut_node, blocks_removed);
  const AccuracyResult acc = evaluator_.accuracy(base, cut_node);
  c.accuracy = acc.angular_similarity;
  c.top1 = acc.top1;
  return c;
}

std::vector<Candidate> BlockwiseExplorer::evaluate_cuts(
    zoo::NetId base, const std::vector<std::pair<int, int>>& cuts) {
  // Phase 1 (serial): the LatencyLab is not thread-safe (memo maps), but its
  // analytical measurements are cheap relative to head retraining.
  std::vector<Candidate> out;
  out.reserve(cuts.size());
  for (const auto& [cut_node, blocks_removed] : cuts)
    out.push_back(lab_stub(base, cut_node, blocks_removed));

  // Journal resume: candidates whose retraining already completed in a
  // previous (interrupted) run take their accuracy straight from the
  // journal. The lab phase above still ran for every candidate, in the
  // original order, so the measurement RNG streams — which are seeded by
  // call order — are identical to an uninterrupted sweep.
  std::vector<bool> journaled(out.size(), false);
  if (!journal_path_.empty()) {
    util::MutexLock lock(journal_mutex_);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto it = journal_.find({out[i].base_name, out[i].cut_node});
      if (it == journal_.end()) continue;
      out[i].accuracy = it->second.angular_similarity;
      out[i].top1 = it->second.top1;
      journaled[i] = true;
      ++journal_hits_;
    }
  }

  // Phase 2 (parallel): per-cut head retraining dominates and each TRN is
  // independent. Feature extraction happens once, up front, at the outer
  // parallelism level; each candidate's head is seeded from its cut key, so
  // the result set is identical at any thread count.
  bool all_journaled = true;
  for (std::size_t i = 0; i < out.size(); ++i)
    if (!journaled[i]) all_journaled = false;
  if (all_journaled) return out;  // skip the expensive feature extraction too

  evaluator_.prepare(base);
  util::parallel_for(
      0, static_cast<std::int64_t>(out.size()), 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          if (journaled[static_cast<std::size_t>(i)]) continue;
          Candidate& c = out[static_cast<std::size_t>(i)];
          const AccuracyResult acc = evaluator_.accuracy(base, c.cut_node);
          c.accuracy = acc.angular_similarity;
          c.top1 = acc.top1;
          if (!journal_path_.empty()) {
            util::MutexLock lock(journal_mutex_);
            journal_[{c.base_name, c.cut_node}] = {c.accuracy, c.top1};
            journal_append(c.base_name, c.cut_node, {c.accuracy, c.top1});
          }
        }
      });
  return out;
}

std::vector<Candidate> BlockwiseExplorer::explore(zoo::NetId base, bool include_full) {
  const std::vector<int>& cuts = lab_.blockwise(base);
  std::vector<std::pair<int, int>> plan;
  if (include_full) plan.emplace_back(lab_.full_cut(base), 0);
  const int blocks = static_cast<int>(cuts.size());
  // Removing the last k blocks keeps blocks 0..B-1-k; always keep >= 1.
  for (int k = 1; k <= blocks - 1; ++k)
    plan.emplace_back(cuts[static_cast<std::size_t>(blocks - 1 - k)], k);
  return evaluate_cuts(base, plan);
}

std::vector<Candidate> BlockwiseExplorer::explore_all(bool include_full) {
  std::vector<Candidate> out;
  for (zoo::NetId id : zoo::all_nets()) {
    std::vector<Candidate> per = explore(id, include_full);
    out.insert(out.end(), per.begin(), per.end());
  }
  return out;
}

std::vector<Candidate> BlockwiseExplorer::explore_iterative(zoo::NetId base,
                                                            bool include_full) {
  const std::vector<int>& cuts = lab_.iterative(base);
  std::vector<std::pair<int, int>> plan;
  const int n = static_cast<int>(cuts.size());
  // cuts.back() is the trunk output; earlier entries remove progressively
  // more layers. Keep at least the first dominator.
  for (int i = n - 1; i >= 1; --i) {
    const bool is_full = i == n - 1;
    if (is_full && !include_full) continue;
    plan.emplace_back(cuts[static_cast<std::size_t>(i)], is_full ? 0 : -1);
  }
  return evaluate_cuts(base, plan);
}

double BlockwiseExplorer::total_train_hours(const std::vector<Candidate>& candidates) {
  double h = 0.0;
  for (const Candidate& c : candidates) h += c.train_hours;
  return h;
}

}  // namespace netcut::core
