#include "telemetry/health.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>

namespace lcr::telemetry {

namespace {

/// Median of a non-empty vector (lower median for even sizes).
std::uint64_t median_of(std::vector<std::uint64_t> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

HealthMonitor::HealthMonitor(std::size_t hosts, Registry* registry,
                             HealthConfig cfg)
    : cfg_(cfg), hosts_(hosts), registry_(registry) {
  // Counter baselines start at the registry's current values so phases never
  // inherit deltas from before the monitor existed (warm-up traffic).
  last_retransmits_ = registry_->sum("rel.retransmits");
  last_fault_dropped_ = registry_->sum("fault.dropped");
  last_crc_ = registry_->sum("rel.crc_dropped");
  last_probes_ = registry_->sum("rel.probes_tx");
  last_stash_ = registry_->sum("sync.stash_drops");
  last_ckpt_ = registry_->sum("ckpt.stage_ns") + registry_->sum("ckpt.seal_ns");
}

void HealthMonitor::sample_deltas_locked(HealthPhase& row) {
  const std::uint64_t retransmits = registry_->sum("rel.retransmits");
  const std::uint64_t fault_dropped = registry_->sum("fault.dropped");
  const std::uint64_t crc = registry_->sum("rel.crc_dropped");
  const std::uint64_t probes = registry_->sum("rel.probes_tx");
  const std::uint64_t stash = registry_->sum("sync.stash_drops");
  const std::uint64_t ckpt =
      registry_->sum("ckpt.stage_ns") + registry_->sum("ckpt.seal_ns");
  // Counters are monotonic, but a runner-side Registry::reset() between
  // rounds would rewind them; clamp instead of underflowing.
  const auto delta = [](std::uint64_t now, std::uint64_t& last) {
    const std::uint64_t d = now >= last ? now - last : 0;
    last = now;
    return d;
  };
  row.d_retransmits = delta(retransmits, last_retransmits_);
  row.d_fault_dropped = delta(fault_dropped, last_fault_dropped_);
  row.d_crc_dropped = delta(crc, last_crc_);
  row.d_probes = delta(probes, last_probes_);
  row.d_stash_drops = delta(stash, last_stash_);
  row.d_ckpt_ns = delta(ckpt, last_ckpt_);
}

void HealthMonitor::note_phase(std::uint32_t host, std::uint32_t phase_id,
                               std::uint64_t dur_ns, std::uint64_t bytes) {
  if (host >= hosts_) return;
  std::lock_guard<std::mutex> guard(mu_);
  auto [it, inserted] = row_of_phase_.try_emplace(phase_id, rows_.size());
  if (inserted) {
    rows_.emplace_back();
    rows_.back().phase_id = phase_id;
    rows_.back().dur_ns.assign(hosts_, 0);
    rows_.back().bytes.assign(hosts_, 0);
    reported_.push_back(0);
  }
  HealthPhase& row = rows_[it->second];
  if (row.dur_ns[host] == 0) ++reported_[it->second];
  row.dur_ns[host] = dur_ns == 0 ? 1 : dur_ns;
  row.bytes[host] = bytes;
  if (reported_[it->second] == hosts_ && !row.complete) {
    row.complete = true;
    // The last reporter just cleared the phase barrier on its host: sampling
    // here piggybacks the cluster snapshot on synchronization the engines
    // already paid for.
    sample_deltas_locked(row);
  }
}

HealthReport HealthMonitor::diagnose() const {
  HealthReport report;
  report.hosts = hosts_;
  {
    std::lock_guard<std::mutex> guard(mu_);
    report.timeline = rows_;
  }
  std::stable_sort(report.timeline.begin(), report.timeline.end(),
                   [](const HealthPhase& a, const HealthPhase& b) {
                     return a.phase_id < b.phase_id;
                   });
  const auto& rows = report.timeline;

  // --- straggler: repeated per-phase minimum with significant skew ---
  std::vector<std::size_t> argmin_wins(hosts_, 0);
  std::vector<double> skew_sum(hosts_, 0.0);
  std::size_t complete_rows = 0;
  for (const HealthPhase& row : rows) {
    if (!row.complete || hosts_ < 2) continue;
    ++complete_rows;
    std::size_t argmin = 0;
    for (std::size_t h = 1; h < hosts_; ++h)
      if (row.dur_ns[h] < row.dur_ns[argmin]) argmin = h;
    const std::uint64_t med = median_of(row.dur_ns);
    const double skew = static_cast<double>(med) /
                        static_cast<double>(row.dur_ns[argmin]);
    if (skew >= cfg_.straggler_ratio) {
      ++argmin_wins[argmin];
      skew_sum[argmin] += skew;
    }
  }
  // Quiet phases carry no information about who is dragging, and short
  // auxiliary phases cast near-threshold noise votes; a host is the
  // straggler when it accounts for the majority of the *skew mass* across
  // the skewed phases (a repeated 100x skew can never be outvoted by a few
  // 1.5x blips), with at least two wins so one noisy phase never convicts.
  double total_skew = 0.0;
  std::size_t skewed_rows = 0;
  for (std::size_t h = 0; h < hosts_; ++h) {
    total_skew += skew_sum[h];
    skewed_rows += argmin_wins[h];
  }
  if (complete_rows >= cfg_.straggler_min_phases && total_skew > 0.0) {
    for (std::size_t h = 0; h < hosts_; ++h) {
      const double share = skew_sum[h] / total_skew;
      if (argmin_wins[h] < 2 || share < cfg_.straggler_share) continue;
      HealthFinding f;
      f.kind = "straggler";
      f.host = static_cast<int>(h);
      f.phase_lo = rows.front().phase_id;
      f.phase_hi = rows.back().phase_id;
      f.severity = skew_sum[h] / static_cast<double>(argmin_wins[h]);
      f.detail = "host " + std::to_string(h) + " entered the sync phase " +
                 "last in " + std::to_string(argmin_wins[h]) + "/" +
                 std::to_string(skewed_rows) + " skewed phases (peers " +
                 "waited " + std::to_string(f.severity) + "x longer)";
      report.findings.push_back(std::move(f));
    }
  }

  // --- retransmit storm: contiguous phases with retransmissions ---
  // --- apply backlog: contiguous phases with stash drops ---
  const auto episodes = [&rows, &report](
                            const char* kind,
                            const std::function<std::uint64_t(
                                const HealthPhase&)>& measure,
                            std::uint64_t min_total, std::string what) {
    std::size_t i = 0;
    while (i < rows.size()) {
      if (measure(rows[i]) == 0) {
        ++i;
        continue;
      }
      std::size_t j = i;
      std::uint64_t total = 0;
      while (j < rows.size() && measure(rows[j]) != 0)
        total += measure(rows[j++]);
      if (total >= min_total) {
        HealthFinding f;
        f.kind = kind;
        f.phase_lo = rows[i].phase_id;
        f.phase_hi = rows[j - 1].phase_id;
        f.severity = static_cast<double>(total);
        f.detail = std::to_string(total) + " " + what + " across phases " +
                   std::to_string(f.phase_lo) + ".." +
                   std::to_string(f.phase_hi);
        report.findings.push_back(std::move(f));
      }
      i = j;
    }
  };
  episodes(
      "retransmit_storm",
      [](const HealthPhase& r) { return r.d_retransmits + r.d_crc_dropped; },
      cfg_.storm_retransmits, "retransmissions");
  episodes(
      "apply_backlog",
      [](const HealthPhase& r) { return r.d_stash_drops; },
      cfg_.backlog_stash_drops, "apply-stash drops");

  // --- checkpoint interference: slow phases overlapping checkpoint work ---
  std::vector<std::uint64_t> quiet_walls;
  for (const HealthPhase& row : rows) {
    if (!row.complete || row.d_ckpt_ns != 0) continue;
    quiet_walls.push_back(
        *std::max_element(row.dur_ns.begin(), row.dur_ns.end()));
  }
  if (!quiet_walls.empty()) {
    const std::uint64_t baseline = median_of(std::move(quiet_walls));
    for (const HealthPhase& row : rows) {
      if (!row.complete || row.d_ckpt_ns == 0) continue;
      const std::uint64_t wall =
          *std::max_element(row.dur_ns.begin(), row.dur_ns.end());
      const double ratio =
          static_cast<double>(wall) / static_cast<double>(baseline);
      if (ratio < cfg_.ckpt_ratio) continue;
      HealthFinding f;
      f.kind = "checkpoint_interference";
      f.phase_lo = f.phase_hi = row.phase_id;
      f.severity = ratio;
      f.detail = "phase " + std::to_string(row.phase_id) + " ran " +
                 std::to_string(ratio) + "x the checkpoint-free median " +
                 "while checkpointing";
      report.findings.push_back(std::move(f));
    }
  }

  return report;
}

bool HealthMonitor::write_json(const std::string& path) const {
  const HealthReport report = diagnose();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  std::fprintf(f, "{\n\"hosts\": %zu,\n\"phases\": %zu,\n", report.hosts,
               report.timeline.size());
  std::fputs("\"timeline\": [", f);
  bool first = true;
  for (const HealthPhase& row : report.timeline) {
    std::fprintf(f, "%s\n{\"phase\":%u,\"complete\":%s,\"dur_ns\":[",
                 first ? "" : ",", row.phase_id,
                 row.complete ? "true" : "false");
    first = false;
    for (std::size_t h = 0; h < row.dur_ns.size(); ++h)
      std::fprintf(f, "%s%llu", h == 0 ? "" : ",",
                   static_cast<unsigned long long>(row.dur_ns[h]));
    std::fputs("],\"bytes\":[", f);
    for (std::size_t h = 0; h < row.bytes.size(); ++h)
      std::fprintf(f, "%s%llu", h == 0 ? "" : ",",
                   static_cast<unsigned long long>(row.bytes[h]));
    std::fprintf(
        f,
        "],\"retransmits\":%llu,\"fault_dropped\":%llu,\"crc_dropped\":%llu,"
        "\"probes\":%llu,\"stash_drops\":%llu,\"ckpt_ns\":%llu}",
        static_cast<unsigned long long>(row.d_retransmits),
        static_cast<unsigned long long>(row.d_fault_dropped),
        static_cast<unsigned long long>(row.d_crc_dropped),
        static_cast<unsigned long long>(row.d_probes),
        static_cast<unsigned long long>(row.d_stash_drops),
        static_cast<unsigned long long>(row.d_ckpt_ns));
  }
  std::fputs("\n],\n\"findings\": [", f);
  first = true;
  for (const HealthFinding& finding : report.findings) {
    std::fprintf(f,
                 "%s\n{\"kind\":\"%s\",\"host\":%d,\"phase_lo\":%u,"
                 "\"phase_hi\":%u,\"severity\":%.3f,\"detail\":\"%s\"}",
                 first ? "" : ",", finding.kind.c_str(), finding.host,
                 finding.phase_lo, finding.phase_hi, finding.severity,
                 finding.detail.c_str());
    first = false;
  }
  std::fputs("\n]\n}\n", f);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

void HealthMonitor::reset() {
  std::lock_guard<std::mutex> guard(mu_);
  rows_.clear();
  row_of_phase_.clear();
  reported_.clear();
}

}  // namespace lcr::telemetry
