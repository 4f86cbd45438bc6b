// The batch-study jobs: `study_cli export --checkpoint-dir` run through the
// library's public API (LongitudinalStudy), fresh or resumed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/render.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

class SpanLog;

struct StudyJob {
  std::uint64_t seed = 1;
  std::size_t connections_per_month = 5000;
  /// Threads doing the work: the caller plus (total_threads - 1) pool
  /// workers (StudyOptions::threads counts only the pool workers).
  unsigned total_threads = 1;
  std::string checkpoint_dir;
  std::string csv_dir;
  bool resume = false;
  /// The study's own telemetry registry and pipeline spans.
  bool telemetry = false;
  /// Benchmark-side spans around the public calls (traced run only).
  SpanLog* spans = nullptr;
};

struct StudyResult {
  double setup_s = 0;
  double wall_s = 0;
  /// FNV-1a-64 of the concatenated CSV files, in export order.
  std::string csv_digest;
  /// Passive shard tasks plus scan probes the job is made of.
  std::uint64_t tasks = 0;
  /// Tasks rerun by the watchdog or quarantined by the journal.
  std::uint64_t failed = 0;
  tls::analysis::RecoveryReport recovery;
  std::uint64_t connections = 0;
  tls::telemetry::MetricsRegistry metrics;
  tls::telemetry::TraceRecorder trace;
};

/// Builds a LongitudinalStudy (set-up), runs run() + export_figures()
/// (wall), then checks the CSVs: all 11 present, each with a header and
/// rows of the header's width. Throws GateFailure on a malformed export.
StudyResult run_study_job(const StudyJob& job);

/// One more set-up sample: builds the job's LongitudinalStudy and drops it,
/// touching no file. Returns the seconds the construction took.
double time_study_setup(const StudyJob& job);

}  // namespace perfbench
