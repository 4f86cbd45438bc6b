// The live-daemon job: an in-process NotaryDaemon on loopback, driven by one
// open-loop generator thread with fresh client/server randoms and session
// ids on every capture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace perfbench {

class SpanLog;

/// One rate step of a ladder. Rungs run back to back on the same daemon.
struct Rung {
  std::string name;
  /// Aggregate offered rate, captures per second.
  double rate = 0;
  double seconds = 0;
  /// Latency windows the rung is cut into; p50/p99 are the medians of the
  /// per-window quantiles.
  std::size_t windows = 1;
  /// Warm-up rungs feed the daemon (and the checks) but not the statistics.
  bool warmup = false;
};

/// A sequence of rungs against one freshly started daemon.
struct Ladder {
  std::size_t shards = 1;
  std::vector<Rung> rungs;
};

struct DaemonJob {
  std::uint64_t seed = 1;
  /// Each ladder's generator opens one connection per shard, each pinned to
  /// its shard (see daemon_job.cpp).
  std::vector<Ladder> ladders;
  /// Extra set-up samples (database + start(), then stop) per measured
  /// cycle, at the first ladder's shard count, besides the one that
  /// ladder's daemon provides.
  std::size_t extra_setups = 0;
  /// Times the ladder sequence is repeated; rung statistics are pooled.
  std::size_t cycles = 1;
  /// Leading cycles that are checked like the others but not measured (the
  /// first stretch of traffic in a fresh process runs markedly slower).
  std::size_t warmup_cycles = 0;
  /// Runs of the first ladder, after the cycles, against a daemon in a
  /// child process (`perfbench serve`), checked like the others; they give
  /// the daemon's own peak RSS.
  std::size_t memory_runs = 0;
  /// Keep a prefix of the sent bytes for the decode timings.
  bool traced = false;
  SpanLog* spans = nullptr;
};

struct RungResult {
  std::string name;
  double rate = 0;
  bool warmup = false;
  std::uint64_t scheduled = 0;
  std::uint64_t sent = 0;
  /// Captures the generator could not send for want of credit.
  std::uint64_t refused = 0;
  std::uint64_t latency_samples = 0;
  /// Client-side latency, due time to the credit that resolves the capture
  /// (refused captures count as infinite): median of per-window quantiles.
  double p50_us = 0;
  double p99_us = 0;
  /// The p99 over the whole rung at once (buckets 1% wide).
  double pooled_p99_us = 0;
  /// Ingested captures per second: the median over the rung's windows of
  /// the captures resolved in each (all sent captures are ingested; the
  /// ledger check proves it).
  double ingest_cps = 0;
  /// How late the open-loop generator fired, per capture (buckets 1% wide).
  double lag_p50_us = 0;
  double lag_p99_us = 0;
};

/// One ladder's results over every cycle (each cycle runs it on a freshly
/// started daemon; every run is checked on its own).
struct LadderResult {
  std::size_t shards = 0;
  /// Set-up of each cycle's daemon: fingerprint database, start(), and a
  /// probe connection until it receives its credit window.
  std::vector<double> setup_s;
  /// Runs of this ladder: every cycle's, plus the memory runs.
  std::uint64_t runs = 0;
  /// Rung statistics pooled over the cycles.
  std::vector<RungResult> rungs;
  // Ledger after quiesce, summed over the cycles.
  std::uint64_t sent = 0;
  std::uint64_t offered = 0;
  std::uint64_t ingested = 0;
  std::uint64_t shed = 0;
  std::uint64_t malformed = 0;
  std::uint64_t distinct_client_randoms = 0;
  /// Runs whose daemon aggregate equalled the batch reference.
  std::uint64_t digests_matched = 0;
  std::uint64_t cache_client_hits = 0;
  std::uint64_t cache_client_lookups = 0;
  std::uint64_t cache_server_hits = 0;
  std::uint64_t cache_server_lookups = 0;
  /// Reference observe_wire cost on these captures (ns per capture), per run.
  std::vector<double> observe_wire_ns;
  // Traced-run extras (first run).
  double frame_decode_ns = 0;
  double capture_decode_ns = 0;
  /// The daemons' merged telemetry (stage histograms, gauges), all runs.
  tls::telemetry::MetricsRegistry metrics;
};

struct DaemonResult {
  /// Set-up samples at the first ladder's shard count: the extra ones and
  /// that ladder's daemons.
  std::vector<double> setup_s;
  std::vector<LadderResult> ladders;
  /// Peak RSS of each memory run's child daemon process, MB.
  std::vector<double> daemon_peak_rss_mb;
};

/// Runs the ladders `cycles` times, each on its own freshly started daemon,
/// and checks every run: the ledger closes (offered == ingested + shed + malformed ==
/// sent), every sent client random is distinct, and the daemon's aggregate
/// equals batch observe_wire over the same captures. Throws GateFailure
/// otherwise.
DaemonResult run_daemon_job(const DaemonJob& job);

/// `perfbench serve`: the child side of a memory run. Starts a daemon with
/// `shards` shards, prints "port N", waits for a line on stdin, then prints
/// the settled ledger, aggregate digest, cache counters and its own peak
/// RSS as "key value" lines ending with "end", and stops. Exits when stdin
/// closes or the parent dies.
int serve_daemon(std::size_t shards);

}  // namespace perfbench
