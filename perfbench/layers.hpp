// Per-layer attribution for the traced run: times the public functions of
// each module from the benchmark's side, and reads the telemetry the
// program already keeps (the study's metrics registry and pipeline spans,
// the daemon's log-linear stage histograms).
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog;
struct StudyResult;
struct LadderResult;

/// Ordered (name, value) pairs; names are the per_layer metric names.
using LayerMetrics = std::vector<std::pair<std::string, double>>;

/// setup.*: catalog, fingerprint database, servers, market (median of
/// `repeats` builds each).
void setup_layers(int repeats, LayerMetrics& out, SpanLog* spans);

/// population.*, handshake.*, wire.*, fingerprint.* and
/// notary.observe_ns_per_conn, on generated traffic.
void micro_layers(std::uint64_t seed, LayerMetrics& out, SpanLog* spans);

/// core.* and notary.*, analysis.*, scan.* read from a telemetry-on export
/// at `total_threads`.
void study_layers(const StudyResult& traced_export, unsigned total_threads,
                  LayerMetrics& out);

/// core.replay_s and the frame counts (journal scan/replay of a complete
/// journal), plus the snapshot codec and absorb over its passive frames.
void journal_layers(const std::string& checkpoint_dir, std::uint64_t seed,
                    std::size_t connections_per_month, LayerMetrics& out,
                    SpanLog* spans);

/// daemon.* and notary.observe_wire_ns from a steady ladder and an
/// overload ladder (each a warm-up rung then the measured rung).
void daemon_layers(const LadderResult& steady, const LadderResult& overload,
                   LayerMetrics& out);

}  // namespace perfbench
