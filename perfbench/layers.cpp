#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string_view>

#include "clients/catalog.hpp"
#include "common.hpp"
#include "core/checkpoint.hpp"
#include "core/study.hpp"
#include "daemon_job.hpp"
#include "fingerprint/fingerprint.hpp"
#include "fingerprint/md5.hpp"
#include "fingerprint/md5_multilane.hpp"
#include "handshake/negotiate.hpp"
#include "notary/snapshot.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "spans.hpp"
#include "study_jobs.hpp"
#include "tlscore/rng.hpp"
#include "wire/client_hello.hpp"
#include "wire/server_hello.hpp"

namespace perfbench {

namespace {

/// Repeats `body` (which processes `items` items per call) until at least
/// `min_ns` have passed; returns nanoseconds per item.
template <typename Body>
double ns_per_item(std::size_t items, Body&& body,
                   std::uint64_t min_ns = 50'000'000) {
  std::uint64_t done = 0;
  const std::uint64_t t0 = now_ns();
  std::uint64_t elapsed = 0;
  do {
    body();
    done += items;
    elapsed = now_ns() - t0;
  } while (elapsed < min_ns);
  return static_cast<double>(elapsed) / static_cast<double>(done);
}

std::uint64_t counter_value(const tls::telemetry::MetricsRegistry& reg,
                            std::string_view name, std::string_view labels = {}) {
  const auto* m = reg.find(name, labels);
  if (m == nullptr) return 0;
  return m->kind == tls::telemetry::MetricKind::kGauge ? m->gauge.value
                                                       : m->counter.value;
}

const tls::telemetry::Histogram* histogram(
    const tls::telemetry::MetricsRegistry& reg, std::string_view name) {
  const auto* m = reg.find(name);
  return m == nullptr ? nullptr : &m->histogram;
}

double hist_mean(const tls::telemetry::MetricsRegistry& reg,
                 std::string_view name) {
  const auto* h = histogram(reg, name);
  return h == nullptr ? 0.0 : h->mean();
}

double hist_sum(const tls::telemetry::MetricsRegistry& reg,
                std::string_view name) {
  const auto* h = histogram(reg, name);
  return h == nullptr ? 0.0 : static_cast<double>(h->sum);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Quantile of a bucketed histogram, interpolated linearly inside the
/// bucket that holds it and clamped to the exact min/max.
double bucket_quantile(const tls::telemetry::Histogram& h, double q) {
  if (h.count == 0) return 0.0;
  const double target = q * static_cast<double>(h.count);
  double cum = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const auto n = static_cast<double>(h.counts[i]);
    if (n > 0 && cum + n >= target) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(h.bounds[i - 1]);
      const double hi = i < h.bounds.size() ? static_cast<double>(h.bounds[i])
                                            : static_cast<double>(h.max);
      const double v = lo + (hi - lo) * (target - cum) / n;
      return std::clamp(v, static_cast<double>(h.min),
                        static_cast<double>(h.max));
    }
    cum += n;
  }
  return static_cast<double>(h.max);
}

}  // namespace

void setup_layers(int repeats, LayerMetrics& out, SpanLog* spans) {
  std::vector<double> catalog_s, database_s, servers_s, market_s;
  for (int i = 0; i < repeats; ++i) {
    std::uint64_t t = now_ns();
    std::optional<tls::clients::Catalog> catalog;
    {
      Span span(spans, "setup.catalog");
      catalog.emplace(tls::clients::Catalog::standard());
    }
    catalog_s.push_back(seconds_since(t));
    t = now_ns();
    {
      Span span(spans, "setup.database");
      const auto db = tls::study::LongitudinalStudy::build_database(*catalog);
      if (db.size() == 0) throw GateFailure{"empty fingerprint database"};
    }
    database_s.push_back(seconds_since(t));
    t = now_ns();
    std::optional<tls::servers::ServerPopulation> servers;
    {
      Span span(spans, "setup.servers");
      servers.emplace(tls::servers::ServerPopulation::standard());
    }
    servers_s.push_back(seconds_since(t));
    t = now_ns();
    {
      Span span(spans, "setup.market");
      const auto market = tls::population::MarketModel::standard(*catalog);
      (void)market;
    }
    market_s.push_back(seconds_since(t));
  }
  out.emplace_back("setup.catalog_s", median(catalog_s));
  out.emplace_back("setup.database_s", median(database_s));
  out.emplace_back("setup.servers_s", median(servers_s));
  out.emplace_back("setup.market_s", median(market_s));
}

void micro_layers(std::uint64_t seed, LayerMetrics& out, SpanLog* spans) {
  const auto catalog = tls::clients::Catalog::standard();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  const auto database = tls::study::LongitudinalStudy::build_database(catalog);

  // population + notary: the study's generate -> observe_span pipeline on
  // one thread, timed per batch the way the study's telemetry splits it.
  tls::population::TrafficGenerator gen(market, servers, seed);
  tls::notary::PassiveMonitor monitor(&database);
  std::vector<tls::population::ConnectionEvent> sample;
  constexpr std::size_t kSample = 4096;
  constexpr std::size_t kPerMonth = 4000;
  const auto sink_into = [&](std::uint64_t* observe_ns, bool collect) {
    return [&, observe_ns, collect](
               std::span<const tls::population::ConnectionEvent> events) {
      for (const auto& e : events) {
        if (collect && sample.size() < kSample && !e.sslv2) sample.push_back(e);
      }
      const std::uint64_t t = now_ns();
      monitor.observe_span(events);
      *observe_ns += now_ns() - t;
    };
  };
  // Warm-up month: compiles the generator's templates and plans, and
  // supplies the sample for the per-call timings below.
  std::uint64_t warm_observe = 0;
  gen.generate_month_batched(tls::core::Month(2015, 12), kPerMonth, 256,
                             sink_into(&warm_observe, true));
  const auto before = gen.gen_cache_stats();
  std::uint64_t observe_ns = 0;
  std::size_t conns = 0;
  const std::uint64_t t0 = now_ns();
  {
    Span span(spans, "population+notary.generate_observe");
    for (int month = 1; month <= 12; ++month) {
      gen.generate_month_batched(tls::core::Month(2016, month), kPerMonth, 256,
                                 sink_into(&observe_ns, false));
      conns += kPerMonth;
    }
  }
  const std::uint64_t total_ns = now_ns() - t0;
  const auto after = gen.gen_cache_stats();
  out.emplace_back("population.generate_ns_per_conn",
                   static_cast<double>(total_ns - observe_ns) /
                       static_cast<double>(conns));
  out.emplace_back("population.template_hit_ratio",
                   ratio(after.template_hits - before.template_hits, conns));
  out.emplace_back("population.plan_hit_ratio",
                   ratio(after.plan_hits - before.plan_hits,
                         after.plan_hits - before.plan_hits + after.plan_misses -
                             before.plan_misses));
  out.emplace_back("notary.observe_ns_per_conn",
                   static_cast<double>(observe_ns) / static_cast<double>(conns));
  if (sample.empty()) throw GateFailure{"no TLS connections generated"};

  // handshake: negotiate() on the sampled (hello, server) pairs.
  {
    Span span(spans, "handshake.negotiate");
    tls::core::Rng rng(seed);
    std::uint64_t sink = 0;
    const double ns = ns_per_item(sample.size(), [&] {
      for (const auto& e : sample) {
        sink += tls::handshake::negotiate(e.hello, e.server->config, rng)
                    .negotiated_version;
      }
    });
    if (sink == 0) throw GateFailure{"negotiate() selected no version"};
    out.emplace_back("handshake.negotiate_ns", ns);
  }

  // wire: parse the serialized records.
  std::vector<std::vector<std::uint8_t>> client_records, server_records;
  for (const auto& e : sample) {
    client_records.push_back(e.client_record.empty() ? e.hello.serialize_record()
                                                     : e.client_record);
    if (e.result.server_hello) {
      server_records.push_back(e.result.server_hello->serialize_record());
    }
  }
  std::vector<tls::wire::ClientHello> hellos;
  {
    Span span(spans, "wire.client_hello_parse");
    std::uint64_t sink = 0;
    out.emplace_back("wire.client_hello_parse_ns",
                     ns_per_item(client_records.size(), [&] {
                       for (const auto& r : client_records) {
                         sink += tls::wire::ClientHello::parse_record(r)
                                     .cipher_suites.size();
                       }
                     }));
    for (const auto& r : client_records) {
      hellos.push_back(tls::wire::ClientHello::parse_record(r));
    }
    if (sink == 0) throw GateFailure{"parsed hellos offer no suites"};
  }
  {
    Span span(spans, "wire.server_hello_parse");
    std::uint64_t sink = 0;
    out.emplace_back("wire.server_hello_parse_ns",
                     ns_per_item(server_records.size(), [&] {
                       for (const auto& r : server_records) {
                         sink += tls::wire::ServerHello::parse_record(r)
                                     .cipher_suite;
                       }
                     }));
    if (sink == 0) throw GateFailure{"parsed server hellos chose no suite"};
  }

  // fingerprint: canonical form + MD5 per hello, and the batch MD5 kernel.
  std::vector<std::string> canonicals;
  {
    Span span(spans, "fingerprint.extract");
    std::size_t sink = 0;
    out.emplace_back("fingerprint.extract_ns", ns_per_item(hellos.size(), [&] {
                       for (const auto& h : hellos) {
                         sink += tls::fp::extract_fingerprint(h).hash().size();
                       }
                     }));
    for (const auto& h : hellos) {
      canonicals.push_back(tls::fp::extract_fingerprint(h).canonical());
    }
    if (sink == 0) throw GateFailure{"empty fingerprint hashes"};
  }
  {
    Span span(spans, "fingerprint.md5_batch");
    std::vector<std::string_view> views(canonicals.begin(), canonicals.end());
    std::vector<std::array<std::uint8_t, 16>> digests(views.size());
    out.emplace_back("fingerprint.md5_batch_ns_per_msg",
                     ns_per_item(views.size(),
                                 [&] { tls::fp::md5_batch(views, digests); }));
    if (tls::fp::extract_fingerprint(hellos[0]).hash() !=
        tls::fp::to_hex(digests[0])) {
      throw GateFailure{"md5_batch disagrees with Fingerprint::hash"};
    }
  }
}

void study_layers(const StudyResult& r, unsigned total_threads,
                  LayerMetrics& out) {
  const auto& m = r.metrics;
  const std::uint64_t fast = counter_value(m, "tls_repro_notary_fast_path_total");
  const std::uint64_t byte = counter_value(m, "tls_repro_notary_byte_path_total");
  out.emplace_back("notary.fast_path_ratio", ratio(fast, fast + byte));
  for (const char* side : {"client", "server"}) {
    const std::string labels = std::string("side=\"") + side + "\"";
    const auto hits =
        counter_value(m, "tls_repro_observe_cache_hits_total", labels);
    const auto misses =
        counter_value(m, "tls_repro_observe_cache_misses_total", labels);
    out.emplace_back(std::string("notary.cache_") + side + "_hit_ratio",
                     ratio(hits, hits + misses));
  }
  out.emplace_back("notary.quarantined",
                   static_cast<double>(
                       counter_value(m, "tls_repro_quarantine_pushed_total")));

  std::vector<std::uint64_t> tasks;
  for (const auto& e : r.trace.events()) {
    if (e.name == "shard_task") tasks.push_back(e.dur_us);
  }
  out.emplace_back("core.task_p50_ms", quantile(tasks, 0.50) / 1e3);
  out.emplace_back("core.task_p98_ms", quantile(tasks, 0.98) / 1e3);
  const auto busy = counter_value(m, "tls_repro_pool_busy_us");
  const auto wall = counter_value(m, "tls_repro_pool_wall_us");
  out.emplace_back("core.pool_busy_ratio",
                   ratio(busy, wall * std::max(1u, total_threads)));
  // Where the pool's task time goes: generate and observe inside the
  // passive tasks, the snapshot encode of every task's journal frame, and
  // the active-scan probes.
  const auto share = [&](std::string_view hist) {
    return busy == 0 ? 0.0 : hist_sum(m, hist) / static_cast<double>(busy);
  };
  out.emplace_back("core.task_share_generate",
                   share("tls_repro_pipeline_generate_us"));
  out.emplace_back("core.task_share_observe",
                   share("tls_repro_pipeline_observe_us"));
  out.emplace_back("core.task_share_snapshot_encode",
                   share("tls_repro_checkpoint_encode_us"));
  out.emplace_back("core.task_share_scan_probe",
                   share("tls_repro_scan_probe_us"));
  out.emplace_back("core.journal_append_us_per_frame",
                   hist_mean(m, "tls_repro_checkpoint_append_us"));
  out.emplace_back("core.journal_flush_ms_per_group",
                   hist_mean(m, "tls_repro_journal_flush_us") / 1e3);
  out.emplace_back("core.journal_fsyncs",
                   static_cast<double>(
                       counter_value(m, "tls_repro_journal_fsync_total")));
  out.emplace_back("core.journal_bytes",
                   static_cast<double>(
                       counter_value(m, "tls_repro_journal_bytes_total")));
  out.emplace_back("analysis.export_csv_ms",
                   hist_sum(m, "tls_repro_export_csv_us") / 1e3);
  out.emplace_back("scan.probe_ms", hist_sum(m, "tls_repro_scan_probe_us") / 1e3);
}

void journal_layers(const std::string& checkpoint_dir, std::uint64_t seed,
                    std::size_t connections_per_month, LayerMetrics& out,
                    SpanLog* spans) {
  tls::study::StudyOptions opts;
  opts.seed = seed;
  opts.connections_per_month = connections_per_month;
  const auto servers = tls::servers::ServerPopulation::standard();
  tls::study::RunJournal::Config config;
  config.directory = checkpoint_dir;
  config.resume = true;
  config.manifest = tls::study::make_manifest(opts, servers.segments().size());
  config.mode = opts.journal_mode;
  config.group_frames = opts.journal_group_frames;
  config.group_ms = opts.journal_group_ms;

  const std::uint64_t t0 = now_ns();
  std::optional<tls::study::RunJournal> journal;
  {
    Span span(spans, "core.journal_replay");
    journal.emplace(std::move(config));
  }
  out.emplace_back("core.replay_s", seconds_since(t0));
  const auto report = journal->snapshot_report();
  out.emplace_back("core.frames_replayed",
                   static_cast<double>(report.frames_replayed));
  out.emplace_back("core.frames_quarantined",
                   static_cast<double>(report.frames_torn + report.frames_corrupt +
                                       report.frames_mismatched +
                                       report.frames_duplicate));

  std::vector<const std::vector<std::uint8_t>*> payloads;
  for (auto m = opts.window.begin_month; m <= opts.window.end_month; ++m) {
    for (std::size_t s = 0; s < opts.shards_per_month; ++s) {
      const auto* p = journal->replayed(tls::study::FrameKind::kPassiveShard,
                                        static_cast<std::uint32_t>(m.index()),
                                        static_cast<std::uint32_t>(s));
      if (p == nullptr) throw GateFailure{"journal lacks a passive frame"};
      payloads.push_back(p);
    }
  }
  const auto database = tls::study::LongitudinalStudy::build_database(
      tls::clients::Catalog::standard());
  std::vector<tls::notary::PassiveMonitor> monitors;
  monitors.reserve(payloads.size());
  std::uint64_t t = now_ns();
  {
    Span span(spans, "notary.snapshot_decode");
    for (const auto* p : payloads) {
      monitors.push_back(tls::notary::decode_monitor_state(*p, &database));
    }
  }
  out.emplace_back("notary.snapshot_decode_us_per_frame",
                   static_cast<double>(now_ns() - t) / 1e3 /
                       static_cast<double>(payloads.size()));
  t = now_ns();
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(monitors.size());
  {
    Span span(spans, "notary.snapshot_encode");
    for (const auto& mon : monitors) {
      encoded.push_back(tls::notary::encode_monitor_state(mon));
    }
  }
  out.emplace_back("notary.snapshot_encode_us_per_frame",
                   static_cast<double>(now_ns() - t) / 1e3 /
                       static_cast<double>(monitors.size()));
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (encoded[i] != *payloads[i]) {
      throw GateFailure{"snapshot codec does not round-trip a journal frame"};
    }
  }
  t = now_ns();
  {
    Span span(spans, "notary.absorb");
    tls::notary::PassiveMonitor aggregate(&database);
    for (const auto& mon : monitors) aggregate.absorb(mon);
  }
  out.emplace_back("notary.absorb_ms", static_cast<double>(now_ns() - t) / 1e6);
}

void daemon_layers(const LadderResult& steady, const LadderResult& overload,
                   LayerMetrics& out) {
  out.emplace_back("daemon.frame_decode_ns", steady.frame_decode_ns);
  out.emplace_back("daemon.capture_decode_ns", steady.capture_decode_ns);
  out.emplace_back("notary.observe_wire_ns", median(steady.observe_wire_ns));
  // Stage histograms: fold the shards, then read p50/p99 per stage.
  std::map<std::string, tls::telemetry::Histogram> stages;
  for (const auto& [key, metric] : steady.metrics.metrics()) {
    if (metric.name != "tls_repro_daemon_stage_us") continue;
    const auto at = metric.labels.find("stage=\"");
    if (at == std::string::npos) continue;
    const auto begin = at + 7;
    const std::string stage =
        metric.labels.substr(begin, metric.labels.find('"', begin) - begin);
    auto [it, fresh] = stages.try_emplace(stage, metric.histogram);
    if (!fresh) it->second.merge(metric.histogram);
  }
  for (const char* stage :
       {"decode", "enqueue", "queue", "observe", "complete", "grant"}) {
    const auto it = stages.find(stage);
    const tls::telemetry::Histogram empty;
    const auto& h = it == stages.end() ? empty : it->second;
    out.emplace_back(std::string("daemon.stage_") + stage + "_p50_us",
                     bucket_quantile(h, 0.50));
    out.emplace_back(std::string("daemon.stage_") + stage + "_p99_us",
                     bucket_quantile(h, 0.99));
  }
  std::uint64_t peak = 0;
  for (const auto& [key, metric] : overload.metrics.metrics()) {
    if (metric.name == "tls_repro_daemon_queue_depth_peak") {
      peak = std::max(peak, metric.gauge.value);
    }
  }
  out.emplace_back("daemon.queue_depth_peak", static_cast<double>(peak));
  std::uint64_t refused = 0;
  for (const auto& r : overload.rungs) {
    if (!r.warmup) refused += r.refused;
  }
  out.emplace_back("daemon.client_refused", static_cast<double>(refused));
  double lag = 0;
  double ingest_p50 = 0;
  double ingest_p99 = 0;
  for (const auto& r : steady.rungs) {
    if (r.warmup) continue;
    lag = std::max(lag, r.lag_p99_us);
    ingest_p50 = std::max(ingest_p50, r.p50_us);
    ingest_p99 = std::max(ingest_p99, r.pooled_p99_us);
  }
  // A quantile that falls on captures refused for credit is infinite; it
  // reads as the latency histograms' 100 s ceiling, so the metric stays a
  // number (a host stall at the steady rate can cause this).
  const auto capped = [](double us) { return std::isfinite(us) ? us : 1e8; };
  out.emplace_back("daemon.ingest_p50_us", capped(ingest_p50));
  out.emplace_back("daemon.ingest_p99_us", capped(ingest_p99));
  out.emplace_back("daemon.generator_lag_p99_us", lag);
  out.emplace_back("daemon.cache_client_hit_ratio",
                   ratio(steady.cache_client_hits, steady.cache_client_lookups));
  out.emplace_back("daemon.cache_server_hit_ratio",
                   ratio(steady.cache_server_hits, steady.cache_server_lookups));
}

}  // namespace perfbench
