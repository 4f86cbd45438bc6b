// Observe-path throughput: replays pools of captures through
// PassiveMonitor with the ObserveCache off and on, reports connections/sec
// + cache hit rate, and fails if the two monitors disagree on a single
// exported counter.
//
// The headline rows are fresh-random: before every observation the replay
// re-draws each capture's per-connection fields — both 32-byte randoms and
// the session-id bytes (a server that echoed the client's session id
// echoes the fresh one, so resumption still reads as resumption). That is
// the traffic a tap sees, and the case the cache's masked key exists for.
// The patch runs inside the timed loop of both fresh-random rows. The
// pool keeps each GREASE client's GREASE values, which a live client
// re-draws per connection, so this hit rate is an upper bound; the
// study's traced run reports the hit rate on generated traffic.
//
// The replay rows below them observe a fixed pool of byte-identical
// captures over and over: a third run attaches a telemetry registry to
// the cache-on monitor and reports the overhead of the enabled counter
// hooks (the disabled path is the no-op sink: the off/on runs have null
// handles, one branch per event). A low-locality pool gives every capture
// its own server name (distinct keys several times the cache capacity, so
// a cyclic replay evicts every entry before it is seen again) and reports
// the degraded hit rate and residual overhead: the cache must fail soft,
// never wrong.
//
// Cache-off replay rows go per-record through observe_wire (the
// scalar-MD5 reference path); every other row goes through
// observe_wire_batch in generation-sized chunks, exercising the SIMD
// multi-lane miss path. The digest gates therefore also prove
// batched-SIMD == per-record-scalar.
//
// Environment knobs:
//   TLS_BENCH_POOL        distinct captures in the pool (default 400)
//   TLS_BENCH_POOL_COLD   distinct captures in the low-locality pool
//                         (default 16384 — many times the cache capacity)
//   TLS_BENCH_REPLAY      total observations per run (default 200000)
//   TLS_BENCH_REPEATS     timing repeats per row; each repeat replays into
//                         a fresh monitor and the row reports the best
//                         (default 3 — the repeats are deterministic
//                         replicas, so max-throughput filters scheduler
//                         noise without changing any digest)
//   TLS_BENCH_JSON        output path (default BENCH_observe.json)
//   TLS_BENCH_DIGEST_OUT  also write the exported-state digests to this
//                         path (CI compares runs under TLS_MD5_FORCE)
//   TLS_STUDY_SEED        pool-sampling seed (default 42)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <algorithm>
#include <span>

#include "bench_common.hpp"
#include "fingerprint/md5_multilane.hpp"
#include "telemetry/metrics.hpp"
#include "wire/extension_codec.hpp"

namespace {

using tls::core::Month;
using Capture = tls::notary::PassiveMonitor::WireCapture;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 10);
}

// Exhaustive text digest of a monitor's exported state; byte equality of
// two digests is the cache-on/off correctness gate.
std::string digest(const tls::notary::PassiveMonitor& mon) {
  std::ostringstream out;
  for (const auto& [m, s] : mon.months()) {
    out << m.to_string() << ' ' << s.total << ' ' << s.successful << ' '
        << s.failures << ' ' << s.quarantined << ' ' << s.fallbacks << ' '
        << s.spec_violations << ' ' << s.resumed << ' ' << s.adv_aead << ' '
        << s.adv_rc4 << ' ' << s.adv_fs << ' ' << s.heartbeat_negotiated
        << ' ' << s.negotiated_tls13 << '\n';
    for (const auto& [v, n] : s.negotiated_version()) {
      out << "v " << v << ' ' << n << '\n';
    }
    for (const auto& [c, n] : s.negotiated_class()) {
      out << "c " << static_cast<int>(c) << ' ' << n << '\n';
    }
    for (const auto& [k, n] : s.negotiated_kex()) {
      out << "k " << static_cast<int>(k) << ' ' << n << '\n';
    }
    for (const auto& [a, n] : s.negotiated_aead()) {
      out << "a " << static_cast<int>(a) << ' ' << n << '\n';
    }
    for (const auto& [g, n] : s.negotiated_group()) {
      out << "g " << g << ' ' << n << '\n';
    }
    for (const auto& [d, n] : s.alerts()) {
      out << "al " << static_cast<int>(d) << ' ' << n << '\n';
    }
    for (const auto& [e, n] : s.parse_errors()) {
      out << "e " << static_cast<int>(e) << ' ' << n << '\n';
    }
    for (const auto& [hash, flags] : std::map<std::string, std::uint8_t>(
             s.fingerprints.begin(), s.fingerprints.end())) {
      out << "f " << hash << ' ' << static_cast<int>(flags) << '\n';
    }
  }
  return out.str();
}

// Samples `pool_size` non-SSLv2 captures from a fresh generator stream,
// serialized the way batch observe does. With `distinct_hosts`, every
// hello that sends a server name gets its own (h<i>.test), so the pool's
// cache keys are as many as its captures.
std::vector<Capture> build_pool(const tls::population::MarketModel& market,
                                const tls::servers::ServerPopulation& servers,
                                Month m, std::size_t pool_size,
                                std::uint64_t seed, bool distinct_hosts) {
  const tls::core::Date day(m.year(), m.month(), 15);
  const auto sni = tls::core::wire_value(tls::core::ExtensionType::kServerName);
  std::vector<Capture> pool;
  pool.reserve(pool_size);
  tls::population::TrafficGenerator gen(market, servers, seed);
  while (pool.size() < pool_size) {
    gen.generate_month(m, 1, [&](const tls::population::ConnectionEvent& ev) {
      if (ev.sslv2 || pool.size() >= pool_size) return;
      Capture c;
      c.month = m;
      c.day = day;
      tls::notary::serialize_event_records(ev, c.client, c.server, c.ske,
                                           c.alert);
      c.success = ev.result.success;
      c.used_fallback = ev.used_fallback;
      if (distinct_hosts) {
        auto hello = ev.hello;
        for (auto& ext : hello.extensions) {
          if (ext.type != sni) continue;
          ext = tls::wire::make_server_name(
              "h" + std::to_string(pool.size()) + ".test");
          c.client = hello.serialize_record();
        }
      }
      pool.push_back(std::move(c));
    });
  }
  return pool;
}

double replay(tls::notary::PassiveMonitor& mon, const std::vector<Capture>& pool,
              std::size_t total) {
  const double wall = bench::timed_seconds([&] {
    for (std::size_t i = 0; i < total; ++i) {
      const Capture& c = pool[i % pool.size()];
      mon.observe_wire(c.month, c.day, c.client, c.server, c.ske, c.success,
                       c.used_fallback, c.alert);
    }
  });
  return wall > 0 ? static_cast<double>(total) / wall : 0.0;
}

// Batched replay: the study runner's generation size (256) per
// observe_wire_batch call, cycling the pool in contiguous windows.
// `before_batch` (optional) may rewrite a window just before it is
// observed.
template <typename BeforeBatch>
double replay_batched(tls::notary::PassiveMonitor& mon,
                      std::vector<Capture>& pool, std::size_t total,
                      BeforeBatch before_batch) {
  constexpr std::size_t kBatch = 256;
  const double wall = bench::timed_seconds([&] {
    std::size_t pos = 0;
    for (std::size_t left = total; left > 0;) {
      const std::size_t n = std::min({kBatch, pool.size() - pos, left});
      const std::span<Capture> window(pool.data() + pos, n);
      before_batch(window);
      mon.observe_wire_batch(window);
      left -= n;
      pos = (pos + n) % pool.size();
    }
  });
  return wall > 0 ? static_cast<double>(total) / wall : 0.0;
}

double replay_batched(tls::notary::PassiveMonitor& mon,
                      std::vector<Capture>& pool, std::size_t total) {
  return replay_batched(mon, pool, total, [](std::span<Capture>) {});
}

// Record offsets of the per-connection fields, shared by both hellos.
constexpr std::size_t kRandomOffset = tls::population::GenCache::kRandomOffset;
constexpr std::size_t kSessionIdOffset =
    tls::population::GenCache::kSessionIdOffset;

template <typename Bytes>
auto session_id(Bytes& record) {
  return std::span(record).subspan(kSessionIdOffset,
                                   record[kSessionIdOffset - 1]);
}

// Per pool entry: does the server echo a non-empty client session id?
std::vector<std::uint8_t> echoed_session_ids(const std::vector<Capture>& pool) {
  std::vector<std::uint8_t> echoes;
  echoes.reserve(pool.size());
  for (const auto& c : pool) {
    bool echo = false;
    if (!c.server.empty()) {
      const auto cs = session_id(c.client);
      const auto ss = session_id(c.server);
      echo = !cs.empty() && std::ranges::equal(cs, ss);
    }
    echoes.push_back(echo ? 1 : 0);
  }
  return echoes;
}

// Re-draws the per-connection fields of every capture in `window` (see the
// file comment); `first` is the window's index in the pool.
void refresh(std::span<Capture> window, std::size_t first,
             const std::vector<std::uint8_t>& echoes, tls::core::Rng& rng) {
  const auto fill = [&](std::span<std::uint8_t> bytes) {
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  };
  for (std::size_t i = 0; i < window.size(); ++i) {
    Capture& c = window[i];
    fill({c.client.data() + kRandomOffset, 32});
    fill(session_id(c.client));
    if (c.server.empty()) continue;
    fill({c.server.data() + kRandomOffset, 32});
    if (echoes[first + i] != 0) {
      std::ranges::copy(session_id(c.client), session_id(c.server).begin());
    } else {
      fill(session_id(c.server));
    }
  }
}

// Fresh-random replay: a private copy of the pool whose windows are
// refreshed from a fixed seed, so every repeat (and the cache-off and
// cache-on rows) observe the identical stream.
double replay_fresh(tls::notary::PassiveMonitor& mon,
                    const std::vector<Capture>& pool,
                    const std::vector<std::uint8_t>& echoes,
                    std::size_t total, std::uint64_t seed) {
  std::vector<Capture> live = pool;
  tls::core::Rng rng(seed);
  return replay_batched(mon, live, total, [&](std::span<Capture> window) {
    refresh(window, static_cast<std::size_t>(window.data() - live.data()),
            echoes, rng);
  });
}

}  // namespace

int main() {
  const std::size_t pool_size = env_size("TLS_BENCH_POOL", 400);
  const std::size_t total = env_size("TLS_BENCH_REPLAY", 200000);
  const std::size_t repeats = std::max<std::size_t>(
      1, env_size("TLS_BENCH_REPEATS", 3));
  const char* json_path_env = std::getenv("TLS_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_observe.json";
  const std::uint64_t seed = env_size("TLS_STUDY_SEED", 42);

  // Default catalog mix at a fingerprint-era month.
  const auto catalog = tls::clients::Catalog::standard();
  const auto database = tls::study::LongitudinalStudy::build_database(catalog);
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  const Month m(2017, 1);

  std::vector<Capture> pool =
      build_pool(market, servers, m, pool_size, seed, false);
  const auto echoes = echoed_session_ids(pool);

  std::printf("== bench_observe_throughput ==\n");
  std::printf("pool=%zu captures, replay=%zu observations\n\n", pool.size(),
              total);

  std::printf("md5 backend: %s\n\n",
              tls::fp::to_string(tls::fp::md5_active_backend()));

  // Low-locality pool: distinct keys several times the cache capacity. A
  // cyclic replay over a cache this much smaller than the pool evicts
  // every entry before its next use, so the hit rate collapses and every
  // observation pays the full miss path (hash + probe + insert + flush).
  // The row quantifies that worst-case overhead; the hard gate is
  // correctness only — exported bytes must stay identical.
  const std::size_t cold_pool_size = env_size("TLS_BENCH_POOL_COLD", 16384);
  std::vector<Capture> cold_pool =
      build_pool(market, servers, m, cold_pool_size, seed + 1, true);

  // Every repeat replays the identical deterministic stream into a fresh
  // monitor, so taking the fastest repeat filters scheduler/thermal noise
  // while the surviving monitor's state (used for digests and hit rates)
  // is the same whichever repeat ran fastest. All rows are interleaved
  // inside one repeat loop so that slow drift — a box that heats up or
  // gains a neighbor halfway through — hits every config equally instead
  // of skewing the later rows' ratios.
  const std::uint64_t fresh_seed = seed ^ 0xf7e5;
  tls::telemetry::MetricsRegistry registry;
  std::optional<tls::notary::PassiveMonitor> fresh_off, fresh_on, cold, warm,
      telem, lowloc_off, lowloc_on;
  double fresh_off_cps = 0, fresh_on_cps = 0;
  double off_cps = 0, on_cps = 0, telem_cps = 0;
  double lowloc_off_cps = 0, lowloc_on_cps = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    fresh_off.emplace(&database);
    fresh_off->set_observe_cache_capacity(0);
    fresh_off_cps = std::max(
        fresh_off_cps, replay_fresh(*fresh_off, pool, echoes, total, fresh_seed));

    fresh_on.emplace(&database);
    fresh_on->set_observe_cache_capacity(
        tls::notary::ObserveCache::kDefaultCapacity);
    fresh_on_cps = std::max(
        fresh_on_cps, replay_fresh(*fresh_on, pool, echoes, total, fresh_seed));

    cold.emplace(&database);
    cold->set_observe_cache_capacity(0);
    off_cps = std::max(off_cps, replay(*cold, pool, total));

    warm.emplace(&database);
    warm->set_observe_cache_capacity(
        tls::notary::ObserveCache::kDefaultCapacity);
    on_cps = std::max(on_cps, replay_batched(*warm, pool, total));

    // Telemetry-attached run: same cache-on config with live counter
    // handles. The delta vs `on_cps` is the enabled-hook overhead; the
    // off/on runs above measure the disabled (null-handle) path.
    telem.emplace(&database);
    telem->set_observe_cache_capacity(
        tls::notary::ObserveCache::kDefaultCapacity);
    telem->set_telemetry(&registry);
    telem_cps = std::max(telem_cps, replay_batched(*telem, pool, total));
    telem->set_telemetry(nullptr);

    lowloc_off.emplace(&database);
    lowloc_off->set_observe_cache_capacity(0);
    lowloc_off_cps =
        std::max(lowloc_off_cps, replay(*lowloc_off, cold_pool, total));

    lowloc_on.emplace(&database);
    lowloc_on->set_observe_cache_capacity(
        tls::notary::ObserveCache::kDefaultCapacity);
    lowloc_on_cps = std::max(lowloc_on_cps,
                             replay_batched(*lowloc_on, cold_pool, total));
  }
  const auto& fcs = fresh_on->observe_cache_stats();
  const bool fresh_identical = digest(*fresh_off) == digest(*fresh_on);
  const double fresh_speedup =
      fresh_off_cps > 0 ? fresh_on_cps / fresh_off_cps : 0.0;

  const auto& lcs = lowloc_on->observe_cache_stats();
  const bool lowloc_identical = digest(*lowloc_off) == digest(*lowloc_on);
  const double lowloc_speedup =
      lowloc_off_cps > 0 ? lowloc_on_cps / lowloc_off_cps : 0.0;

  const auto& cs = warm->observe_cache_stats();
  const double speedup = off_cps > 0 ? on_cps / off_cps : 0.0;
  const double telem_overhead_pct =
      on_cps > 0 ? 100.0 * (on_cps - telem_cps) / on_cps : 0.0;
  const bool identical = digest(*cold) == digest(*warm);
  const bool telem_identical = digest(*cold) == digest(*telem);

  const auto fmt = [](const char* f, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), f, v);
    return std::string(buf);
  };
  const auto verdict = [](bool same) {
    return std::string(same ? "bit-identical" : "MISMATCH");
  };
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"config", "conn/s", "hit rate", "figures"});
  rows.push_back(
      {"fresh random, cache off", fmt("%.0f", fresh_off_cps), "-", "baseline"});
  rows.push_back({"fresh random, cache on", fmt("%.0f", fresh_on_cps),
                  fmt("%.3f", fcs.client.hit_rate()),
                  verdict(fresh_identical)});
  rows.push_back({"replay, cache off", fmt("%.0f", off_cps), "-", "baseline"});
  rows.push_back({"replay, cache on", fmt("%.0f", on_cps),
                  fmt("%.3f", cs.client.hit_rate()), verdict(identical)});
  rows.push_back({"replay, cache on + telemetry", fmt("%.0f", telem_cps),
                  fmt("%.3f", cs.client.hit_rate()),
                  verdict(telem_identical)});
  rows.push_back({"replay, cache off, low-locality",
                  fmt("%.0f", lowloc_off_cps), "-", "baseline"});
  rows.push_back({"replay, cache on, low-locality", fmt("%.0f", lowloc_on_cps),
                  fmt("%.3f", lcs.client.hit_rate()),
                  verdict(lowloc_identical)});
  std::fputs(tls::analysis::render_table(rows).c_str(), stdout);
  std::printf(
      "\nfresh-random speedup (headline): %.2fx, client/server hit rate "
      "%.3f/%.3f\n",
      fresh_speedup, fcs.client.hit_rate(), fcs.server.hit_rate());
  std::printf("replay speedup: %.2fx (target >= 3x)\n", speedup);
  std::printf("telemetry overhead: %+.1f%% (enabled hooks vs cache-on)\n",
              telem_overhead_pct);
  std::printf(
      "low-locality (%zu distinct server names vs %zu-entry cache): %.2fx, "
      "hit rate %.3f\n",
      cold_pool.size(), tls::notary::ObserveCache::kDefaultCapacity,
      lowloc_speedup, lcs.client.hit_rate());

  // CI cross-run gate: the digests written here must be byte-identical
  // between a default (SIMD) run and a TLS_MD5_FORCE=scalar run.
  if (const char* digest_path = std::getenv("TLS_BENCH_DIGEST_OUT")) {
    std::ofstream out(digest_path);
    out << "== fresh random off ==\n" << digest(*fresh_off)
        << "== fresh random on ==\n" << digest(*fresh_on)
        << "== cache off ==\n" << digest(*cold)
        << "== cache on ==\n" << digest(*warm)
        << "== low-locality off ==\n" << digest(*lowloc_off)
        << "== low-locality on ==\n" << digest(*lowloc_on);
    std::printf("wrote %s\n", digest_path);
  }

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"md5_backend\": \""
       << tls::fp::to_string(tls::fp::md5_active_backend()) << "\",\n"
       << "  \"connections\": " << total << ",\n"
       << "  \"distinct_records\": " << pool.size() << ",\n"
       << "  \"fresh_random_off_cps\": "
       << static_cast<std::uint64_t>(fresh_off_cps) << ",\n"
       << "  \"fresh_random_on_cps\": "
       << static_cast<std::uint64_t>(fresh_on_cps) << ",\n"
       << "  \"fresh_random_speedup\": " << fresh_speedup << ",\n"
       << "  \"fresh_random_client_hit_rate\": " << fcs.client.hit_rate()
       << ",\n"
       << "  \"fresh_random_server_hit_rate\": " << fcs.server.hit_rate()
       << ",\n"
       << "  \"cache_off_cps\": " << static_cast<std::uint64_t>(off_cps)
       << ",\n"
       << "  \"cache_on_cps\": " << static_cast<std::uint64_t>(on_cps)
       << ",\n"
       << "  \"telemetry_on_cps\": " << static_cast<std::uint64_t>(telem_cps)
       << ",\n"
       << "  \"telemetry_overhead_pct\": " << telem_overhead_pct << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"client_hit_rate\": " << cs.client.hit_rate() << ",\n"
       << "  \"client_hits\": " << cs.client.hits << ",\n"
       << "  \"client_misses\": " << cs.client.misses << ",\n"
       << "  \"server_hit_rate\": " << cs.server.hit_rate() << ",\n"
       << "  \"evictions\": " << cs.client.evictions + cs.server.evictions
       << ",\n"
       << "  \"low_locality_distinct\": " << cold_pool.size() << ",\n"
       << "  \"low_locality_off_cps\": "
       << static_cast<std::uint64_t>(lowloc_off_cps) << ",\n"
       << "  \"low_locality_on_cps\": "
       << static_cast<std::uint64_t>(lowloc_on_cps) << ",\n"
       << "  \"low_locality_speedup\": " << lowloc_speedup << ",\n"
       << "  \"low_locality_hit_rate\": " << lcs.client.hit_rate() << ",\n"
       << "  \"identical\": "
       << (fresh_identical && identical && telem_identical && lowloc_identical
               ? "true"
               : "false")
       << "\n"
       << "}\n";
  std::printf("wrote %s\n", json_path.c_str());

  const std::pair<bool, const char*> gates[] = {
      {fresh_identical,
       "fresh-random cache-on monitor diverged from cache-off"},
      {identical, "cache-on monitor diverged from cache-off"},
      {telem_identical, "telemetry-attached monitor diverged from cache-off"},
      {lowloc_identical,
       "low-locality cache-on monitor diverged from cache-off"},
  };
  for (const auto& [ok, what] : gates) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      return 1;
    }
  }
  return 0;
}
