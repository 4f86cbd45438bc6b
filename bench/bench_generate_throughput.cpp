// Generate-path throughput: runs the TrafficGenerator over the study
// window, reports connections/sec + template and plan-memo activity, and
// fails if a template-patched record is not the hello's serialization.
// The timing lane uses a minimal counting sink (so the number measures
// generation, not observation); a second untimed pass over the identical
// generator stream folds every event — serialized hello record, full
// negotiation result, flags — into per-month digests and replays the
// stream through a PassiveMonitor, gating on every non-SSLv2 event's
// `client_record` being byte-identical to a from-scratch
// serialize_record() of the same hello. The event stream itself is pinned
// against the legacy build-every-hello oracle by the Traffic.* tests.
//
// Usage: bench_generate_throughput
//
// Environment knobs:
//   TLS_STUDY_CPM         connections per month (default 6000)
//   TLS_STUDY_SEED        generator seed (default 42)
//   TLS_STUDY_CORE        "1" -> core-only catalog
//   TLS_BENCH_REPEATS     timing repeats, best kept (default 3)
//   TLS_BENCH_JSON        output path (default BENCH_generate.json)
//   TLS_BENCH_DIGEST_OUT  write the stream and export digests to this path
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "notary/observe_cache.hpp"

namespace {

using tls::core::Month;
using tls::population::ConnectionEvent;
using tls::population::TrafficGenerator;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::strtoull(v, nullptr, 10);
}

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fold(std::uint64_t& acc, std::uint64_t v) {
  acc = (acc ^ v) * kFnvPrime;
}

void fold_bytes(std::uint64_t& acc, const std::vector<std::uint8_t>& bytes) {
  fold(acc, tls::notary::ObserveCache::fnv1a64(bytes));
  fold(acc, bytes.size());
}

// Exhaustive text digest of a monitor's exported state (the established
// byte-identity gate shape from bench_observe_throughput).
std::string monitor_digest(const tls::notary::PassiveMonitor& mon) {
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
    for (const auto& [g, n] : s.negotiated_group()) {
      out << "g " << g << ' ' << n << '\n';
    }
    for (const auto& [hash, flags] : std::map<std::string, std::uint8_t>(
             s.fingerprints.begin(), s.fingerprints.end())) {
      out << "f " << hash << ' ' << static_cast<int>(flags) << '\n';
    }
  }
  return out.str();
}

struct DigestResult {
  std::uint64_t events = 0;
  std::string stream_digest;   // per-month event-stream digest text
  std::string export_digest;   // monitor export digest
  std::uint64_t wire_mismatches = 0;
  tls::population::GenCache::Stats stats;
};

// Timed lane: counting sink only.
double timed_lane(const tls::population::MarketModel& market,
                  const tls::servers::ServerPopulation& servers,
                  const tls::study::StudyOptions& opts, std::size_t repeats) {
  double best = 0;
  for (std::size_t r = 0; r < repeats; ++r) {
    TrafficGenerator gen(market, servers, opts.seed);
    std::uint64_t events = 0;
    std::uint64_t sink = 0;  // defeats dead-code elimination
    const double wall = bench::timed_seconds([&] {
      for (Month m = opts.window.begin_month; m <= opts.window.end_month;
           ++m) {
        gen.generate_month_batched(
            m, opts.connections_per_month, 256,
            [&](std::span<const ConnectionEvent> span) {
              events += span.size();
              for (const auto& ev : span) {
                sink += ev.result.negotiated_cipher + ev.day.day();
              }
            });
      }
    });
    if (sink == 0xdeadbeef) std::printf("~");  // keep `sink` observable
    if (wall > 0) best = std::max(best, static_cast<double>(events) / wall);
  }
  return best;
}

// Untimed digest pass over the same deterministic stream.
DigestResult digest_pass(const tls::population::MarketModel& market,
                         const tls::servers::ServerPopulation& servers,
                         const tls::fp::FingerprintDatabase& database,
                         const tls::study::StudyOptions& opts) {
  DigestResult lane;
  TrafficGenerator gen(market, servers, opts.seed);
  tls::notary::PassiveMonitor mon(&database);
  std::ostringstream digest;
  std::vector<std::uint8_t> scratch;
  for (Month m = opts.window.begin_month; m <= opts.window.end_month; ++m) {
    std::uint64_t acc = 14695981039346656037ULL;
    gen.generate_month_batched(
        m, opts.connections_per_month, 256,
        [&](std::span<const ConnectionEvent> span) {
          for (const auto& ev : span) {
            ++lane.events;
            mon.observe(ev);
            fold(acc, static_cast<std::uint64_t>(ev.day.day()));
            fold(acc, ev.sslv2 ? 1 : 0);
            if (ev.sslv2) continue;
            ev.hello.serialize_record_into(scratch);
            if (ev.client_record != scratch) ++lane.wire_mismatches;
            fold_bytes(acc, scratch);
            const auto& r = ev.result;
            fold(acc, (r.success ? 1u : 0u) |
                          (static_cast<std::uint64_t>(r.failure) << 1) |
                          (r.resumed ? 0x100u : 0u) |
                          (r.spec_violation ? 0x200u : 0u) |
                          (r.heartbeat_negotiated ? 0x400u : 0u) |
                          (ev.used_fallback ? 0x800u : 0u));
            fold(acc, (static_cast<std::uint64_t>(r.negotiated_version)
                       << 32) |
                          (static_cast<std::uint64_t>(r.negotiated_cipher)
                           << 16) |
                          r.negotiated_group);
            if (r.server_hello.has_value()) {
              r.server_hello->serialize_record_into(scratch);
              fold_bytes(acc, scratch);
            }
          }
        });
    char line[64];
    std::snprintf(line, sizeof(line), "%s %016llx\n",
                  m.to_string().c_str(),
                  static_cast<unsigned long long>(acc));
    digest << line;
  }
  lane.stream_digest = digest.str();
  lane.export_digest = monitor_digest(mon);
  lane.stats = gen.gen_cache_stats();
  return lane;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc != 1) {
    std::fprintf(stderr, "usage: bench_generate_throughput\n");
    return 2;
  }

  const auto opts = bench::default_options();
  const std::size_t repeats =
      std::max<std::size_t>(1, env_size("TLS_BENCH_REPEATS", 3));
  const char* json_path_env = std::getenv("TLS_BENCH_JSON");
  const std::string json_path =
      json_path_env != nullptr ? json_path_env : "BENCH_generate.json";

  const auto catalog = opts.full_catalog ? tls::clients::Catalog::standard()
                                         : tls::clients::Catalog::core_only();
  const auto database = tls::study::LongitudinalStudy::build_database(catalog);
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  const std::size_t months = static_cast<std::size_t>(
      opts.window.end_month.index() - opts.window.begin_month.index() + 1);

  std::printf("== bench_generate_throughput ==\n");
  std::printf("%zu months x %zu conn/month, seed %llu\n\n", months,
              opts.connections_per_month,
              static_cast<unsigned long long>(opts.seed));

  const double cps = timed_lane(market, servers, opts, repeats);
  const DigestResult run = digest_pass(market, servers, database, opts);

  const std::uint64_t plans = run.stats.plan_hits + run.stats.plan_misses;
  const double plan_hit_rate =
      plans > 0 ? static_cast<double>(run.stats.plan_hits) /
                      static_cast<double>(plans)
                : 0.0;

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"lane", "conn/s", "template fills", "records"});
  char cps_s[32], fills_s[32];
  std::snprintf(cps_s, sizeof(cps_s), "%.0f", cps);
  std::snprintf(fills_s, sizeof(fills_s), "%llu",
                static_cast<unsigned long long>(run.stats.template_hits));
  rows.push_back({"generate", cps_s, fills_s,
                  run.wire_mismatches == 0 ? "== serialize_record()"
                                           : "MISMATCH"});
  std::fputs(tls::analysis::render_table(rows).c_str(), stdout);
  std::printf(
      "\ntemplates: %llu compiled (%llu wire bytes), plan memo %.3f hit "
      "rate (%llu plans)\n",
      static_cast<unsigned long long>(run.stats.template_misses),
      static_cast<unsigned long long>(run.stats.template_bytes),
      plan_hit_rate,
      static_cast<unsigned long long>(run.stats.plan_misses));

  if (const char* digest_path = std::getenv("TLS_BENCH_DIGEST_OUT")) {
    std::ofstream out(digest_path);
    out << "== event stream ==\n"
        << run.stream_digest << "== exports ==\n"
        << run.export_digest;
    std::printf("wrote %s\n", digest_path);
  }

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"connections\": " << run.events << ",\n"
       << "  \"months\": " << months << ",\n"
       << "  \"cps\": " << static_cast<std::uint64_t>(cps) << ",\n"
       << "  \"template_fills\": " << run.stats.template_hits << ",\n"
       << "  \"plan_hit_rate\": " << plan_hit_rate << ",\n"
       << "  \"templates_compiled\": " << run.stats.template_misses << ",\n"
       << "  \"template_bytes\": " << run.stats.template_bytes << ",\n"
       << "  \"wire_mismatches\": " << run.wire_mismatches << "\n"
       << "}\n";
  std::printf("wrote %s\n", json_path.c_str());

  if (run.wire_mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu template records != from-scratch serialization\n",
                 static_cast<unsigned long long>(run.wire_mismatches));
    return 1;
  }
  return 0;
}
