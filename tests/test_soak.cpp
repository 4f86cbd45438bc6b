// Soak test: drive the full synthetic pipeline through the chaos tap at
// fault rates {0%, 1%, 10%, 50%} and check the graceful-degradation
// contract end to end —
//   * the monitor never throws, no matter what the tap emits;
//   * every month's partition is exact: total = successful + failures +
//     quarantined, and every generated event lands in the partition;
//   * the zero-fault path is bit-identical to a monitor with no injector;
//   * under unbiased capture loss the accepted-connection aggregates stay
//     within sampling noise of the fault-free baseline;
//   * the scanner's loss accounting closes (scanned + unreachable == 1)
//     and its retry/backoff schedule is deterministic for a fixed seed.
#include <gtest/gtest.h>

#include <cmath>

#include "faults/injector.hpp"
#include "notary/monitor.hpp"
#include "population/traffic.hpp"
#include "scan/scanner.hpp"
#include "wire/transcript.hpp"

namespace {

using tls::core::Month;
using tls::core::MonthRange;
using tls::faults::FaultConfig;
using tls::faults::FaultInjector;
using tls::notary::MonthlyStats;
using tls::notary::PassiveMonitor;

const MonthRange kWindow{Month(2014, 11), Month(2015, 4)};
constexpr std::size_t kPerMonth = 2000;

/// Feeds the same deterministic connection stream (fixed generator seed)
/// into a fresh monitor, optionally through a fault injector.
std::uint64_t run_pipeline(PassiveMonitor& monitor, FaultInjector* injector) {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, 1234);
  monitor.set_fault_injector(injector);
  std::uint64_t events = 0;
  gen.generate_range(kWindow, kPerMonth,
                     [&](const tls::population::ConnectionEvent& ev) {
                       ++events;
                       ASSERT_NO_THROW(monitor.observe(ev));
                     });
  monitor.set_fault_injector(nullptr);
  return events;
}

void expect_partition_exact(const PassiveMonitor& monitor,
                            std::uint64_t events_fed) {
  std::uint64_t partitioned = 0;
  for (const auto& [m, s] : monitor.months()) {
    EXPECT_EQ(s.total, s.successful + s.failures + s.quarantined)
        << m.to_string();
    partitioned += s.total;
  }
  // Every event fed to the monitor landed in exactly one bucket.
  EXPECT_EQ(partitioned, events_fed);
}

struct DatasetAggregates {
  double adv_rc4 = 0, adv_aead = 0, adv_export = 0;
  double success_rate = 0;
};

DatasetAggregates aggregates_of(const PassiveMonitor& monitor) {
  std::uint64_t accepted = 0, rc4 = 0, aead = 0, expo = 0, ok = 0;
  for (const auto& [m, s] : monitor.months()) {
    accepted += s.accepted();
    rc4 += s.adv_rc4;
    aead += s.adv_aead;
    expo += s.adv_export;
    ok += s.successful;
  }
  DatasetAggregates a;
  if (accepted == 0) return a;
  const auto pct = [&](std::uint64_t n) {
    return 100.0 * static_cast<double>(n) / static_cast<double>(accepted);
  };
  a.adv_rc4 = pct(rc4);
  a.adv_aead = pct(aead);
  a.adv_export = pct(expo);
  a.success_rate = pct(ok);
  return a;
}

TEST(Soak, PartitionExactAtEveryFaultRate) {
  for (const double rate : {0.0, 0.01, 0.10, 0.50}) {
    SCOPED_TRACE(rate);
    PassiveMonitor monitor;
    FaultInjector injector(FaultConfig::uniform(rate), 0xfeed);
    const auto events = run_pipeline(monitor, &injector);
    ASSERT_GT(events, 0u);
    expect_partition_exact(monitor, events);
    if (rate == 0.0) {
      EXPECT_EQ(injector.stats().total_faults(), 0u);
    } else {
      EXPECT_GT(injector.stats().total_faults(), 0u);
      // Heavily faulted runs must actually quarantine something.
      std::uint64_t quarantined = 0;
      for (const auto& [m, s] : monitor.months()) quarantined += s.quarantined;
      EXPECT_GT(quarantined, 0u);
    }
  }
}

TEST(Soak, ZeroFaultRateBitIdenticalToNoInjector) {
  PassiveMonitor plain;
  run_pipeline(plain, nullptr);

  PassiveMonitor tapped;
  FaultInjector idle(FaultConfig::uniform(0.0), 0xfeed);
  run_pipeline(tapped, &idle);

  ASSERT_EQ(plain.total_connections(), tapped.total_connections());
  EXPECT_EQ(plain.malformed_hellos(), 0u);
  EXPECT_EQ(tapped.malformed_hellos(), 0u);
  for (const auto& [m, a] : plain.months()) {
    const auto* b = tapped.month(m);
    ASSERT_NE(b, nullptr) << m.to_string();
    EXPECT_EQ(a.total, b->total) << m.to_string();
    EXPECT_EQ(a.successful, b->successful) << m.to_string();
    EXPECT_EQ(a.failures, b->failures) << m.to_string();
    EXPECT_EQ(a.quarantined, b->quarantined) << m.to_string();
    EXPECT_EQ(a.negotiated_version(), b->negotiated_version()) << m.to_string();
    EXPECT_EQ(a.negotiated_class(), b->negotiated_class()) << m.to_string();
    EXPECT_EQ(a.negotiated_kex(), b->negotiated_kex()) << m.to_string();
    EXPECT_EQ(a.adv_rc4, b->adv_rc4) << m.to_string();
    EXPECT_EQ(a.adv_aead, b->adv_aead) << m.to_string();
    EXPECT_EQ(a.alerts(), b->alerts()) << m.to_string();
    EXPECT_EQ(a.fingerprints, b->fingerprints) << m.to_string();
    EXPECT_EQ(a.parse_errors().size(), 0u) << m.to_string();
  }
}

TEST(Soak, UnbiasedLossLeavesAggregatesWithinEpsilon) {
  PassiveMonitor baseline;
  run_pipeline(baseline, nullptr);
  const auto base = aggregates_of(baseline);

  // Pure capture loss (whole flights dropped) is unbiased: the surviving
  // accepted set is a uniform subsample of the same event stream, so every
  // percentage moves only by sampling noise.
  FaultConfig loss;
  loss.drop_flight = 0.5;
  PassiveMonitor lossy;
  FaultInjector injector(loss, 0xfeed);
  const auto events = run_pipeline(lossy, &injector);
  expect_partition_exact(lossy, events);
  const auto got = aggregates_of(lossy);

  constexpr double kEpsilonPct = 2.0;  // percentage points
  EXPECT_NEAR(got.adv_rc4, base.adv_rc4, kEpsilonPct);
  EXPECT_NEAR(got.adv_aead, base.adv_aead, kEpsilonPct);
  EXPECT_NEAR(got.adv_export, base.adv_export, kEpsilonPct);
  EXPECT_NEAR(got.success_rate, base.success_rate, kEpsilonPct);

  // And the loss is real: roughly half the captures are gone.
  std::uint64_t accepted = 0, total = 0;
  for (const auto& [m, s] : lossy.months()) {
    accepted += s.accepted();
    total += s.total;
  }
  EXPECT_LT(accepted, total);
  EXPECT_NEAR(static_cast<double>(accepted) / static_cast<double>(total),
              1.0 - loss.drop_flight, 0.05);
}

TEST(Soak, TaxonomyAccountsForByteFaultRuns) {
  PassiveMonitor monitor;
  FaultInjector injector(FaultConfig::bytes_only(0.5), 0x50a1);
  const auto events = run_pipeline(monitor, &injector);
  expect_partition_exact(monitor, events);
  // Byte-level corruption must surface in the taxonomy, and the ring must
  // hold evidence without exceeding its bound.
  EXPECT_GT(monitor.errors().total(), 0u);
  EXPECT_LE(monitor.quarantine().size(), monitor.quarantine().capacity());
  EXPECT_GE(monitor.quarantine().total_pushed(), monitor.quarantine().size());
  // Per-month parse_errors roll up to the same grand total as the taxonomy.
  std::uint64_t by_month = 0;
  for (const auto& [m, s] : monitor.months()) {
    for (const auto& [code, n] : s.parse_errors()) by_month += n;
  }
  EXPECT_EQ(by_month, monitor.errors().total());

  // The loss-table rows mirror the monitor's partition exactly.
  const auto rows = tls::notary::loss_rows(monitor);
  ASSERT_EQ(rows.size(), monitor.months().size());
  std::uint64_t row_errors = 0;
  for (const auto& row : rows) {
    EXPECT_EQ(row.total, row.successful + row.failures + row.quarantined)
        << row.month;
    for (const auto n : row.by_code) row_errors += n;
  }
  EXPECT_EQ(row_errors, monitor.errors().total());
  const auto table = tls::analysis::render_loss_table(rows);
  EXPECT_NE(table.find("quar%"), std::string::npos);
  EXPECT_NE(table.find(rows.front().month), std::string::npos);
}

TEST(Soak, FlightsPathNeverThrowsOnCorruptedCaptures) {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, 77);

  PassiveMonitor monitor;
  FaultInjector injector(FaultConfig::uniform(0.5), 0xbeef);
  std::uint64_t events = 0;
  gen.generate_range({Month(2015, 1), Month(2015, 3)}, 1500,
                     [&](const tls::population::ConnectionEvent& ev) {
                       if (ev.sslv2) {
                         monitor.observe_sslv2(ev.month);
                         ++events;
                         return;
                       }
                       auto flights = tls::population::synthesize_flights(ev);
                       injector.corrupt_capture(flights.client,
                                                flights.server);
                       ++events;
                       ASSERT_NO_THROW(monitor.observe_flights(
                           ev.month, ev.day, flights.client, flights.server));
                     });
  expect_partition_exact(monitor, events);
  // Corrupting full transcripts at 50% must exercise the salvage paths.
  std::uint64_t one_sided = 0;
  for (const auto& [m, s] : monitor.months()) {
    one_sided += s.one_sided_client + s.one_sided_server;
  }
  EXPECT_GT(one_sided, 0u);
  EXPECT_GT(monitor.errors().total(), 0u);
}

TEST(Soak, FlightsPathSurvivesPureGarbage) {
  PassiveMonitor monitor;
  tls::core::Rng rng(31337);
  const Month m(2015, 6);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> client(rng.below(200));
    std::vector<std::uint8_t> server(rng.below(200));
    for (auto& b : client) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : server) b = static_cast<std::uint8_t>(rng.next());
    ASSERT_NO_THROW(
        monitor.observe_flights(m, tls::core::Date(2015, 6, 15), client,
                                server));
  }
  const auto* s = monitor.month(m);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total, 2000u);
  EXPECT_EQ(s->total, s->successful + s->failures + s->quarantined);
}

// ---- scanner loss accounting ----

TEST(Soak, ScannerCoverageClosesAtEveryLossLevel) {
  const auto servers = tls::servers::ServerPopulation::standard();
  for (const double level : {0.0, 0.01, 0.10, 0.50}) {
    SCOPED_TRACE(level);
    tls::scan::ScanPolicy policy;
    policy.network = tls::faults::NetworkProfile::lossy(level);
    const tls::scan::ActiveScanner scanner(servers, policy);
    for (const Month m : {Month(2015, 9), Month(2017, 3)}) {
      const auto snap = scanner.scan(m);
      EXPECT_NEAR(snap.scanned + snap.unreachable, 1.0, 1e-9)
          << m.to_string();
      if (level == 0.0) {
        EXPECT_DOUBLE_EQ(snap.scanned, 1.0);
        EXPECT_EQ(snap.probe_retries, 0u);
        EXPECT_EQ(snap.probes_abandoned, 0u);
      } else if (level >= 0.10) {
        // At 1% the handful of weighted segments may all get through on
        // the first try; from 10% up retries must show, and at 50% whole
        // hosts must be dead for the sweep.
        EXPECT_GT(snap.probe_retries, 0u);
        if (level >= 0.50) {
          EXPECT_GT(snap.unreachable, 0.0);
        }
      }
    }
  }
}

TEST(Soak, ScannerScheduleDeterministicForFixedSeed) {
  const auto servers = tls::servers::ServerPopulation::standard();
  tls::scan::ScanPolicy policy;
  policy.network = tls::faults::NetworkProfile::lossy(0.4);
  const tls::scan::ActiveScanner a(servers, policy);
  const tls::scan::ActiveScanner b(servers, policy);
  const Month m(2016, 6);
  const auto sa = a.scan(m);
  const auto sb = b.scan(m);
  EXPECT_EQ(sa.probe_attempts, sb.probe_attempts);
  EXPECT_EQ(sa.probe_retries, sb.probe_retries);
  EXPECT_EQ(sa.probes_abandoned, sb.probes_abandoned);
  EXPECT_DOUBLE_EQ(sa.scanned, sb.scanned);
  EXPECT_DOUBLE_EQ(sa.unreachable, sb.unreachable);
  EXPECT_DOUBLE_EQ(sa.ssl3_support, sb.ssl3_support);

  tls::scan::ScanPolicy other = policy;
  other.seed = policy.seed + 1;
  const tls::scan::ActiveScanner c(servers, other);
  const auto sc = c.scan(m);
  EXPECT_NE(sa.unreachable, sc.unreachable);
}

TEST(Soak, IdealPolicyMatchesDefaultScanner) {
  const auto servers = tls::servers::ServerPopulation::standard();
  const tls::scan::ActiveScanner plain(servers);
  tls::scan::ScanPolicy ideal;
  ideal.network = tls::faults::NetworkProfile::lossy(0.0);
  const tls::scan::ActiveScanner tapped(servers, ideal);
  const Month m(2016, 1);
  const auto a = plain.scan(m);
  const auto b = tapped.scan(m);
  EXPECT_DOUBLE_EQ(a.ssl3_support, b.ssl3_support);
  EXPECT_DOUBLE_EQ(a.export_support, b.export_support);
  EXPECT_DOUBLE_EQ(a.chooses_aead, b.chooses_aead);
  EXPECT_DOUBLE_EQ(a.heartbleed_vulnerable, b.heartbleed_vulnerable);
  EXPECT_DOUBLE_EQ(a.scanned, b.scanned);
}

}  // namespace
