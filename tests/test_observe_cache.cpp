// ObserveCache correctness: collision verification, fault bypass,
// deterministic eviction, fingerprint-era upgrades, the masked key (hits
// across fresh randoms and session ids, resumption still read per
// connection), and — the contract that matters — bit-identical monitor
// state with the cache on and off.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "clients/catalog.hpp"
#include "faults/injector.hpp"
#include "notary/monitor.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"

namespace tls::notary {
namespace {

using tls::core::Date;
using tls::core::Month;
using tls::wire::ClientHello;
using tls::wire::ServerHello;

ClientHello client_hello(std::vector<std::uint16_t> suites) {
  ClientHello ch;
  ch.legacy_version = 0x0303;
  ch.cipher_suites = std::move(suites);
  const std::uint16_t groups[] = {29, 23};
  ch.extensions.push_back(tls::wire::make_supported_groups(groups));
  return ch;
}

ServerHello server_hello(std::uint16_t suite) {
  ServerHello sh;
  sh.legacy_version = 0x0303;
  sh.cipher_suite = suite;
  return sh;
}

std::uint64_t degenerate_hash(std::span<const std::uint8_t>) { return 42; }

void expect_stats_equal(const PassiveMonitor& a, const PassiveMonitor& b) {
  EXPECT_EQ(a.total_connections(), b.total_connections());
  EXPECT_EQ(a.fingerprintable_connections(), b.fingerprintable_connections());
  EXPECT_EQ(a.labeled_connections(), b.labeled_connections());
  EXPECT_EQ(a.errors().total(), b.errors().total());
  EXPECT_EQ(a.quarantine().total_pushed(), b.quarantine().total_pushed());
  ASSERT_EQ(a.months().size(), b.months().size());
  for (const auto& [m, sa] : a.months()) {
    const auto* sb = b.month(m);
    ASSERT_NE(sb, nullptr) << m.to_string();
    EXPECT_EQ(sa.total, sb->total) << m.to_string();
    EXPECT_EQ(sa.successful, sb->successful) << m.to_string();
    EXPECT_EQ(sa.failures, sb->failures) << m.to_string();
    EXPECT_EQ(sa.quarantined, sb->quarantined) << m.to_string();
    EXPECT_EQ(sa.spec_violations, sb->spec_violations) << m.to_string();
    EXPECT_EQ(sa.resumed, sb->resumed) << m.to_string();
    EXPECT_EQ(sa.adv_aead, sb->adv_aead) << m.to_string();
    EXPECT_EQ(sa.adv_rc4, sb->adv_rc4) << m.to_string();
    EXPECT_EQ(sa.adv_tls13, sb->adv_tls13) << m.to_string();
    EXPECT_EQ(sa.heartbeat_negotiated, sb->heartbeat_negotiated)
        << m.to_string();
    EXPECT_EQ(sa.parse_errors(), sb->parse_errors()) << m.to_string();
    EXPECT_EQ(sa.negotiated_version(), sb->negotiated_version())
        << m.to_string();
    EXPECT_EQ(sa.negotiated_class(), sb->negotiated_class()) << m.to_string();
    EXPECT_EQ(sa.negotiated_kex(), sb->negotiated_kex()) << m.to_string();
    EXPECT_EQ(sa.negotiated_aead(), sb->negotiated_aead()) << m.to_string();
    EXPECT_EQ(sa.negotiated_group(), sb->negotiated_group()) << m.to_string();
    EXPECT_EQ(sa.adv_tls13_versions(), sb->adv_tls13_versions())
        << m.to_string();
    EXPECT_EQ(sa.alerts(), sb->alerts()) << m.to_string();
    EXPECT_EQ(sa.fingerprints, sb->fingerprints) << m.to_string();
    EXPECT_EQ(sa.pos_aead.sum, sb->pos_aead.sum) << m.to_string();
    EXPECT_EQ(sa.pos_aead.n, sb->pos_aead.n) << m.to_string();
    EXPECT_EQ(sa.pos_cbc.sum, sb->pos_cbc.sum) << m.to_string();
  }
}

TEST(ObserveCache, CollisionOnForcedSharedKeyIsVerifiedAway) {
  ObserveCache cache(16);
  cache.set_hash_for_test(&degenerate_hash);  // every record keys to 42

  ClientHelloFeatures fa, fb;
  std::vector<tls::wire::ParseErrorCode> errors;
  const auto ha = client_hello({0xc02f});
  const auto hb = client_hello({0x0005});
  const auto ra = ha.serialize_record();
  const auto rb = hb.serialize_record();
  build_client_features(ha, nullptr, false, fa, errors);
  ASSERT_TRUE(errors.empty());
  build_client_features(hb, nullptr, false, fb, errors);
  ASSERT_TRUE(errors.empty());

  const auto hash_a = cache.hash_bytes(ra);
  const auto hash_b = cache.hash_bytes(rb);
  ASSERT_EQ(hash_a, hash_b);
  cache.insert_client(ra, hash_a, ClientHello(ha), std::move(fa));
  // Distinct bytes, same 64-bit key: must be a miss, counted as collision.
  EXPECT_FALSE(cache.find_client(rb, hash_b, false).has_value());
  EXPECT_EQ(cache.stats().client.collisions, 1u);
  cache.insert_client(rb, hash_b, ClientHello(hb), std::move(fb));

  // Both entries now live on one chain; each lookup returns its own bytes.
  const auto hit_a = cache.find_client(ra, hash_a, false);
  const auto hit_b = cache.find_client(rb, hash_b, false);
  ASSERT_TRUE(hit_a.has_value());
  ASSERT_TRUE(hit_b.has_value());
  EXPECT_EQ(hit_a->hello->cipher_suites, ha.cipher_suites);
  EXPECT_EQ(hit_b->hello->cipher_suites, hb.cipher_suites);
  EXPECT_TRUE(hit_a->features->adv_aead);
  EXPECT_TRUE(hit_b->features->adv_rc4);
  EXPECT_EQ(cache.stats().client.hits, 2u);
}

TEST(ObserveCache, MonitorIdenticalUnderForcedCollisions) {
  // Same observation stream through a cache-off monitor and one whose cache
  // funnels every record onto one hash chain.
  PassiveMonitor off, on;
  off.set_observe_cache_capacity(0);
  on.set_observe_cache_hash_for_test(&degenerate_hash);

  const Month m(2016, 3);
  const auto hellos = {client_hello({0xc02f}), client_hello({0x0005}),
                       client_hello({0xc013, 0x000a})};
  for (int round = 0; round < 3; ++round) {
    for (const auto& ch : hellos) {
      const auto cr = ch.serialize_record();
      const auto sr = server_hello(ch.cipher_suites.front()).serialize_record();
      off.observe_wire(m, m.first_day(), cr, sr, {}, true);
      on.observe_wire(m, m.first_day(), cr, sr, {}, true);
    }
  }
  EXPECT_GT(on.observe_cache_stats().client.collisions, 0u);
  EXPECT_GT(on.observe_cache_stats().client.hits, 0u);
  expect_stats_equal(off, on);
}

TEST(ObserveCache, RepeatedRecordsHitAndMatchCacheOff) {
  PassiveMonitor off, on;
  off.set_observe_cache_capacity(0);

  const Month m(2016, 6);
  const auto good = client_hello({0xc02f, 0x0005}).serialize_record();
  const auto sr = server_hello(0xc02f).serialize_record();
  std::vector<std::uint8_t> truncated(good.begin(), good.begin() + 9);

  for (int i = 0; i < 5; ++i) {
    off.observe_wire(m, m.first_day(), good, sr, {}, true);
    on.observe_wire(m, m.first_day(), good, sr, {}, true);
    // Corrupt records re-run the error path every single repetition.
    off.observe_wire(m, m.first_day(), truncated, sr, {}, true);
    on.observe_wire(m, m.first_day(), truncated, sr, {}, true);
  }
  EXPECT_EQ(on.observe_cache_stats().client.hits, 4u);
  EXPECT_EQ(on.observe_cache_stats().server.hits, 4u);
  EXPECT_EQ(on.month(m)->quarantined, 5u);
  expect_stats_equal(off, on);
}

TEST(ObserveCache, FingerprintEraUpgradeOnCachedEntry) {
  PassiveMonitor off, on;
  off.set_observe_cache_capacity(0);

  const auto cr = client_hello({0xc02f}).serialize_record();
  const auto sr = server_hello(0xc02f).serialize_record();
  const Month before(2014, 9);   // pre-fingerprint era
  const Month after(2014, 10);   // first fingerprint month
  for (auto* mon : {&off, &on}) {
    mon->observe_wire(before, before.first_day(), cr, sr, {}, true);
    mon->observe_wire(after, after.first_day(), cr, sr, {}, true);
    mon->observe_wire(after, after.first_day(), cr, sr, {}, true);
  }
  // Pre-era insert, then the era switch forces one rebuild (miss) that
  // upgrades the entry in place, and only the final repeat hits.
  EXPECT_EQ(on.observe_cache_stats().client.hits, 1u);
  EXPECT_EQ(on.fingerprintable_connections(), 2u);
  EXPECT_EQ(on.month(after)->fingerprints.size(), 1u);
  expect_stats_equal(off, on);
}

TEST(ObserveCache, DeterministicFlushEvictionAtCapacity) {
  PassiveMonitor off, on;
  off.set_observe_cache_capacity(0);
  on.set_observe_cache_capacity(4);

  const Month m(2016, 1);
  std::vector<std::vector<std::uint8_t>> records;
  for (std::uint16_t i = 0; i < 12; ++i) {
    // 12 distinct keys: the suite lists differ (randoms would not — the
    // key masks them).
    auto ch = client_hello({0xc02f, static_cast<std::uint16_t>(0x0a00 + i)});
    records.push_back(ch.serialize_record());
  }
  const auto sr = server_hello(0xc02f).serialize_record();
  for (int round = 0; round < 2; ++round) {
    for (const auto& cr : records) {
      off.observe_wire(m, m.first_day(), cr, sr, {}, true);
      on.observe_wire(m, m.first_day(), cr, sr, {}, true);
    }
  }
  const auto& cs = on.observe_cache_stats();
  EXPECT_GT(cs.client.flushes, 0u);
  EXPECT_GT(cs.client.evictions, 0u);
  EXPECT_EQ(cs.client.hits + cs.client.misses, 24u);
  expect_stats_equal(off, on);
}

TEST(ObserveCache, FaultTouchedCapturesBypassTheCache) {
  // An injector that corrupts every capture: the cache must never be
  // consulted or populated, only the bypass counter moves.
  tls::faults::FaultInjector injector(
      tls::faults::FaultConfig::bytes_only(1.0), 7);
  PassiveMonitor mon;
  mon.set_fault_injector(&injector);

  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, 9);
  gen.generate_month(Month(2016, 5), 200,
                     [&](const tls::population::ConnectionEvent& ev) {
                       mon.observe(ev);
                     });
  mon.set_fault_injector(nullptr);

  const auto& cs = mon.observe_cache_stats();
  EXPECT_GT(cs.bypasses, 0u);
  EXPECT_EQ(cs.client.inserts, 0u);
  EXPECT_EQ(cs.client.hits, 0u);
  EXPECT_EQ(cs.server.inserts, 0u);
}

// Hello records of a generated stream with the per-connection fields
// re-drawn: a fresh random on both sides and fresh session-id bytes. A
// server that echoed the client's session id echoes the fresh one, so
// resumption survives; odd variants break the echo instead, so a cached
// entry inserted by a resumed connection is hit by one that is not.
std::vector<PassiveMonitor::WireCapture> fresh_randoms(
    const std::vector<PassiveMonitor::WireCapture>& base, int variants,
    std::uint64_t seed) {
  constexpr std::size_t kRandom = tls::population::GenCache::kRandomOffset;
  constexpr std::size_t kSid = tls::population::GenCache::kSessionIdOffset;
  tls::core::Rng rng(seed);
  const auto fill = [&](std::vector<std::uint8_t>& rec, std::size_t from,
                        std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      rec[from + i] = static_cast<std::uint8_t>(rng.next());
    }
  };
  std::vector<PassiveMonitor::WireCapture> out;
  for (int v = 0; v < variants; ++v) {
    for (auto cap : base) {
      const std::size_t csid = cap.client[kSid - 1];
      const std::size_t ssid = cap.server.empty() ? 0 : cap.server[kSid - 1];
      const bool echoed =
          csid > 0 && csid == ssid &&
          std::equal(cap.client.begin() + kSid,
                     cap.client.begin() + kSid + csid,
                     cap.server.begin() + kSid);
      fill(cap.client, kRandom, 32);
      fill(cap.client, kSid, csid);
      if (!cap.server.empty()) {
        fill(cap.server, kRandom, 32);
        if (echoed && v % 2 == 0) {
          std::copy_n(cap.client.begin() + kSid, csid,
                      cap.server.begin() + kSid);
        } else {
          fill(cap.server, kSid, ssid);
        }
      }
      out.push_back(std::move(cap));
    }
  }
  return out;
}

TEST(ObserveCache, MaskedKeyHitsAcrossFreshRandomsAndKeepsResumption) {
  // Captures that differ only in their randoms and session ids share a
  // key: they must hit, and every aggregate — resumption included — must
  // equal a cache-off monitor fed the same captures.
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);
  tls::population::TrafficGenerator gen(market, servers, 31);
  std::vector<PassiveMonitor::WireCapture> base;
  gen.generate_month(Month(2016, 2), 400,
                     [&](const tls::population::ConnectionEvent& ev) {
                       if (ev.sslv2) return;
                       PassiveMonitor::WireCapture cap;
                       cap.month = ev.month;
                       cap.day = ev.day;
                       serialize_event_records(ev, cap.client, cap.server,
                                               cap.ske, cap.alert);
                       cap.success = ev.result.success;
                       cap.used_fallback = ev.used_fallback;
                       base.push_back(std::move(cap));
                     });
  const auto captures = fresh_randoms(base, 4, 5);

  // The capacity-4 monitor's 256-capture batches overflow its cache: each
  // batch pre-flushes (ensure_client_headroom) and then flushes again
  // mid-batch while inserting its misses.
  PassiveMonitor off, per_capture, batched, tiny;
  off.set_observe_cache_capacity(0);
  tiny.set_observe_cache_capacity(4);
  for (auto* mon : {&off, &per_capture}) {
    for (const auto& c : captures) {
      mon->observe_wire(c.month, c.day, c.client, c.server, c.ske, c.success,
                        c.used_fallback, c.alert);
    }
  }
  for (auto* mon : {&batched, &tiny}) {
    for (std::size_t i = 0; i < captures.size(); i += 256) {
      mon->observe_wire_batch(std::span(captures).subspan(
          i, std::min<std::size_t>(256, captures.size() - i)));
    }
  }

  std::uint64_t resumed = 0;
  for (const auto& [m, s] : off.months()) resumed += s.resumed;
  EXPECT_GT(resumed, 0u);
  for (const auto* on : {&per_capture, &batched}) {
    const auto& cs = on->observe_cache_stats();
    // Far fewer distinct keys than captures: most lookups hit.
    EXPECT_GT(cs.client.hits, captures.size() / 2);
    EXPECT_GT(cs.server.hits, captures.size() / 2);
    expect_stats_equal(off, *on);
  }
  const auto& tiny_cs = tiny.observe_cache_stats();
  const std::size_t batches = (captures.size() + 255) / 256;
  EXPECT_GT(tiny_cs.client.flushes, batches);
  EXPECT_GT(tiny_cs.client.inserts, tiny_cs.client.flushes);
  expect_stats_equal(off, tiny);
}

TEST(ObserveSpan, MatchesPerEventObserve) {
  const auto catalog = tls::clients::Catalog::core_only();
  const auto servers = tls::servers::ServerPopulation::standard();
  const auto market = tls::population::MarketModel::standard(catalog);

  PassiveMonitor one_by_one, spans;
  tls::population::TrafficGenerator gen_a(market, servers, 77);
  gen_a.generate_month(Month(2015, 6), 500,
                       [&](const tls::population::ConnectionEvent& ev) {
                         one_by_one.observe(ev);
                       });
  tls::population::TrafficGenerator gen_b(market, servers, 77);
  gen_b.generate_month_batched(
      Month(2015, 6), 500, 64,
      [&](std::span<const tls::population::ConnectionEvent> events) {
        spans.observe_span(events);
      });
  expect_stats_equal(one_by_one, spans);
}

}  // namespace
}  // namespace tls::notary
