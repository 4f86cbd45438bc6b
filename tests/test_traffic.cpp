#include <gtest/gtest.h>

#include <latch>
#include <memory>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "population/traffic.hpp"

namespace tls::population {
namespace {

using tls::core::Month;

struct Fixture {
  tls::clients::Catalog catalog = tls::clients::Catalog::core_only();
  tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  MarketModel market = MarketModel::standard(catalog);
};

TEST(Traffic, GeneratesRequestedCount) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 1);
  int count = 0;
  gen.generate_month(Month(2015, 6), 500,
                     [&](const ConnectionEvent&) { ++count; });
  EXPECT_EQ(count, 500);
}

TEST(Traffic, DeterministicForSameSeed) {
  Fixture f;
  const auto run = [&](std::uint64_t seed) {
    TrafficGenerator gen(f.market, f.servers, seed);
    std::uint64_t acc = 0;
    gen.generate_month(Month(2015, 6), 300, [&](const ConnectionEvent& ev) {
      acc = acc * 31 + ev.result.negotiated_cipher + ev.hello.cipher_suites.size();
    });
    return acc;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(Traffic, SpecialClientsReachTheirDestinations) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 3);
  bool saw_grid_mismatch = false;
  int grid_events = 0;
  gen.generate_range({Month(2014, 1), Month(2014, 6)}, 2000,
                     [&](const ConnectionEvent& ev) {
                       if (ev.client->name == "GridFTP") {
                         ++grid_events;
                         if (!ev.server->name.starts_with("grid")) {
                           saw_grid_mismatch = true;
                         }
                       } else {
                         if (ev.server->name.starts_with("grid")) {
                           saw_grid_mismatch = true;
                         }
                       }
                     });
  EXPECT_GT(grid_events, 0);
  EXPECT_FALSE(saw_grid_mismatch);
}

TEST(Traffic, GridNegotiatesNullCiphers) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 4);
  int grid = 0, null_negotiated = 0;
  gen.generate_month(Month(2013, 6), 5000, [&](const ConnectionEvent& ev) {
    if (ev.client->name != "GridFTP" || !ev.result.success) return;
    ++grid;
    const auto* s = tls::core::find_cipher_suite(ev.result.negotiated_cipher);
    null_negotiated += s != nullptr && tls::core::is_null_cipher(*s);
  });
  ASSERT_GT(grid, 10);
  // GRID endpoints prefer NULL; nearly all GRID connections use it (§6.1).
  EXPECT_GT(static_cast<double>(null_negotiated) / grid, 0.95);
}

TEST(Traffic, InterwiseSessionsCompleteDespiteViolation) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 5);
  int interwise = 0, violations = 0, successes = 0;
  gen.generate_range({Month(2013, 1), Month(2014, 12)}, 3000,
                     [&](const ConnectionEvent& ev) {
                       if (ev.client->name != "Interwise") return;
                       ++interwise;
                       violations += ev.result.spec_violation;
                       successes += ev.result.success;
                     });
  ASSERT_GT(interwise, 0);
  EXPECT_EQ(violations, interwise);
  EXPECT_EQ(successes, interwise);
}

TEST(Traffic, SslV2OnlyFromNagios) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 6);
  int sslv2 = 0;
  gen.generate_range({Month(2017, 1), Month(2018, 4)}, 4000,
                     [&](const ConnectionEvent& ev) {
                       if (ev.sslv2) {
                         ++sslv2;
                         EXPECT_EQ(ev.client->name, "Nagios NRPE");
                       }
                     });
  EXPECT_GT(sslv2, 0);
}

TEST(Traffic, FallbackTriggersForLegacyServers) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 7);
  int fallbacks = 0, fallback_success = 0;
  gen.generate_month(Month(2013, 6), 20000, [&](const ConnectionEvent& ev) {
    if (!ev.used_fallback) return;
    ++fallbacks;
    fallback_success += ev.result.success;
    // Fallback only happens toward servers older than the client.
    EXPECT_LT(ev.server->config.max_version, 0x0303);
  });
  EXPECT_GT(fallbacks, 0);
  EXPECT_EQ(fallbacks, fallback_success);
}

TEST(Traffic, FallbackScsvAppearsAfterRfc7507) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 8);
  bool early_scsv = false;
  bool late_scsv = false;
  const auto has_scsv = [](const ConnectionEvent& ev) {
    return std::find(ev.hello.cipher_suites.begin(),
                     ev.hello.cipher_suites.end(),
                     tls::core::suites::TLS_FALLBACK_SCSV) !=
           ev.hello.cipher_suites.end();
  };
  gen.generate_month(Month(2013, 6), 20000, [&](const ConnectionEvent& ev) {
    if (ev.used_fallback && has_scsv(ev)) early_scsv = true;
  });
  gen.generate_month(Month(2015, 9), 20000, [&](const ConnectionEvent& ev) {
    if (ev.used_fallback && has_scsv(ev)) late_scsv = true;
  });
  EXPECT_FALSE(early_scsv);
  EXPECT_TRUE(late_scsv);
}

// Field-by-field event equality, except client_record (the caller decides
// what the record must be). hello/result are compared only for non-SSLv2
// events, whose hello/result are unspecified.
void expect_same_event(const ConnectionEvent& f, const ConnectionEvent& l,
                       std::size_t i) {
  ASSERT_EQ(f.month.index(), l.month.index()) << i;
  ASSERT_EQ(f.day.year(), l.day.year()) << i;
  ASSERT_EQ(f.day.month(), l.day.month()) << i;
  ASSERT_EQ(f.day.day(), l.day.day()) << i;
  ASSERT_EQ(f.client, l.client) << i;
  ASSERT_EQ(f.config, l.config) << i;
  ASSERT_EQ(f.server, l.server) << i;
  ASSERT_EQ(f.sslv2, l.sslv2) << i;
  ASSERT_EQ(f.used_fallback, l.used_fallback) << i;
  if (f.sslv2) return;
  ASSERT_TRUE(f.hello == l.hello) << i;
  ASSERT_EQ(f.result.success, l.result.success) << i;
  ASSERT_EQ(f.result.failure, l.result.failure) << i;
  ASSERT_EQ(f.result.server_hello, l.result.server_hello) << i;
  ASSERT_EQ(f.result.negotiated_version, l.result.negotiated_version) << i;
  ASSERT_EQ(f.result.negotiated_cipher, l.result.negotiated_cipher) << i;
  ASSERT_EQ(f.result.negotiated_group, l.result.negotiated_group) << i;
  ASSERT_EQ(f.result.spec_violation, l.result.spec_violation) << i;
  ASSERT_EQ(f.result.heartbeat_negotiated, l.result.heartbeat_negotiated)
      << i;
  ASSERT_EQ(f.result.resumed, l.result.resumed) << i;
}

// The legacy build-every-hello leg, kept as the generator's oracle:
// make_client_hello, the resumption draw, negotiate(), then the fallback
// dance — the hello leg exactly as the generator ran it before every config
// compiled into a wire template.
void legacy_leg(const tls::clients::ClientConfig& config,
                const tls::servers::ServerSegment& server, Month m,
                tls::handshake::NegotiateOptions opts, tls::core::Rng& rng_,
                ConnectionEvent& ev) {
  ev.used_fallback = false;
  ev.client_record.clear();
  ev.hello = tls::clients::make_client_hello(config, rng_, "host.test");

  // Roughly a third of revisits re-present a session id (clients that keep
  // session caches; pre-1.3 only — 1.3-capable stacks already send one).
  if (ev.hello.session_id.empty() && rng_.chance(0.33)) {
    ev.hello.session_id.resize(32);
    for (auto& b : ev.hello.session_id) {
      b = static_cast<std::uint8_t>(rng_.next());
    }
    opts.attempt_resumption = true;
  } else if (!ev.hello.session_id.empty()) {
    opts.attempt_resumption = false;  // TLS 1.3 compat id, not a cache hit
  }
  ev.result = tls::handshake::negotiate(ev.hello, server.config, rng_, opts);

  // The downgrade dance: clients that still perform insecure fallback
  // retry with a lower version field (adding TLS_FALLBACK_SCSV once it
  // existed) when the first attempt fails on version mismatch.
  if (!ev.result.success &&
      ev.result.failure == tls::handshake::FailureReason::kNoCommonVersion &&
      config.version_fallback &&
      server.config.max_version < ev.hello.legacy_version &&
      server.config.max_version >= config.min_version) {
    ev.hello.legacy_version = server.config.max_version;
    if (m >= Month(2015, 4)) {  // RFC 7507 deployment
      ev.hello.cipher_suites.push_back(
          tls::core::suites::TLS_FALLBACK_SCSV);
    }
    ev.result = tls::handshake::negotiate(ev.hello, server.config, rng_, opts);
    ev.used_fallback = true;
  }
}

// The generator's one hello leg against the legacy oracle, from one seed:
// every standard-catalog config (GREASE configs and ShuffleBot included) x
// every server segment x both sides of the 2015-04 FALLBACK_SCSV boundary
// x accept-unoffered off and on. The legs are chained on one RNG stream
// per side, so a draw the template fill adds, drops or reorders shows up
// as a different random in the next leg.
TEST(Traffic, GeneratorLegMatchesLegacyOracle) {
  const tls::clients::Catalog catalog = tls::clients::Catalog::standard();
  const tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  const MarketModel market = MarketModel::standard(catalog);
  TrafficGenerator gen(market, servers, 2024);
  tls::core::Rng oracle_rng(2024);

  std::set<const tls::clients::ClientConfig*> seen;
  std::size_t legs = 0, grease = 0, shuffled = 0, resumed = 0;
  std::size_t fallback = 0, fallback_scsv = 0;
  ConnectionEvent a;
  ConnectionEvent b;
  const auto entries = market.entries();
  for (std::size_t ei = 0; ei < entries.size(); ++ei) {
    const auto& versions = entries[ei].profile->versions;
    for (std::size_t vi = 0; vi < versions.size(); ++vi) {
      const tls::clients::ClientConfig& cfg = versions[vi];
      if (!seen.insert(&cfg).second) continue;
      for (const auto& seg : servers.segments()) {
        for (const Month m : {Month(2015, 3), Month(2015, 4)}) {
          for (const bool accept : {false, true}) {
            for (ConnectionEvent* ev : {&a, &b}) {
              ev->month = m;
              ev->client = entries[ei].profile;
              ev->config = &cfg;
              ev->server = &seg;
            }
            gen.connect(ei, vi, seg, m, accept, a);
            tls::handshake::NegotiateOptions opts;
            opts.accept_unoffered_suite = accept;
            legacy_leg(cfg, seg, m, opts, oracle_rng, b);
            ASSERT_NO_FATAL_FAILURE(expect_same_event(a, b, legs))
                << entries[ei].profile->name << " " << cfg.version_label
                << " -> " << seg.name << " " << m.to_string();
            ASSERT_EQ(a.client_record, a.hello.serialize_record()) << legs;
            ++legs;
            grease += cfg.grease ? 1 : 0;
            shuffled += cfg.randomizes_cipher_order ? 1 : 0;
            resumed += a.result.resumed ? 1 : 0;
            if (a.used_fallback) {
              ++fallback;
              fallback_scsv += m >= Month(2015, 4) ? 1 : 0;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(seen.size(), 1574u);
  EXPECT_GT(grease, 0u);
  EXPECT_GT(shuffled, 0u);
  EXPECT_GT(resumed, 0u);
  EXPECT_GT(fallback_scsv, 0u);
  EXPECT_GT(fallback, fallback_scsv);
}

// FNV-1a 64 over everything an event carries that the monitor can see.
struct EventDigest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const std::vector<std::uint8_t>& v) {
    u64(v.size());
    for (const auto b : v) byte(b);
  }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void add(const ConnectionEvent& ev) {
    u64(static_cast<std::uint64_t>(ev.month.index()));
    u64(static_cast<std::uint64_t>(ev.day.year() * 10000 +
                                   ev.day.month() * 100 + ev.day.day()));
    str(ev.client->name);
    str(ev.config->version_label);
    str(ev.server->name);
    u64(ev.sslv2);
    if (ev.sslv2) return;
    u64(ev.used_fallback);
    bytes(ev.hello.serialize_record());
    const auto& r = ev.result;
    u64(r.success);
    u64(static_cast<std::uint64_t>(r.failure));
    u64(r.negotiated_version);
    u64(r.negotiated_cipher);
    u64(r.negotiated_group);
    u64(r.spec_violation);
    u64(r.heartbeat_negotiated);
    u64(r.resumed);
    bytes(r.server_hello ? r.server_hello->serialize_record()
                         : std::vector<std::uint8_t>{});
  }
};

// The full-catalog event stream, pinned: seed 77, 1,500 connections in
// each of three months. The constant was recorded when the template path
// and the legacy path still both ran in the generator and agreed on it;
// any change to a drawn value, a negotiated field or a record byte moves
// it.
TEST(Traffic, EventStreamDigestPinned) {
  const tls::clients::Catalog catalog = tls::clients::Catalog::standard();
  const tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  const MarketModel market = MarketModel::standard(catalog);
  TrafficGenerator gen(market, servers, 77);
  EventDigest d;
  std::size_t events = 0, grease = 0, shuffled = 0;
  for (const Month m : {Month(2015, 4), Month(2017, 6), Month(2018, 3)}) {
    gen.generate_month(m, 1500, [&](const ConnectionEvent& ev) {
      d.add(ev);
      ++events;
      grease += ev.config->grease ? 1 : 0;
      shuffled += ev.config->randomizes_cipher_order ? 1 : 0;
      if (!ev.sslv2) {
        ASSERT_EQ(ev.client_record, ev.hello.serialize_record()) << events;
      }
    });
  }
  EXPECT_EQ(events, 4500u);
  EXPECT_GT(grease, 0u);
  EXPECT_GT(shuffled, 0u);
  EXPECT_EQ(d.h, 0xbbf3fdd37d619ffbull);
}

TEST(Traffic, EventDayWithinMonth) {
  Fixture f;
  TrafficGenerator gen(f.market, f.servers, 9);
  gen.generate_month(Month(2015, 2), 1000, [&](const ConnectionEvent& ev) {
    EXPECT_EQ(ev.day.year(), 2015);
    EXPECT_EQ(ev.day.month(), 2);
    EXPECT_GE(ev.day.day(), 1);
    EXPECT_LE(ev.day.day(), 28);
  });
}

// Generators on one fresh TrafficTables race on everything the tables
// build lazily: four threads start together on the same month, so they
// contend for the month-table build, the template std::call_once and —
// two threads per seed draw identical key sequences — the same plan slots.
// Every thread's stream must equal a private-table generator's with the
// same seed, field by field, bytes included. Repeated over several fresh
// tables, each raced on two months. Part of the ThreadSanitizer CI lane.
TEST(TrafficTables, SharedTablesMatchPrivateUnderRace) {
  const tls::clients::Catalog catalog = tls::clients::Catalog::standard();
  const tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  const MarketModel market = MarketModel::standard(catalog);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCount = 1200;
  const Month months[] = {Month(2015, 3), Month(2016, 8)};
  const auto seed_of = [](std::size_t t) { return 90 + t % 2; };

  // Reference streams: private tables, one generator per seed, the same
  // two months in the same order.
  std::vector<std::vector<ConnectionEvent>> expected(2 * 2);
  for (std::size_t s = 0; s < 2; ++s) {
    TrafficGenerator gen(market, servers, seed_of(s));
    for (std::size_t mi = 0; mi < 2; ++mi) {
      gen.generate_month(months[mi], kCount, [&](const ConnectionEvent& ev) {
        expected[s * 2 + mi].push_back(ev);
      });
    }
  }

  for (int round = 0; round < 5; ++round) {
    const auto tables = std::make_shared<TrafficTables>(market, servers);
    std::vector<std::vector<ConnectionEvent>> got(kThreads * 2);
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        TrafficGenerator gen(tables, seed_of(t));
        start.arrive_and_wait();
        for (std::size_t mi = 0; mi < 2; ++mi) {
          gen.generate_month(months[mi], kCount,
                             [&](const ConnectionEvent& ev) {
                               got[t * 2 + mi].push_back(ev);
                             });
        }
      });
    }
    for (auto& th : threads) th.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t mi = 0; mi < 2; ++mi) {
        const auto& a = got[t * 2 + mi];
        const auto& b = expected[(t % 2) * 2 + mi];
        ASSERT_EQ(a.size(), b.size()) << "round " << round << " thread " << t;
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_NO_FATAL_FAILURE(expect_same_event(a[i], b[i], i))
              << "round " << round << " thread " << t << " month " << mi;
          ASSERT_EQ(a[i].client_record, b[i].client_record)
              << "round " << round << " thread " << t << " event " << i;
        }
      }
    }
  }
}

// A generator on private tables books exactly the gen-cache activity it
// did when every generator owned its caches: every template compiled once
// (misses, bytes), one plan per distinct memo key plus one per connection
// of a shuffling template (here all 48 ShuffleBot connections; the GREASE
// configs are not live in these months). A generator on tables another
// generator has warmed sees the same per-connection counts (hits, plan
// lookups) but no template compilation and fewer misses.
TEST(TrafficTables, PrivateTablesKeepGenCacheStats) {
  const tls::clients::Catalog catalog = tls::clients::Catalog::standard();
  const tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  const MarketModel market = MarketModel::standard(catalog);
  const auto run = [&](TrafficGenerator& gen) {
    gen.generate_month(Month(2015, 4), 3000, [](const ConnectionEvent&) {});
    gen.generate_month_batched(Month(2016, 1), 3000, 256,
                               [](std::span<const ConnectionEvent>) {});
    return gen.gen_cache_stats();
  };
  TrafficGenerator standalone(market, servers, 77);
  const GenCache::Stats s = run(standalone);
  EXPECT_EQ(s.template_hits, 6000u);
  EXPECT_EQ(s.template_misses, 1574u);
  EXPECT_EQ(s.template_bytes, 502921u);
  EXPECT_EQ(s.plan_hits, 4784u);
  EXPECT_EQ(s.plan_misses, 1219u);

  const auto tables = std::make_shared<TrafficTables>(market, servers);
  TrafficGenerator warm(tables, 5);
  run(warm);
  TrafficGenerator shared(tables, 77);
  const GenCache::Stats w = run(shared);
  EXPECT_EQ(w.template_hits, s.template_hits);
  EXPECT_EQ(w.template_misses, 0u);
  EXPECT_EQ(w.template_bytes, 0u);
  EXPECT_EQ(w.plan_hits + w.plan_misses, s.plan_hits + s.plan_misses);
  EXPECT_LT(w.plan_misses, s.plan_misses);
}

}  // namespace
}  // namespace tls::population
