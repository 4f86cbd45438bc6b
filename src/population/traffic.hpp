// The connection stream generator: samples (client version, server
// deployment) pairs month by month, emits a real ClientHello, runs the
// negotiation engine (with the historical fallback dance where the client
// still performs it), and hands each connection to a sink — the synthetic
// stand-in for the Notary's campus taps.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "handshake/negotiate.hpp"
#include "population/market.hpp"
#include "servers/population.hpp"
#include "tlscore/rng.hpp"

namespace tls::population {

struct ConnectionEvent {
  tls::core::Month month;
  tls::core::Date day{2012, 1, 1};
  const tls::clients::ClientProfile* client = nullptr;
  const tls::clients::ClientConfig* config = nullptr;
  const tls::servers::ServerSegment* server = nullptr;
  tls::wire::ClientHello hello;  // the hello actually sent (post-fallback)
  tls::handshake::NegotiationResult result;
  /// Serialized TLS record bytes of `hello` (== hello.serialize_record()),
  /// patched from the config's wire template; set on every non-SSLv2
  /// event. The passive monitor ingests these bytes as the tap's capture.
  std::vector<std::uint8_t> client_record;
  bool used_fallback = false;
  bool sslv2 = false;  // SSLv2 CLIENT-HELLO connection (hello is not set)

  /// Capacity-preserving slot reset for batched reuse. Fields that
  /// generate_into() always rewrites on success (month, day, hello,
  /// result) are left as-is so their heap buffers amortize; for sslv2
  /// events, hello/result/client_record are unspecified (callers already
  /// branch on `sslv2` first).
  void reset() {
    client = nullptr;
    config = nullptr;
    server = nullptr;
    client_record.clear();
    used_fallback = false;
    sslv2 = false;
  }
};

/// Synthesizes the per-direction record streams for a generated
/// connection — the full-transcript view of the same event.
struct ConnectionFlights {
  std::vector<std::uint8_t> client;
  std::vector<std::uint8_t> server;
};
ConnectionFlights synthesize_flights(const ConnectionEvent& event);

/// Producer-side template cache. Each ClientConfig compiles once into a
/// **wire template** — the ClientHello struct and its record bytes, with
/// every field the RNG fills per connection recorded as a *draw site* — so
/// a connection is a copy plus patches, drawing exactly the RNG sequence
/// of the legacy build-every-hello leg (the oracle in
/// tests/test_traffic.cpp). Negotiation plans are memoized per (template,
/// variant, segment, options, fallback/SCSV branch), except for
/// cipher-order shuffling templates, planned per connection (DESIGN.md
/// §15). The templates and the memo live in TrafficTables.
class GenCache {
 public:
  /// Fixed offsets of the RNG-patched fields inside a serialized
  /// ClientHello record: 5-byte record header + 4-byte handshake header +
  /// 2-byte legacy_version puts the 32-byte random at 11; the session-id
  /// length byte follows at 43, its bytes at 44. Defended by the
  /// template-patch fuzzer in tests/test_fuzz.cpp.
  static constexpr std::size_t kRandomOffset = 11;
  static constexpr std::size_t kSessionIdOffset = 44;
  /// A 16-bit GREASE value the fill draws: its place in the hello struct
  /// and its big-endian record offset (the base variant's; the resume
  /// variant's 32-byte session id adds 32). A GREASE hello has up to five:
  /// suite 0, the supported_groups and supported_versions heads, and the
  /// types of the leading and trailing GREASE extensions.
  struct GreaseSite {
    enum class Place : std::uint8_t {
      kCipherSuite,     // hello.cipher_suites[0]
      kExtensionType,   // hello.extensions[extension].type
      kExtensionBody,   // hello.extensions[extension].body[body_offset..+2)
    };
    Place place = Place::kCipherSuite;
    std::uint16_t extension = 0;
    std::uint16_t body_offset = 0;
    std::uint32_t record_offset = 0;
  };

  struct WireTemplate {
    /// Random and session id zeroed, shuffled suites in config order,
    /// GREASE sites holding compile-time draws; the fill rewrites them all.
    tls::wire::ClientHello hello;
    std::vector<std::uint8_t> wire;   // == hello.serialize_record()
    bool has_session_id = false;
  };
  struct TemplateSet {
    std::uint32_t id = 0;
    WireTemplate base;
    /// base + a 32-byte session-id slot, for empty-id configs that draw
    /// the resumption leg (pre-1.3 session-cache re-presentation).
    WireTemplate resume;
    bool has_resume = false;
    /// Cipher-order shuffling: the fill permutes cipher_suites from
    /// shuffle_begin on (config order in the template) and rewrites them at
    /// suites_offset + 2 * index in the record.
    bool shuffles = false;
    std::uint32_t shuffle_begin = 0;
    std::uint32_t suites_offset = 0;  // record offset of cipher_suites[0]
    /// GREASE draw sites in make_client_hello's draw order.
    std::vector<GreaseSite> grease;
  };
  /// One generator's activity: template_hits counts its connections,
  /// the rest the compilations and plans it computed itself (plan_misses
  /// includes shuffling templates' per-connection plans), so a generator
  /// on shared tables sees misses another paid for as hits.
  struct Stats {
    std::uint64_t template_hits = 0;    // connections filled from a template
    std::uint64_t template_misses = 0;  // template compilations
    std::uint64_t plan_hits = 0;        // memoized negotiation plans reused
    std::uint64_t plan_misses = 0;      // plans computed
    std::uint64_t template_bytes = 0;   // compiled wire bytes resident
  };

  /// Compiles `cfg` into its template set (exposed for the differential
  /// fuzzer; TrafficTables compiles every catalog config once). Throws
  /// std::logic_error if the record layout disagrees with a draw site.
  static TemplateSet compile(const tls::clients::ClientConfig& cfg);

  /// One connection's hello: copies the base template's struct into
  /// `hello` and draws make_client_hello's RNG sequence into it (random,
  /// the config's own session id, cipher-order shuffle, GREASE values), so
  /// `hello` equals make_client_hello(cfg, rng, "host.test").
  static void draw_hello(const TemplateSet& ts, tls::core::Rng& rng,
                         tls::wire::ClientHello& hello);
  /// The record of `hello`, a fill of `ts` whose session id is `tm`'s
  /// length: copies tm's wire bytes into `record` and patches the random,
  /// the session id, the shuffled suites and the GREASE sites.
  static void patch_record(const TemplateSet& ts, const WireTemplate& tm,
                           const tls::wire::ClientHello& hello,
                           std::vector<std::uint8_t>& record);
};

/// The traffic model's tables: everything a TrafficGenerator derives from
/// the market and server models alone — the per-month sampling tables, the
/// compiled wire templates and the memoized negotiation plans. None of it
/// depends on a seed, so one instance can back the generators of every
/// worker of a study (see DESIGN.md §15). Thread-safe: month tables are
/// built once under a mutex, the template table under std::call_once, and
/// plans are published into write-once slots (the memory-ordering argument
/// is DESIGN.md §18). The models must outlive the tables.
class TrafficTables {
 public:
  TrafficTables(const MarketModel& market,
                const tls::servers::ServerPopulation& servers);
  TrafficTables(const TrafficTables&) = delete;
  TrafficTables& operator=(const TrafficTables&) = delete;

  [[nodiscard]] const MarketModel& market() const { return market_; }
  [[nodiscard]] const tls::servers::ServerPopulation& servers() const {
    return servers_;
  }

 private:
  friend class TrafficGenerator;

  /// Per-month sampling tables: cumulative entry weights and per-entry
  /// cumulative version shares, built once per month (the market model is
  /// piecewise-linear in months, so this is exact, not an approximation).
  struct MonthCache {
    std::vector<double> entry_cum;                // cumulative traffic shares
    std::vector<std::vector<double>> version_cum; // per entry
    /// Bucket index over entry_cum: entry_buckets[k] =
    /// upper_bound(entry_cum, total * k / kEntryBuckets). The entry pick
    /// runs upper_bound over a one-bucket-wide window instead of all
    /// ~1.5k entries; the window is widened one bucket each side so a
    /// +-1 ulp disagreement in the bucket computation cannot exclude the
    /// true position. The pick itself stays exactly upper_bound(x).
    static constexpr std::size_t kEntryBuckets = 256;
    std::vector<std::uint32_t> entry_buckets;  // size kEntryBuckets + 1
    double inv_total = 0;                      // 1 / entry_cum.back()
    /// Per-destination routing table: the special-destination segments (in
    /// segment order) with their shares at this month, plus the total
    /// accumulated in the same order — so the pick is a single walk over
    /// the (few) matching segments instead of two scans over all of them,
    /// with bit-identical floating-point arithmetic.
    struct DestTable {
      std::vector<std::pair<const tls::servers::ServerSegment*, double>>
          segments;
      double total = 0;
    };
    std::unordered_map<std::string, DestTable> dest_tables;
    /// General-web routing table: the non-special segments with their
    /// shares at this month, same order/accumulation discipline as the
    /// destination tables. Replaces ServerPopulation::sample_by_traffic's
    /// per-connection double scan (each step an AnchorSeries
    /// interpolation) with a single cached walk.
    DestTable general;
  };

  /// The tables of month m, built on first request. Takes the month mutex:
  /// generators call it once per generate_month* call, not per connection.
  const MonthCache& month(tls::core::Month m);

  /// Compiles every catalog config's template set once (std::call_once);
  /// afterwards a call is one once-flag check and the template lookup two
  /// array indexes. The compilations are booked into `stats` of the
  /// caller that runs them.
  void ensure_templates(GenCache::Stats& stats);

  /// Memoized plan_negotiation. `key` must uniquely encode every input the
  /// plan depends on: (template id, variant, server segment, options,
  /// fallback/SCSV branch). Keys are dense — (id * nseg + seg) * 16 | flags
  /// — so the memo is a direct-indexed table of write-once slots sized by
  /// ensure_templates. hello/server/opts are only consulted on a miss,
  /// which computes the plan outside any lock; racing misses on one slot
  /// publish the first plan and drop the others (they are identical).
  /// Returned references stay valid for the tables' lifetime.
  const tls::handshake::NegotiationPlan& plan(
      std::uint64_t key, const tls::wire::ClientHello& hello,
      const tls::servers::ServerConfig& server,
      const tls::handshake::NegotiateOptions& opts, GenCache::Stats& stats);

  const MarketModel& market_;
  const tls::servers::ServerPopulation& servers_;
  /// Per-entry `profile->name == "Interwise"` (the accept-unoffered-suite
  /// quirk), hoisted out of the per-connection path.
  std::vector<std::uint8_t> accept_unoffered_;

  std::mutex month_mutex_;
  std::unordered_map<int, MonthCache> months_;  // guarded by month_mutex_

  std::once_flag templates_once_;
  /// Written once inside templates_once_, read-only afterwards.
  std::unordered_map<const tls::clients::ClientConfig*, GenCache::TemplateSet>
      templates_;
  /// template_sets_[entry][version] -> templates_ entry, so connect()
  /// replaces a config-pointer hash lookup with two array indexes.
  std::vector<std::vector<const GenCache::TemplateSet*>> template_sets_;

  /// Plan memo: plan_slots_[key] is null until the plan for `key` is
  /// published (release store under plan_mutex_, after the plan is in
  /// plan_store_); readers load it with acquire. plan_store_ only grows,
  /// under plan_mutex_, and std::deque never moves its elements.
  std::unique_ptr<std::atomic<const tls::handshake::NegotiationPlan*>[]>
      plan_slots_;
  std::size_t plan_slot_count_ = 0;
  std::mutex plan_mutex_;
  std::deque<tls::handshake::NegotiationPlan> plan_store_;
};

class TrafficGenerator {
 public:
  /// A generator on its own private tables.
  TrafficGenerator(const MarketModel& market,
                   const tls::servers::ServerPopulation& servers,
                   std::uint64_t seed = 42);
  /// A generator on shared tables: any number of generators on one
  /// TrafficTables, each on its own thread, draw exactly the streams they
  /// would on private tables.
  TrafficGenerator(std::shared_ptr<TrafficTables> tables, std::uint64_t seed);

  using Sink = std::function<void(const ConnectionEvent&)>;
  using SpanSink = std::function<void(std::span<const ConnectionEvent>)>;

  /// Generates `count` connections during month m.
  void generate_month(tls::core::Month m, std::size_t count,
                      const Sink& sink);

  /// Batched variant: events are accumulated in an internal reusable buffer
  /// and delivered `batch_size` at a time (final batch may be short). Draws
  /// the exact same RNG stream as generate_month, so the event sequence is
  /// identical — only the delivery granularity changes. Pairs with
  /// PassiveMonitor::observe_span to amortize per-connection call overhead.
  void generate_month_batched(tls::core::Month m, std::size_t count,
                              std::size_t batch_size, const SpanSink& sink);

  /// Generates count-per-month connections over an inclusive month range.
  void generate_range(tls::core::MonthRange range, std::size_t per_month,
                      const Sink& sink);

  /// Re-seeds the RNG stream in place. Everything in the generator's
  /// tables is a pure function of the market/server models, so a
  /// re-seeded generator draws exactly the stream a freshly constructed
  /// one would — this is how the study runner reuses one generator per
  /// worker across shard tasks.
  void reseed(std::uint64_t seed) { rng_ = tls::core::Rng(seed); }

  /// The hello leg of one connection, as generate_month runs it after
  /// sampling: config `version` of market entry `entry` connects to
  /// `server` (a segment of the tables' ServerPopulation) in month m.
  /// Fills ev.hello, ev.client_record, ev.result and ev.used_fallback from
  /// the generator's RNG stream. Lets tests drive every (config, segment)
  /// pair against the legacy oracle.
  void connect(std::size_t entry, std::size_t version,
               const tls::servers::ServerSegment& server, tls::core::Month m,
               bool accept_unoffered_suite, ConnectionEvent& ev);

  [[nodiscard]] const GenCache::Stats& gen_cache_stats() const {
    return stats_;
  }

 private:
  using MonthCache = TrafficTables::MonthCache;

  const tls::servers::ServerSegment& route(const MarketEntry& entry,
                                           const MonthCache& cache);
  /// Samples one connection into `ev` (which must be freshly reset);
  /// returns false when the month has no live traffic for the draw (the
  /// RNG advances identically either way). `cache` must be the tables of
  /// m, fetched once by the per-month loops.
  bool generate_into(tls::core::Month m, const MonthCache& cache,
                     ConnectionEvent& ev);

  std::shared_ptr<TrafficTables> tables_;
  const MarketModel& market_;
  const tls::servers::ServerPopulation& servers_;
  tls::core::Rng rng_;
  std::vector<ConnectionEvent> batch_;  // reused by generate_month_batched
  GenCache::Stats stats_;
  /// The per-connection plan of a shuffling template (never memoized).
  tls::handshake::NegotiationPlan own_plan_;
};

}  // namespace tls::population
