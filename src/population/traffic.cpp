#include "population/traffic.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "tlscore/grease.hpp"
#include "wire/transcript.hpp"

namespace tls::population {

using tls::core::Month;
using tls::servers::ServerSegment;

ConnectionFlights synthesize_flights(const ConnectionEvent& event) {
  ConnectionFlights flights;
  if (event.sslv2) return flights;  // pre-SSL3 framing; handled separately
  const auto& r = event.result;
  flights.client = tls::wire::client_flight(event.hello, r.success);
  if (!r.success) {
    std::optional<tls::wire::Alert> alert;
    if (r.failure != tls::handshake::FailureReason::kNone) {
      alert = tls::handshake::alert_for(r.failure);
    }
    flights.server = tls::wire::server_failure_flight(
        r.server_hello, alert.value_or(tls::wire::Alert{}));
    return flights;
  }
  std::optional<tls::wire::EcdheServerKeyExchange> ske;
  if (r.negotiated_group != 0 && r.server_hello.has_value() &&
      !r.server_hello->has_extension(
          tls::core::ExtensionType::kSupportedVersions)) {
    ske = tls::wire::EcdheServerKeyExchange::stub(r.negotiated_group);
  }
  flights.server =
      tls::wire::server_flight(*r.server_hello, ske, /*established=*/true);
  return flights;
}

TrafficTables::TrafficTables(const MarketModel& market,
                             const tls::servers::ServerPopulation& servers)
    : market_(market), servers_(servers) {
  accept_unoffered_.reserve(market_.entries().size());
  for (const auto& e : market_.entries()) {
    accept_unoffered_.push_back(e.profile->name == "Interwise" ? 1 : 0);
  }
}

TrafficGenerator::TrafficGenerator(
    const MarketModel& market, const tls::servers::ServerPopulation& servers,
    std::uint64_t seed)
    : TrafficGenerator(std::make_shared<TrafficTables>(market, servers),
                       seed) {}

TrafficGenerator::TrafficGenerator(std::shared_ptr<TrafficTables> tables,
                                   std::uint64_t seed)
    : tables_(std::move(tables)),
      market_(tables_->market()),
      servers_(tables_->servers()),
      rng_(seed) {}

void TrafficTables::ensure_templates(GenCache::Stats& stats) {
  std::call_once(templates_once_, [&] {
    const auto entries = market_.entries();
    std::uint32_t next_id = 0;
    template_sets_.reserve(entries.size());
    for (const auto& e : entries) {
      std::vector<const GenCache::TemplateSet*> row;
      row.reserve(e.profile->versions.size());
      for (const auto& cfg : e.profile->versions) {
        auto it = templates_.find(&cfg);
        if (it == templates_.end()) {
          GenCache::TemplateSet t = GenCache::compile(cfg);
          t.id = next_id++;
          ++stats.template_misses;
          stats.template_bytes += t.base.wire.size() + t.resume.wire.size();
          it = templates_.emplace(&cfg, std::move(t)).first;
        }
        row.push_back(&it->second);
      }
      template_sets_.push_back(std::move(row));
    }
    // One slot per possible plan key (see plan()): 16 flag combinations
    // per (template, segment) pair.
    plan_slot_count_ =
        static_cast<std::size_t>(next_id) * servers_.segments().size() * 16;
    plan_slots_ = std::make_unique<
        std::atomic<const tls::handshake::NegotiationPlan*>[]>(
        plan_slot_count_);
  });
}

const ServerSegment& TrafficGenerator::route(const MarketEntry& entry,
                                             const MonthCache& cache) {
  if (entry.destination.empty()) {
    // General web traffic: cached (segment, share-at-m) walk, arithmetic
    // bit-identical to ServerPopulation::sample_by_traffic (total summed in
    // segment order, same subtraction order, same last-segment fallback,
    // and the same throw-before-draw on zero weight).
    const MonthCache::DestTable& table = cache.general;
    if (table.total <= 0) {
      throw std::logic_error("no general-web traffic weight");
    }
    double x = rng_.uniform() * table.total;
    const ServerSegment* last = nullptr;
    for (const auto& [seg, share] : table.segments) {
      last = seg;
      x -= share;
      if (x <= 0) return *seg;
    }
    return *last;
  }
  // Special destinations: sample among segments whose name starts with the
  // destination key, weighted by their (relative) traffic shares. The
  // matching segments and their shares were collected once per month (in
  // segment order, total accumulated in that same order) so the pick walks
  // only the handful of matches with arithmetic bit-identical to the old
  // double full scan.
  const auto it = cache.dest_tables.find(entry.destination);
  if (it == cache.dest_tables.end() || it->second.total <= 0) {
    throw std::logic_error("no server segment for destination " +
                           entry.destination);
  }
  const MonthCache::DestTable& table = it->second;
  double x = rng_.uniform() * table.total;
  const ServerSegment* last = nullptr;
  for (const auto& [seg, share] : table.segments) {
    last = seg;
    x -= share;
    if (x <= 0) return *seg;
  }
  return *last;
}

const TrafficTables::MonthCache& TrafficTables::month(Month m) {
  const std::lock_guard<std::mutex> lock(month_mutex_);
  const auto it = months_.find(m.index());
  if (it != months_.end()) return it->second;

  MonthCache c;
  const auto entries = market_.entries();
  c.entry_cum.reserve(entries.size());
  c.version_cum.reserve(entries.size());
  double cum = 0;
  for (const auto& e : entries) {
    const auto shares = version_shares(*e.profile, m, e.lag);
    double any = 0;
    for (const auto s : shares) any += s;
    if (any > 0) cum += e.traffic_share.at(m);
    c.entry_cum.push_back(cum);
    std::vector<double> vcum(shares.size());
    double v = 0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      v += shares[i];
      vcum[i] = v;
    }
    c.version_cum.push_back(std::move(vcum));
  }
  if (!c.entry_cum.empty() && c.entry_cum.back() > 0) {
    const double total = c.entry_cum.back();
    c.inv_total = 1.0 / total;
    c.entry_buckets.resize(MonthCache::kEntryBuckets + 1);
    for (std::size_t k = 0; k <= MonthCache::kEntryBuckets; ++k) {
      const double t =
          total * (static_cast<double>(k) / MonthCache::kEntryBuckets);
      c.entry_buckets[k] = static_cast<std::uint32_t>(
          std::upper_bound(c.entry_cum.begin(), c.entry_cum.end(), t) -
          c.entry_cum.begin());
    }
  }
  for (const auto& e : entries) {
    if (e.destination.empty() || c.dest_tables.contains(e.destination)) {
      continue;
    }
    MonthCache::DestTable t;
    for (const auto& s : servers_.segments()) {
      if (s.special_destination && s.name.starts_with(e.destination)) {
        const double w = s.traffic_share.at(m);
        t.segments.emplace_back(&s, w);
        t.total += w;
      }
    }
    c.dest_tables.emplace(e.destination, std::move(t));
  }
  for (const auto& s : servers_.segments()) {
    if (s.special_destination) continue;
    const double w = s.traffic_share.at(m);
    c.general.segments.emplace_back(&s, w);
    c.general.total += w;
  }
  return months_.emplace(m.index(), std::move(c)).first->second;
}

namespace {

using GreaseSite = GenCache::GreaseSite;

std::uint16_t site_value(const GreaseSite& g,
                         const tls::wire::ClientHello& hello) {
  switch (g.place) {
    case GreaseSite::Place::kCipherSuite:
      return hello.cipher_suites[0];
    case GreaseSite::Place::kExtensionType:
      return hello.extensions[g.extension].type;
    case GreaseSite::Place::kExtensionBody: {
      const auto& body = hello.extensions[g.extension].body;
      return static_cast<std::uint16_t>(body[g.body_offset] << 8 |
                                        body[g.body_offset + 1u]);
    }
  }
  return 0;
}

void set_site_value(const GreaseSite& g, std::uint16_t v,
                    tls::wire::ClientHello& hello) {
  switch (g.place) {
    case GreaseSite::Place::kCipherSuite:
      hello.cipher_suites[0] = v;
      return;
    case GreaseSite::Place::kExtensionType:
      hello.extensions[g.extension].type = v;
      return;
    case GreaseSite::Place::kExtensionBody: {
      auto& body = hello.extensions[g.extension].body;
      body[g.body_offset] = static_cast<std::uint8_t>(v >> 8);
      body[g.body_offset + 1u] = static_cast<std::uint8_t>(v);
      return;
    }
  }
}

void put_be16(std::vector<std::uint8_t>& wire, std::size_t at,
              std::uint16_t v) {
  wire.at(at) = static_cast<std::uint8_t>(v >> 8);
  wire.at(at + 1) = static_cast<std::uint8_t>(v);
}

}  // namespace

GenCache::TemplateSet GenCache::compile(const tls::clients::ClientConfig& cfg) {
  TemplateSet t;
  // Any seed works: every RNG-filled field is a draw site, zeroed or reset
  // below. The SNI host must match the one the legacy leg passes to
  // make_client_hello.
  tls::core::Rng throwaway(0x7e3d);
  tls::wire::ClientHello& hello = t.base.hello;
  hello = tls::clients::make_client_hello(cfg, throwaway, "host.test");
  hello.random.fill(0);
  std::fill(hello.session_id.begin(), hello.session_id.end(),
            static_cast<std::uint8_t>(0));
  t.base.has_session_id = !hello.session_id.empty();
  t.shuffles = cfg.randomizes_cipher_order;
  t.shuffle_begin = cfg.grease ? 1 : 0;  // the GREASE suite is not shuffled
  if (t.shuffles) {
    // The fill permutes the config's order, as make_client_hello does.
    std::copy(cfg.cipher_suites.begin(), cfg.cipher_suites.end(),
              hello.cipher_suites.begin() + t.shuffle_begin);
  }
  hello.serialize_record_into(t.base.wire);

  // Record layout after the session id (ClientHello::write_body): the
  // suite list's u16 length, the suites, the compression list, the
  // extension block's u16 length, then type | u16 length | body each.
  t.suites_offset = static_cast<std::uint32_t>(
      kSessionIdOffset + hello.session_id.size() + 2);
  if (cfg.grease) {
    // make_client_hello's draw order: the suite, the list heads in
    // extension order (between the two GREASE extensions), then the
    // leading and trailing GREASE extensions.
    using Place = GreaseSite::Place;
    t.grease.push_back({Place::kCipherSuite, 0, 0, t.suites_offset});
    const auto lead = static_cast<std::uint32_t>(
        t.suites_offset + 2 * hello.cipher_suites.size() + 1 +
        hello.compression_methods.size() + 2);
    std::uint32_t off = lead;
    const std::size_t n = hello.extensions.size();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto& e = hello.extensions[i];
      // A list head follows the u16 (groups) or u8 (versions) list length.
      const auto type = static_cast<tls::core::ExtensionType>(e.type);
      const std::uint16_t head =
          type == tls::core::ExtensionType::kSupportedGroups     ? 2
          : type == tls::core::ExtensionType::kSupportedVersions ? 1
                                                                 : 0;
      if (head > 0) {
        t.grease.push_back({Place::kExtensionBody,
                            static_cast<std::uint16_t>(i), head,
                            off + 4 + head});
      }
      off += static_cast<std::uint32_t>(4 + e.body.size());
    }
    t.grease.push_back({Place::kExtensionType, 0, 0, lead});
    t.grease.push_back(
        {Place::kExtensionType, static_cast<std::uint16_t>(n - 1), 0, off});
  }

  if (!t.base.has_session_id) {
    // Empty-id configs may gain a 32-byte id on the resumption leg.
    t.resume.hello = hello;
    t.resume.hello.session_id.assign(32, 0);
    t.resume.has_session_id = true;
    t.resume.hello.serialize_record_into(t.resume.wire);
    t.has_resume = true;
  }

  // Layout check: a fill from two seeds, patched into each variant, must
  // equal the serialization of the filled hello — every offset above (and
  // kRandomOffset/kSessionIdOffset) lands on its struct field.
  for (const std::uint64_t seed : {0x5eedu, 0xc0ffeeu}) {
    tls::core::Rng probe(seed);
    tls::wire::ClientHello h;
    std::vector<std::uint8_t> record;
    draw_hello(t, probe, h);
    patch_record(t, t.base, h, record);
    bool ok = record == h.serialize_record();
    if (t.has_resume) {
      h.session_id.assign(32, static_cast<std::uint8_t>(seed));
      patch_record(t, t.resume, h, record);
      ok = ok && record == h.serialize_record();
    }
    if (!ok) throw std::logic_error("gen-cache template layout mismatch");
  }
  return t;
}

void GenCache::draw_hello(const TemplateSet& ts, tls::core::Rng& rng,
                          tls::wire::ClientHello& hello) {
  hello = ts.base.hello;
  for (auto& b : hello.random) b = static_cast<std::uint8_t>(rng.next());
  // A config with its own id (TLS 1.3 compat) draws it right after the
  // random; that is not a resumption attempt.
  for (auto& b : hello.session_id) b = static_cast<std::uint8_t>(rng.next());
  if (ts.shuffles) {
    auto& suites = hello.cipher_suites;
    for (std::size_t i = suites.size() - ts.shuffle_begin; i > 1; --i) {
      std::swap(suites[ts.shuffle_begin + i - 1],
                suites[ts.shuffle_begin + rng.below(i)]);
    }
  }
  for (const GreaseSite& g : ts.grease) {
    set_site_value(g, tls::core::grease_values()[rng.below(16)], hello);
  }
}

void GenCache::patch_record(const TemplateSet& ts, const WireTemplate& tm,
                            const tls::wire::ClientHello& hello,
                            std::vector<std::uint8_t>& record) {
  record = tm.wire;
  std::copy(hello.random.begin(), hello.random.end(),
            record.begin() + kRandomOffset);
  std::copy(hello.session_id.begin(), hello.session_id.end(),
            record.begin() + kSessionIdOffset);
  // The resume variant's 32-byte id shifts everything after it.
  const std::size_t shift =
      tm.hello.session_id.size() - ts.base.hello.session_id.size();
  if (ts.shuffles) {
    for (std::size_t i = ts.shuffle_begin; i < hello.cipher_suites.size();
         ++i) {
      put_be16(record, ts.suites_offset + shift + 2 * i,
               hello.cipher_suites[i]);
    }
  }
  for (const GreaseSite& g : ts.grease) {
    put_be16(record, g.record_offset + shift, site_value(g, hello));
  }
}

const tls::handshake::NegotiationPlan& TrafficTables::plan(
    std::uint64_t key, const tls::wire::ClientHello& hello,
    const tls::servers::ServerConfig& server,
    const tls::handshake::NegotiateOptions& opts, GenCache::Stats& stats) {
  if (key >= plan_slot_count_) {
    throw std::logic_error("gen-cache plan key out of range");
  }
  auto& slot = plan_slots_[key];
  if (const auto* p = slot.load(std::memory_order_acquire)) {
    ++stats.plan_hits;
    return *p;
  }
  ++stats.plan_misses;
  tls::handshake::NegotiationPlan fresh =
      tls::handshake::plan_negotiation(hello, server, opts);
  const std::lock_guard<std::mutex> lock(plan_mutex_);
  // Another generator may have published this key since the load above;
  // its plan is identical, so keep it and drop ours.
  if (const auto* p = slot.load(std::memory_order_acquire)) return *p;
  plan_store_.push_back(std::move(fresh));
  const tls::handshake::NegotiationPlan* published = &plan_store_.back();
  slot.store(published, std::memory_order_release);
  return *published;
}

bool TrafficGenerator::generate_into(Month m, const MonthCache& cache,
                                     ConnectionEvent& ev) {
  MarketModel::Pick pick;
  std::size_t ei = 0;
  std::size_t vi = 0;
  if (!cache.entry_cum.empty() && cache.entry_cum.back() > 0) {
    const double x = rng_.uniform() * cache.entry_cum.back();
    // Bucket-windowed upper_bound: identical result to a full-range
    // upper_bound (the window provably brackets the true position; see
    // MonthCache::entry_buckets), ~half the cost at ~1.5k entries.
    const std::size_t nb = MonthCache::kEntryBuckets;
    const std::size_t k =
        std::min(nb - 1, static_cast<std::size_t>(x * cache.inv_total *
                                                  static_cast<double>(nb)));
    const std::size_t lo = cache.entry_buckets[k > 0 ? k - 1 : 0];
    const std::size_t hi = std::min(cache.entry_cum.size(),
                                    static_cast<std::size_t>(
                                        cache.entry_buckets[std::min(
                                            nb, k + 2)]) +
                                        1);
    const auto eit = std::upper_bound(cache.entry_cum.begin() + lo,
                                      cache.entry_cum.begin() + hi, x);
    ei = std::min(static_cast<std::size_t>(eit - cache.entry_cum.begin()),
                  market_.entries().size() - 1);
    pick.entry = &market_.entries()[ei];
    const auto& vcum = cache.version_cum[ei];
    if (!vcum.empty() && vcum.back() > 0) {
      const double vx = rng_.uniform() * vcum.back();
      const auto vit = std::upper_bound(vcum.begin(), vcum.end(), vx);
      vi = std::min(static_cast<std::size_t>(vit - vcum.begin()),
                    vcum.size() - 1);
      pick.config = &pick.entry->profile->versions[vi];
    }
  }
  if (pick.entry == nullptr || pick.config == nullptr) return false;

  ev.month = m;
  ev.day = tls::core::Date(
      m.year(), m.month(),
      1 + static_cast<int>(rng_.below(
              static_cast<std::uint64_t>(
                  tls::core::days_in_month(m.year(), m.month())))));
  ev.client = pick.entry->profile;
  ev.config = pick.config;

  const ServerSegment& server = route(*pick.entry, cache);
  ev.server = &server;

  if (pick.entry->sslv2_fraction > 0 &&
      rng_.chance(pick.entry->sslv2_fraction) &&
      server.config.min_version <= 0x0002) {
    ev.sslv2 = true;
    return true;
  }

  connect(ei, vi, server, m, tables_->accept_unoffered_[ei] != 0, ev);
  return true;
}

void TrafficGenerator::connect(std::size_t entry, std::size_t version,
                               const ServerSegment& server, Month m,
                               bool accept_unoffered_suite,
                               ConnectionEvent& ev) {
  tables_->ensure_templates(stats_);
  const GenCache::TemplateSet& ts =
      *tables_->template_sets_.at(entry).at(version);
  const tls::clients::ClientConfig& config =
      market_.entries()[entry].profile->versions[version];
  tls::handshake::NegotiateOptions opts;
  opts.accept_unoffered_suite = accept_unoffered_suite;
  ++stats_.template_hits;
  // The template working set (~1.6k scattered templates) misses cache on
  // nearly every pick; start the loads now so they overlap each other and
  // the RNG draws below instead of stalling each copy in turn.
  __builtin_prefetch(ts.base.wire.data());
  __builtin_prefetch(ts.base.hello.cipher_suites.data());
  __builtin_prefetch(ts.base.hello.extensions.data());
  if (ts.has_resume) __builtin_prefetch(ts.resume.wire.data());

  GenCache::draw_hello(ts, rng_, ev.hello);
  const GenCache::WireTemplate* tm = &ts.base;
  if (!ts.base.has_session_id && rng_.chance(0.33)) {
    // Roughly a third of revisits re-present a session id (clients that
    // keep session caches; pre-1.3 only).
    ev.hello.session_id.resize(32);
    for (auto& b : ev.hello.session_id) {
      b = static_cast<std::uint8_t>(rng_.next());
    }
    tm = &ts.resume;
    opts.attempt_resumption = true;
  }
  GenCache::patch_record(ts, *tm, ev.hello, ev.client_record);

  // ---- negotiation ----
  // GREASE templates share one memoized plan per key: plan_negotiation
  // never reads a GREASE code point. A shuffled hello's suite choice
  // depends on its permutation under client preference, so it is planned
  // per connection and never touches the memo.
  const auto seg_index =
      static_cast<std::uint64_t>(&server - servers_.segments().data());
  // Dense memo key: (template, segment) pairs are contiguous so the plan
  // cache can be a direct-indexed cache. Low 4 bits = variant flags.
  std::uint64_t key =
      (static_cast<std::uint64_t>(ts.id) * servers_.segments().size() +
       seg_index)
      << 4;
  if (tm == &ts.resume) key |= 1u;
  if (opts.accept_unoffered_suite) key |= 2u;
  const auto plan = [&]() -> const tls::handshake::NegotiationPlan& {
    if (!ts.shuffles) {
      return tables_->plan(key, ev.hello, server.config, opts, stats_);
    }
    ++stats_.plan_misses;
    own_plan_ = tls::handshake::plan_negotiation(ev.hello, server.config, opts);
    return own_plan_;
  };
  tls::handshake::complete_negotiation_into(plan(), ev.hello, rng_,
                                            ev.result);
  ev.used_fallback = false;

  // The downgrade dance: clients that still perform insecure fallback
  // retry with a lower version field (adding TLS_FALLBACK_SCSV once it
  // existed) when the first attempt fails on version mismatch.
  if (!ev.result.success &&
      ev.result.failure == tls::handshake::FailureReason::kNoCommonVersion &&
      config.version_fallback &&
      server.config.max_version < ev.hello.legacy_version &&
      server.config.max_version >= config.min_version) {
    ev.hello.legacy_version = server.config.max_version;
    const bool scsv = m >= Month(2015, 4);  // RFC 7507 deployment
    if (scsv) {
      ev.hello.cipher_suites.push_back(tls::core::suites::TLS_FALLBACK_SCSV);
    }
    // The SCSV (and version patch) change the record bytes; the fallback
    // leg is rare enough that a re-serialize beats splicing the buffer.
    ev.hello.serialize_record_into(ev.client_record);
    key |= 4u | (scsv ? 8u : 0u);
    tls::handshake::complete_negotiation_into(plan(), ev.hello, rng_,
                                              ev.result);
    ev.used_fallback = true;
  }
}

void TrafficGenerator::generate_month(Month m, std::size_t count,
                                      const Sink& sink) {
  const MonthCache& cache = tables_->month(m);
  for (std::size_t i = 0; i < count; ++i) {
    ConnectionEvent ev;
    if (generate_into(m, cache, ev)) sink(ev);
  }
}

void TrafficGenerator::generate_month_batched(Month m, std::size_t count,
                                              std::size_t batch_size,
                                              const SpanSink& sink) {
  if (batch_size == 0) batch_size = 1;
  if (batch_.size() < batch_size) batch_.resize(batch_size);
  const MonthCache& cache = tables_->month(m);
  std::size_t filled = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ConnectionEvent& ev = batch_[filled];
    ev.reset();  // capacity-preserving: hello/result/record buffers amortize
    if (generate_into(m, cache, ev)) ++filled;
    if (filled == batch_size) {
      sink(std::span<const ConnectionEvent>(batch_.data(), filled));
      filled = 0;
    }
  }
  if (filled > 0) {
    sink(std::span<const ConnectionEvent>(batch_.data(), filled));
  }
}

void TrafficGenerator::generate_range(tls::core::MonthRange range,
                                      std::size_t per_month,
                                      const Sink& sink) {
  for (Month m = range.begin_month; m <= range.end_month; ++m) {
    generate_month(m, per_month, sink);
  }
}

}  // namespace tls::population
