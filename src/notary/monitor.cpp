#include "notary/monitor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "faults/injector.hpp"
#include "fingerprint/fingerprint.hpp"
#include "fingerprint/md5_multilane.hpp"
#include "telemetry/metrics.hpp"
#include "tlscore/grease.hpp"
#include "wire/server_hello.hpp"
#include "wire/alert.hpp"
#include "wire/server_key_exchange.hpp"
#include "wire/transcript.hpp"
#include "handshake/negotiate.hpp"

namespace tls::notary {

using tls::core::CipherClass;
using tls::core::CipherSuiteInfo;
using tls::core::find_cipher_suite;
using tls::core::Month;
using tls::wire::ClientHello;
using tls::wire::ServerHello;

namespace {

bool is_tls13_version(std::uint16_t version) {
  return version == 0x0304 || (version & 0xff00) == 0x7f00 ||
         (version & 0xff00) == 0x7e00;
}

}  // namespace

void MonthlyStats::merge(const MonthlyStats& other) {
  total += other.total;
  successful += other.successful;
  failures += other.failures;
  quarantined += other.quarantined;
  one_sided_client += other.one_sided_client;
  one_sided_server += other.one_sided_server;
  parse_error_counts_.merge(other.parse_error_counts_);
  fallbacks += other.fallbacks;
  spec_violations += other.spec_violations;
  sslv2_connections += other.sslv2_connections;

  version_counts_.merge(other.version_counts_);
  class_counts_.merge(other.class_counts_);
  aead_counts_.merge(other.aead_counts_);
  kex_counts_.merge(other.kex_counts_);
  group_counts_.merge(other.group_counts_);

  adv_rc4 += other.adv_rc4;
  adv_des += other.adv_des;
  adv_3des += other.adv_3des;
  adv_aead += other.adv_aead;
  adv_cbc += other.adv_cbc;
  adv_export += other.adv_export;
  adv_anon += other.adv_anon;
  adv_null += other.adv_null;
  adv_fs += other.adv_fs;
  adv_aes128gcm += other.adv_aes128gcm;
  adv_aes256gcm += other.adv_aes256gcm;
  adv_chacha += other.adv_chacha;
  adv_ccm += other.adv_ccm;

  adv_tls13 += other.adv_tls13;
  tls13_version_counts_.merge(other.tls13_version_counts_);
  negotiated_tls13 += other.negotiated_tls13;

  heartbeat_offered += other.heartbeat_offered;
  heartbeat_negotiated += other.heartbeat_negotiated;

  reneg_info_offered += other.reneg_info_offered;
  reneg_info_negotiated += other.reneg_info_negotiated;
  etm_offered += other.etm_offered;
  etm_negotiated += other.etm_negotiated;
  ems_offered += other.ems_offered;
  ems_negotiated += other.ems_negotiated;
  sni_offered += other.sni_offered;
  session_ticket_offered += other.session_ticket_offered;
  resumed += other.resumed;

  alert_counts_.merge(other.alert_counts_);
  rc4_despite_aead += other.rc4_despite_aead;

  negotiated_3des += other.negotiated_3des;
  negotiated_export += other.negotiated_export;
  negotiated_anon += other.negotiated_anon;
  negotiated_null += other.negotiated_null;
  negotiated_null_with_null_null += other.negotiated_null_with_null_null;

  pos_aead.merge(other.pos_aead);
  pos_cbc.merge(other.pos_cbc);
  pos_rc4.merge(other.pos_rc4);
  pos_des.merge(other.pos_des);
  pos_3des.merge(other.pos_3des);

  // Flag OR is commutative: the merged flag-map is the same set no matter
  // how the observations were split across shards.
  for (const auto& [hash, flags] : other.fingerprints) {
    fingerprints[hash] |= flags;
  }
}

void PassiveMonitor::absorb(const PassiveMonitor& other) {
  for (const auto& [m, s] : other.months_) {
    months_[m].merge(s);
  }
  durations_.merge(other.durations_);
  total_ += other.total_;
  fingerprintable_ += other.fingerprintable_;
  for (const auto& [cls, n] : other.labeled_by_class_) {
    labeled_by_class_[cls] += n;
  }
  taxonomy_.merge(other.taxonomy_);
  quarantine_.absorb(other.quarantine_);
  cache_.stats().merge(other.cache_.stats());
}

const MonthlyStats* PassiveMonitor::month(Month m) const {
  const auto it = months_.find(m);
  return it == months_.end() ? nullptr : &it->second;
}

void serialize_event_records(const tls::population::ConnectionEvent& event,
                             std::vector<std::uint8_t>& client,
                             std::vector<std::uint8_t>& server,
                             std::vector<std::uint8_t>& ske,
                             std::vector<std::uint8_t>& alert) {
  client.assign(event.client_record.begin(), event.client_record.end());
  server.clear();
  ske.clear();
  alert.clear();
  if (event.result.server_hello.has_value()) {
    const auto& sh = *event.result.server_hello;
    sh.serialize_record_into(server);
    // Pre-1.3 EC handshakes carry the chosen curve in ServerKeyExchange.
    if (event.result.negotiated_group != 0 &&
        !sh.has_extension(tls::core::ExtensionType::kSupportedVersions)) {
      tls::wire::EcdheServerKeyExchange::stub(event.result.negotiated_group)
          .serialize_record_into(sh.legacy_version, ske);
    }
  }
  if (!event.result.success &&
      event.result.failure != tls::handshake::FailureReason::kNone) {
    tls::handshake::alert_for(event.result.failure)
        .serialize_record_into(0x0301, alert);
  }
}

void PassiveMonitor::observe(const tls::population::ConnectionEvent& event) {
  observe_span({&event, 1});
}

void PassiveMonitor::observe_span(
    std::span<const tls::population::ConnectionEvent> events) {
  using tls::faults::FaultKind;
  if (batch_.captures.size() < events.size()) {
    batch_.captures.resize(events.size());
  }
  std::size_t n = 0;
  for (const auto& event : events) {
    if (event.sslv2) {
      // SSLv2 residue only bumps counters, so it needs no place in the
      // ordered batch below.
      observe_sslv2(event.month);
      continue;
    }
    // With a chaos tap attached, draw the capture-fault roll BEFORE
    // serializing: the roll consumes exactly one uniform, and events the
    // tap leaves untouched (kNone — the overwhelming majority at realistic
    // fault rates) are known untouched up front.
    const FaultKind kind = injector_ == nullptr
                               ? FaultKind::kNone
                               : injector_->roll_capture();
    WireCapture& cap = batch_.captures[n++];
    cap.month = event.month;
    cap.day = event.day;
    serialize_event_records(event, cap.client, cap.server, cap.ske,
                            cap.alert);
    cap.success = event.result.success;
    cap.used_fallback = event.used_fallback;
    // Anything the tap touched must bypass the cache: the quarantine and
    // error-taxonomy paths have to run for every corrupted repetition.
    cap.cacheable = kind == FaultKind::kNone;
    cap.one_sided_client = false;
    if (kind != FaultKind::kNone) {
      injector_->apply_capture(kind, cap.client, cap.server);
      // SKE and alert records travel in the server direction: when that
      // direction is lost, they are lost with it.
      if (cap.server.empty() &&
          (kind == FaultKind::kDropFlight || kind == FaultKind::kOneSided)) {
        cap.ske.clear();
        cap.alert.clear();
        cap.one_sided_client =
            kind == FaultKind::kOneSided && !cap.client.empty();
      }
    }
  }
  observe_wire_batch({batch_.captures.data(), n});
}

void PassiveMonitor::observe_wire_batch(std::span<const WireCapture> caps) {
  using Slot = BatchBuffers::Slot;
  if (caps.empty()) return;
  const bool cache_on = cache_.enabled();
  if (batch_.slots.size() < caps.size()) batch_.slots.resize(caps.size());

  // Build the cache key of every cacheable record and hash the keys of
  // both sides in one batch: lane-interleaved FNV-1a for the production
  // hash, the injected HashFn key by key otherwise.
  batch_.hash_inputs.clear();
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const WireCapture& cap = caps[i];
    Slot& slot = batch_.slots[i];
    slot.use_cache = cap.cacheable && cache_on;
    if (!slot.use_cache) continue;
    ObserveCache::make_key(cap.client, slot.client_key);
    ObserveCache::make_key(cap.server, slot.server_key);
    batch_.hash_inputs.push_back(slot.client_key);
    if (!slot.server_key.empty()) batch_.hash_inputs.push_back(slot.server_key);
  }
  batch_.hashes.resize(batch_.hash_inputs.size());
  if (cache_.uses_default_hash()) {
    tls::fp::fnv1a64_batch(batch_.hash_inputs, batch_.hashes);
  } else {
    for (std::size_t k = 0; k < batch_.hash_inputs.size(); ++k) {
      batch_.hashes[k] = cache_.hash_bytes(batch_.hash_inputs[k]);
    }
  }

  // The find phase below hands out pointers into cache entries that must
  // survive until each capture's apply completes; pre-flushing guarantees
  // the insert phase cannot trigger a mid-batch generation flush.
  if (cache_on) cache_.ensure_client_headroom(caps.size());

  // Phase A — resolve every client record: lookup, or parse + feature
  // build with the fingerprint digest deferred into batch_.canonicals.
  batch_.canonicals.clear();
  std::size_t hash_cursor = 0;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const WireCapture& cap = caps[i];
    Slot& slot = batch_.slots[i];
    slot.hello = nullptr;
    slot.feats = nullptr;
    slot.errors.clear();
    slot.canon = -1;
    if (tel_byte_ != nullptr) tel_byte_->add();
    if (!cap.cacheable && cache_on) cache_.count_bypass();
    const bool want_fp = cap.month >= fp_start();
    if (slot.use_cache) {
      slot.client_hash = batch_.hashes[hash_cursor++];
      // An empty server record has no hash; ingest never looks it up.
      if (!slot.server_key.empty()) {
        slot.server_hash = batch_.hashes[hash_cursor++];
      }
      if (const auto hit = cache_.find_client(slot.client_key,
                                              slot.client_hash, want_fp)) {
        slot.kind = Slot::Kind::kHit;
        slot.hello = hit->hello;
        slot.feats = hit->features;
        continue;
      }
    }
    try {
      slot.owned_hello = ClientHello::parse_record(cap.client);
    } catch (const tls::wire::ParseError& e) {
      slot.kind = Slot::Kind::kQuarantine;
      slot.parse_error = e.code();
      continue;
    }
    slot.kind = Slot::Kind::kMiss;
    std::string canonical;
    build_client_features(slot.owned_hello, database_, want_fp,
                          slot.owned_feats, slot.errors, &canonical);
    if (slot.owned_feats.fingerprint_computed) {
      slot.canon = static_cast<std::ptrdiff_t>(batch_.canonicals.size());
      batch_.canonicals.push_back(std::move(canonical));
    }
  }

  // Phase B — digest the generation's miss canonicals in SIMD lanes.
  batch_.canonical_views.clear();
  for (const auto& c : batch_.canonicals) batch_.canonical_views.push_back(c);
  batch_.digests.resize(batch_.canonicals.size());
  tls::fp::md5_batch(batch_.canonical_views, batch_.digests);

  // Phase C — complete label/insert and ingest per capture in the original
  // order, so the monitor's mutation sequence does not depend on how the
  // captures were batched.
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const WireCapture& cap = caps[i];
    Slot& slot = batch_.slots[i];
    if (cap.one_sided_client) ++stats(cap.month).one_sided_client;
    bool client_clean = true;
    switch (slot.kind) {
      case Slot::Kind::kQuarantine:
        note_error(cap.month, IngestStage::kClientHello, slot.parse_error,
                   cap.client);
        quarantine_capture(cap.month);
        continue;
      case Slot::Kind::kMiss: {
        if (slot.canon >= 0) {
          finalize_client_fingerprint(slot.owned_feats, database_,
                                      batch_.digests[slot.canon]);
        }
        for (const auto code : slot.errors) {
          note_error(cap.month, IngestStage::kClientHello, code, cap.client);
        }
        client_clean = slot.errors.empty();
        if (slot.use_cache && client_clean) {
          // Only error-free extractions are memoized: repetitions of a
          // record that produces errors must replay the taxonomy and
          // quarantine writes.
          const auto inserted = cache_.insert_client(
              slot.client_key, slot.client_hash, std::move(slot.owned_hello),
              std::move(slot.owned_feats));
          slot.hello = inserted.hello;
          slot.feats = inserted.features;
        } else {
          if (slot.use_cache) cache_.count_uncacheable();
          slot.hello = &slot.owned_hello;
          slot.feats = &slot.owned_feats;
        }
        break;
      }
      case Slot::Kind::kHit:
        break;
    }
    ingest_resolved(cap.month, cap.day, cap.client, *slot.hello, *slot.feats,
                    client_clean, cap.server, slot.server_key, cap.ske,
                    cap.success, cap.used_fallback, cap.alert, slot.use_cache,
                    slot.server_hash);
  }
}

void PassiveMonitor::observe_flights(
    Month m, const tls::core::Date& day,
    std::span<const std::uint8_t> client_stream,
    std::span<const std::uint8_t> server_stream) {
  const tls::wire::ParsedFlight cf =
      tls::wire::parse_flight_lenient(client_stream);
  const tls::wire::ParsedFlight sf =
      tls::wire::parse_flight_lenient(server_stream);
  if (cf.stream_error.has_value()) {
    note_error(m, IngestStage::kClientFlight, *cf.stream_error,
               client_stream);
  }
  if (sf.stream_error.has_value()) {
    note_error(m, IngestStage::kServerFlight, *sf.stream_error,
               server_stream);
  }

  if (!cf.client_hello.has_value()) {
    if (sf.server_hello.has_value()) {
      // One-sided capture, server direction only: harvest what the
      // ServerHello alone supports instead of discarding the flow.
      observe_server_only(m, sf);
      return;
    }
    // No usable hello in either direction: the capture is quarantined.
    quarantine_capture(m);
    return;
  }

  // The re-serialized records go straight into the reused capture slot.
  if (batch_.captures.empty()) batch_.captures.resize(1);
  WireCapture& cap = batch_.captures.front();
  cap.month = m;
  cap.day = day;
  cf.client_hello->serialize_record_into(cap.client);
  cap.server.clear();
  if (sf.server_hello.has_value()) {
    sf.server_hello->serialize_record_into(cap.server);
  }
  cap.ske.clear();
  if (sf.server_key_exchange.has_value()) {
    sf.server_key_exchange->serialize_record_into(0x0303, cap.ske);
  }
  cap.alert.clear();
  if (sf.alert.has_value()) sf.alert->serialize_record_into(0x0301, cap.alert);
  // §5.5: a session counts as established only when both directions carry
  // a ChangeCipherSpec.
  cap.success = cf.change_cipher_spec && sf.change_cipher_spec;
  cap.used_fallback = false;
  cap.cacheable = true;
  cap.one_sided_client = sf.records.empty();
  observe_wire_batch({&cap, 1});
}

void PassiveMonitor::set_telemetry(tls::telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tel_byte_ = tel_sslv2_ = nullptr;
    return;
  }
  tel_byte_ = &registry->counter(
      "tls_repro_notary_byte_path_total", "",
      "Connections ingested through the serialize/parse byte path");
  tel_sslv2_ = &registry->counter("tls_repro_notary_sslv2_total", "",
                                  "SSLv2 CLIENT-HELLO connections recorded");
}

void PassiveMonitor::observe_sslv2(Month m) {
  if (tel_sslv2_ != nullptr) tel_sslv2_->add();
  MonthlyStats& s = stats(m);
  ++s.total;
  ++s.successful;
  ++s.sslv2_connections;
  s.count_version(0x0002);
  ++total_;
}

void PassiveMonitor::apply_client_features(MonthlyStats& s, Month m,
                                           const tls::core::Date& day,
                                           const ClientHelloFeatures& f) {
  s.adv_rc4 += f.adv_rc4;
  s.adv_des += f.adv_des;
  s.adv_3des += f.adv_3des;
  s.adv_aead += f.adv_aead;
  s.adv_cbc += f.adv_cbc;
  s.adv_export += f.adv_export;
  s.adv_anon += f.adv_anon;
  s.adv_null += f.adv_null;
  s.adv_fs += f.adv_fs;
  s.adv_aes128gcm += f.adv_aes128gcm;
  s.adv_aes256gcm += f.adv_aes256gcm;
  s.adv_chacha += f.adv_chacha;
  s.adv_ccm += f.adv_ccm;

  s.heartbeat_offered += f.heartbeat_offered;
  s.reneg_info_offered += f.reneg_info_offered;
  s.etm_offered += f.etm_offered;
  s.ems_offered += f.ems_offered;
  s.sni_offered += f.sni_offered;
  s.session_ticket_offered += f.session_ticket_offered;

  for (const auto v : f.tls13_versions) s.count_adv_tls13_version(v);
  s.adv_tls13 += f.adv_tls13;

  if (f.pos_aead) s.pos_aead.add(*f.pos_aead);
  if (f.pos_cbc) s.pos_cbc.add(*f.pos_cbc);
  if (f.pos_rc4) s.pos_rc4.add(*f.pos_rc4);
  if (f.pos_des) s.pos_des.add(*f.pos_des);
  if (f.pos_3des) s.pos_3des.add(*f.pos_3des);

  if (m >= fp_start() && f.fingerprint_computed) {
    durations_.record(f.fp_hash, day);
    ++fingerprintable_;
    s.fingerprints[f.fp_hash] |= f.fp_flags;
    if (f.label_cls) ++labeled_by_class_[*f.label_cls];
  }
}

void PassiveMonitor::apply_server_features(
    MonthlyStats& s, const ClientHelloFeatures& cf,
    const ServerHelloFeatures& sf, std::optional<std::uint16_t> ske_group,
    bool resumed) {
  using namespace tls::core;
  const std::uint16_t version = sf.version;
  if (resumed && !is_tls13_version(version)) ++s.resumed;
  s.count_version(version);
  if (is_tls13_version(version)) ++s.negotiated_tls13;

  const auto* suite = sf.suite;
  if (suite != nullptr) {
    if (is_rc4(*suite) && cf.adv_aead) ++s.rc4_despite_aead;
    s.count_class(cipher_class(*suite));
    s.count_kex(kex_class(*suite));
    if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
    if (is_3des(*suite)) ++s.negotiated_3des;
    if (is_export(*suite)) ++s.negotiated_export;
    if (is_anonymous(*suite)) ++s.negotiated_anon;
    if (is_null_cipher(*suite)) ++s.negotiated_null;
    if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
  }

  if (sf.key_share_group) {
    s.count_group(*sf.key_share_group);
  } else if (ske_group) {
    s.count_group(*ske_group);
  }

  if (sf.heartbeat_present && cf.heartbeat_offered) ++s.heartbeat_negotiated;
  s.reneg_info_negotiated += sf.reneg;
  s.etm_negotiated += sf.etm;
  s.ems_negotiated += sf.ems;
}

void PassiveMonitor::observe_wire(
    Month m, const tls::core::Date& day,
    std::span<const std::uint8_t> client_record,
    std::span<const std::uint8_t> server_record,
    std::span<const std::uint8_t> server_key_exchange_record, bool success,
    bool used_fallback, std::span<const std::uint8_t> alert_record,
    bool cacheable) {
  if (batch_.captures.empty()) batch_.captures.resize(1);
  WireCapture& cap = batch_.captures.front();
  cap.month = m;
  cap.day = day;
  cap.client.assign(client_record.begin(), client_record.end());
  cap.server.assign(server_record.begin(), server_record.end());
  cap.ske.assign(server_key_exchange_record.begin(),
                 server_key_exchange_record.end());
  cap.alert.assign(alert_record.begin(), alert_record.end());
  cap.success = success;
  cap.used_fallback = used_fallback;
  cap.cacheable = cacheable;
  cap.one_sided_client = false;
  observe_wire_batch({&cap, 1});
}

void PassiveMonitor::ingest_resolved(
    Month m, const tls::core::Date& day,
    std::span<const std::uint8_t> client_record, const ClientHello& hello_ref,
    const ClientHelloFeatures& feats_ref, bool client_clean,
    std::span<const std::uint8_t> server_record,
    std::span<const std::uint8_t> server_key,
    std::span<const std::uint8_t> server_key_exchange_record, bool success,
    bool used_fallback, std::span<const std::uint8_t> alert_record,
    bool use_cache, std::uint64_t server_hash) {
  using namespace tls::core;
  const ClientHello* hello = &hello_ref;
  const ClientHelloFeatures* feats = &feats_ref;
  MonthlyStats& s = stats(m);
  ++s.total;
  ++total_;
  if (used_fallback) ++s.fallbacks;

  apply_client_features(s, m, day, *feats);

  // ---- alerts on failed handshakes ----
  if (!alert_record.empty()) {
    try {
      const auto alert = tls::wire::Alert::parse_record(alert_record);
      s.count_alert(static_cast<std::uint8_t>(alert.description));
    } catch (const tls::wire::ParseError& e) {
      note_error(m, IngestStage::kAlert, e.code(), alert_record);
    }
  }

  // ---- server side ----
  if (server_record.empty()) {
    ++s.failures;
    return;
  }
  const ServerHello* sh = nullptr;
  const ServerHelloFeatures* sfeats = nullptr;
  if (use_cache) {
    if (const auto hit = cache_.find_server(server_key, server_hash)) {
      sh = hit->hello;
      sfeats = hit->features;
    }
  }
  if (sh == nullptr) {
    try {
      scratch_server_hello_ = ServerHello::parse_record(server_record);
    } catch (const tls::wire::ParseError& e) {
      note_error(m, IngestStage::kServerHello, e.code(), server_record);
      ++s.failures;
      return;
    }
    // Records whose lazy accessors throw are never memoized — every
    // repetition must replay the guarded harvest below with its partial
    // counting and error notes.
    const bool derived =
        build_server_features(scratch_server_hello_, scratch_server_features_);
    sh = &scratch_server_hello_;
    if (derived) {
      if (use_cache) {
        // Move the parsed hello into the entry (scratch is reassigned on
        // its next use); the hash of the lookup is reused.
        const auto inserted = cache_.insert_server(
            server_key, server_hash, std::move(scratch_server_hello_),
            scratch_server_features_);
        sh = inserted.hello;
        sfeats = inserted.features;
      } else {
        sfeats = &scratch_server_features_;
      }
    } else if (use_cache) {
      cache_.count_uncacheable();
    }
  }

  // Spec check: did the server pick something the client never offered?
  const bool offered =
      std::find(hello->cipher_suites.begin(), hello->cipher_suites.end(),
                sh->cipher_suite) != hello->cipher_suites.end();
  if (!offered) ++s.spec_violations;

  if (!success) {
    ++s.failures;
    return;
  }
  ++s.successful;

  // Resumption: a non-empty client session id echoed verbatim by the
  // server. Read from the real records (both parsed, so the fixed offsets
  // hold): a cached hello's session id is zeroed.
  const auto client_sid = ObserveCache::session_id_of(client_record);
  const auto server_sid = ObserveCache::session_id_of(server_record);
  const bool resumed = !client_sid.empty() &&
                       std::ranges::equal(client_sid, server_sid);

  if (sfeats != nullptr && client_clean) {
    // Both sides extracted error-free: no accessor can throw, so the
    // memoized mirror of the guarded block below applies.
    std::optional<std::uint16_t> ske_group;
    if (!sfeats->key_share_group && !server_key_exchange_record.empty()) {
      try {
        ske_group = tls::wire::EcdheServerKeyExchange::parse_record(
                        server_key_exchange_record)
                        .named_curve;
      } catch (const tls::wire::ParseError& e) {
        note_error(m, IngestStage::kServerKeyExchange, e.code(),
                   server_key_exchange_record);
      }
    }
    apply_server_features(s, *feats, *sfeats, ske_group, resumed);
    return;
  }

  try {
    const std::uint16_t version = sh->negotiated_version();
    if (resumed && !is_tls13_version(version)) ++s.resumed;
    s.count_version(version);
    if (is_tls13_version(version)) ++s.negotiated_tls13;

    const auto* suite = find_cipher_suite(sh->cipher_suite);
    if (suite != nullptr) {
      if (is_rc4(*suite) && feats->adv_aead) ++s.rc4_despite_aead;
      s.count_class(cipher_class(*suite));
      s.count_kex(kex_class(*suite));
      if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
      if (is_3des(*suite)) ++s.negotiated_3des;
      if (is_export(*suite)) ++s.negotiated_export;
      if (is_anonymous(*suite)) ++s.negotiated_anon;
      if (is_null_cipher(*suite)) ++s.negotiated_null;
      if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
    }

    if (const auto group = sh->key_share_group()) {
      s.count_group(*group);
    } else if (!server_key_exchange_record.empty()) {
      try {
        const auto ske = tls::wire::EcdheServerKeyExchange::parse_record(
            server_key_exchange_record);
        s.count_group(ske.named_curve);
      } catch (const tls::wire::ParseError& e) {
        note_error(m, IngestStage::kServerKeyExchange, e.code(),
                   server_key_exchange_record);
      }
    }

    if (sh->heartbeat_mode().has_value() &&
        hello->heartbeat_mode().has_value()) {
      ++s.heartbeat_negotiated;
    }
    s.reneg_info_negotiated +=
        sh->has_extension(ExtensionType::kRenegotiationInfo);
    s.etm_negotiated += sh->has_extension(ExtensionType::kEncryptThenMac);
    s.ems_negotiated += sh->has_extension(ExtensionType::kExtendedMasterSecret);
  } catch (const tls::wire::ParseError& e) {
    // A lazy ServerHello accessor hit a corrupt extension body: the
    // connection stays successful, the remaining server-side stats for it
    // are unharvestable.
    note_error(m, IngestStage::kServerHello, e.code(), server_record);
  }
}

void PassiveMonitor::note_error(Month m, IngestStage stage,
                                tls::wire::ParseErrorCode code,
                                std::span<const std::uint8_t> bytes) {
  taxonomy_.record(stage, code);
  stats(m).count_parse_error(code);
  quarantine_.push(stage, code, m, bytes);
}

void PassiveMonitor::quarantine_capture(Month m) {
  MonthlyStats& s = stats(m);
  ++s.total;
  ++s.quarantined;
}

void PassiveMonitor::observe_server_only(Month m,
                                         const tls::wire::ParsedFlight& sf) {
  using namespace tls::core;
  const ServerHello& sh = *sf.server_hello;
  MonthlyStats& s = stats(m);
  ++s.total;
  ++s.one_sided_server;
  ++total_;

  // Without the client direction, the §5.5 two-sided criterion is out of
  // reach; the server's own ChangeCipherSpec is the best available proxy.
  if (!sf.change_cipher_spec) {
    ++s.failures;
    if (sf.alert.has_value()) {
      s.count_alert(static_cast<std::uint8_t>(sf.alert->description));
    }
    return;
  }
  ++s.successful;

  try {
    const std::uint16_t version = sh.negotiated_version();
    s.count_version(version);
    if (is_tls13_version(version)) ++s.negotiated_tls13;
    const auto* suite = find_cipher_suite(sh.cipher_suite);
    if (suite != nullptr) {
      s.count_class(cipher_class(*suite));
      s.count_kex(kex_class(*suite));
      if (is_aead(*suite)) s.count_aead(aead_kind(*suite));
      if (is_3des(*suite)) ++s.negotiated_3des;
      if (is_export(*suite)) ++s.negotiated_export;
      if (is_anonymous(*suite)) ++s.negotiated_anon;
      if (is_null_cipher(*suite)) ++s.negotiated_null;
      if (is_null_with_null_null(*suite)) ++s.negotiated_null_with_null_null;
    }
    if (const auto group = sh.key_share_group()) {
      s.count_group(*group);
    } else if (sf.server_key_exchange.has_value()) {
      s.count_group(sf.server_key_exchange->named_curve);
    }
    s.reneg_info_negotiated +=
        sh.has_extension(ExtensionType::kRenegotiationInfo);
    s.etm_negotiated += sh.has_extension(ExtensionType::kEncryptThenMac);
    s.ems_negotiated +=
        sh.has_extension(ExtensionType::kExtendedMasterSecret);
  } catch (const tls::wire::ParseError& e) {
    note_error(m, IngestStage::kServerHello, e.code(), {});
  }
  // Client-dependent stats (advertised classes, fingerprints, resumption,
  // heartbeat negotiation, spec checks) are unknowable from one side.
}

std::vector<tls::analysis::LossRow> loss_rows(const PassiveMonitor& monitor) {
  std::vector<tls::analysis::LossRow> rows;
  rows.reserve(monitor.months().size());
  for (const auto& [m, s] : monitor.months()) {
    tls::analysis::LossRow row;
    row.month = m.to_string();
    row.total = s.total;
    row.successful = s.successful;
    row.failures = s.failures;
    row.quarantined = s.quarantined;
    row.one_sided = s.one_sided_client + s.one_sided_server;
    for (std::size_t i = 0;
         i < std::min(row.by_code.size(), tls::wire::kParseErrorCodeCount);
         ++i) {
      row.by_code[i] +=
          s.parse_error_count(static_cast<tls::wire::ParseErrorCode>(i));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace tls::notary
