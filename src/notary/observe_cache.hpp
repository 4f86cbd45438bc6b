// Memoization for the observe pipeline. The paper's central empirical fact
// is extreme skew — 319.3B Notary connections collapse onto ~70k distinct
// fingerprints — but no two connections carry the same hello bytes: every
// ClientHello and ServerHello has a fresh 32-byte random, and most carry a
// fresh session id. So the cache keys each record on its
// connection-invariant bytes: the record with the random (offset 11) and
// the session-id bytes (after the length byte at offset 43) zeroed, the
// length byte kept (make_key). These are the fields the paper's
// fingerprint leaves out, as do normalized fingerprint strings in the
// literature. Per distinct key the cache memoizes everything observe_wire
// derives from the bytes alone (the parse, the advertised-feature flags,
// the Fig. 5 positions, the fingerprint + MD5 hash, the FingerprintDatabase
// label lookup), so a repeated configuration costs one masked copy, one
// hash and one byte comparison instead of a full parse → canonical string
// → MD5 → database lookup.
//
// Correctness rules (the determinism contract of DESIGN.md §10):
//   * An entry is a pure function of its key. Parsing reads the random and
//     the session id as opaque bytes of fixed or length-prefixed size, so
//     records sharing a key parse alike and differ only in those bytes;
//     inserts zero them in the stored hello. The one per-connection fact
//     the monitor derives from them — resumption (a non-empty client
//     session id echoed by the server) — is read from the real record
//     bytes on every capture, hit or miss.
//   * Lookup hashes the key with a fast 64-bit FNV-1a and then verifies the
//     FULL key bytes against every candidate — a 64-bit collision can never
//     alias two distinct keys (it just costs a miss, counted in
//     stats().client.collisions).
//   * Only records whose feature extraction produced zero ParseErrors are
//     memoized, so the error-taxonomy and quarantine paths replay
//     identically on every repetition.
//   * Captures touched by a FaultInjector bypass the cache entirely
//     (PassiveMonitor passes cacheable=false; counted in stats().bypasses).
//   * Eviction is a deterministic whole-generation flush when the side
//     reaches capacity — no recency/frequency state that could depend on
//     thread scheduling. Which records hit does depend on what the cache
//     saw before (the study keeps one cache per worker across shard
//     tasks), so hit/miss counts are schedule-derived; exported aggregates
//     never are.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fingerprint/database.hpp"
#include "fingerprint/fingerprint.hpp"
#include "tlscore/cipher_suites.hpp"
#include "wire/client_hello.hpp"
#include "wire/errors.hpp"
#include "wire/server_hello.hpp"

namespace tls::notary {

/// Fingerprint support-flag bits used in MonthlyStats::fingerprints.
/// Bit 0: RC4, 1: DES, 2: 3DES, 3: AEAD, 4: CBC.
inline constexpr std::uint8_t kFpRc4 = 1;
inline constexpr std::uint8_t kFpDes = 2;
inline constexpr std::uint8_t kFp3Des = 4;
inline constexpr std::uint8_t kFpAead = 8;
inline constexpr std::uint8_t kFpCbc = 16;

/// Everything the monitor harvests from a ClientHello record that is a pure
/// function of the bytes (plus the immutable fingerprint database).
struct ClientHelloFeatures {
  // Advertised cipher classes (Figs. 3, 6, 7, 10).
  bool adv_rc4 = false, adv_des = false, adv_3des = false, adv_aead = false;
  bool adv_cbc = false, adv_export = false, adv_anon = false,
       adv_null = false;
  bool adv_fs = false;
  bool adv_aes128gcm = false, adv_aes256gcm = false, adv_chacha = false,
       adv_ccm = false;

  bool heartbeat_offered = false;
  bool reneg_info_offered = false, etm_offered = false, ems_offered = false;
  bool sni_offered = false, session_ticket_offered = false;

  // TLS 1.3 advertisement (§6.4); one entry per matching supported_versions
  // element, duplicates preserved.
  bool adv_tls13 = false;
  std::vector<std::uint16_t> tls13_versions;

  // Fig. 5 relative first positions.
  std::optional<double> pos_aead, pos_cbc, pos_rc4, pos_des, pos_3des;

  // Fingerprint stream (§4). Computed only when the observation month is in
  // the fingerprintable era; fingerprint_computed distinguishes "not
  // requested" from "extraction failed" (the latter also records an error).
  bool fingerprint_computed = false;
  tls::fp::Fingerprint fp;
  std::string fp_hash;
  std::uint8_t fp_flags = 0;
  std::optional<tls::fp::SoftwareClass> label_cls;

  /// Clears to the freshly-constructed state while keeping vector/string
  /// capacity — the monitor reuses one instance as build scratch.
  void reset();
};

/// The memoizable server-side derivations. Only built when every lazy
/// accessor succeeds (`build_server_features` returns true); records whose
/// accessors throw stay on the original guarded harvest path so the error
/// bookkeeping replays unchanged.
struct ServerHelloFeatures {
  std::uint16_t version = 0;
  std::optional<std::uint16_t> key_share_group;
  bool heartbeat_present = false;
  bool reneg = false, etm = false, ems = false;
  /// Registry entry for the negotiated suite (static storage; stable).
  const tls::core::CipherSuiteInfo* suite = nullptr;
};

/// Derives every client-side feature from one parsed hello. Lazy-accessor
/// ParseErrors are appended to `errors` in the same order the byte path
/// notes them (heartbeat, supported_versions, fingerprint extraction); a
/// non-empty `errors` marks the record uncacheable. Single pass over the
/// cipher-suite and extension lists.
///
/// `fp_canonical_out` (optional) defers the MD5 digest for batch hashing:
/// when non-null and the fingerprint extracts cleanly, the canonical string
/// is written there and `out` is left with fingerprint_computed=true but an
/// empty fp_hash and no label — the caller must digest the canonical (e.g.
/// via tls::fp::md5_batch) and call finalize_client_fingerprint before the
/// features are applied or cached. Nothing after the canonical is built can
/// throw, so deferral never changes the error stream.
void build_client_features(const tls::wire::ClientHello& hello,
                           const tls::fp::FingerprintDatabase* db,
                           bool want_fingerprint, ClientHelloFeatures& out,
                           std::vector<tls::wire::ParseErrorCode>& errors,
                           std::string* fp_canonical_out = nullptr);

/// Completes a deferred fingerprint (see build_client_features): sets
/// fp_hash from the digest of the canonical string and resolves the
/// database label. Byte-identical to the non-deferred path.
void finalize_client_fingerprint(ClientHelloFeatures& out,
                                 const tls::fp::FingerprintDatabase* db,
                                 const std::array<std::uint8_t, 16>& digest);

/// Derives the server-side feature set; returns false (out unspecified)
/// when any lazy accessor throws — such records are never memoized.
bool build_server_features(const tls::wire::ServerHello& hello,
                           ServerHelloFeatures& out);

/// Hit/miss accounting for one cache side, merged across shards with the
/// same commutative-add contract as every other monitor counter.
struct CacheSideStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t flushes = 0;
  /// 64-bit key matches whose full bytes differed (distinct records forced
  /// onto one key) — proof the verification layer is load-bearing.
  std::uint64_t collisions = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  void merge(const CacheSideStats& other);
};

struct ObserveCacheStats {
  CacheSideStats client;
  CacheSideStats server;
  /// Captures routed around the cache because a FaultInjector touched them.
  std::uint64_t bypasses = 0;
  /// Records that produced ParseErrors during feature extraction and were
  /// therefore not memoized.
  std::uint64_t uncacheable = 0;

  void merge(const ObserveCacheStats& other);
};

struct CachedClient {
  const tls::wire::ClientHello* hello = nullptr;
  const ClientHelloFeatures* features = nullptr;
};

struct CachedServer {
  const tls::wire::ServerHello* hello = nullptr;
  const ServerHelloFeatures* features = nullptr;
};

class ObserveCache {
 public:
  /// Injectable for tests that force 64-bit collisions.
  using HashFn = std::uint64_t (*)(std::span<const std::uint8_t>);

  /// Sized so one generation's slab (~600B/entry/side) stays resident in a
  /// modest last-level cache: in the all-miss regime every insert writes a
  /// full entry, and a slab that spills to DRAM costs more than the parse it
  /// replaces. The paper's skew concentrates real traffic on a few hundred
  /// distinct keys, comfortably inside 1024; workloads with wider working
  /// sets can raise StudyOptions::observe_cache_entries.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit ObserveCache(std::size_t capacity = kDefaultCapacity) {
    set_capacity(capacity);
  }

  [[nodiscard]] bool enabled() const { return capacity_ > 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Live entries (client + server sides).
  [[nodiscard]] std::size_t size() const {
    return client_size_ + server_size_;
  }

  /// Capacity applies per side; 0 disables the cache. Changing the capacity
  /// drops all entries (without touching eviction stats) and frees the
  /// probe tables; the first find or insert allocates them at the new
  /// size, so a cache that is never used costs no table.
  void set_capacity(std::size_t capacity);
  void set_hash_for_test(HashFn hash) { hash_ = hash; }

  /// Writes the cache key of a hello record into `key`: the record bytes
  /// with the 32-byte random and the session-id bytes zeroed; the
  /// session-id length byte stays. Offsets past the end of a short record
  /// are skipped, so any byte string has a key (a malformed record never
  /// parses, so its key is never inserted).
  static void make_key(std::span<const std::uint8_t> record,
                       std::vector<std::uint8_t>& key);

  /// The session-id bytes of a hello record that parsed: the resumption
  /// check reads them here, because a cached hello's are zeroed.
  [[nodiscard]] static std::span<const std::uint8_t> session_id_of(
      std::span<const std::uint8_t> record);

  /// True while the cache runs its production hash — the precondition for
  /// hashing keys with tls::fp::fnv1a64_batch (tests may inject another
  /// HashFn, whose hashes the caller takes from hash_bytes instead).
  [[nodiscard]] bool uses_default_hash() const { return hash_ == &fnv1a64; }
  [[nodiscard]] std::uint64_t hash_bytes(
      std::span<const std::uint8_t> bytes) const {
    return hash_(bytes);
  }

  /// Pre-flushes the client side so that up to `n` subsequent inserts
  /// cannot trigger a generation flush. The monitor holds CachedClient
  /// pointers from a find phase across an insert phase; a flush between the
  /// two would dangle them. (If the flush leaves the side empty and `n`
  /// still exceeds capacity, every find of the batch misses, so no pointer
  /// can outlive a later flush either way.) At an exactly-full side even a
  /// one-capture batch flushes here, before its lookup — so a repeat of a
  /// cached key right after the side fills counts as a miss where an
  /// insert-time flush would have hit it. Only cache statistics see this.
  void ensure_client_headroom(std::size_t n);

  // Every find and insert takes the key's hash from the caller, which
  // hashes a batch of keys at once (tls::fp::fnv1a64_batch), so each key
  // is hashed exactly once across find + insert. Inserts take ownership of
  // the parsed hello instead of deep-copying it.

  /// Looks up a client key (make_key). `require_fingerprint` demands an
  /// entry whose fingerprint era matches the observation month: an entry
  /// memoized in the pre-fingerprint era reads as a miss so the caller
  /// rebuilds (and insert_client upgrades it in place).
  [[nodiscard]] std::optional<CachedClient> find_client(
      std::span<const std::uint8_t> key, std::uint64_t hash,
      bool require_fingerprint);
  CachedClient insert_client(std::span<const std::uint8_t> key,
                             std::uint64_t hash,
                             tls::wire::ClientHello&& hello,
                             ClientHelloFeatures&& features);

  [[nodiscard]] std::optional<CachedServer> find_server(
      std::span<const std::uint8_t> key, std::uint64_t hash);
  CachedServer insert_server(std::span<const std::uint8_t> key,
                             std::uint64_t hash,
                             tls::wire::ServerHello&& hello,
                             const ServerHelloFeatures& features);

  /// Exchanges entries, capacity and hash function with `other`; each side
  /// keeps its own statistics. The study lends a worker's warm cache to
  /// each shard task's monitor this way, so the monitor records only that
  /// task's hits and misses.
  void swap_entries(ObserveCache& other) {
    std::swap(*this, other);
    std::swap(stats_, other.stats_);
  }

  void count_bypass() { ++stats_.bypasses; }
  void count_uncacheable() { ++stats_.uncacheable; }

  [[nodiscard]] const ObserveCacheStats& stats() const { return stats_; }
  ObserveCacheStats& stats() { return stats_; }

  /// FNV-1a over the key bytes — fast, deterministic, seedless.
  static std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes);

 private:
  // Storage layout, tuned for the whole-generation-flush lifecycle. Entries
  // live in a slot slab (std::deque — pointers into slots stay valid while
  // the slab grows) and are addressed through a flat open-addressed probe
  // table of (hash, head) cells; distinct records sharing a 64-bit key form
  // an intrusive chain via ClientSlot::next, and every chain hit is still
  // verified against the full record bytes before use. A generation flush
  // just zeroes the probe table and resets the live count: the slabs keep
  // their slots, and the next generation reuses them index-for-index by
  // assigning into the retained vector/string capacity. In the
  // all-miss regime (every record distinct) this makes insert + flush
  // nearly allocation-free instead of ~10 heap round-trips per record.
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  struct ClientSlot {
    std::vector<std::uint8_t> key;
    tls::wire::ClientHello hello;
    ClientHelloFeatures features;
    std::uint64_t hash = 0;
    std::uint32_t next = kNilSlot;
  };
  struct ServerSlot {
    std::vector<std::uint8_t> key;
    tls::wire::ServerHello hello;
    ServerHelloFeatures features;
    std::uint64_t hash = 0;
    std::uint32_t next = kNilSlot;
  };
  /// One probe-table cell: head1 is the 1-based head slot of a chain
  /// (0 == empty cell). The cell stores only the high 32 bits of the 64-bit
  /// key as a tag — 8-byte cells keep both tables L2-resident — and chains
  /// are walked comparing the full hash stored in each slot, so distinct
  /// keys that share a tag and a probe path just share a chain. Probe
  /// position comes from the low hash bits; table size is a power of two
  /// ≥ 2× capacity, so the load factor never exceeds 1/2 and linear probing
  /// terminates.
  struct IndexCell {
    std::uint32_t tag = 0;
    std::uint32_t head1 = 0;
  };

  /// Allocates a side's probe table (index_mask_ + 1 empty cells) if it
  /// has none yet.
  void ensure_index(std::vector<IndexCell>& index);
  void flush_client();
  void flush_server();

  std::deque<ClientSlot> client_slots_;
  std::deque<ServerSlot> server_slots_;
  std::vector<IndexCell> client_index_;
  std::vector<IndexCell> server_index_;
  std::size_t index_mask_ = 0;
  std::size_t client_size_ = 0;
  std::size_t server_size_ = 0;
  std::size_t capacity_ = 0;
  HashFn hash_ = &fnv1a64;
  ObserveCacheStats stats_;
};

}  // namespace tls::notary
