#include "daemon_job.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "clients/catalog.hpp"
#include "common.hpp"
#include "core/study.hpp"
#include "daemon/capture.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "host.hpp"
#include "notary/snapshot.hpp"
#include "population/market.hpp"
#include "population/traffic.hpp"
#include "servers/population.hpp"
#include "spans.hpp"
#include "tlscore/rng.hpp"

namespace perfbench {

namespace {

using tls::daemon::FrameType;

// ---------------------------------------------------------------------------
// Capture pool: generated before timing, replayed with fresh per-connection
// randoms and session ids.
// ---------------------------------------------------------------------------

/// Byte offsets inside a TLS handshake record: 5-byte record header, 4-byte
/// handshake header, 2-byte version, then the 32-byte random and the
/// session-id length byte.
constexpr std::size_t kRandomAt = 11;
constexpr std::size_t kSessionIdLenAt = 43;
constexpr std::size_t kRandomBytes = 32;
/// A kCapture payload starts with month u32, date u32 and flags u8, then the
/// u32-length-prefixed client record.
constexpr std::size_t kClientRecordAt =
    tls::daemon::kFrameHeaderBytes + 9 + 4;
/// Captures generated per month of the notary window for the pool.
constexpr std::size_t kPoolPerMonth = 128;

struct PoolEntry {
  std::vector<std::uint8_t> frame;  // one encoded kCapture frame
  std::size_t client_len = 0;
  std::size_t client_sid_len = 0;
  std::size_t server_at = 0;  // frame offset of the server record, 0 = none
  std::size_t server_sid_len = 0;
  /// The server echoes the client's session id (resumption / TLS 1.3
  /// legacy echo): both get the same fresh bytes so the echo survives.
  bool sid_echo = false;
};

bool is_handshake(std::span<const std::uint8_t> record, std::uint8_t type) {
  return record.size() > kSessionIdLenAt && record[0] == 0x16 &&
         record[5] == type &&
         record.size() > kSessionIdLenAt + record[kSessionIdLenAt];
}

struct Traffic {
  tls::clients::Catalog catalog = tls::clients::Catalog::standard();
  tls::servers::ServerPopulation servers =
      tls::servers::ServerPopulation::standard();
  tls::population::MarketModel market =
      tls::population::MarketModel::standard(catalog);
};

std::vector<PoolEntry> build_pool(const Traffic& traffic, std::uint64_t seed,
                                  std::size_t per_month) {
  std::vector<PoolEntry> pool;
  tls::population::TrafficGenerator gen(traffic.market, traffic.servers, seed);
  const auto window = tls::core::notary_window();
  for (auto m = window.begin_month; m <= window.end_month; ++m) {
    gen.generate_month(m, per_month, [&](const auto& event) {
      // SSLv2 residue carries no ClientHello, hence no random to refresh.
      if (event.sslv2) return;
      const auto capture = tls::daemon::capture_from_event(event);
      PoolEntry e;
      e.frame = tls::daemon::encode_frame(FrameType::kCapture,
                                          tls::daemon::encode_capture(capture));
      e.client_len = capture.client.size();
      if (!is_handshake(capture.client, 0x01) ||
          std::memcmp(e.frame.data() + kClientRecordAt, capture.client.data(),
                      e.client_len) != 0) {
        throw GateFailure{"pool: unexpected ClientHello record layout"};
      }
      e.client_sid_len = capture.client[kSessionIdLenAt];
      if (!capture.server.empty()) {
        e.server_at = kClientRecordAt + e.client_len + 4;
        if (!is_handshake(capture.server, 0x02) ||
            std::memcmp(e.frame.data() + e.server_at, capture.server.data(),
                        capture.server.size()) != 0) {
          throw GateFailure{"pool: unexpected ServerHello record layout"};
        }
        e.server_sid_len = capture.server[kSessionIdLenAt];
        e.sid_echo =
            e.client_sid_len > 0 && e.server_sid_len == e.client_sid_len &&
            std::memcmp(capture.client.data() + kSessionIdLenAt + 1,
                        capture.server.data() + kSessionIdLenAt + 1,
                        e.client_sid_len) == 0;
      }
      pool.push_back(std::move(e));
    });
  }
  return pool;
}

/// The daemon's documented routing rule (daemon.hpp): FNV-1a-64 of the
/// ClientHello record, modulo the shard count.
std::size_t route(std::span<const std::uint8_t> client, std::size_t shards) {
  return tls::notary::ObserveCache::fnv1a64(client) % shards;
}

/// One connection's capture stream. Connection c feeds shard c alone, so
/// each shard hears from one connection and sees a known order. The k-th
/// capture a stream sends is a pure function of (stream seed, connection,
/// k), so the batch reference can regenerate exactly the bytes that went
/// out without keeping them.
class Stream {
 public:
  Stream(const std::vector<PoolEntry>& pool, std::uint64_t stream_seed,
         std::size_t connection, std::size_t shards)
      : pool_(&pool),
        rng_(stream_seed * 0x9e3779b97f4a7c15ull + connection),
        cursor_(connection * 977),
        shard_(connection),
        shards_(shards) {}

  /// Appends the next capture frame to `out`; returns its offset.
  std::size_t append_next(std::vector<std::uint8_t>& out) {
    const auto& e = (*pool_)[cursor_ % pool_->size()];
    cursor_ += 7919;  // prime stride: consecutive sends mix months
    const std::size_t base = out.size();
    out.insert(out.end(), e.frame.begin(), e.frame.end());
    std::uint8_t* f = out.data() + base;
    std::uint8_t* client = f + kClientRecordAt;
    const std::span<const std::uint8_t> client_span(client, e.client_len);
    std::uint8_t* client_sid = client + kSessionIdLenAt + 1;
    fill(client_sid, e.client_sid_len);
    // Re-draw the client random until the record routes to this shard.
    do {
      fill(client + kRandomAt, kRandomBytes);
    } while (shards_ > 1 && route(client_span, shards_) != shard_);
    if (e.server_at != 0) {
      std::uint8_t* server = f + e.server_at;
      fill(server + kRandomAt, kRandomBytes);
      std::uint8_t* server_sid = server + kSessionIdLenAt + 1;
      if (e.sid_echo) {
        std::memcpy(server_sid, client_sid, e.client_sid_len);
      } else {
        fill(server_sid, e.server_sid_len);
      }
    }
    const std::size_t payload_len =
        e.frame.size() - tls::daemon::kFrameHeaderBytes -
        tls::daemon::kFrameTrailerBytes;
    const std::uint64_t sum = tls::daemon::frame_checksum(
        FrameType::kCapture,
        {f + tls::daemon::kFrameHeaderBytes, payload_len});
    std::uint8_t* trailer = f + tls::daemon::kFrameHeaderBytes + payload_len;
    for (int i = 0; i < 8; ++i) {
      trailer[i] = static_cast<std::uint8_t>(sum >> (56 - 8 * i));
    }
    return base;
  }

 private:
  void fill(std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const std::uint64_t r = rng_.next();
      const std::size_t k = std::min<std::size_t>(n, 8);
      std::memcpy(p, &r, k);
      p += k;
      n -= k;
    }
  }

  const std::vector<PoolEntry>* pool_;
  tls::core::Rng rng_;
  std::uint64_t cursor_;
  std::size_t shard_;
  std::size_t shards_;
};

// ---------------------------------------------------------------------------
// Open-loop generator
// ---------------------------------------------------------------------------

constexpr std::uint64_t kRefused = UINT64_MAX;

struct Sample {
  std::uint64_t due_ns = 0;
  std::uint64_t latency_ns = kRefused;
};

struct Connection {
  int fd = -1;
  tls::daemon::FrameDecoder decoder;
  std::uint64_t credits = 0;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  /// Indices into the rung's sample vector, in send order: a grant of k
  /// credits resolves the k oldest (the daemon returns credits FIFO).
  std::deque<std::size_t> inflight;
  std::uint64_t sent = 0;
  bool dead = false;
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// Reads whatever is pending; applies grants, resolving in-flight captures.
void read_grants(Connection& c, std::vector<Sample>& samples) {
  std::uint8_t buf[16384];
  for (;;) {
    const auto n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) {
      c.dead = true;
      return;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.dead = true;
      return;
    }
    const std::uint64_t now = now_ns();
    for (auto& frame : c.decoder.feed({buf, static_cast<std::size_t>(n)})) {
      if (frame.type != FrameType::kCreditGrant) continue;
      const auto grant = tls::daemon::decode_credit_grant(frame.payload);
      if (!grant) continue;
      c.credits += *grant;
      for (std::uint32_t k = 0; k < *grant && !c.inflight.empty(); ++k) {
        auto& s = samples[c.inflight.front()];
        s.latency_ns = now > s.due_ns ? now - s.due_ns : 0;
        c.inflight.pop_front();
      }
    }
    if (c.decoder.poisoned()) {
      c.dead = true;
      return;
    }
  }
}

/// Waits for the credit window the daemon grants on accept.
void await_window(Connection& c) {
  const std::uint64_t deadline = now_ns() + 5'000'000'000ull;
  std::vector<Sample> none;
  while (c.credits == 0) {
    if (now_ns() > deadline || c.dead) {
      throw GateFailure{"no initial credit grant from the daemon"};
    }
    pollfd p{c.fd, POLLIN, 0};
    ::poll(&p, 1, 10);
    read_grants(c, none);
  }
}

void flush(Connection& c) {
  while (c.out_off < c.out.size()) {
    const auto n = ::send(c.fd, c.out.data() + c.out_off,
                          c.out.size() - c.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    c.dead = true;
    return;
  }
  c.out.clear();
  c.out_off = 0;
}

struct GeneratorOutput {
  std::vector<Sample> samples;
  /// Per rung, the index of its first sample (plus one past the end).
  std::vector<std::size_t> rung_begin;
  std::vector<std::uint64_t> rung_start_ns;
  std::vector<std::uint64_t> lag_ns;  // parallel to samples
  std::vector<std::array<std::uint8_t, kRandomBytes>> client_randoms;
  std::vector<std::uint8_t> sent_bytes;  // traced: a prefix of the stream
};

constexpr std::size_t kTracedStreamBytes = 16u << 20;

/// Drives the rungs back to back: exponential interarrivals at each rung's
/// aggregate rate, round-robin over the connections, fired on schedule
/// whatever the outcome of earlier captures. Returns once every sent
/// capture has been resolved by a credit grant.
GeneratorOutput generate(std::vector<Connection>& conns,
                         std::vector<Stream>& streams,
                         const std::vector<Rung>& rungs, std::uint64_t seed,
                         bool traced) {
  GeneratorOutput out;
  double total = 64;
  for (const auto& r : rungs) total += r.rate * r.seconds * 1.1;
  const auto expected = static_cast<std::size_t>(total);
  out.samples.reserve(expected);
  out.lag_ns.reserve(expected);
  out.client_randoms.reserve(expected);
  if (traced) out.sent_bytes.reserve(kTracedStreamBytes + 4096);
  tls::core::Rng arrivals(seed ^ 0xa441a15ull);
  std::size_t rung = 0;
  std::uint64_t rung_end = now_ns();
  double next_due = static_cast<double>(rung_end);
  std::size_t rr = 0;
  std::vector<pollfd> fds(conns.size());
  const auto begin_rung = [&](std::uint64_t start) {
    out.rung_begin.push_back(out.samples.size());
    out.rung_start_ns.push_back(start);
    rung_end = start + static_cast<std::uint64_t>(rungs[rung].seconds * 1e9);
  };
  begin_rung(rung_end);
  bool schedule_done = false;
  std::uint64_t done_at = 0;
  for (;;) {
    std::uint64_t now = now_ns();
    // Fire everything that is due; the schedule never waits for outcomes.
    while (!schedule_done && next_due <= static_cast<double>(now)) {
      if (next_due >= static_cast<double>(rung_end)) {
        if (++rung == rungs.size()) {
          schedule_done = true;
          done_at = now;
          break;
        }
        begin_rung(rung_end);
        next_due = static_cast<double>(out.rung_start_ns.back());
        continue;
      }
      const auto due = static_cast<std::uint64_t>(next_due);
      next_due += -std::log(1.0 - arrivals.uniform()) * 1e9 / rungs[rung].rate;
      const std::size_t ci = rr++ % conns.size();
      auto& c = conns[ci];
      out.lag_ns.push_back(now - due);
      out.samples.push_back({due, kRefused});
      if (c.credits == 0 || c.dead) continue;  // refused: misses the limit
      --c.credits;
      const std::size_t at = streams[ci].append_next(c.out);
      std::array<std::uint8_t, kRandomBytes> random;
      std::memcpy(random.data(), c.out.data() + at + kClientRecordAt + kRandomAt,
                  kRandomBytes);
      out.client_randoms.push_back(random);
      if (traced && out.sent_bytes.size() < kTracedStreamBytes) {
        out.sent_bytes.insert(out.sent_bytes.end(), c.out.begin() + at,
                              c.out.end());
      }
      c.inflight.push_back(out.samples.size() - 1);
      ++c.sent;
    }
    bool pending_out = false;
    std::size_t inflight = 0;
    for (auto& c : conns) {
      if (!c.out.empty()) flush(c);
      read_grants(c, out.samples);
      pending_out = pending_out || !c.out.empty();
      inflight += c.inflight.size();
    }
    now = now_ns();
    if (schedule_done && inflight == 0 && !pending_out) break;
    if (schedule_done && now > done_at + 10'000'000'000ull) {
      throw GateFailure{"daemon did not resolve every capture within 10 s"};
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].dead) {
        throw GateFailure{"daemon closed a generator connection"};
      }
      fds[i] = {conns[i].fd,
                static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)),
                0};
    }
    std::uint64_t wait_ns = 1'000'000;  // re-check at least every ms
    if (!schedule_done) {
      wait_ns = next_due > static_cast<double>(now)
                    ? std::min<std::uint64_t>(
                          wait_ns, static_cast<std::uint64_t>(
                                       next_due - static_cast<double>(now)))
                    : 0;
    }
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ull),
                      static_cast<long>(wait_ns % 1'000'000'000ull)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  }
  out.rung_begin.push_back(out.samples.size());
  return out;
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

tls::core::Month month_of(std::uint32_t index) {
  return tls::core::Month(static_cast<int>(index / 12),
                          static_cast<int>(index % 12) + 1);
}

std::string state_digest(const tls::notary::PassiveMonitor& monitor) {
  const auto bytes = tls::notary::encode_monitor_state(monitor);
  return hex64(fnv1a64(bytes)) + ":" + std::to_string(bytes.size());
}

struct Reference {
  std::string digest;
  double observe_wire_ns = 0;
};

/// Batch reference: regenerates every connection's sent captures and feeds
/// them through observe_wire on per-shard monitors configured like the
/// daemon's, then absorbs the shards in shard order as aggregate_monitor()
/// does. Each shard receives from one connection only, so every shard sees
/// the daemon's exact order.
Reference batch_reference(const std::vector<PoolEntry>& pool,
                          std::uint64_t stream_seed, std::size_t shards,
                          const std::vector<std::uint64_t>& sent,
                          const tls::fp::FingerprintDatabase& database,
                          std::size_t cache_entries) {
  std::vector<std::unique_ptr<tls::notary::PassiveMonitor>> refs(shards);
  std::vector<std::uint64_t> observe_ns(shards, 0);
  std::vector<std::uint64_t> observed(shards, 0);
  std::vector<std::exception_ptr> errors(shards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      try {
        auto mon = std::make_unique<tls::notary::PassiveMonitor>(&database);
        mon->set_observe_cache_capacity(cache_entries);
        std::vector<std::uint8_t> frame;
        for (std::size_t c = 0; c < sent.size(); ++c) {
          Stream stream(pool, stream_seed, c, shards);
          for (std::uint64_t k = 0; k < sent[c]; ++k) {
            frame.clear();
            stream.append_next(frame);
            const std::span<const std::uint8_t> payload(
                frame.data() + tls::daemon::kFrameHeaderBytes,
                frame.size() - tls::daemon::kFrameHeaderBytes -
                    tls::daemon::kFrameTrailerBytes);
            const auto cap = tls::daemon::decode_capture(payload);
            if (route(cap.client, shards) != s) continue;
            const std::uint64_t t0 = now_ns();
            mon->observe_wire(month_of(cap.month_index), cap.day, cap.client,
                              cap.server, cap.ske, cap.success,
                              cap.used_fallback, cap.alert, true);
            observe_ns[s] += now_ns() - t0;
            ++observed[s];
          }
        }
        refs[s] = std::move(mon);
      } catch (...) {
        errors[s] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  tls::notary::PassiveMonitor expected(&database);
  std::uint64_t total_ns = 0;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    expected.absorb(*refs[s]);
    total_ns += observe_ns[s];
    total += observed[s];
  }
  Reference ref;
  ref.digest = state_digest(expected);
  ref.observe_wire_ns =
      total == 0 ? 0.0 : static_cast<double>(total_ns) / static_cast<double>(total);
  return ref;
}

/// Decode timings over the traced prefix of the sent byte stream.
void time_decoders(const std::vector<std::uint8_t>& stream, LadderResult& r) {
  if (stream.empty()) return;
  tls::daemon::FrameDecoder decoder;
  std::vector<tls::daemon::Frame> frames;
  const std::uint64_t t0 = now_ns();
  for (std::size_t off = 0; off < stream.size(); off += 65536) {
    const std::size_t n = std::min<std::size_t>(65536, stream.size() - off);
    for (auto& f : decoder.feed({stream.data() + off, n})) {
      frames.push_back(std::move(f));
    }
  }
  const std::uint64_t t1 = now_ns();
  if (decoder.poisoned() || frames.empty()) {
    throw GateFailure{"sent byte stream does not decode"};
  }
  std::uint64_t sink = 0;
  for (const auto& f : frames) {
    sink += tls::daemon::decode_capture(f.payload).client.size();
  }
  const std::uint64_t t2 = now_ns();
  if (sink == 0) throw GateFailure{"decoded captures carry no ClientHello"};
  r.frame_decode_ns = static_cast<double>(t1 - t0) / static_cast<double>(frames.size());
  r.capture_decode_ns = static_cast<double>(t2 - t1) / static_cast<double>(frames.size());
}

double to_us(double ns) {
  return ns == static_cast<double>(kRefused) ? INFINITY : ns / 1e3;
}

/// Counts durations in buckets 1% wide (relative) from 100 ns to about
/// 100 s, plus refused captures as infinite: bounded memory however long a
/// run is.
class FineHistogram {
 public:
  void add(std::uint64_t ns) {
    ++total_;
    if (ns == kRefused) return;
    const double x = std::log(std::max(1.0, static_cast<double>(ns) / kFloorNs)) /
                     std::log(kGrowth);
    ++counts_[std::min<std::size_t>(kBuckets - 1, static_cast<std::size_t>(x))];
  }
  std::uint64_t count() const { return total_; }
  /// Nearest-rank quantile, at the bucket's geometric midpoint (within 0.5%
  /// of the exact order statistic); infinite when it falls on a refusal.
  double quantile_us(double q) const {
    if (total_ == 0) return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))), 1,
        total_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) {
        return kFloorNs * std::pow(kGrowth, static_cast<double>(i) + 0.5) / 1e3;
      }
    }
    return INFINITY;
  }

 private:
  static constexpr double kFloorNs = 100.0;
  static constexpr double kGrowth = 1.01;
  static constexpr std::size_t kBuckets = 2100;  // 100 ns * 1.01^2100 > 100 s
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t total_ = 0;
};

/// One rung's statistics, pooled over every cycle that ran it: per-window
/// quantiles and rates, and histograms of every latency and lag sample.
struct RungAccumulator {
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  std::vector<double> window_rate;
  FineHistogram latency;
  FineHistogram lag;
  std::uint64_t scheduled = 0;
  std::uint64_t sent = 0;
};

/// Folds rung `index` of one generator run into `acc`: exact latency
/// quantiles per window (by due time; refused = infinite) and captures
/// resolved per window (by resolution time).
void accumulate(const GeneratorOutput& gen, std::size_t index, const Rung& rung,
                RungAccumulator& acc) {
  const std::size_t first = gen.rung_begin[index];
  const std::size_t last = gen.rung_begin[index + 1];
  const std::size_t windows = std::max<std::size_t>(1, rung.windows);
  const std::uint64_t start = gen.rung_start_ns[index];
  const double span_ns = rung.seconds * 1e9;
  const auto window_of = [&](double offset_ns) {
    return std::min<std::size_t>(
        windows - 1,
        static_cast<std::size_t>(offset_ns / span_ns * static_cast<double>(windows)));
  };
  std::vector<std::vector<std::uint64_t>> per(windows);
  std::vector<double> resolved(windows, 0.0);
  for (std::size_t i = first; i < last; ++i) {
    const auto& s = gen.samples[i];
    per[window_of(static_cast<double>(s.due_ns - start))].push_back(s.latency_ns);
    acc.latency.add(s.latency_ns);
    acc.lag.add(gen.lag_ns[i]);
    ++acc.scheduled;
    if (s.latency_ns == kRefused) continue;
    ++acc.sent;
    const double at = static_cast<double>(s.due_ns + s.latency_ns - start);
    if (at < span_ns) resolved[window_of(at)] += 1;
  }
  for (auto& v : per) {
    if (v.empty()) continue;
    acc.window_p50_us.push_back(to_us(quantile(v, 0.50)));
    acc.window_p99_us.push_back(to_us(quantile(v, 0.99)));
  }
  for (const double n : resolved) {
    acc.window_rate.push_back(n * static_cast<double>(windows) / rung.seconds);
  }
}

RungResult finish(const Rung& rung, RungAccumulator& acc) {
  RungResult r;
  r.name = rung.name;
  r.rate = rung.rate;
  r.warmup = rung.warmup;
  r.scheduled = acc.scheduled;
  r.sent = acc.sent;
  r.refused = acc.scheduled - acc.sent;
  r.latency_samples = acc.latency.count();
  r.p50_us = median(acc.window_p50_us);
  r.p99_us = median(acc.window_p99_us);
  r.pooled_p99_us = acc.latency.quantile_us(0.99);
  r.ingest_cps = median(acc.window_rate);
  r.lag_p50_us = acc.lag.quantile_us(0.50);
  r.lag_p99_us = acc.lag.quantile_us(0.99);
  return r;
}

/// The daemon under test: library defaults, except that each connection's
/// credit window equals the shard queue depth. A connection feeds one shard,
/// so the daemon can never shed, and the generator is refused credit only
/// when a whole queue's worth of its captures is unresolved (the default
/// 64-capture window is exhausted by a few milliseconds of host jitter).
tls::daemon::DaemonConfig daemon_config(
    std::size_t shards, const tls::fp::FingerprintDatabase* database) {
  tls::daemon::DaemonConfig config;
  config.shards = shards;
  config.database = database;
  config.credit_window = static_cast<std::uint32_t>(config.shard_queue_depth);
  return config;
}

struct SetupTiming {
  double database_s = 0;
  double start_s = 0;
};

/// Daemon set-up: the fingerprint database, then start() until the daemon
/// accepts connections.
SetupTiming start_daemon(const tls::clients::Catalog& catalog, std::size_t shards,
                         std::optional<tls::fp::FingerprintDatabase>& database,
                         std::optional<tls::daemon::NotaryDaemon>& daemon,
                         SpanLog* spans) {
  SetupTiming t;
  const std::uint64_t t0 = now_ns();
  {
    Span span(spans, "daemon.setup.database");
    database.emplace(tls::study::LongitudinalStudy::build_database(catalog));
  }
  const std::uint64_t t1 = now_ns();
  daemon.emplace(daemon_config(shards, &*database));
  {
    Span span(spans, "daemon.setup.start");
    if (!daemon->start()) {
      throw GateFailure{"daemon start: " + daemon->last_error()};
    }
    // Accepting means a client connects and receives its credit window.
    Connection probe;
    probe.fd = connect_loopback(daemon->port());
    if (probe.fd < 0) throw GateFailure{"cannot connect to the daemon"};
    await_window(probe);
    ::close(probe.fd);
  }
  t.database_s = static_cast<double>(t1 - t0) / 1e9;
  t.start_s = static_cast<double>(now_ns() - t1) / 1e9;
  return t;
}

bool ledger_closes(const tls::daemon::DaemonCounters& c) {
  return c.offered == c.ingested + c.shed + c.malformed;
}

/// What a daemon reports once every capture sent to it is resolved.
struct Settled {
  tls::daemon::DaemonCounters counters;
  std::string digest;  // of aggregate_monitor()
  std::uint64_t client_hits = 0;
  std::uint64_t client_lookups = 0;
  std::uint64_t server_hits = 0;
  std::uint64_t server_lookups = 0;
};

/// Waits (at most 10 s) for the ledger to close, then reads it, the
/// aggregate monitor's digest and its observe-cache counters.
Settled settle(tls::daemon::NotaryDaemon& daemon) {
  Settled s;
  const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
  do {
    s.counters = daemon.counters();
    if (ledger_closes(s.counters)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (now_ns() < deadline);
  const tls::notary::PassiveMonitor aggregate = daemon.aggregate_monitor();
  s.digest = state_digest(aggregate);
  const auto& cache = aggregate.observe_cache_stats();
  s.client_hits = cache.client.hits;
  s.client_lookups = cache.client.hits + cache.client.misses;
  s.server_hits = cache.server.hits;
  s.server_lookups = cache.server.hits + cache.server.misses;
  return s;
}

// ---------------------------------------------------------------------------
// Daemon in a child process (memory runs)
// ---------------------------------------------------------------------------

/// A `perfbench serve` child. Its peak RSS is the daemon's own (database,
/// shards, queues, monitors), without this process's capture pool,
/// generator, statistics and batch reference.
class ChildDaemon {
 public:
  explicit ChildDaemon(std::size_t shards) {
    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) throw GateFailure{"pipe2 failed"};
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      throw GateFailure{"pipe2 failed"};
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, to_child[0], 0);
    posix_spawn_file_actions_adddup2(&actions, from_child[1], 1);
    std::string exe = "/proc/self/exe";
    std::string cmd = "serve";
    std::string flag = "--shards";
    std::string count = std::to_string(shards);
    char* argv[] = {exe.data(), cmd.data(), flag.data(), count.data(), nullptr};
    const int rc = ::posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (rc != 0) pid_ = -1;
    to_child_ = to_child[1];
    from_child_ = ::fdopen(from_child[0], "r");
    if (from_child_ == nullptr) ::close(from_child[0]);
    try {
      if (pid_ < 0 || from_child_ == nullptr) {
        throw GateFailure{"cannot spawn the daemon child process"};
      }
      port_ = static_cast<std::uint16_t>(std::stoul(read_fields("port").at("port")));
    } catch (...) {
      release();
      throw;
    }
  }

  ChildDaemon(const ChildDaemon&) = delete;
  ChildDaemon& operator=(const ChildDaemon&) = delete;

  ~ChildDaemon() { release(); }

  std::uint16_t port() const { return port_; }

  /// Asks the child to settle and report, then waits for it to exit.
  Settled finish(double& peak_rss_mb) {
    if (::write(to_child_, "settle\n", 7) != 7) {
      throw GateFailure{"daemon child process is gone"};
    }
    const auto f = read_fields("end");
    Settled s;
    const auto u64 = [&](const char* key) { return std::stoull(f.at(key)); };
    s.counters.offered = u64("offered");
    s.counters.ingested = u64("ingested");
    s.counters.shed = u64("shed");
    s.counters.malformed = u64("malformed");
    s.digest = f.at("digest");
    s.client_hits = u64("client_hits");
    s.client_lookups = u64("client_lookups");
    s.server_hits = u64("server_hits");
    s.server_lookups = u64("server_lookups");
    peak_rss_mb = std::stod(f.at("peak_rss_mb"));
    // The child stops its daemon and exits; give it 10 s.
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        throw GateFailure{"daemon child process did not stop within 10 s"};
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw GateFailure{"daemon child process failed"};
    }
    return s;
  }

 private:
  /// Reads "key value" lines until one whose key is `last`.
  std::map<std::string, std::string> read_fields(const std::string& last) {
    std::map<std::string, std::string> fields;
    char line[256];
    while (std::fgets(line, sizeof(line), from_child_) != nullptr) {
      std::istringstream in(line);
      std::string key;
      std::string value;
      in >> key >> value;
      fields[key] = value;
      if (key == last) return fields;
    }
    throw GateFailure{"daemon child process ended without a report"};
  }

  /// Closes the pipes and, unless it has already been reaped, kills and
  /// reaps the child.
  void release() {
    if (to_child_ >= 0) ::close(to_child_);
    if (from_child_ != nullptr) std::fclose(from_child_);
    to_child_ = -1;
    from_child_ = nullptr;
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      pid_ = -1;
    }
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  FILE* from_child_ = nullptr;
  std::uint16_t port_ = 0;
};

/// One ladder on a freshly started daemon, with every check; folds the
/// rungs into `acc` (unless this is a warm-up cycle or a memory run) and
/// the ledger into `r`. A memory run puts the daemon in a child process
/// and records its peak RSS in `peak_rss_mb`.
void run_ladder(const Traffic& traffic, const std::vector<PoolEntry>& pool,
                const tls::fp::FingerprintDatabase& reference_db,
                const DaemonJob& job, const Ladder& ladder, std::size_t index,
                std::size_t cycle, bool memory_run, LadderResult& r,
                std::vector<RungAccumulator>& acc, double& peak_rss_mb) {
  r.shards = ladder.shards;
  ++r.runs;
  Span ladder_span(job.spans, "daemon.ladder" + std::to_string(index));
  std::optional<tls::fp::FingerprintDatabase> database;
  std::optional<tls::daemon::NotaryDaemon> daemon;
  std::optional<ChildDaemon> child;
  std::uint16_t port = 0;
  if (memory_run) {
    child.emplace(ladder.shards);
    port = child->port();
  } else {
    const auto setup = start_daemon(traffic.catalog, ladder.shards, database,
                                    daemon, job.spans);
    r.setup_s.push_back(setup.database_s + setup.start_s);
    port = daemon->port();
  }

  const std::uint64_t stream_seed = (job.seed * 1000003 + cycle) * 16 + index;
  std::vector<Connection> conns(ladder.shards);
  std::vector<Stream> streams;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = connect_loopback(port);
    if (conns[c].fd < 0) throw GateFailure{"cannot connect to the daemon"};
    streams.emplace_back(pool, stream_seed, c, ladder.shards);
  }
  for (auto& c : conns) await_window(c);

  GeneratorOutput gen;
  {
    Span span(job.spans, "daemon.generate" + std::to_string(index));
    gen = generate(conns, streams, ladder.rungs, stream_seed, job.traced);
  }

  // Quiesce: every capture is resolved client-side; the ledger must close.
  Settled settled;
  tls::telemetry::MetricsRegistry metrics;
  if (memory_run) {
    settled = child->finish(peak_rss_mb);
  } else {
    settled = settle(*daemon);
    metrics = daemon->merged_metrics();
  }
  for (auto& c : conns) ::close(c.fd);
  if (daemon) {
    daemon->request_stop();
    daemon->join();
  }

  const auto& counters = settled.counters;
  std::vector<std::uint64_t> sent;
  std::uint64_t total_sent = 0;
  for (const auto& c : conns) {
    total_sent += c.sent;
    sent.push_back(c.sent);
  }
  if (!ledger_closes(counters)) {
    throw GateFailure{"daemon ledger does not close: offered " +
                      std::to_string(counters.offered) +
                      " != ingested + shed + malformed"};
  }
  if (counters.offered != total_sent) {
    throw GateFailure{"daemon saw " + std::to_string(counters.offered) +
                      " captures, the generator sent " + std::to_string(total_sent)};
  }
  r.sent += total_sent;
  r.offered += counters.offered;
  r.ingested += counters.ingested;
  r.shed += counters.shed;
  r.malformed += counters.malformed;

  // Traffic shape: every client random that went out is distinct.
  std::sort(gen.client_randoms.begin(), gen.client_randoms.end());
  const auto distinct = static_cast<std::uint64_t>(
      std::unique(gen.client_randoms.begin(), gen.client_randoms.end()) -
      gen.client_randoms.begin());
  if (distinct != total_sent) {
    throw GateFailure{"replayed client randoms: " + std::to_string(distinct) +
                      " distinct of " + std::to_string(total_sent) + " sent"};
  }
  r.distinct_client_randoms += distinct;
  r.cache_client_hits += settled.client_hits;
  r.cache_client_lookups += settled.client_lookups;
  r.cache_server_hits += settled.server_hits;
  r.cache_server_lookups += settled.server_lookups;

  // Daemon equals batch over the captures it ingested.
  if (counters.shed != 0 || counters.malformed != 0) {
    throw GateFailure{"daemon shed or rejected captures; the batch reference "
                      "cannot be formed"};
  }
  Reference ref;
  {
    Span span(job.spans, "daemon.batch_reference" + std::to_string(index));
    ref = batch_reference(pool, stream_seed, ladder.shards, sent, reference_db,
                          daemon_config(ladder.shards, nullptr).observe_cache_entries);
  }
  if (ref.digest != settled.digest) {
    throw GateFailure{"daemon aggregate " + settled.digest +
                      " differs from batch observe_wire " + ref.digest};
  }
  ++r.digests_matched;
  r.observe_wire_ns.push_back(ref.observe_wire_ns);

  if (memory_run || cycle < job.warmup_cycles) return;  // checked, not measured
  for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
    accumulate(gen, i, ladder.rungs[i], acc[i]);
  }
  if (job.traced && r.frame_decode_ns == 0) time_decoders(gen.sent_bytes, r);
  r.metrics.merge(metrics);
}

/// Set-up samples at `shards`: database + start(), then stop.
void extra_setups(const Traffic& traffic, std::size_t shards, std::size_t n,
                  SpanLog* spans, std::vector<double>& out) {
  for (std::size_t i = 0; i < n; ++i) {
    std::optional<tls::fp::FingerprintDatabase> database;
    std::optional<tls::daemon::NotaryDaemon> daemon;
    const auto t = start_daemon(traffic.catalog, shards, database, daemon, spans);
    out.push_back(t.database_s + t.start_s);
    daemon->request_stop();
    daemon->join();
  }
}

}  // namespace

DaemonResult run_daemon_job(const DaemonJob& job) {
  // Tight timer slack so ppoll wakes the generator close to each due time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  const Traffic traffic;
  std::vector<PoolEntry> pool;
  {
    Span span(job.spans, "daemon.pool");
    pool = build_pool(traffic, job.seed, kPoolPerMonth);
  }
  if (pool.empty()) throw GateFailure{"empty capture pool"};
  if (job.ladders.empty()) throw GateFailure{"no daemon ladder"};
  const auto reference_db =
      tls::study::LongitudinalStudy::build_database(traffic.catalog);
  DaemonResult result;
  result.ladders.resize(job.ladders.size());
  std::vector<std::vector<RungAccumulator>> acc(job.ladders.size());
  for (std::size_t i = 0; i < job.ladders.size(); ++i) {
    acc[i].resize(job.ladders[i].rungs.size());
  }
  // Cycles interleave the ladders, and the extra set-ups, so every sample
  // is spread over the whole run rather than one stretch of it.
  const std::size_t cycles = job.warmup_cycles + std::max<std::size_t>(1, job.cycles);
  double unused_rss = 0;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    if (cycle >= job.warmup_cycles) {
      extra_setups(traffic, job.ladders[0].shards, job.extra_setups, job.spans,
                   result.setup_s);
    }
    for (std::size_t i = 0; i < job.ladders.size(); ++i) {
      run_ladder(traffic, pool, reference_db, job, job.ladders[i], i, cycle,
                 /*memory_run=*/false, result.ladders[i], acc[i], unused_rss);
    }
  }
  // Memory runs use cycle numbers past the measured ones: fresh streams.
  for (std::size_t m = 0; m < job.memory_runs; ++m) {
    double rss = 0;
    run_ladder(traffic, pool, reference_db, job, job.ladders[0], 0, cycles + m,
               /*memory_run=*/true, result.ladders[0], acc[0], rss);
    result.daemon_peak_rss_mb.push_back(rss);
  }
  for (std::size_t i = 0; i < job.ladders.size(); ++i) {
    auto& l = result.ladders[i];
    for (std::size_t k = 0; k < job.ladders[i].rungs.size(); ++k) {
      l.rungs.push_back(finish(job.ladders[i].rungs[k], acc[i][k]));
    }
  }
  const auto& first = result.ladders[0].setup_s;
  result.setup_s.insert(result.setup_s.end(), first.begin(), first.end());
  return result;
}

int serve_daemon(std::size_t shards) {
  // Die with the parent, whatever way it ends.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
  const auto catalog = tls::clients::Catalog::standard();
  std::optional<tls::fp::FingerprintDatabase> database;
  std::optional<tls::daemon::NotaryDaemon> daemon;
  start_daemon(catalog, shards, database, daemon, nullptr);
  std::printf("port %u\n", static_cast<unsigned>(daemon->port()));
  std::fflush(stdout);
  char line[64];
  const bool asked = std::fgets(line, sizeof(line), stdin) != nullptr;
  if (asked) {
    const Settled s = settle(*daemon);
    std::printf(
        "offered %llu\ningested %llu\nshed %llu\nmalformed %llu\ndigest %s\n"
        "client_hits %llu\nclient_lookups %llu\nserver_hits %llu\n"
        "server_lookups %llu\npeak_rss_mb %.4f\nend\n",
        static_cast<unsigned long long>(s.counters.offered),
        static_cast<unsigned long long>(s.counters.ingested),
        static_cast<unsigned long long>(s.counters.shed),
        static_cast<unsigned long long>(s.counters.malformed), s.digest.c_str(),
        static_cast<unsigned long long>(s.client_hits),
        static_cast<unsigned long long>(s.client_lookups),
        static_cast<unsigned long long>(s.server_hits),
        static_cast<unsigned long long>(s.server_lookups), vm_hwm_mb());
    std::fflush(stdout);
  }
  daemon->request_stop();
  daemon->join();
  return asked ? 0 : 1;
}

}  // namespace perfbench
