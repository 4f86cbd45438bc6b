#include "core/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "faults/injector.hpp"
#include "notary/observe_cache.hpp"
#include "wire/buffer.hpp"

namespace tls::study {

namespace fs = std::filesystem;
using tls::wire::ByteReader;
using tls::wire::ByteWriter;
using tls::wire::ParseError;
using tls::wire::ParseErrorCode;

namespace {

constexpr std::uint32_t kGroupMagic = 0x544c5347;  // "TLSG"
constexpr std::uint32_t kIndexMagic = 0x544c5358;  // "TLSX"
constexpr std::uint32_t kGroupFormatVersion = 1;
// A group holds at most one writer batch; anything past these bounds is a
// corrupt header, not a plausible record — reject before trusting lengths.
constexpr std::uint32_t kMaxGroupFrames = 4096;
constexpr std::uint32_t kMaxGroupPayload = 256u * 1024u * 1024u;
constexpr std::size_t kIndexEntrySize = 4 + 4 + 8 + 8 + 8;

// Bounded backoff for transient IO errors: EINTR and short writes are
// retried up to this many times with a short linear sleep between
// attempts; a persistent error then surfaces through the taxonomy.
constexpr int kMaxIoRetries = 5;
constexpr unsigned kRetrySleepUs = 500;

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  return tls::notary::ObserveCache::fnv1a64(bytes);
}

void book(JournalErrorTaxonomy* errors, JournalStage stage, int err) {
  if (errors != nullptr) errors->record(stage, classify_errno(err));
}

/// Writes all of `bytes` to `fd`, retrying EINTR and short writes with
/// bounded backoff. Transient-but-recovered retries are booked as
/// kRetried; a terminal failure is booked under its errno class.
bool full_write(int fd, std::span<const std::uint8_t> bytes,
                JournalStage stage, JournalErrorTaxonomy* errors) {
  std::size_t written = 0;
  int retries = 0;
  while (written < bytes.size()) {
    const ::ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    const int err = (n < 0) ? errno : EIO;  // n == 0: treat as short write
    if ((err == EINTR || err == EAGAIN || n == 0) && retries < kMaxIoRetries) {
      ++retries;
      book(errors, stage, EINTR);  // books kRetried
      ::usleep(kRetrySleepUs * static_cast<unsigned>(retries));
      continue;
    }
    book(errors, stage, err);
    return false;
  }
  return true;
}

bool fsync_fd(int fd, JournalErrorTaxonomy* errors) {
  int retries = 0;
  while (::fsync(fd) != 0) {
    if (errno == EINTR && retries < kMaxIoRetries) {
      ++retries;
      book(errors, JournalStage::kSync, EINTR);
      continue;
    }
    book(errors, JournalStage::kSync, errno);
    return false;
  }
  return true;
}

void fsync_dir(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

// ---- taxonomy -----------------------------------------------------------

std::string_view journal_stage_name(JournalStage stage) {
  switch (stage) {
    case JournalStage::kOpen: return "open";
    case JournalStage::kWrite: return "write";
    case JournalStage::kSync: return "sync";
    case JournalStage::kRead: return "read";
    case JournalStage::kTruncate: return "truncate";
    case JournalStage::kIndex: return "index";
    case JournalStage::kRemove: return "remove";
  }
  return "?";
}

std::string_view journal_error_class_name(JournalErrorClass cls) {
  switch (cls) {
    case JournalErrorClass::kRetried: return "retried";
    case JournalErrorClass::kNoSpace: return "no_space";
    case JournalErrorClass::kIo: return "io";
    case JournalErrorClass::kOther: return "other";
  }
  return "?";
}

JournalErrorClass classify_errno(int err) {
  switch (err) {
    case EINTR:
    case EAGAIN:
      return JournalErrorClass::kRetried;
    case ENOSPC:
#ifdef EDQUOT
    case EDQUOT:
#endif
      return JournalErrorClass::kNoSpace;
    case EIO:
      return JournalErrorClass::kIo;
    default:
      return JournalErrorClass::kOther;
  }
}

// ---- POSIX backend ------------------------------------------------------

PosixJournalBackend::PosixJournalBackend(std::string directory)
    : directory_(std::move(directory)) {
  segments_dir_ = (fs::path(directory_) / "segments").string();
  std::error_code ec;
  fs::create_directories(segments_dir_, ec);
}

PosixJournalBackend::~PosixJournalBackend() {
  close_segment();
  if (index_fd_ >= 0) ::close(index_fd_);
}

std::string PosixJournalBackend::segment_path(std::uint32_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg_%06u.seg", id);
  return (fs::path(segments_dir_) / buf).string();
}

bool PosixJournalBackend::open_segment(std::uint32_t id) {
  close_segment();
  fd_ = ::open(segment_path(id).c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    book(&errors_, JournalStage::kOpen, errno);
    return false;
  }
  return true;
}

bool PosixJournalBackend::append(std::span<const std::uint8_t> bytes) {
  if (fd_ < 0) {
    book(&errors_, JournalStage::kWrite, EBADF);
    return false;
  }
  return full_write(fd_, bytes, JournalStage::kWrite, &errors_);
}

bool PosixJournalBackend::sync() {
  if (fd_ < 0) {
    book(&errors_, JournalStage::kSync, EBADF);
    return false;
  }
  return fsync_fd(fd_, &errors_);
}

void PosixJournalBackend::close_segment() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<std::uint32_t> PosixJournalBackend::list_segments() {
  std::vector<std::uint32_t> ids;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(segments_dir_, ec)) {
    const std::string name = entry.path().filename().string();
    unsigned id = 0;
    if (std::sscanf(name.c_str(), "seg_%06u.seg", &id) == 1) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool PosixJournalBackend::read_segment(std::uint32_t id,
                                       std::vector<std::uint8_t>& out) {
  if (!read_file(segment_path(id), out)) {
    book(&errors_, JournalStage::kRead, EIO);
    return false;
  }
  return true;
}

bool PosixJournalBackend::truncate_segment(std::uint32_t id,
                                           std::uint64_t size) {
  if (::truncate(segment_path(id).c_str(),
                 static_cast<::off_t>(size)) != 0) {
    book(&errors_, JournalStage::kTruncate, errno);
    return false;
  }
  fsync_dir(segments_dir_);
  return true;
}

bool PosixJournalBackend::remove_segment(std::uint32_t id) {
  std::error_code ec;
  if (!fs::remove(segment_path(id), ec) && ec) {
    book(&errors_, JournalStage::kRemove, EIO);
    return false;
  }
  return true;
}

bool PosixJournalBackend::write_manifest(std::span<const std::uint8_t> bytes) {
  return write_file_durable((fs::path(directory_) / "MANIFEST").string(),
                            bytes, &errors_);
}

bool PosixJournalBackend::read_manifest(std::vector<std::uint8_t>& out) {
  return read_file((fs::path(directory_) / "MANIFEST").string(), out);
}

bool PosixJournalBackend::append_index(std::span<const std::uint8_t> bytes) {
  if (index_fd_ < 0) {
    index_fd_ = ::open((fs::path(segments_dir_) / "INDEX").c_str(),
                       O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (index_fd_ < 0) {
      book(&errors_, JournalStage::kIndex, errno);
      return false;
    }
  }
  // Buffered, deliberately not fsynced: the index is a hint, the segment
  // scan is the ground truth.
  return full_write(index_fd_, bytes, JournalStage::kIndex, &errors_);
}

bool PosixJournalBackend::read_index(std::vector<std::uint8_t>& out) {
  return read_file((fs::path(segments_dir_) / "INDEX").string(), out);
}

bool PosixJournalBackend::clear_index() {
  if (index_fd_ >= 0) {
    ::close(index_fd_);
    index_fd_ = -1;
  }
  std::error_code ec;
  fs::remove(fs::path(segments_dir_) / "INDEX", ec);
  return !ec;
}

// ---- in-memory backend --------------------------------------------------

bool MemoryJournalBackend::open_segment(std::uint32_t id) {
  open_id_ = id;
  open_ = true;
  segments_.try_emplace(id);
  return true;
}

bool MemoryJournalBackend::append(std::span<const std::uint8_t> bytes) {
  if (!open_) {
    errors_.record(JournalStage::kWrite, JournalErrorClass::kOther);
    return false;
  }
  if (appends_before_failure_ != static_cast<std::size_t>(-1)) {
    if (appends_before_failure_ == 0) {
      errors_.record(JournalStage::kWrite, JournalErrorClass::kIo);
      return false;
    }
    --appends_before_failure_;
  }
  auto& seg = segments_[open_id_];
  seg.bytes.insert(seg.bytes.end(), bytes.begin(), bytes.end());
  return true;
}

bool MemoryJournalBackend::sync() {
  ++sync_calls_;
  if (!open_) {
    errors_.record(JournalStage::kSync, JournalErrorClass::kOther);
    return false;
  }
  if (appends_before_failure_ == 0) {
    errors_.record(JournalStage::kSync, JournalErrorClass::kIo);
    return false;
  }
  auto& seg = segments_[open_id_];
  seg.synced = seg.bytes.size();
  return true;
}

void MemoryJournalBackend::close_segment() { open_ = false; }

std::vector<std::uint32_t> MemoryJournalBackend::list_segments() {
  std::vector<std::uint32_t> ids;
  for (const auto& [id, seg] : segments_) ids.push_back(id);
  return ids;
}

bool MemoryJournalBackend::read_segment(std::uint32_t id,
                                        std::vector<std::uint8_t>& out) {
  const auto it = segments_.find(id);
  if (it == segments_.end()) {
    errors_.record(JournalStage::kRead, JournalErrorClass::kOther);
    return false;
  }
  out = it->second.bytes;
  return true;
}

bool MemoryJournalBackend::truncate_segment(std::uint32_t id,
                                            std::uint64_t size) {
  const auto it = segments_.find(id);
  if (it == segments_.end()) return false;
  if (size < it->second.bytes.size()) {
    it->second.bytes.resize(size);
    it->second.synced = std::min<std::size_t>(it->second.synced, size);
  }
  return true;
}

bool MemoryJournalBackend::remove_segment(std::uint32_t id) {
  segments_.erase(id);
  return true;
}

bool MemoryJournalBackend::write_manifest(
    std::span<const std::uint8_t> bytes) {
  manifest_.assign(bytes.begin(), bytes.end());
  has_manifest_ = true;
  return true;
}

bool MemoryJournalBackend::read_manifest(std::vector<std::uint8_t>& out) {
  if (!has_manifest_) return false;
  out = manifest_;
  return true;
}

bool MemoryJournalBackend::append_index(std::span<const std::uint8_t> bytes) {
  index_.insert(index_.end(), bytes.begin(), bytes.end());
  return true;
}

bool MemoryJournalBackend::read_index(std::vector<std::uint8_t>& out) {
  out = index_;
  return true;
}

bool MemoryJournalBackend::clear_index() {
  index_.clear();
  return true;
}

void MemoryJournalBackend::drop_unsynced() {
  for (auto& [id, seg] : segments_) {
    seg.bytes.resize(seg.synced);
  }
}

// ---- group record codec -------------------------------------------------

std::vector<std::uint8_t> encode_group(
    std::uint64_t options_digest,
    std::span<const std::vector<std::uint8_t>> frames) {
  std::uint64_t payload = 0;
  for (const auto& f : frames) payload += 4 + f.size();
  ByteWriter w;
  w.u32(kGroupMagic);
  w.u32(kGroupFormatVersion);
  w.u64(options_digest);
  w.u32(static_cast<std::uint32_t>(frames.size()));
  w.u32(static_cast<std::uint32_t>(payload));
  for (const auto& f : frames) {
    w.u32(static_cast<std::uint32_t>(f.size()));
    w.bytes(f);
  }
  w.u64(fnv1a64(w.data()));
  return w.take();
}

DecodedGroup decode_group(std::span<const std::uint8_t> bytes,
                          std::size_t* consumed) {
  if (bytes.size() < kGroupHeaderSize) {
    throw ParseError(ParseErrorCode::kTruncated, "group header");
  }
  ByteReader r(bytes);
  if (r.u32() != kGroupMagic) {
    throw ParseError(ParseErrorCode::kBadValue, "group magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kGroupFormatVersion) {
    throw ParseError(ParseErrorCode::kUnsupported,
                     "group format version " + std::to_string(version));
  }
  DecodedGroup group;
  group.options_digest = r.u64();
  const std::uint32_t frame_count = r.u32();
  if (frame_count > kMaxGroupFrames) {
    throw ParseError(ParseErrorCode::kBadLength,
                     "group frame count " + std::to_string(frame_count));
  }
  const std::uint32_t payload_len = r.u32();
  if (payload_len > kMaxGroupPayload) {
    throw ParseError(ParseErrorCode::kBadLength,
                     "group payload length " + std::to_string(payload_len));
  }
  const std::size_t total = kGroupHeaderSize + std::size_t{payload_len} + 8;
  if (bytes.size() < total) {
    throw ParseError(ParseErrorCode::kTruncated, "group body");
  }
  const std::uint64_t expected = fnv1a64(bytes.first(total - 8));
  group.frames.reserve(frame_count);
  std::size_t payload_used = 0;
  for (std::uint32_t i = 0; i < frame_count; ++i) {
    if (payload_used + 4 > payload_len) {
      throw ParseError(ParseErrorCode::kBadLength, "group frame offsets");
    }
    const std::uint32_t len = r.u32();
    if (payload_used + 4 + std::size_t{len} > payload_len) {
      throw ParseError(ParseErrorCode::kBadLength,
                       "group frame length " + std::to_string(len));
    }
    const auto frame = r.bytes(len);
    group.frames.emplace_back(frame.begin(), frame.end());
    payload_used += 4 + len;
  }
  if (payload_used != payload_len) {
    throw ParseError(ParseErrorCode::kBadLength, "group payload slack");
  }
  if (r.u64() != expected) {
    throw ParseError(ParseErrorCode::kBadValue, "group checksum");
  }
  if (consumed != nullptr) *consumed = total;
  return group;
}

SegmentScan scan_segment(std::span<const std::uint8_t> bytes) {
  SegmentScan scan;
  std::size_t at = 0;
  while (at < bytes.size()) {
    std::size_t consumed = 0;
    DecodedGroup group;
    try {
      group = decode_group(bytes.subspan(at), &consumed);
    } catch (const ParseError&) {
      break;  // first bad record: everything from here is a torn tail
    }
    scan.boundaries.push_back({at, consumed});
    for (auto& frame : group.frames) {
      scan.frames.push_back(std::move(frame));
    }
    ++scan.groups;
    at += consumed;
  }
  scan.valid_bytes = at;
  scan.torn_bytes = bytes.size() - at;
  return scan;
}

// ---- INDEX codec --------------------------------------------------------

std::vector<std::uint8_t> encode_index_entry(const IndexEntry& entry) {
  ByteWriter w;
  w.u32(kIndexMagic);
  w.u32(entry.segment);
  w.u64(entry.offset);
  w.u64(entry.length);
  w.u64(fnv1a64(w.data()));
  return w.take();
}

std::vector<IndexEntry> decode_index(std::span<const std::uint8_t> bytes) {
  std::vector<IndexEntry> entries;
  std::size_t at = 0;
  while (at + kIndexEntrySize <= bytes.size()) {
    const auto record = bytes.subspan(at, kIndexEntrySize);
    const std::uint64_t expected = fnv1a64(record.first(kIndexEntrySize - 8));
    ByteReader r(record);
    if (r.u32() != kIndexMagic) break;
    IndexEntry entry;
    entry.segment = r.u32();
    entry.offset = r.u64();
    entry.length = r.u64();
    if (r.u64() != expected) break;
    entries.push_back(entry);
    at += kIndexEntrySize;
  }
  return entries;
}

// ---- group-commit writer ------------------------------------------------

GroupCommitWriter::GroupCommitWriter(JournalBackend* backend, Config config,
                                     tls::faults::FaultInjector* faults)
    : backend_(backend), config_(std::move(config)), faults_(faults) {
  config_.group_frames = std::max<std::size_t>(1, config_.group_frames);
  segment_id_ = config_.first_segment_id;
  thread_ = std::thread([this] { writer_loop(); });
}

GroupCommitWriter::~GroupCommitWriter() { stop(); }

void GroupCommitWriter::enqueue(std::string name,
                                std::vector<std::uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(Pending{std::move(name), std::move(frame),
                               std::chrono::steady_clock::now()});
    ++enqueued_;
  }
  wake_cv_.notify_all();
}

void GroupCommitWriter::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t target = enqueued_;
  flush_pending_ = true;
  wake_cv_.notify_all();
  done_cv_.wait(lock, [&] { return completed_ >= target; });
}

void GroupCommitWriter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ && !thread_.joinable()) return;
    stop_ = true;
  }
  wake_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool GroupCommitWriter::degraded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return degraded_;
}

GroupCommitWriter::Stats GroupCommitWriter::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s = stats_;
  s.degraded = degraded_;
  return s;
}

void GroupCommitWriter::collect_metrics(
    tls::telemetry::MetricsRegistry& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out.merge(metrics_);
  out.gauge("tls_repro_journal_degraded", {},
            "1 when the group-commit writer fell back to per-frame mode",
            true)
      .set(degraded_ ? 1 : 0);
}

JournalErrorTaxonomy GroupCommitWriter::fallback_errors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fallback_errors_;
}

void GroupCommitWriter::writer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_cv_.wait(lock, [&] { return stop_ || !pending_.empty(); });
    if (pending_.empty()) {
      flush_pending_ = false;
      if (stop_) return;
      continue;
    }
    if (!stop_ && !flush_pending_ &&
        pending_.size() < config_.group_frames) {
      // Not a full group yet: linger until the oldest frame's deadline so
      // small trickles still coalesce, but bounded latency.
      const auto deadline =
          pending_.front().enqueued_at +
          std::chrono::milliseconds(config_.group_ms);
      wake_cv_.wait_until(lock, deadline, [&] {
        return stop_ || flush_pending_ ||
               pending_.size() >= config_.group_frames;
      });
      if (pending_.empty()) continue;
    }
    std::vector<Pending> batch;
    const std::size_t take =
        std::min(pending_.size(), config_.group_frames);
    batch.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
    }
    const bool already_degraded = degraded_;
    lock.unlock();

    bool ok = false;
    if (!already_degraded) {
      ok = commit_group(batch);
      if (!ok) ok = commit_group(batch);  // one whole-group retry
    }
    if (!ok) write_fallback(batch);

    lock.lock();
    if (!already_degraded) {
      if (ok) {
        consecutive_failures_ = 0;
      } else {
        ++consecutive_failures_;
        if (consecutive_failures_ >= config_.max_consecutive_failures) {
          degraded_ = true;
        }
      }
    }
    completed_ += batch.size();
    done_cv_.notify_all();
  }
}

bool GroupCommitWriter::commit_group(std::vector<Pending>& batch) {
  const auto started = std::chrono::steady_clock::now();
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(batch.size());
  for (const auto& p : batch) frames.push_back(p.frame);
  std::vector<std::uint8_t> bytes =
      encode_group(config_.options_digest, frames);

  // Chaos tap: at most one segment-level fault per committed group.
  using tls::faults::FaultKind;
  FaultKind fault = FaultKind::kNone;
  std::uint64_t chaos_roll = 0;
  if (faults_ != nullptr) {
    std::unique_lock<std::mutex> fault_lock;
    if (config_.faults_mutex != nullptr) {
      fault_lock = std::unique_lock<std::mutex>(*config_.faults_mutex);
    }
    fault = faults_->corrupt_group(bytes);
    if (fault == FaultKind::kSegmentTruncate ||
        fault == FaultKind::kIndexStale) {
      chaos_roll = faults_->rng().next();
    }
  }

  if (!segment_open_) {
    if (!backend_->open_segment(segment_id_)) return false;
    segment_open_ = true;
    segment_bytes_ = 0;
  } else if (segment_bytes_ > 0 &&
             segment_bytes_ + bytes.size() > config_.max_segment_bytes) {
    backend_->close_segment();
    ++segment_id_;
    if (!backend_->open_segment(segment_id_)) {
      segment_open_ = false;
      return false;
    }
    segment_bytes_ = 0;
  }

  const std::uint64_t offset = segment_bytes_;
  if (!backend_->append(bytes)) return false;
  if (!backend_->sync()) return false;
  segment_bytes_ += bytes.size();

  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - started)
          .count());
  std::size_t durable_frames = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.groups;
    stats_.frames += batch.size();
    ++stats_.fsyncs;
    stats_.bytes += bytes.size();
    durable_frames = stats_.frames;
    metrics_
        .histogram("tls_repro_journal_group_frames",
                   {1, 2, 4, 8, 16, 32, 64, 128, 256}, {},
                   "frames per committed journal group", true)
        .record(batch.size());
    metrics_
        .histogram("tls_repro_journal_flush_us",
                   tls::telemetry::duration_buckets_us(), {},
                   "group encode+append+fsync latency", true)
        .record(us);
    metrics_
        .counter("tls_repro_journal_fsync_total", {},
                 "fsync barriers paid by the group-commit writer", true)
        .add();
    metrics_
        .counter("tls_repro_journal_group_total", {},
                 "groups committed by the journal writer", true)
        .add();
    metrics_
        .counter("tls_repro_journal_bytes_total", {},
                 "segment bytes appended by the journal writer", true)
        .add(bytes.size());
  }

  // Crash-matrix seam: die right after the group containing the Nth frame
  // became durable — before the index entry, so resume also exercises the
  // scan-over-index path.
  if (config_.kill_after_frames != 0 &&
      durable_frames >= config_.kill_after_frames) {
    std::raise(SIGKILL);
  }

  IndexEntry entry{segment_id_, offset,
                   static_cast<std::uint64_t>(bytes.size())};
  if (fault == FaultKind::kIndexStale) {
    // A stale pointer: offset drifts somewhere wrong. Replay must detect
    // and ignore it via the scan cross-check.
    entry.offset += 1 + (chaos_roll % 4096);
  }
  backend_->append_index(encode_index_entry(entry));

  if (fault == FaultKind::kSegmentTruncate && segment_bytes_ > 0) {
    // Lose an arbitrary tail of the segment after the commit (media/fs
    // failure): cut somewhere inside what we believed durable, then roll
    // to a fresh segment so later groups stay recoverable.
    backend_->truncate_segment(segment_id_, chaos_roll % segment_bytes_);
    backend_->close_segment();
    segment_open_ = false;
    ++segment_id_;
  } else if (fault == FaultKind::kGroupTornTail) {
    // The group bytes were already cut short before the append (a torn
    // write). Roll to a fresh segment: a real torn tail ends a segment,
    // and later groups appended after garbage would be unreachable.
    backend_->close_segment();
    segment_open_ = false;
    ++segment_id_;
  }
  return true;
}

void GroupCommitWriter::write_fallback(std::vector<Pending>& batch) {
  namespace fsn = std::filesystem;
  std::error_code ec;
  fsn::create_directories(config_.fallback_dir, ec);
  JournalErrorTaxonomy errors;
  std::size_t written = 0;
  for (auto& p : batch) {
    const std::string path =
        (fsn::path(config_.fallback_dir) / p.name).string();
    if (write_file_durable(path, p.frame, &errors)) ++written;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.fallback_frames += written;
  fallback_errors_.merge(errors);
}

// ---- shared durable-file helper -----------------------------------------

bool write_file_durable(const std::string& path,
                        std::span<const std::uint8_t> bytes,
                        JournalErrorTaxonomy* errors) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    book(errors, JournalStage::kOpen, errno);
    return false;
  }
  if (!full_write(fd, bytes, JournalStage::kWrite, errors)) {
    ::close(fd);
    std::error_code ignore;
    fs::remove(tmp, ignore);
    return false;
  }
  if (!fsync_fd(fd, errors)) {
    ::close(fd);
    std::error_code ignore;
    fs::remove(tmp, ignore);
    return false;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    book(errors, JournalStage::kWrite, errno);
    std::error_code ignore;
    fs::remove(tmp, ignore);
    return false;
  }
  fsync_dir(fs::path(path).parent_path());
  return true;
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return false;
  }
  // One byte past the stat size, so a file that grew since the fstat is
  // noticed (and read to its end) instead of silently truncated.
  out.resize(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t got = 0;
  for (;;) {
    if (got == out.size()) out.resize(out.size() * 2);
    const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return true;
}

}  // namespace tls::study
