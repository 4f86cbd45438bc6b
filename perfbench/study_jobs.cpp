#include "study_jobs.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>

#include "common.hpp"
#include "core/study.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kExpectedCsvFiles = 11;

std::size_t count_fields(const std::string& line) {
  // Figures hold numbers and month labels only, so no field is quoted.
  return static_cast<std::size_t>(std::count(line.begin(), line.end(), ',')) +
         1;
}

/// Validates one exported CSV and folds its bytes into `digest`.
void check_csv(const std::string& path, std::uint64_t& digest) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.empty()) throw GateFailure{"empty CSV " + path};
  std::size_t rows = 0;
  std::size_t width = 0;
  std::size_t start = 0;
  while (start < bytes.size()) {
    auto end = bytes.find('\n', start);
    if (end == std::string::npos) end = bytes.size();
    const std::string line = bytes.substr(start, end - start);
    if (rows == 0) {
      if (line.rfind("month,", 0) != 0) {
        throw GateFailure{"CSV without a month header: " + path};
      }
      width = count_fields(line);
    } else if (count_fields(line) != width) {
      throw GateFailure{"ragged CSV row in " + path};
    }
    ++rows;
    start = end + 1;
  }
  if (rows < 2) throw GateFailure{"CSV without data rows: " + path};
  digest = fnv1a64({reinterpret_cast<const std::uint8_t*>(bytes.data()),
                    bytes.size()},
                   digest);
}

/// Commits the previous repetition's deletions before the clock starts, so
/// the job's first fsync does not pay for them.
void settle_filesystem(const std::string& dir) {
  const auto parent = std::filesystem::absolute(dir).parent_path();
  std::filesystem::create_directories(parent);
  const int fd = ::open(parent.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

tls::study::StudyOptions study_options(const StudyJob& job) {
  tls::study::StudyOptions opts;
  opts.seed = job.seed;
  opts.connections_per_month = job.connections_per_month;
  opts.threads = job.total_threads > 0 ? job.total_threads - 1 : 0;
  opts.checkpoint_dir = job.checkpoint_dir;
  opts.resume = job.resume;
  opts.telemetry = job.telemetry;
  return opts;
}

}  // namespace

double time_study_setup(const StudyJob& job) {
  const auto opts = study_options(job);
  const std::uint64_t t0 = now_ns();
  const tls::study::LongitudinalStudy study(opts);
  return seconds_since(t0);
}

StudyResult run_study_job(const StudyJob& job) {
  const auto opts = study_options(job);
  if (!job.resume) std::filesystem::remove_all(job.checkpoint_dir);
  std::filesystem::remove_all(job.csv_dir);
  settle_filesystem(job.checkpoint_dir);

  StudyResult result;
  const std::uint64_t t0 = now_ns();
  std::optional<Span> setup_span;
  setup_span.emplace(job.spans, "study.setup");
  tls::study::LongitudinalStudy study(opts);
  setup_span.reset();
  const std::uint64_t t1 = now_ns();
  std::vector<std::string> written;
  {
    Span span(job.spans, job.resume ? "study.resume_export" : "study.export");
    written = study.export_figures(job.csv_dir);
  }
  const std::uint64_t t2 = now_ns();
  result.setup_s = static_cast<double>(t1 - t0) / 1e9;
  result.wall_s = static_cast<double>(t2 - t1) / 1e9;

  if (written.size() != kExpectedCsvFiles) {
    throw GateFailure{"export wrote " + std::to_string(written.size()) +
                      " CSVs, expected 11"};
  }
  std::uint64_t digest = 0xcbf29ce484222325ull;
  for (const auto& path : written) check_csv(path, digest);
  result.csv_digest = hex64(digest);

  result.recovery = study.recovery();
  const auto& rec = result.recovery;
  // One task per (month, shard) of the passive plan and per (month,
  // segment) probe of the scan sweep.
  const auto& opts_used = study.options();
  result.tasks =
      static_cast<std::uint64_t>(opts_used.window.size()) *
          opts_used.shards_per_month +
      static_cast<std::uint64_t>(tls::core::censys_window().size()) *
          study.servers().segments().size();
  result.failed = rec.stuck_reruns + rec.frames_torn + rec.frames_corrupt +
                  rec.frames_mismatched + rec.frames_duplicate;
  result.connections = study.monitor().total_connections();
  if (job.telemetry) {
    result.metrics = study.metrics();
    result.trace = study.trace();
  }
  return result;
}

}  // namespace perfbench
