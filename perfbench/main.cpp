// perfbench — the repository benchmark's measuring binary. run.py builds it
// and calls one subcommand per repetition; each prints a single JSON object
// as its last stdout line.
//
//   perfbench study  --seed N --cpm C --threads T[,T...] --ckpt DIR --csv DIR
//                    [--resume] [--extra-setups N]
//       One LongitudinalStudy export job per listed total thread count:
//       set-up, run() + export_figures(), CSV checks and digest; then N
//       more set-up samples.
//   perfbench daemon --seed N --ladder SPEC [--extra-setups N] [--cycles N]
//                    [--warmup-cycles N] [--memory-runs N]
//       Ladders "shards/name:rate:seconds:windows,...", separated by ';',
//       each run on a fresh in-process NotaryDaemon; the sequence repeats
//       --warmup-cycles + --cycles times; every run is checked, and the
//       rung statistics of the last --cycles runs are pooled. Memory runs
//       then repeat the first ladder against a `serve` child process.
//   perfbench serve  --shards N
//       A daemon in its own process, for the memory runs (see
//       daemon_job.hpp).
//   perfbench trace  --seed N --cpm C --threads T --ckpt DIR --csv DIR
//                    --ladder SPEC --out FILE
//       Per-layer attribution: every layer's metric, spans written to FILE
//       as Chrome trace JSON.
//
// Any failed output check prints "perfbench: gate failed: ..." on stderr and
// exits 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "daemon_job.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "study_jobs.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string command;
  std::map<std::string, std::string> values;
  bool flag(const std::string& name) const { return values.count(name) != 0; }
  std::string get(const std::string& name) const {
    const auto it = values.find(name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: missing --%s\n", name.c_str());
      std::exit(2);
    }
    return it->second;
  }
  std::uint64_t u64(const std::string& name) const {
    const std::string text = get(name);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0') {
      std::fprintf(stderr, "perfbench: bad --%s %s\n", name.c_str(), text.c_str());
      std::exit(2);
    }
    return v;
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench study|daemon|serve|trace [--key value]...\n");
    std::exit(2);
  }
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "perfbench: unexpected argument %s\n", argv[i]);
      std::exit(2);
    }
    const std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.values[key] = argv[++i];
    } else {
      args.values[key] = "";
    }
  }
  return args;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

/// "shards/name:rate:seconds:windows,...;shards/..." — rungs named
/// "warmup" only warm the daemon up.
std::vector<Ladder> parse_ladders(const std::string& spec) {
  std::vector<Ladder> ladders;
  const auto bad = [](const std::string& what) {
    std::fprintf(stderr, "perfbench: bad ladder %s\n", what.c_str());
    std::exit(2);
  };
  for (const auto& text : split(spec, ';')) {
    const auto slash = text.find('/');
    if (slash == std::string::npos) bad(text);
    Ladder ladder;
    ladder.shards = std::strtoull(text.substr(0, slash).c_str(), nullptr, 10);
    if (ladder.shards == 0) bad(text);
    for (const auto& item : split(text.substr(slash + 1), ',')) {
      const auto f = split(item, ':');
      if (f.size() != 4) bad(item);
      Rung r;
      r.name = f[0];
      r.rate = std::strtod(f[1].c_str(), nullptr);
      r.seconds = std::strtod(f[2].c_str(), nullptr);
      r.windows = std::strtoull(f[3].c_str(), nullptr, 10);
      r.warmup = r.name == "warmup";
      if (r.rate <= 0 || r.seconds <= 0) bad(item);
      ladder.rungs.push_back(r);
    }
    ladders.push_back(ladder);
  }
  return ladders;
}

int cmd_study(const Args& args) {
  StudyJob job;
  job.seed = args.u64("seed");
  job.connections_per_month = args.u64("cpm");
  job.checkpoint_dir = args.get("ckpt");
  job.csv_dir = args.get("csv");
  job.resume = args.flag("resume");
  Json json;
  json.begin_object();
  json.key("jobs").begin_array();
  for (const auto& t : split(args.get("threads"), ',')) {
    job.total_threads = static_cast<unsigned>(std::strtoul(t.c_str(), nullptr, 10));
    const auto r = run_study_job(job);
    json.begin_object();
    json.field("threads_total", job.total_threads);
    json.field("resume", job.resume);
    json.field("setup_s", r.setup_s);
    json.field("wall_s", r.wall_s);
    json.field("csv_digest", r.csv_digest);
    json.field("tasks", r.tasks);
    json.field("failed", r.failed);
    json.field("connections", r.connections);
    json.field("frames_replayed", r.recovery.frames_replayed);
    json.field("tasks_recomputed", r.recovery.tasks_recomputed);
    // The process's peak so far: for the first job, that job's own peak.
    json.field("peak_rss_mb", peak_rss_mb());
    json.end_object();
  }
  json.end_array();
  std::vector<double> setups;
  const std::uint64_t extra = args.flag("extra-setups") ? args.u64("extra-setups") : 0;
  for (std::uint64_t i = 0; i < extra; ++i) setups.push_back(time_study_setup(job));
  json.array("extra_setup_s", setups);
  write_host(json, job.checkpoint_dir);
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

void write_ladder(Json& json, const LadderResult& l) {
  json.begin_object();
  json.field("shards", l.shards);
  json.array("setup_s", l.setup_s);
  json.field("sent", l.sent);
  json.field("offered", l.offered);
  json.field("ingested", l.ingested);
  json.field("shed", l.shed);
  json.field("malformed", l.malformed);
  json.field("distinct_client_randoms", l.distinct_client_randoms);
  json.field("runs", l.runs);
  json.field("digests_matched", l.digests_matched);
  json.field("cache_client_hits", l.cache_client_hits);
  json.field("cache_client_lookups", l.cache_client_lookups);
  json.field("cache_server_hits", l.cache_server_hits);
  json.field("cache_server_lookups", l.cache_server_lookups);
  json.key("rungs").begin_array();
  for (const auto& r : l.rungs) {
    json.begin_object();
    json.field("name", r.name);
    json.field("rate", r.rate);
    json.field("warmup", r.warmup);
    json.field("scheduled", r.scheduled);
    json.field("sent", r.sent);
    json.field("refused", r.refused);
    json.field("latency_samples", r.latency_samples);
    json.field("p50_us", r.p50_us);
    json.field("p99_us", r.p99_us);
    json.field("pooled_p99_us", r.pooled_p99_us);
    json.field("ingest_cps", r.ingest_cps);
    json.field("lag_p50_us", r.lag_p50_us);
    json.field("lag_p99_us", r.lag_p99_us);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void write_daemon(Json& json, const DaemonJob& job, const DaemonResult& result) {
  json.field("cycles", job.cycles);
  json.field("warmup_cycles", job.warmup_cycles);
  json.array("setup_s", result.setup_s);
  json.array("daemon_peak_rss_mb", result.daemon_peak_rss_mb);
  json.key("ladders").begin_array();
  for (const auto& l : result.ladders) write_ladder(json, l);
  json.end_array();
}

int cmd_daemon(const Args& args) {
  DaemonJob job;
  job.seed = args.u64("seed");
  job.ladders = parse_ladders(args.get("ladder"));
  job.extra_setups = args.flag("extra-setups") ? args.u64("extra-setups") : 0;
  job.cycles = args.flag("cycles") ? args.u64("cycles") : 1;
  job.warmup_cycles = args.flag("warmup-cycles") ? args.u64("warmup-cycles") : 0;
  job.memory_runs = args.flag("memory-runs") ? args.u64("memory-runs") : 0;
  const auto result = run_daemon_job(job);
  Json json;
  json.begin_object();
  write_daemon(json, job, result);
  write_host(json, ".");
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

int cmd_trace(const Args& args) {
  SpanLog spans;
  LayerMetrics layers;
  const std::uint64_t seed = args.u64("seed");
  setup_layers(3, layers, &spans);
  micro_layers(seed, layers, &spans);

  // The study job, telemetry off and on, alternating; the last telemetry-on
  // export feeds the study and journal attribution.
  StudyJob job;
  job.seed = seed;
  job.connections_per_month = args.u64("cpm");
  job.total_threads = static_cast<unsigned>(args.u64("threads"));
  job.checkpoint_dir = args.get("ckpt");
  job.csv_dir = args.get("csv");
  std::vector<double> off_s, on_s;
  StudyResult traced;
  // Untimed warm-up: the first journal fsyncs after an idle spell are slow.
  std::string digest = run_study_job(job).csv_digest;
  for (int i = 0; i < 3; ++i) {
    job.telemetry = false;
    job.spans = nullptr;
    auto plain = run_study_job(job);
    off_s.push_back(plain.wall_s);
    job.telemetry = true;
    job.spans = &spans;
    traced = run_study_job(job);
    on_s.push_back(traced.wall_s);
    if (plain.csv_digest != digest || traced.csv_digest != digest) {
      throw GateFailure{"telemetry changed the exported CSVs"};
    }
  }
  study_layers(traced, job.total_threads, layers);
  layers.emplace_back("telemetry.trace_overhead_pct",
                      (median(on_s) - median(off_s)) / median(off_s) * 100.0);
  journal_layers(job.checkpoint_dir, seed, job.connections_per_month, layers,
                 &spans);
  job.resume = true;
  const auto resumed = run_study_job(job);
  if (resumed.csv_digest != digest || resumed.recovery.tasks_recomputed != 0) {
    throw GateFailure{"resumed export differs from the fresh export"};
  }

  DaemonJob djob;
  djob.seed = seed;
  djob.ladders = parse_ladders(args.get("ladder"));
  djob.traced = true;
  djob.spans = &spans;
  if (djob.ladders.size() != 2) {
    std::fprintf(stderr, "perfbench: trace wants a steady and an overload ladder\n");
    return 2;
  }
  const auto daemon = run_daemon_job(djob);
  daemon_layers(daemon.ladders[0], daemon.ladders[1], layers);

  std::ofstream(args.get("out")) << spans.chrome_json();
  std::fprintf(stderr, "%-40s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, t] : spans.totals()) {
    std::fprintf(stderr, "%-40s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count),
                 static_cast<double>(t.total_ns) / 1e6,
                 static_cast<double>(t.self_ns) / 1e6);
  }

  Json json;
  json.begin_object();
  json.key("layers").begin_object();
  for (const auto& [name, value] : layers) json.field(name, value);
  json.end_object();
  json.key("daemon").begin_object();
  write_daemon(json, djob, daemon);
  json.end_object();
  json.field("threads_total", job.total_threads);
  write_host(json, job.checkpoint_dir);
  json.end_object();
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "study") return cmd_study(args);
    if (args.command == "daemon") return cmd_daemon(args);
    if (args.command == "serve") return serve_daemon(args.u64("shards"));
    if (args.command == "trace") return cmd_trace(args);
  } catch (const GateFailure& failure) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", failure.what.c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown command %s\n", args.command.c_str());
  return 2;
}
