// `rats` — the command-line driver for the scenario engine.
//
//   rats run <scenario.rats> [--trace out.jsonl] [--threads N]
//                            [--csv] [--full] [--check N] [--timeout SECS]
//                            [--metrics m.json] [--profile spans.json]
//                            [--progress]
//   rats verify <trace.jsonl> [--threads N]
//   rats emit (<scenario.rats> | --kind <kind>)
//   rats kinds
//   rats fuzz [--quick] [--count N] [--seed S] [--timeout SECS]
//             [--regress-dir DIR] [--index I] [--emit] [--no-minimize]
//   rats serve --socket PATH [--workers N] [--queue N] [...]
//   rats submit <scenario.rats> --socket PATH [--out FILE] [...]
//
// `run` executes a declarative scenario file (grammar in
// src/scenario/parser.hpp; cookbook in README.md).  `--trace` writes a
// structured JSON-lines simulation trace that `verify` re-simulates
// and byte-diffs — a whole-stack determinism check.  `emit` prints the
// canonical form of a scenario file (or of a registry kind's default
// spec, which is how the checked-in scenarios/*.rats were generated).
// The paper's figures and tables are `rats run scenarios/<kind>.rats`;
// one workflow on one platform is a `kind = "single"` spec (a
// `source = "generate"` or `"file"` workload and a custom [platform]),
// which prints the per-task timeline.
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "fuzz/driver.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "trace/replay.hpp"

using namespace rats;

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: rats <command> [options]\n"
      "  run <scenario.rats>     execute a scenario file (one simulation\n"
      "                          pass feeds report, trace and artefacts)\n"
      "      --trace FILE        stream a JSON-lines simulation trace\n"
      "      --report-csv FILE   write the CSV report rendering\n"
      "      --report-json FILE  write the JSON report rendering\n"
      "      --threads N         worker threads (0 = hardware)\n"
      "      --csv               also emit CSV after each table\n"
      "      --full              paper-scale corpus\n"
      "      --check N           run the scenario N times and fail if\n"
      "                          any output byte differs\n"
      "      --timeout SECS      abort (exit 124) past this wall clock\n"
      "      --metrics FILE      write a machine-readable metrics snapshot\n"
      "                          (and embed counters in report artefacts)\n"
      "      --profile FILE      write pipeline phase spans as Chrome\n"
      "                          trace-event JSON (chrome://tracing)\n"
      "      --progress          live stderr heartbeat (runs, rate, ETA)\n"
      "  verify <trace.jsonl>    re-simulate a trace and byte-diff it\n"
      "      --threads N         worker threads for the replay\n"
      "  emit <scenario.rats>    print the canonical form of a scenario\n"
      "  emit --kind <kind>      print a registry kind's default scenario\n"
      "  kinds                   list registered scenario kinds\n"
      "  fuzz                    randomized validation campaign: generate\n"
      "                          seeded specs, run the invariant oracle\n"
      "                          battery on each in an isolated child,\n"
      "                          minimize failures into scenarios/regress/\n"
      "      --quick             100-spec CI tier (default 250)\n"
      "      --count N           specs to run\n"
      "      --seed S            campaign seed (default 1)\n"
      "      --timeout SECS      per-spec watchdog (default 30)\n"
      "      --regress-dir DIR   where failing repros are written\n"
      "      --index I           run only spec I of the campaign\n"
      "      --emit              print the generated specs, run nothing\n"
      "      --no-minimize       write repros without delta-debugging\n"
      "      --progress          live stderr heartbeat (specs, rate, ETA)\n"
      "      --metrics FILE      write a campaign metrics snapshot\n"
      "  serve                   scenario service: pre-forked workers run\n"
      "                          submitted specs in shards; merged reports\n"
      "                          are byte-identical to `rats run`\n"
      "      --socket PATH       unix socket to listen on (required)\n"
      "      --workers N         worker processes (default 2)\n"
      "      --queue N           max unfinished jobs before submits are\n"
      "                          rejected with a retry hint (default 8)\n"
      "      --shard-timeout S   kill + retry a shard past this (default 300)\n"
      "      --retry-after MS    backpressure hint to clients (default 250)\n"
      "      --shards N          shards per job (default: worker count)\n"
      "      --metrics FILE      write an obs snapshot at shutdown\n"
      "      --progress          stderr line per submit/shard completion\n"
      "  submit <scenario.rats>  submit a spec to a running daemon, wait,\n"
      "                          print (or --out) the report JSON\n"
      "      --socket PATH       daemon socket (required)\n"
      "      --out FILE          write the report JSON here\n"
      "      --timeout SECS      overall wait budget (default 600)\n"
      "      --progress          stderr status while waiting\n"
      "      --crash-test        fault hook: first shard kills its worker\n"
      "  submit --stats          print the daemon's stats JSON\n"
      "  submit --shutdown       stop the daemon\n");
  std::exit(code);
}

unsigned parse_threads(const char* text) {
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || !scenario::valid_threads(v)) usage(2);
  return static_cast<unsigned>(v);
}

/// Wall-clock watchdog for `rats run --timeout`: a detached thread
/// that force-exits the process (status 124, timeout(1) convention)
/// unless disarmed before the deadline.  A detached thread rather than
/// a joined one so a hung simulation cannot block the exit path.
class Watchdog {
 public:
  explicit Watchdog(double seconds) {
    if (seconds <= 0) return;
    std::thread([seconds] {
      std::unique_lock<std::mutex> lock(mutex_);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::duration<double>(seconds);
      if (cv_.wait_until(lock, deadline, [] { return disarmed_; })) return;
      std::fprintf(stderr, "rats run: timed out after %gs\n", seconds);
      std::_Exit(124);
    }).detach();
  }
  ~Watchdog() {
    std::lock_guard<std::mutex> lock(mutex_);
    disarmed_ = true;
    cv_.notify_all();
  }

 private:
  // Static: the detached thread may outlive the Watchdog object.
  static std::mutex mutex_;
  static std::condition_variable cv_;
  static bool disarmed_;
};

std::mutex Watchdog::mutex_;
std::condition_variable Watchdog::cv_;
bool Watchdog::disarmed_ = false;

int cmd_run(int argc, char** argv) {
  std::string file;
  scenario::RunOptions options;
  double timeout = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (a == "--trace") options.trace_path = next();
    else if (a == "--report-csv") options.report_csv_path = next();
    else if (a == "--report-json") options.report_json_path = next();
    else if (a == "--metrics") options.metrics_path = next();
    else if (a == "--profile") options.profile_path = next();
    else if (a == "--progress") options.progress = true;
    else if (a == "--threads") {
      options.has_threads = true;
      options.threads = parse_threads(next());
    } else if (a == "--csv") options.csv = true;
    else if (a == "--full") options.full = true;
    else if (a == "--check") {
      char* end = nullptr;
      const long v = std::strtol(next(), &end, 10);
      if (end == nullptr || *end != '\0' || v < 1) usage(2);
      options.check = static_cast<int>(v);
    } else if (a == "--timeout") {
      char* end = nullptr;
      timeout = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || timeout <= 0) usage(2);
    } else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (file.empty()) {
    std::fprintf(stderr, "rats run: missing scenario file\n");
    usage(2);
  }
  const Watchdog watchdog(timeout);
  // Turn observability on before the spec parse so the "parse" span
  // and its counters are captured; scenario::run would only flip the
  // switches after parsing.
  if (!options.metrics_path.empty()) obs::set_metrics_enabled(true);
  if (!options.profile_path.empty()) obs::set_profiling_enabled(true);
  scenario::run(scenario::load_scenario(file), options);
  return 0;
}

int cmd_verify(int argc, char** argv) {
  std::string file;
  unsigned threads = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads") {
      if (i + 1 >= argc) usage(2);
      threads = parse_threads(argv[++i]);
    } else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (file.empty()) {
    std::fprintf(stderr, "rats verify: missing trace file\n");
    usage(2);
  }
  const ReplayReport report = verify_trace(file, threads);
  if (!report.ok) {
    std::fprintf(stderr, "FAIL %s\n", report.error.c_str());
    return 1;
  }
  std::printf("OK %s: %zu runs, %zu events replayed bit-identically\n",
              file.c_str(), report.runs, report.events);
  return 0;
}

int cmd_emit(int argc, char** argv) {
  std::string file, kind;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--kind") {
      if (i + 1 >= argc) usage(2);
      kind = argv[++i];
    } else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (file.empty() == kind.empty()) {
    std::fprintf(stderr, "rats emit: need a scenario file or --kind\n");
    usage(2);
  }
  const scenario::ScenarioSpec spec = kind.empty()
                                          ? scenario::load_scenario(file)
                                          : scenario::default_spec(kind);
  std::printf("%s", scenario::emit_scenario(spec).c_str());
  return 0;
}

int cmd_kinds() {
  for (const std::string& kind : scenario::kinds()) {
    const char* traced =
        scenario::kind_supports_trace(kind) ? "  (traceable)" : "";
    std::printf("%s%s\n", kind.c_str(), traced);
  }
  return 0;
}

int cmd_fuzz(int argc, char** argv) {
  fuzz::FuzzOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto next_long = [&](long min) {
      char* end = nullptr;
      const long v = std::strtol(next(), &end, 10);
      if (end == nullptr || *end != '\0' || v < min) usage(2);
      return v;
    };
    if (a == "--quick") options.count = 100;
    else if (a == "--count") options.count = static_cast<int>(next_long(1));
    else if (a == "--seed")
      options.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--timeout") {
      char* end = nullptr;
      options.timeout_secs = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || options.timeout_secs < 0)
        usage(2);
    } else if (a == "--regress-dir") options.regress_dir = next();
    else if (a == "--index") options.index = static_cast<int>(next_long(0));
    else if (a == "--emit") options.emit_only = true;
    else if (a == "--no-minimize") options.minimize = false;
    else if (a == "--progress") options.progress = true;
    else if (a == "--metrics") options.metrics_path = next();
    else if (a == "--help" || a == "-h") usage(0);
    else usage(2);
  }
  const fuzz::FuzzResult result = fuzz::run_fuzz(options, std::cout);
  return result.failed == 0 ? 0 : 1;
}

int cmd_serve(int argc, char** argv) {
  serve::DaemonOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto next_long = [&](long min) {
      char* end = nullptr;
      const long v = std::strtol(next(), &end, 10);
      if (end == nullptr || *end != '\0' || v < min) usage(2);
      return v;
    };
    if (a == "--socket") options.socket_path = next();
    else if (a == "--workers")
      options.workers = static_cast<int>(next_long(1));
    else if (a == "--queue")
      options.queue_capacity = static_cast<std::size_t>(next_long(1));
    else if (a == "--shard-timeout") {
      char* end = nullptr;
      options.shard_timeout = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || options.shard_timeout <= 0)
        usage(2);
    } else if (a == "--retry-after")
      options.retry_after_ms = static_cast<int>(next_long(1));
    else if (a == "--shards")
      options.shards_per_job = static_cast<std::size_t>(next_long(1));
    else if (a == "--metrics") options.metrics_path = next();
    else if (a == "--progress") options.progress = true;
    else if (a == "--help" || a == "-h") usage(0);
    else usage(2);
  }
  if (options.socket_path.empty()) {
    std::fprintf(stderr, "rats serve: --socket is required\n");
    usage(2);
  }
  return serve::run_daemon(options);
}

int cmd_submit(int argc, char** argv) {
  std::string file, socket_path, out_path;
  serve::SubmitOptions options;
  bool stats = false, shutdown = false;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    if (a == "--socket") socket_path = next();
    else if (a == "--out") out_path = next();
    else if (a == "--timeout") {
      char* end = nullptr;
      options.timeout = std::strtod(next(), &end);
      if (end == nullptr || *end != '\0' || options.timeout <= 0) usage(2);
    } else if (a == "--progress") options.progress = true;
    else if (a == "--crash-test") options.crash_test = true;
    else if (a == "--stats") stats = true;
    else if (a == "--shutdown") shutdown = true;
    else if (a == "--help" || a == "-h") usage(0);
    else if (!a.empty() && a[0] == '-') usage(2);
    else if (file.empty()) file = a;
    else usage(2);
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "rats submit: --socket is required\n");
    usage(2);
  }
  if (stats) {
    std::printf("%s\n",
                serve::request(socket_path, "{\"cmd\":\"stats\"}").c_str());
    return 0;
  }
  if (shutdown) {
    std::printf("%s\n",
                serve::request(socket_path, "{\"cmd\":\"shutdown\"}").c_str());
    return 0;
  }
  if (file.empty()) {
    std::fprintf(stderr, "rats submit: missing scenario file\n");
    usage(2);
  }
  std::ifstream in(file, std::ios::binary);
  if (!in) throw Error("cannot read scenario '" + file + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const std::string report =
      serve::submit_and_wait(socket_path, text.str(), options);
  if (out_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) throw Error("cannot write report '" + out_path + "'");
    out << report;
    out.close();
    if (!out.good()) throw Error("failed writing report '" + out_path + "'");
    std::fprintf(stderr, "wrote report %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) usage(2);
  const std::string command = argv[1];
  if (command == "run") return cmd_run(argc - 2, argv + 2);
  if (command == "verify") return cmd_verify(argc - 2, argv + 2);
  if (command == "emit") return cmd_emit(argc - 2, argv + 2);
  if (command == "kinds") return cmd_kinds();
  if (command == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
  if (command == "serve") return cmd_serve(argc - 2, argv + 2);
  if (command == "submit") return cmd_submit(argc - 2, argv + 2);
  if (command == "--help" || command == "-h") usage(0);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  usage(2);
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
