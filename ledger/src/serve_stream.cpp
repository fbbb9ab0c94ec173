#include "serve_stream.hpp"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <memory>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "scenario/parser.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"

namespace ledger {

namespace {

/// One persistent client connection; each request is one line out and
/// one line back.
class Connection {
 public:
  explicit Connection(const std::string& socket_path)
      : fd_(::socket(AF_UNIX, SOCK_STREAM, 0)), reader_(fd_) {
    RATS_REQUIRE(fd_ >= 0, "cannot create a socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof addr.sun_path - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw rats::Error("cannot connect to '" + socket_path + "'");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  rats::json::Value request(const std::string& line) {
    std::string reply;
    RATS_REQUIRE(rats::serve::write_line(fd_, line) && reader_.read_line(reply),
                 "daemon hung up mid-request");
    return rats::json::parse(reply);
  }

 private:
  int fd_;
  rats::serve::LineReader reader_;
};

/// A forked `rats serve` daemon and the client connection to it.
struct Daemon {
  pid_t pid = -1;
  std::unique_ptr<Connection> conn;
};

Daemon start_daemon(const ServeConfig& config) {
  std::fflush(nullptr);
  Daemon d;
  d.pid = ::fork();
  RATS_REQUIRE(d.pid >= 0, "fork failed");
  if (d.pid == 0) {
    rats::serve::DaemonOptions options;
    options.socket_path = config.socket_path;
    options.workers = config.workers;
    _exit(rats::serve::run_daemon(options));
  }
  // Ready once a ping answers: the workers are forked before the
  // daemon's poll loop starts.
  const double give_up = now_s() + 30;
  while (true) {
    try {
      d.conn = std::make_unique<Connection>(config.socket_path);
      if (d.conn->request("{\"cmd\":\"ping\"}").get_int("ok") == 1) return d;
    } catch (const rats::Error&) {
      d.conn.reset();
    }
    if (::waitpid(d.pid, nullptr, WNOHANG) == d.pid)
      throw rats::Error("serve daemon exited during start-up");
    if (now_s() > give_up) {
      ::kill(d.pid, SIGKILL);
      wait_child(d.pid);
      throw rats::Error("serve daemon did not answer within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

/// Shuts the daemon down and reaps it; its usage includes its workers'.
Usage stop_daemon(Daemon& d) {
  try {
    d.conn->request("{\"cmd\":\"shutdown\"}");
  } catch (const rats::Error&) {
    ::kill(d.pid, SIGKILL);
  }
  d.conn.reset();
  return wait_child(d.pid);
}

std::string submit_line(const std::string& spec) {
  return "{\"cmd\":\"submit\"," + rats::serve::field("spec", spec) + "}";
}

/// Runs jobs 0 .. warm_up-1 once, one at a time, so the workers'
/// first-job costs (page faults, allocator growth) stay out of the
/// window, as they would for a long-lived daemon.  Returns their runs.
double warm_up(Connection& conn, const ServeConfig& config) {
  double runs = 0;
  for (std::size_t i = 0; i < config.warm_up && i < config.jobs.size(); ++i) {
    const ServeJob& job = config.jobs[i];
    const rats::json::Value reply = conn.request(submit_line(job.spec));
    RATS_REQUIRE(reply.get_int("ok") == 1,
                 "warm-up submit refused: " + reply.get_string("error"));
    const std::string job_field =
        rats::serve::field("job", reply.get_string("job"));
    while (true) {
      const std::string st =
          conn.request("{\"cmd\":\"status\"," + job_field + "}")
              .get_string("state");
      RATS_REQUIRE(st == "queued" || st == "running" || st == "done",
                   "warm-up job " + st);
      if (st == "done") break;
      std::this_thread::sleep_for(std::chrono::duration<double>(config.poll_s));
    }
    const rats::json::Value result =
        conn.request("{\"cmd\":\"result\"," + job_field + "}");
    RATS_REQUIRE(digest(result.get_string("report")) == job.ref.digest,
                 "warm-up job " + std::to_string(i) +
                     " differs from the direct run");
    runs += job.ref.runs;
  }
  return runs;
}

struct Pending {
  Pending(std::size_t i, double due_at) : index(i), due(due_at), ready(due_at) {}
  std::size_t index;  ///< into config.jobs
  double due;         ///< absolute
  double ready;       ///< earliest next submit (retry_after_ms back-off)
  bool submitted_once = false;
  std::string id;
  double accepted = 0, running = 0, next_poll = 0;
};

/// The client loop, on one connection.  Open loop (`in_flight` == 0):
/// jobs fall due at their scheduled times regardless of progress.
/// Closed loop: the next job falls due whenever fewer than `in_flight`
/// are unfinished, until `seconds` have passed.
void drive(Connection& conn, const ServeConfig& config, int in_flight,
           ServeResult& out) {
  const double t0 = now_s();
  const double window_end = t0 + config.seconds;
  const double deadline = window_end + 60;
  std::size_t next = 0;  // next job of config.jobs to fall due
  std::vector<Pending> waiting, running;
  double last_done = t0;

  const auto fail = [&](const std::string& why) {
    ++out.failed;
    if (out.errors.size() < 5) out.errors.push_back(why);
  };

  while (true) {
    const double now = now_s();
    if (in_flight == 0) {
      while (next < config.jobs.size() && t0 + config.jobs[next].due <= now) {
        waiting.emplace_back(next, t0 + config.jobs[next].due);
        ++next;
      }
    } else {
      while (now < window_end && next < config.jobs.size() &&
             waiting.size() + running.size() <
                 static_cast<std::size_t>(in_flight)) {
        waiting.emplace_back(next, now);
        ++next;
      }
    }
    const bool more = next < config.jobs.size() &&
                      (in_flight == 0 || now < window_end);
    if (!more && waiting.empty() && running.empty()) break;
    if (now > deadline) {
      for (std::size_t i = 0; i < waiting.size() + running.size(); ++i)
        fail("job not finished before the drain deadline");
      break;
    }

    for (auto it = waiting.begin(); it != waiting.end();) {
      Pending& p = *it;
      if (p.ready > now_s()) {
        ++it;
        continue;
      }
      const double sent = now_s();
      if (!p.submitted_once) {
        out.lag_max_ms = std::max(out.lag_max_ms, (sent - p.due) * 1e3);
        p.submitted_once = true;
      }
      const rats::json::Value reply =
          conn.request(submit_line(config.jobs[p.index].spec));
      const double got = now_s();
      out.submit_ms.push_back((got - sent) * 1e3);
      if (reply.get_int("ok") == 1) {
        p.id = reply.get_string("job");
        p.accepted = got;
        p.next_poll = got + config.poll_s;
        running.push_back(p);
        it = waiting.erase(it);
      } else if (reply.get_int("retry_after_ms") > 0) {
        p.ready =
            got + static_cast<double>(reply.get_int("retry_after_ms")) * 1e-3;
        ++it;
      } else {
        fail("refused: " + reply.get_string("error"));
        it = waiting.erase(it);
      }
    }

    for (auto it = running.begin(); it != running.end();) {
      Pending& p = *it;
      if (p.next_poll > now_s()) {
        ++it;
        continue;
      }
      const std::string job_field = rats::serve::field("job", p.id);
      const rats::json::Value status =
          conn.request("{\"cmd\":\"status\"," + job_field + "}");
      const double seen = now_s();
      const std::string st = status.get_string("state");
      if (status.get_int("ok") != 1 || st == "failed") {
        fail(p.id + " failed: " + status.get_string("error"));
        it = running.erase(it);
        continue;
      }
      if (p.running == 0 && st != "queued") p.running = seen;
      if (st != "done") {
        p.next_poll = seen + config.poll_s;
        ++it;
        continue;
      }
      const double sent = now_s();
      const rats::json::Value result =
          conn.request("{\"cmd\":\"result\"," + job_field + "}");
      const double got = now_s();
      const Reference& ref = config.jobs[p.index].ref;
      if (result.get_int("ok") != 1) {
        fail(p.id + " result: " + result.get_string("error"));
      } else if (digest(result.get_string("report")) != ref.digest) {
        fail("job " + std::to_string(p.index) +
             ": merged report differs from the direct run");
      } else {
        out.fetch_ms.push_back((got - sent) * 1e3);
        out.latency_ms.push_back((got - p.due) * 1e3);
        out.queue_wait_ms.push_back((p.running - p.accepted) * 1e3);
        out.run_ms.push_back((seen - p.running) * 1e3);
        out.runs_done += ref.runs;
        last_done = got;
      }
      it = running.erase(it);
    }

    double wake = std::min(deadline, window_end);
    if (in_flight == 0 && next < config.jobs.size())
      wake = std::min(wake, t0 + config.jobs[next].due);
    for (const Pending& p : waiting) wake = std::min(wake, p.ready);
    for (const Pending& p : running) wake = std::min(wake, p.next_poll);
    const double before_sleep = now_s();
    if (wake > before_sleep)
      std::this_thread::sleep_for(
          std::chrono::duration<double>(wake - before_sleep));
  }
  out.jobs = static_cast<int>(next);
  out.window_s = last_done - t0;
}

void daemon_stats(Connection& conn, ServeResult& out) {
  const rats::json::Value s = conn.request("{\"cmd\":\"stats\"}");
  out.shards_dispatched = static_cast<double>(s.get_int("shards_dispatched"));
  out.shards_retried = static_cast<double>(s.get_int("shards_retried"));
  out.jobs_rejected = static_cast<double>(s.get_int("jobs_rejected"));
  out.worker_restarts = static_cast<double>(s.get_int("worker_restarts"));
}

}  // namespace

ServeResult run_serve_stream(const ServeConfig& config) {
  ServeResult out;
  Daemon daemon;
  double client_cpu0 = 0;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    const double t0 = now_s();
    for (const ServeJob& job : config.jobs)
      (void)rats::scenario::parse_scenario_string(job.spec, "<ledger>");
    const double t1 = now_s();
    daemon = start_daemon(config);
    // CPU is charged over warm-up and window alike (the daemon's usage
    // is only known once it is reaped), and so are the runs.
    client_cpu0 = self_usage().cpu_s;
    out.runs_warm_up = warm_up(*daemon.conn, config);
    out.setup_s.push_back(now_s() - t0);
    out.parse_s.push_back(t1 - t0);
    if (rep + 1 < config.setup_reps) stop_daemon(daemon);
  }
  drive(*daemon.conn, config, 0, out);
  const double client_cpu = self_usage().cpu_s - client_cpu0;
  daemon_stats(*daemon.conn, out);
  const Usage usage = stop_daemon(daemon);
  out.cpu_s = client_cpu + usage.cpu_s;
  out.peak_rss_mb = usage.maxrss_mb;
  return out;
}

double serve_capacity(const ServeConfig& config, int in_flight) {
  Daemon daemon = start_daemon(config);
  warm_up(*daemon.conn, config);
  ServeResult out;
  drive(*daemon.conn, config, in_flight, out);
  stop_daemon(daemon);
  return static_cast<double>(out.jobs - out.failed) / out.window_s;
}

}  // namespace ledger
