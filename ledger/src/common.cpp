#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <exception>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace ledger {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

Usage from_rusage(const rusage& ru) {
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

Usage usage_of(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return from_rusage(ru);
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + at, bytes.size() - at);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    at += static_cast<std::size_t>(n);
  }
  return true;
}

std::string one_line(std::string s) {
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

std::string serialize(const Record& r) {
  std::string out;
  char buf[64];
  for (const auto& [key, value] : r.num) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += "n " + key + " " + buf + "\n";
  }
  for (const auto& [key, value] : r.text)
    out += "t " + key + " " + one_line(value) + "\n";
  for (const auto& [key, values] : r.vec) {
    out += "v " + key + " " + std::to_string(values.size());
    for (double v : values) {
      std::snprintf(buf, sizeof buf, " %.17g", v);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

void parse_into(const std::string& text, PassResult& result) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "ok") {
      result.ok = true;
      continue;
    }
    if (line.size() < 2) continue;
    const char tag = line[0];
    std::istringstream fields(line.substr(2));
    if (tag == 'e') {
      result.error = line.substr(2);
    } else if (tag == 'n') {
      std::string key;
      double value = 0;
      fields >> key >> value;
      result.record.num[key] = value;
    } else if (tag == 't') {
      std::string key;
      fields >> key;
      std::string value;
      std::getline(fields, value);
      if (!value.empty() && value[0] == ' ') value.erase(0, 1);
      result.record.text[key] = value;
    } else if (tag == 'v') {
      std::string key;
      std::size_t count = 0;
      fields >> key >> count;
      std::vector<double>& values = result.record.vec[key];
      values.resize(count);
      for (double& v : values) fields >> v;
    }
  }
}

}  // namespace

Usage self_usage() { return usage_of(RUSAGE_SELF); }

Usage wait_child(pid_t pid, int* status) {
  int st = 0;
  rusage ru{};
  while (::wait4(pid, &st, 0, &ru) < 0 && errno == EINTR) {
  }
  if (status) *status = st;
  return from_rusage(ru);
}

std::string digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<PassResult> run_passes(
    const std::vector<std::function<Record()>>& bodies) {
  struct Child {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<PassResult> results(bodies.size());
  std::vector<Child> children(bodies.size());
  std::fflush(nullptr);  // unflushed stdio must not be written twice
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    int fds[2];
    if (::pipe(fds) != 0) {
      results[i].error = "pipe failed";
      continue;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      results[i].error = "fork failed";
      continue;
    }
    if (pid == 0) {
      ::close(fds[0]);
      for (std::size_t k = 0; k < i; ++k)
        if (children[k].fd >= 0) ::close(children[k].fd);
      std::string out;
      int code = 0;
      try {
        out = serialize(bodies[i]()) + "ok\n";
      } catch (const std::exception& e) {
        out = "e " + one_line(e.what()) + "\n";
        code = 3;
      }
      write_all(fds[1], out);
      ::close(fds[1]);
      // _exit: the child shares the parent's stdio buffers and must not
      // run its exit handlers (obs's legacy stderr reporters among them).
      _exit(code);
    }
    ::close(fds[1]);
    children[i] = Child{pid, fds[0]};
  }
  // Children never wait on each other, so reading them in order cannot
  // deadlock: a later child blocked on a full pipe resumes when reached.
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    if (children[i].pid < 0) continue;
    PassResult& result = results[i];
    std::string text;
    char chunk[65536];
    while (true) {
      const ssize_t n = ::read(children[i].fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      text.append(chunk, static_cast<std::size_t>(n));
    }
    ::close(children[i].fd);
    int status = 0;
    result.usage = wait_child(children[i].pid, &status);
    parse_into(text, result);
    if (WIFSIGNALED(status)) {
      result.ok = false;
      result.error =
          "pass killed by signal " + std::to_string(WTERMSIG(status));
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      result.ok = false;
      if (result.error.empty()) result.error = "pass exited abnormally";
    }
  }
  return results;
}

PassResult run_pass(const std::function<Record()>& body) {
  return run_passes({body}).front();
}

}  // namespace ledger
