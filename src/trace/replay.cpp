#include "trace/replay.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>

#include "common/error.hpp"
#include "scenario/parser.hpp"
#include "scenario/registry.hpp"
#include "trace/gzip.hpp"

namespace rats {

namespace {

/// Extracts the value of a `"key":"..."` string field from a JSON
/// object line written by the trace renderer, undoing its escaping.
/// Returns false when the key is absent.
bool extract_string_field(const std::string& line, const std::string& key,
                          std::string& out) {
  const std::string needle = "\"" + key + "\":\"";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  out.clear();
  for (std::size_t i = at + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) return false;
      const char next = line[++i];
      if (next == 'n') out += '\n';
      else if (next == 't') out += '\t';
      else if (next == 'r') out += '\r';
      else if (next == 'u') {
        // json_escape writes other control characters as \u00XX.
        if (i + 4 >= line.size()) return false;
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
          const char h = line[++i];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f')
            code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F')
            code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (code > 0x7f) return false;  // the writer only escapes ASCII
        out += static_cast<char>(code);
      } else out += next;  // \" and \\ (and any future passthrough)
    } else if (c == '"') {
      return true;
    } else {
      out += c;
    }
  }
  return false;  // unterminated
}

/// The line of `text` starting at `pos`, without its newline.
std::string_view line_at(std::string_view text, std::size_t pos) {
  return text.substr(pos, text.find('\n', pos) - pos);
}

std::string truncate(std::string_view s, std::size_t limit = 160) {
  return s.size() > limit ? std::string(s.substr(0, limit)) + "..."
                          : std::string(s);
}

/// Counts run meta lines and event lines of an accepted stream.
void count_lines(std::string_view text, ReplayReport& report) {
  for (std::size_t pos = 0; pos < text.size();) {
    const std::string_view line = line_at(text, pos);
    if (line.starts_with("{\"run\":")) ++report.runs;
    else if (line.starts_with("{\"t\":") || line.starts_with("{\"r\":"))
      ++report.events;
    pos += line.size() + 1;
  }
}

/// Describes the first line where `actual` and `expected` differ
/// (they must differ), numbered from 1.
std::string first_difference(std::string_view actual,
                             std::string_view expected,
                             const std::string& path) {
  const std::size_t common = static_cast<std::size_t>(
      std::mismatch(actual.begin(), actual.end(), expected.begin(),
                    expected.end())
          .first -
      actual.begin());
  // Both buffers agree before `common`, so the differing line starts at
  // the same offset in each (npos + 1 wraps to 0 on the first line).
  const std::size_t start = actual.substr(0, common).rfind('\n') + 1;
  const std::string where =
      path + ":" +
      std::to_string(1 + std::count(actual.begin(),
                                    actual.begin() +
                                        static_cast<std::ptrdiff_t>(start),
                                    '\n')) +
      ": ";
  if (common == actual.size())
    return where + "trace ends early" + (start < common ? " (mid-line)" : "") +
           "; replay expects: " + truncate(line_at(expected, start));
  if (common == expected.size())
    return where + "trailing content after the replayed stream: " +
           truncate(line_at(actual, start));
  return where + "trace diverges from replay\n  trace:  " +
         truncate(line_at(actual, start)) +
         "\n  replay: " + truncate(line_at(expected, start));
}

}  // namespace

ReplayReport verify_trace(const std::string& path, unsigned threads) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ReplayReport report;
    report.error = "cannot open trace file '" + path + "'";
    return report;
  }
  // Read into one buffer, reserved up front when the file has a size
  // (a pipe has none).
  std::string bytes;
  std::error_code size_error;
  const std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error) bytes.reserve(size);
  char chunk[1 << 16];
  while (in.read(chunk, sizeof chunk) || in.gcount() > 0)
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
  // Traces written with `trace-gzip = true` inflate to the exact bytes
  // of the plain stream, so verification proceeds unchanged.
  if (gzip_is_compressed(bytes)) {
    try {
      bytes = gzip_decompress(bytes);
    } catch (const Error& e) {
      ReplayReport report;
      report.error = path + ": " + e.what();
      return report;
    }
  }
  return verify_trace_text(bytes, path, threads);
}

ReplayReport verify_trace_text(const std::string& actual,
                               const std::string& path, unsigned threads) {
  ReplayReport report;
  const std::string header(line_at(actual, 0));
  if (!header.starts_with("{\"rats_trace\":2,")) {
    report.error =
        header.starts_with("{\"rats_trace\":")
            ? path + ":1: unsupported trace version (this build reads v2)"
            : path + ":1: not a RATS trace (header line missing)";
    return report;
  }
  std::string spec_text;
  if (!extract_string_field(header, "spec", spec_text)) {
    report.error = path + ":1: header has no embedded scenario spec";
    return report;
  }

  std::string expected;
  try {
    const scenario::ScenarioSpec spec =
        scenario::parse_scenario_string(spec_text, path + ":<header spec>");
    expected = scenario::render_trace(spec, threads);
  } catch (const Error& e) {
    report.error = std::string("replay failed: ") + e.what();
    return report;
  }

  // One whole-buffer byte compare; only a mismatch pays for locating
  // the first differing line.
  if (actual != expected) {
    report.error = first_difference(actual, expected, path);
    return report;
  }
  count_lines(actual, report);
  report.ok = true;
  return report;
}

}  // namespace rats
