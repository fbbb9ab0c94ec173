// Deterministic trace replay checking.
//
// A trace file's header embeds the canonical text of the scenario that
// produced it.  Since the whole stack — corpus generation, scheduling,
// simulation, solver dispatch — is deterministic, re-running that
// scenario must regenerate the identical byte stream: same runs, same
// events, same order, same formatted values.  `verify_trace` does
// exactly that and reports the first diverging line, which makes it
// both a strong integrity check for archived traces and a whole-stack
// determinism test (any nondeterminism, platform drift or behavioural
// regression shows up as a diff).
#pragma once

#include <cstddef>
#include <string>

namespace rats {

struct ReplayReport {
  bool ok = false;
  std::size_t runs = 0;    ///< runs re-simulated
  std::size_t events = 0;  ///< event lines checked
  std::string error;       ///< first divergence / parse problem (when !ok)
};

/// Re-simulates the scenario embedded in the trace file's header and
/// compares the regenerated stream with the file as whole buffers; on
/// a mismatch `error` names the first differing line.  `threads`
/// parallelizes the re-simulation (0 = hardware concurrency); the
/// regenerated bytes do not depend on it.
ReplayReport verify_trace(const std::string& path, unsigned threads = 0);

/// Same check over an in-memory trace (the fuzz oracle path — no file
/// round trip needed).  `label` stands in for the path in diagnostics.
ReplayReport verify_trace_text(const std::string& trace,
                               const std::string& label,
                               unsigned threads = 0);

}  // namespace rats
