#ifndef REACHBENCH_PHASES_H_
#define REACHBENCH_PHASES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "stats.h"

namespace reachbench {

/// How one phase runs.
struct PhaseConfig {
  uint64_t seed = 0;
  /// How long the phase's timed loop runs (the churn writer instead sends
  /// `kUpdatesPerSecond * seconds` updates).
  double seconds = 1.0;
  /// Threads the load may use, service rebuild workers included (nproc).
  size_t threads = 1;
  /// Span log of a traced run, else null. Probes that only feed per-layer
  /// metrics (kernel micro-timings, the `BatchQuery` ceiling) run only in
  /// traced runs.
  SpanLog* spans = nullptr;
};

/// A precondition failure: the path the workload exists for did not run.
struct PreconditionError {
  std::string what;
};

/// Timed phases. Each adds its end-to-end metrics (`setup_s`, `query_*`,
/// `peak_rss_mb`) and the per-layer metrics of the layers it exercises to
/// `report`, and throws `PreconditionError` when its fixed-work
/// precondition does not hold.
void RunIndexLadder(const Inputs& in, const PhaseConfig& cfg, Report& report);
void RunServeRead(const Inputs& in, const PhaseConfig& cfg, Report& report);
void RunServeChurn(const Inputs& in, const PhaseConfig& cfg, Report& report);

/// Timed loops are cut into this many equal time windows; each
/// end-to-end latency and throughput metric is the median of its
/// per-window values, so a burst of interference from outside the process
/// that covers a few windows does not move it.
inline constexpr size_t kWindows = 20;

/// Builds of each ladder index per run; `setup_s` sums their medians.
inline constexpr int kSetupRepeats = 3;

/// Service setups (constructor + `Start` + first `Flush`) per run;
/// `setup_s` reports their median. The first `Flush` builds `pll` on one
/// pool worker, and single setups of one run range over 0.26-0.53 s on
/// a shared host, so it takes more of them than the ladder's 3 builds.
inline constexpr int kServeSetupRepeats = 9;

}  // namespace reachbench

#endif  // REACHBENCH_PHASES_H_
