// reachbench: one command, three workloads over the same 2^14-vertex
// scale-free DAG and pair universe (README.md).
//
//   reachbench --workload <index-ladder|serve-read|serve-churn>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones of the named
// workload. With --trace 1 all three workloads run with spans recorded,
// the named one first, each for a third of --seconds, so every layer
// from L0 to L4 is measured; the metrics are the per-layer ones and the
// spans go to --trace-file as Chrome trace-event JSON.
//
// Exit codes: 0 success, 2 bad arguments, 3 a fixed-work precondition
// failed, 4 the trace file could not be written.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "par/thread_pool.h"
#include "phases.h"
#include "spans.h"
#include "stats.h"

namespace reachbench {

namespace {

using Phase = void (*)(const Inputs&, const PhaseConfig&, Report&);

struct Workload {
  const char* name;
  Phase run;
};

constexpr Workload kWorkloads[] = {
    {"index-ladder", RunIndexLadder},
    {"serve-read", RunServeRead},
    {"serve-churn", RunServeChurn},
};

// Printed with --trace 0, from the named workload (BENCHMARK.json
// "end_to_end").
const char* const kEndToEnd[] = {
    "setup_s",          "query_throughput", "query_p50_ns",
    "query_p99_ns",     "query_pos_p50_ns", "query_neg_p50_ns",
    "peak_rss_mb",
};

// Printed with --trace 1, each from the workload that exercises its layer
// (BENCHMARK.json "per_layer").
const char* const kPerLayer[] = {
    "l0.intersect_ns.equal",   "l0.intersect_ns.skew16",
    "l0.labels_scanned_per_query",
    "l1.pll.build_s",          "l1.lcr_pll.build_s",
    "l1.pll.pos_p50_ns",       "l1.pll.neg_p50_ns",
    "l1.lcr_pll.pos_p50_ns",   "l1.lcr_pll.neg_p50_ns",
    "l1.pll.bytes_per_vertex", "l1.lcr_pll.bytes_per_vertex",
    "l1.pll.batch_throughput",
    "l2.compress.pos_p50_ns",  "l2.compress.neg_p50_ns",
    "l2.compress.bytes_per_vertex", "l2.compress.build_s",
    "l2.fastpath.pos_p50_ns",  "l2.fastpath.neg_p50_ns",
    "l2.fastpath.build_s",     "l2.fastpath.decided_share",
    "index_bytes_per_vertex",
    "l3.serve_p50_ns.1reader", "l3.serve_tax_ns",
    "l3.throughput.1reader",   "l3.read_scaling",
    "l3.negcache_hit_share",   "l3.index_answer_share",
    "l4.pending_mean",         "l4.delta_answer_share",
    "l4.delete_verify_share",  "l4.fallback_share",
    "l4.rebuilds",             "l4.snapshot_interval_ms",
    "l4.apply_update_ns_p50",  "l4.writer_late_ms_p99",
    "l4.backpressure_blocked",
    "update_p50_ns",           "update_p99_ns",
    "drain_lag_ms",
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "reachbench: %s\nusage: reachbench --workload "
               "<index-ladder|serve-read|serve-churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0' && text[0] != '-';
}

void PrintMetric(bool* first, const std::string& name, const Metric& m) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
  *first = false;
}

}  // namespace

int Main(int argc, char** argv) {
  const char* workload_name = nullptr;
  const char* trace_file = nullptr;
  uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage("missing flag value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &seconds) || seconds == 0 || seconds > 3600) {
        return Usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (!ParseUint(value, &trace) || trace > 1) return Usage("bad --trace");
    } else if (flag == "--trace-file") {
      trace_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name != nullptr && std::strcmp(w.name, workload_name) == 0) {
      workload = &w;
    }
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");
  if (!have_seed || seconds == 0 || trace > 1) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const bool traced = trace == 1;

  // Pin the library's thread count to the hardware, whatever REACH_THREADS
  // says: the load never uses more threads than nproc.
  const size_t nproc = reach::HardwareThreads();
  reach::SetDefaultThreads(nproc);

  const Clock::time_point t0 = Clock::now();
  const Inputs in = MakeInputs(seed);
  std::fprintf(stderr, "reachbench: inputs and oracle in %.2f s\n",
               static_cast<double>(NsBetween(t0, Clock::now())) / 1e9);

  SpanLog spans;
  PhaseConfig cfg;
  cfg.seed = seed;
  // A traced run runs all three workloads, so each gets a third of the
  // time and the run takes about as long as an untraced one.
  cfg.seconds = static_cast<double>(seconds) / (traced ? 3.0 : 1.0);
  cfg.threads = nproc;
  cfg.spans = traced ? &spans : nullptr;

  // The named workload's report; in a traced run the other workloads'
  // per-layer metrics are added to it.
  Report report;
  try {
    workload->run(in, cfg, report);
    for (const Workload& w : kWorkloads) {
      if (!traced || &w == workload) continue;
      Report other;
      w.run(in, cfg, other);
      report.metrics.insert(other.metrics.begin(), other.metrics.end());
      report.attempted += other.attempted;
      report.failed += other.failed;
    }
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "reachbench: precondition failed: %s\n",
                 e.what.c_str());
    return 3;
  }

  // Every metric of the printed set must have been measured.
  std::vector<std::pair<std::string, Metric>> out;
  const std::span<const char* const> names =
      traced ? std::span<const char* const>(kPerLayer)
             : std::span<const char* const>(kEndToEnd);
  for (const char* name : names) {
    const auto it = report.metrics.find(name);
    if (it == report.metrics.end()) {
      std::fprintf(stderr, "reachbench: no value for %s\n", name);
      return 3;
    }
    out.emplace_back(name, it->second);
  }
  // Everything measured goes to stderr, the named workload's end-to-end
  // figures included, so a traced and an untraced run can be compared
  // (tracing cost).
  for (const auto& [name, m] : report.metrics) {
    std::fprintf(stderr, "reachbench: %s %s = %.6g %s\n", workload->name,
                 name.c_str(), m.value, m.unit.c_str());
  }

  if (traced && trace_file != nullptr &&
      !spans.WriteChromeJson(trace_file)) {
    std::fprintf(stderr, "reachbench: cannot write %s\n", trace_file);
    return 4;
  }

  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.failed == 0 ? "true" : "false", report.attempted,
              report.failed);
  bool first = true;
  for (const auto& [name, metric] : out) PrintMetric(&first, name, metric);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace reachbench

int main(int argc, char** argv) { return reachbench::Main(argc, argv); }
