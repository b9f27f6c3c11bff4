#ifndef REACHBENCH_SPANS_H_
#define REACHBENCH_SPANS_H_

// Spans recorded by the benchmark's own code around each call into a
// layer of the library (`Build`, `Query`, `BatchQuery`,
// `ReachService::Query`, `ApplyUpdate`, `Flush`). They are kept in memory
// and written at exit as Chrome trace-event JSON (chrome://tracing,
// Perfetto). Spans of one request share an id. Untraced runs have no log
// and no lanes, so they pay one null check per call.

#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace reachbench {

using Clock = std::chrono::steady_clock;

inline int64_t NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// One thread's spans. Only its owning thread appends; the log reads it
/// after every recording thread has been joined.
class SpanLane {
 public:
  SpanLane(uint32_t index, std::string name, Clock::time_point origin)
      : index_(index), name_(std::move(name)), origin_(origin) {}

  /// A fresh request id, unique across lanes.
  uint64_t NextId() { return (uint64_t{index_} << 40) | ++next_id_; }

  /// Records `name` over [begin, end). `count` is the number of library
  /// calls the span covers (1 except for timed query batches). Spans of
  /// per-query calls stop being kept once the lane holds
  /// `kMaxSpansPerLane`; `keep` spans (builds, flushes, batch calls) are
  /// always kept.
  void Add(const char* name, uint64_t id, Clock::time_point begin,
           Clock::time_point end, uint32_t count, bool keep) {
    if (!keep && spans_.size() >= kMaxSpansPerLane) {
      ++dropped_;
      return;
    }
    spans_.push_back({name, id, NsBetween(origin_, begin),
                      NsBetween(begin, end), count});
  }

 private:
  friend class SpanLog;
  // Bounds the trace file (about 130 bytes of JSON per span); later spans
  // are counted in `dropped_spans` and still timed by the benchmark.
  static constexpr size_t kMaxSpansPerLane = size_t{1} << 14;

  struct Span {
    const char* name;
    uint64_t id;
    int64_t start_ns;
    int64_t dur_ns;
    uint32_t count;
  };

  const uint32_t index_;
  const std::string name_;
  const Clock::time_point origin_;
  uint64_t next_id_ = 0;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// The set of lanes of one traced run.
class SpanLog {
 public:
  /// A new lane for the calling thread. The lane stays valid for the life
  /// of the log. Thread-safe.
  SpanLane* NewLane(const std::string& name);

  /// Writes every lane as Chrome trace-event JSON. Call after every
  /// recording thread has been joined. Returns false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  const Clock::time_point origin_ = Clock::now();
  std::mutex mu_;                // guards lanes_ growth
  std::deque<SpanLane> lanes_;   // deque: lane addresses stay stable
};

/// Appends a per-query span when `lane` is non-null (tracing on).
inline void Record(SpanLane* lane, const char* name, uint64_t id,
                   Clock::time_point begin, Clock::time_point end,
                   uint32_t count = 1) {
  if (lane != nullptr) lane->Add(name, id, begin, end, count, false);
}

/// The same for a rare call (build, flush, batch) that is always kept.
inline void RecordKept(SpanLane* lane, const char* name, uint64_t id,
                       Clock::time_point begin, Clock::time_point end,
                       uint32_t count = 1) {
  if (lane != nullptr) lane->Add(name, id, begin, end, count, true);
}

/// A request id from `lane`, or 0 when tracing is off.
inline uint64_t NextId(SpanLane* lane) {
  return lane != nullptr ? lane->NextId() : 0;
}

}  // namespace reachbench

#endif  // REACHBENCH_SPANS_H_
