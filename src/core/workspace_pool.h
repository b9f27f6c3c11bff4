#ifndef REACH_CORE_WORKSPACE_POOL_H_
#define REACH_CORE_WORKSPACE_POOL_H_

#include <cstddef>
#include <deque>

#include "core/search_workspace.h"
#include "obs/query_probe.h"

namespace reach {

/// One pool element on cache lines of its own: concurrent slots write
/// their probes on every query, and neighbours sharing a line would make
/// each of those writes a cross-core transfer.
template <typename T>
struct alignas(64) CacheLineSlot {
  T value;
};

/// A bank of `SearchWorkspace` slots for indexes whose queries traverse:
/// slot 0 serves plain `Query()` calls, and `BatchQuery` hands each
/// concurrent worker its own slot so visited marks, scratch queues, and
/// probe counters never race. `Probe()` aggregation sums every slot, so
/// metrics stay correct under concurrency (docs/OBSERVABILITY.md).
///
/// `EnsureSlots` is NOT safe against concurrent queries — callers grow
/// the bank before fanning out (the `BatchQuery` implementations do).
/// Slot references stay valid across growth (deque storage).
class WorkspacePool {
 public:
  WorkspacePool() { slots_.emplace_back(); }

  /// Grows the bank to at least `n` slots. Call before a parallel phase.
  void EnsureSlots(size_t n) const {
    while (slots_.size() < n) slots_.emplace_back();
  }

  size_t NumSlots() const { return slots_.size(); }

  /// The workspace of `slot` (< NumSlots()). Slot 0 is the serial-path
  /// workspace.
  SearchWorkspace& Slot(size_t slot) const { return slots_[slot].value; }

  /// Sum of all slots' probes — what `ReachabilityIndex::Probe()` should
  /// report after any mix of serial and batched queries.
  QueryProbe AggregateProbe() const {
    QueryProbe merged;
    for (const auto& ws : slots_) merged.MergeFrom(ws.value.probe());
    return merged;
  }

  void ResetProbes() const {
    for (auto& ws : slots_) ws.value.probe().Reset();
  }

 private:
  // mutable: probes and traversal scratch mutate under const Query().
  mutable std::deque<CacheLineSlot<SearchWorkspace>> slots_;
};

/// The no-traversal sibling: a bank of plain `QueryProbe`s for complete
/// indexes (transitive closure, 2-hop) whose queries read immutable label
/// state but still count into a probe.
class ProbePool {
 public:
  ProbePool() { slots_.emplace_back(); }

  void EnsureSlots(size_t n) const {
    while (slots_.size() < n) slots_.emplace_back();
  }

  size_t NumSlots() const { return slots_.size(); }

  QueryProbe& Slot(size_t slot) const { return slots_[slot].value; }

  QueryProbe Aggregate() const {
    QueryProbe merged;
    for (const auto& probe : slots_) merged.MergeFrom(probe.value);
    return merged;
  }

  void Reset() const {
    for (auto& probe : slots_) probe.value.Reset();
  }

 private:
  mutable std::deque<CacheLineSlot<QueryProbe>> slots_;
};

}  // namespace reach

#endif  // REACH_CORE_WORKSPACE_POOL_H_
