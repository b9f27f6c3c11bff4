#ifndef REACH_SERVE_SERVE_SNAPSHOT_H_
#define REACH_SERVE_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/edge_update.h"
#include "core/reachability_index.h"
#include "graph/digraph.h"
#include "graph/types.h"

namespace reach {

/// A small per-thread number, handed out round-robin on a thread's first
/// call. Pools of per-thread cache lines (slot leases, view cells,
/// counter stripes) start each thread at a different line with it, so up
/// to the pool size concurrent threads never write the same line.
inline size_t ThreadSpreadIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// `kMaxCells` cache-line-sized words that threads lease by storing a
/// nonzero word into a free (zero) one. A lease starts at the cell the
/// calling thread leased last, so steady-state threads each claim a line
/// only they write. The lease primitive under `SlotPool` and
/// `PublishedView`.
class LeaseCells {
 public:
  static constexpr size_t kMaxCells = 64;

  /// Leases a free cell among the first `count` (in [1, kMaxCells]) by
  /// storing `word` (nonzero) into it, seq_cst, and returns its index.
  /// Spins with `yield` while all are leased; `waited` (optional) is set
  /// when the caller had to contend.
  size_t Lease(uintptr_t word, size_t count, bool* waited = nullptr) {
    if (hint_ >= count) {
      hint_ = (hint_ == kNoHint ? ThreadSpreadIndex() : hint_) % count;
    }
    const size_t start = hint_;
    for (bool first = true;; first = false) {
      for (size_t i = 0; i < count; ++i) {
        const size_t c = start + i < count ? start + i : start + i - count;
        std::atomic<uintptr_t>& cell = cells_[c].word;
        uintptr_t expected = 0;
        if (cell.load(std::memory_order_relaxed) == 0 &&
            cell.compare_exchange_strong(expected, word,
                                         std::memory_order_seq_cst,
                                         std::memory_order_relaxed)) {
          hint_ = c;
          return c;
        }
      }
      if (first && waited != nullptr) *waited = true;
      std::this_thread::yield();
    }
  }

  /// The word cell `c` holds: 0 when free, else its leaser's.
  std::atomic<uintptr_t>& operator[](size_t c) { return cells_[c].word; }

  void Release(size_t c) {
    cells_[c].word.store(0, std::memory_order_release);
  }

 private:
  static constexpr size_t kNoHint = ~size_t{0};
  struct alignas(64) Cell {
    std::atomic<uintptr_t> word{0};
  };

  // The cell this thread leased last, from any `LeaseCells` (a hint only).
  static inline thread_local size_t hint_ = kNoHint;

  Cell cells_[kMaxCells];
};

/// Lease-based distribution of the concurrent-query slots granted by
/// `PrepareConcurrentQueries` (core/reachability_index.h): each in-flight
/// request leases one slot for its whole `QueryInSlot` stream, so two
/// requests never share per-slot scratch state. Each slot is a
/// `LeaseCells` cell, so steady-state readers each flip a line only they
/// write. When every slot is leased, `Acquire` spins with `yield`; with
/// one granted slot this degrades to mutual exclusion, which is exactly
/// the serial-only contract a grant of 1 signals.
class SlotPool {
 public:
  static constexpr size_t kMaxSlots = LeaseCells::kMaxCells;

  SlotPool() { Reset(1); }

  /// Sizes the pool to `slots` free slots (clamped to [1, 64]). Not
  /// thread-safe: call before the owning snapshot is published.
  void Reset(size_t slots) {
    if (slots == 0) slots = 1;
    if (slots > kMaxSlots) slots = kMaxSlots;
    size_ = slots;
    for (size_t c = 0; c < kMaxSlots; ++c) cells_.Release(c);
  }

  size_t size() const { return size_; }

  /// Leases a free slot, spinning until one frees up. `waited` (optional)
  /// is set when the caller had to contend.
  size_t Acquire(bool* waited = nullptr) {
    return cells_.Lease(1, size_, waited);
  }

  void Release(size_t slot) { cells_.Release(slot); }

 private:
  size_t size_ = 1;
  LeaseCells cells_;
};

/// One immutable generation of the serving state: the base graph, the
/// index built over it, and the slot pool sized to what the index
/// actually granted. Shared by every `ServeView` published while it is
/// current; readers never observe a half-rebuilt index. All fields
/// except the slot leases are frozen before publication.
struct ServeSnapshot {
  /// Monotonic generation number (0 = the unindexed startup snapshot).
  uint64_t version = 0;
  /// The base graph this generation serves. The index may retain a
  /// pointer into it (partial indexes do), so it lives in the snapshot.
  Digraph graph;
  /// Index over `graph`; null only in the startup snapshot, while the
  /// first background build is still in flight — queries then degrade to
  /// the bounded online BFS.
  std::unique_ptr<ReachabilityIndex> index;
  /// Leases for the slots `index->PrepareConcurrentQueries` granted.
  mutable SlotPool slots;
};

/// Updates accepted by `ApplyUpdate` (inserts and deletes, in arrival
/// order) but not yet absorbed into a snapshot. Order matters — the live
/// edge set is the snapshot graph with these updates replayed in
/// sequence, so the last operation on an edge wins.
using PendingUpdates = std::vector<EdgeUpdate>;

/// A pending-update list reduced to per-edge effective state: replaying
/// the list in order, the last operation on each (source, target) pair
/// wins. `adds` are the edges whose final op is an insert (the live graph
/// gains them), `dels` those whose final op is a delete (base-graph arcs
/// the live graph must mask); both are sorted and duplicate-free.
/// `has_deletes` reports whether ANY delete op was present in the raw
/// list — the query path uses it to decide whether the insert-only
/// monotonicity shortcut is still valid.
struct EffectiveUpdates {
  std::vector<Edge> adds;
  std::vector<Edge> dels;
  bool has_deletes = false;
};

/// The effective state of `base`'s list with `updates` replayed after
/// it, in O(k + u log u) for k = |base| and u = |updates|: a writer that
/// appends a batch extends the reduction instead of redoing it.
EffectiveUpdates EffectiveState(const PendingUpdates& updates,
                                const EffectiveUpdates& base = {});

/// Everything one query reads, published as one immutable unit: the
/// snapshot, the updates accepted since it was built, and their
/// effective state (reduced once per publish, not once per query). Every
/// writer — `ApplyUpdate`, a finished drain, `StartWithSnapshot` —
/// publishes a whole new view, so a reader can never pair a snapshot
/// with a pending list it does not belong to.
struct ServeView {
  std::shared_ptr<const ServeSnapshot> snapshot;
  PendingUpdates pending;
  /// `EffectiveState(pending)`.
  EffectiveUpdates effective;
};

/// The currently published `ServeView`, pinned by readers through hazard
/// cells instead of a lock or a reference count. A reader leases one of
/// `kCells` `LeaseCells` cells by storing the published pointer into it
/// — an uncontended compare-exchange on a line only it writes — then
/// re-reads the published pointer: if it is unchanged, the view is
/// protected until the pin is released. A writer swaps the pointer,
/// retires the old view, and frees every retired view that no cell names
/// — at each publish and in the destructor; nothing runs in the
/// background. At most `kCells` views can be pinned at once, so at most
/// that many stay retired after a publish. With every cell leased,
/// `Acquire` spins with `yield`.
class PublishedView {
 public:
  static constexpr size_t kCells = LeaseCells::kMaxCells;

  /// RAII pin: the view stays alive, unchanged, until destruction.
  class Pin {
   public:
    ~Pin() { cell_.store(0, std::memory_order_release); }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    const ServeView& operator*() const { return *view_; }
    const ServeView* operator->() const { return view_; }

   private:
    friend class PublishedView;
    Pin(std::atomic<uintptr_t>& cell, const ServeView* view)
        : cell_(cell), view_(view) {}

    std::atomic<uintptr_t>& cell_;
    const ServeView* view_;
  };

  PublishedView() = default;
  /// Frees the published view and every retired one. No pin may be live.
  ~PublishedView();
  PublishedView(const PublishedView&) = delete;
  PublishedView& operator=(const PublishedView&) = delete;

  /// Pins the published view. Requires a prior `Publish`.
  Pin Acquire() const {
    const ServeView* view = current_.load(std::memory_order_acquire);
    // The lease stores `view` seq_cst, like every later store of a pinned
    // pointer: `Reclaim` relies on it.
    std::atomic<uintptr_t>& cell = cells_[cells_.Lease(Word(view), kCells)];
    for (;;) {
      const ServeView* again = current_.load(std::memory_order_seq_cst);
      if (again == view) return Pin(cell, view);
      view = again;
      cell.store(Word(view), std::memory_order_seq_cst);
    }
  }

  /// Publishes `view` (whose `effective` must reduce its `pending`), then
  /// frees every unpinned retired view. Writers must be serialized by the
  /// caller.
  void Publish(ServeView view);

  /// The published view, for a serialized writer (no pin needed: only
  /// writers free views). Requires a prior `Publish`.
  const ServeView& CurrentLocked() const {
    return *current_.load(std::memory_order_relaxed);
  }

  /// Retired views not yet freed because a cell still names them. For a
  /// serialized writer (and tests).
  size_t RetiredCount() const { return retired_.size(); }

 private:
  // A cell holds 0 (free) or the pointer of the view its reader pins.
  static uintptr_t Word(const ServeView* view) {
    return reinterpret_cast<uintptr_t>(view);
  }

  // Frees every retired view no cell names.
  void Reclaim();

  mutable LeaseCells cells_;
  std::atomic<const ServeView*> current_{nullptr};
  // Owned by the (serialized) writers.
  std::vector<const ServeView*> retired_;
};

}  // namespace reach

#endif  // REACH_SERVE_SERVE_SNAPSHOT_H_
