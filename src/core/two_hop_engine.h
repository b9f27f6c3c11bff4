#ifndef REACH_CORE_TWO_HOP_ENGINE_H_
#define REACH_CORE_TWO_HOP_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/edge_update.h"
#include "core/label_pool.h"
#include "core/mapped_file.h"
#include "core/search_workspace.h"
#include "core/serialize.h"
#include "core/workspace_pool.h"
#include "graph/types.h"
#include "obs/query_probe.h"

namespace reach {

/// Total orders that instantiate the TOL framework (paper §3.2): "TOL is a
/// general approach for computing the 2-hop index with a total order of
/// vertices as input, and TFL, DL, and PLL are instantiations of TOL."
enum class VertexOrder {
  /// Decreasing total degree — the DL / PLL instantiation (the paper notes
  /// DL and PLL are equivalent).
  kDegree,
  /// Topological order of the SCC condensation — the TFL instantiation.
  kTopological,
  /// Increasing total degree — a deliberately bad order for ablation.
  kReverseDegree,
  /// Uniformly random order — the ablation baseline.
  kRandom,
};

/// The pruned 2-hop engine behind both 2-hop families: the TOL
/// instantiations (`PrunedTwoHop`, paper §3.2) and P2H+ (`PrunedLabeledTwoHop`,
/// §4.1.3). The survey presents P2H+ as the TOL/PLL framework whose entries
/// also carry a minimal label set — the same algorithm with a different
/// join predicate — so one engine owns everything but that predicate:
///
///  * the rank order tables and the pruned build, serial or rank-batched
///    speculate/commit/redo over worker threads (docs/PARALLELISM.md);
///  * sealing into flat or block-compressed pools under the `budget_mb`
///    tiers, and the `index.*` storage gauges (docs/QUERY_ENGINE.md);
///  * dynamics behind `ApplyBatch`: inserts land in an unsealed Lin delta
///    overlay; deletes are tombstoned and either proved locally redundant
///    or charged to the staleness budget as hub-rank damage, with
///    witness-trust answers keeping every query exact (DESIGN.md §2.5);
///  * the `Save`/`Load` payload framing.
///
/// `Traits` supplies what differs (see `PlainTwoHopTraits` and
/// `LabeledTwoHopTraits`): the interface and graph types, the `Entry`
/// (a hop rank, or a rank plus its label set) and its compressed pool, the
/// query `Constraint` (none, or the allowed label set), the covered-entry
/// and intersection kernels, the arc type and which arcs a constraint
/// admits, the pruned sweep of one rank, insert propagation, the
/// payload's format name and magic, and whether damaged-witness
/// verification counts as a probe fallback. Every call into `Traits` is
/// static, so the query hot path stays inlinable.
///
/// Member definitions live in core/two_hop_engine_impl.h, included only by
/// the two translation units that instantiate the engine.
template <typename Traits>
class TwoHopEngine : public Traits::Interface {
 public:
  using Graph = typename Traits::Graph;
  using Entry = typename Traits::Entry;
  using Arc = typename Traits::Arc;
  using Update = typename Traits::Update;
  using Constraint = typename Traits::Constraint;
  using CompressedPool = typename Traits::CompressedPool;

  /// Default `staleness_budget`: damaging deletes tolerated before
  /// `ApplyUpdate` starts returning `kDeferredRebuild`. 0 = unbounded.
  static constexpr size_t kDefaultStalenessBudget = 32;

  void Build(const Graph& graph) override;
  size_t IndexSizeBytes() const override;
  /// Complete while label-exact; damaging deletes flip this to false
  /// until `RebuildFromUpdates`/`Build` re-minimizes.
  bool IsComplete() const override { return damage_ == 0; }
  QueryProbe Probe() const override { return probes_.Aggregate(); }
  void ResetProbe() const override { probes_.Reset(); }

  /// Serializes the labeling (envelope + ranks + per-vertex Lin/Lout entry
  /// lists) to a binary stream; the state already reflects any
  /// incremental insertions. Refuses (returns false) while `Damage() > 0`:
  /// a damaged labeling is only exact together with the live tombstone
  /// state, which the stream does not carry — `RebuildFromUpdates()`
  /// first.
  bool SupportsSerialization() const override { return true; }
  bool Save(std::ostream& out) const override;

  /// Restores a labeling saved by `Save`. A loaded index answers queries
  /// without the original graph; call `Build` before using `ApplyUpdate`
  /// again. Malformed input returns `kCorrupt` naming the failing section
  /// and its byte offset, leaving the index unspecified.
  LoadResult Load(std::istream& in) override;

  /// Deletions currently answered through the repair machinery (0 =
  /// label-exact) and the configured budget.
  size_t Damage() const { return damage_; }
  size_t StalenessBudget() const { return staleness_budget_; }

  /// True when the sealed labels live in block-compressed pools.
  bool CompressedStorage() const { return compressed_; }
  /// True when a `budget_mb` bound was requested but even the coarsest
  /// storage tier exceeds it (or a rank group forced the flat fallback).
  bool BudgetExceeded() const { return budget_exceeded_; }
  const TwoHopStorageOptions& Storage() const { return storage_; }

 protected:
  /// `num_threads`: 0 = `DefaultThreads()`, 1 = serial build; the labeling
  /// is bit-identical for any count.
  TwoHopEngine(VertexOrder order, uint64_t seed, size_t num_threads,
               TwoHopStorageOptions storage, size_t staleness_budget)
      : order_(order),
        seed_(seed),
        num_threads_(num_threads),
        storage_(storage),
        staleness_budget_(staleness_budget) {}

  /// The single query entry point: counts into probe `slot`, then runs
  /// the superset label test (zero damage) or the witness-trust protocol.
  bool Answer(VertexId s, VertexId t, Constraint c, size_t slot) const;

  /// Validate-first batch application: an out-of-range endpoint or label
  /// rejects the whole batch with no state change. Never rebuilds;
  /// crossing the staleness budget only changes the returned status to
  /// `kDeferredRebuild`.
  UpdateResult ApplyBatch(const std::vector<Update>& batch);

  /// Rebuilds over the live edge set (base ∪ extras, minus tombstones),
  /// folding the delta overlay in and resetting damage. False when no
  /// live graph is attached (after `Load`).
  bool Rebuild();

  /// Total Lin + Lout entries, delta overlay included — the index-size
  /// measure of §3.2.
  size_t TotalEntries() const;

  /// Per-vertex entries as one rank-sorted vector: the sealed slice merged
  /// with the delta overlay (Lin only; Lout has no delta).
  std::vector<Entry> InEntries(VertexId v) const;
  std::vector<Entry> OutEntries(VertexId v) const;

  /// Releases the sealed pools (and any snapshot mapping behind them).
  void ClearPools();
  /// Clears every post-build overlay: extras, tombstones, delta, damage.
  void ResetDynamicState();
  /// Publishes the index.bytes / compression gauges after a (re)seal.
  void PublishStorageGauges(size_t flat_equivalent_bytes) const;

  VertexOrder order_;
  uint64_t seed_;
  size_t num_threads_;
  TwoHopStorageOptions storage_;
  size_t staleness_budget_;
  const Graph* graph_ = nullptr;
  Graph owned_graph_;              // used after RebuildFromUpdates
  std::vector<uint32_t> rank_;     // rank_[v] = order position (0 = first)
  std::vector<VertexId> by_rank_;  // inverse of rank_
  // Build-side accumulators (rank-sorted); SealLabels() moves them into
  // the pools and leaves them empty.
  std::vector<std::vector<Entry>> lin_;
  std::vector<std::vector<Entry>> lout_;
  // Sealed query-path layout: exactly one representation is live after
  // SealLabels — the flat pools, or (when `storage_` asks for compression
  // or the budget forces it) the block-compressed pools.
  FlatLabelPool<Entry> lin_pool_;
  FlatLabelPool<Entry> lout_pool_;
  CompressedPool lin_cpool_;
  CompressedPool lout_cpool_;
  bool compressed_ = false;
  bool budget_exceeded_ = false;
  // Keeps a zero-copy snapshot mapping alive while pool views point into
  // it (docs/SNAPSHOTS.md lifetime rules).
  std::shared_ptr<MappedFile> mapping_;
  // Unsealed delta overlay: Lin entries added by inserts after sealing
  // (rank-sorted, never covered by the pool slice). Empty until the first
  // insert.
  std::vector<std::vector<Entry>> delta_lin_;
  bool has_delta_ = false;
  // Arcs inserted after Build (delta adjacency on top of *graph_).
  std::vector<std::vector<Arc>> extra_out_;
  std::vector<std::vector<Arc>> extra_in_;
  // Deleted arcs (sorted per vertex), base and extra alike; the live
  // iterators skip them. Deleted extras stay in extra_* on purpose: the
  // superset adjacency (which the sealed + delta labels are exact for,
  // and which damage marking traverses) must keep every arc that ever
  // existed — a later delete can break the detour that justified an
  // earlier "locally redundant" one, and the marking sweep is only
  // conservative if it still sees the old route. Empty until the first
  // delete.
  std::vector<std::vector<Arc>> tomb_out_;
  std::vector<std::vector<Arc>> tomb_in_;
  // Damaging deletes absorbed since the last (re)build, and the per-rank
  // stale-witness marks they left: damaged_fwd_[r] = hub by_rank_[r]'s
  // forward claims (its Lin entries at other vertices) may be stale;
  // damaged_bwd_[r] dually for its Lout entries. The all_damaged flags
  // are the budget-overrun fallbacks of the bounded marking sweep.
  size_t damage_ = 0;
  std::vector<uint8_t> damaged_fwd_;
  std::vector<uint8_t> damaged_bwd_;
  bool fwd_all_damaged_ = false;
  bool bwd_all_damaged_ = false;
  // Writer-side scratch (redundancy checks, damage marking, propagation).
  mutable SearchWorkspace ws_;
  // Per-slot scratch for damaged-witness verification (slot-parallel
  // queries must not share ws_).
  mutable WorkspacePool verify_ws_;
  mutable ProbePool probes_;

 private:
  friend Traits;  // the sweeps and insert propagation work on engine state

  // Visit cap for the per-delete local searches (redundancy check and
  // damage marking); overrun degrades to all-ranks-damaged, never to a
  // wrong answer.
  static constexpr size_t kLocalSearchBudget = 4096;

  void ComputeOrder(const Graph& graph);
  // The pruned build, serial or speculate/commit/redo. Each rank and
  // direction is one `Traits::Sweep(engine, graph, r, forward, speculative,
  // scratch, emit)`, which calls emit(x, entry) in push order. A serial
  // sweep prunes against the live labeling. A speculative one sees only
  // the committed prefix: it records the vertices its oracle read in
  // `scratch.Touched()` and returns false once it floods past its cap.
  void BuildLabels(const Graph& graph, size_t threads);
  void SealLabels();
  // Build-time pruning oracle over the (unsealed) nested entry vectors.
  bool LabelQuery(VertexId s, VertexId t, Constraint c) const;
  // The label test on the sealed pools + delta overlay: exact for the
  // superset graph (base ∪ every arc ever inserted), hence exact
  // negatives — and, with zero damage, exact positives — for the live one.
  bool SupersetAnswer(VertexId s, VertexId t, Constraint c) const;
  // Damage-mode answer: a witness whose hub ranks are unmarked -> true;
  // no witness -> false; only damaged witnesses -> `LiveSearch`.
  bool DamagedAnswer(VertexId s, VertexId t, Constraint c,
                     size_t slot) const;
  // BFS s -> t over live arcs `c` admits, pruned at vertices whose
  // superset answer is already negative. Gives up (false) once more than
  // `budget` vertices are queued.
  bool LiveSearch(VertexId s, VertexId t, Constraint c, SearchWorkspace& ws,
                  size_t budget) const;
  // Arcs of v (out-arcs when `forward`) over base ∪ extras; `live` skips
  // the tombstoned ones, otherwise this is the superset adjacency.
  template <typename Fn>
  void ForEachArc(VertexId v, bool forward, bool live, Fn&& fn) const;
  bool HasArc(VertexId s, const Arc& arc) const;  // base or extra
  bool IsTombstoned(VertexId s, const Arc& arc) const;
  // Single-update applicators; true when graph state changed.
  bool ApplyInsert(const Update& update);
  bool ApplyDelete(const Update& update);
  // Adds `entry` to the Lin delta of x unless sealed or delta entries
  // already cover it.
  void AddInEntry(VertexId x, const Entry& entry);
  // Marks the hub ranks whose claims the delete (u, v) may have staled.
  void MarkDamage(VertexId u, VertexId v);
  // Transitive mark sweep over the superset adjacency; false = budget
  // overrun (caller escalates to the matching *_all_damaged_ flag).
  bool DamageSweep(VertexId start, bool backward);
  bool RankDamagedFwd(uint32_t r) const {
    return fwd_all_damaged_ || damaged_fwd_[r] != 0;
  }
  bool RankDamagedBwd(uint32_t r) const {
    return bwd_all_damaged_ || damaged_bwd_[r] != 0;
  }
};

}  // namespace reach

#endif  // REACH_CORE_TWO_HOP_ENGINE_H_
