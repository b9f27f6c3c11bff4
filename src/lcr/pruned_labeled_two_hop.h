#ifndef REACH_LCR_PRUNED_LABELED_TWO_HOP_H_
#define REACH_LCR_PRUNED_LABELED_TWO_HOP_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/label_pool.h"
#include "core/two_hop_engine.h"
#include "lcr/label_set.h"
#include "lcr/lcr_index.h"

namespace reach {

/// What P2H+ plugs into `TwoHopEngine`: an entry is a hop rank plus the
/// minimal label set (SPLS) of a path through it, a rank may carry a group
/// of such entries, and queries carry the allowed label set — a hop joins
/// s and t iff both sides have an entry whose SPLS ⊆ allowed.
struct LabeledTwoHopTraits {
  using Interface = LcrIndex;
  using Graph = LabeledDigraph;
  using Update = LabeledEdgeUpdate;
  using Arc = LabeledDigraph::Arc;
  struct Entry {
    uint32_t rank;
    LabelSet mask;
  };
  using CompressedPool = CompressedEntryPool<Entry>;
  using Constraint = LabelSet;

  static constexpr bool kRankGroups = true;
  static constexpr std::string_view kFormatName = "p2h";
  // Distinct from the plain "reach-2h" payload; the envelope already
  // distinguishes formats, this is defense in depth.
  static constexpr uint64_t kPayloadMagic = 0x7265616368703268ULL;  // reachp2h

  static uint32_t RankOf(const Entry& entry) { return entry.rank; }
  static LabelSet EntryConstraint(const Entry& entry) { return entry.mask; }

  // Kernels (pruned_labeled_two_hop.cc, docs/QUERY_ENGINE.md): true iff
  // `list` holds (rank, mask ⊆ allowed); the rank-grouped sweep over two
  // sorted entry ranges; and their compressed-pool analogues — a rank
  // group is never split across blocks, so the covered test decodes one
  // block and the intersection is a skip-table block-merge over decoded
  // block pairs.
  static bool Covered(std::span<const Entry> list, uint32_t rank,
                      LabelSet allowed);
  static bool Covered(const CompressedPool& pool, VertexId v, uint32_t rank,
                      LabelSet allowed);
  static bool Intersect(std::span<const Entry> out, std::span<const Entry> in,
                        LabelSet allowed);
  static bool Intersect(const CompressedPool& out_pool, VertexId s,
                        const CompressedPool& in_pool, VertexId t,
                        LabelSet allowed);
  static bool Intersect(const CompressedPool& pool, VertexId v,
                        std::span<const Entry> other, LabelSet allowed);
  // Refuses when a rank group outgrows any block (the engine stays flat).
  static bool Seal(CompressedPool& pool,
                   const std::vector<std::vector<Entry>>& lists,
                   size_t block_entries) {
    return pool.Seal(lists, block_entries);
  }

  static std::span<const Arc> OutArcs(const LabeledDigraph& g, VertexId v) {
    return g.OutArcs(v);
  }
  static std::span<const Arc> InArcs(const LabeledDigraph& g, VertexId v) {
    return g.InArcs(v);
  }
  static VertexId Head(const Arc& arc) { return arc.vertex; }
  static bool ArcAllowed(const Arc& arc, LabelSet allowed) {
    return IsSubsetOf(LabelBit(arc.label), allowed);
  }
  // A live all-`label` detour keeps every answer: any query path through
  // the deleted arc has `label` in its allowed set, so splicing in the
  // detour stays within it.
  static LabelSet DetourConstraint(const Arc& arc) {
    return LabelBit(arc.label);
  }
  static Arc OutArc(const LabeledEdgeUpdate& u) { return {u.target, u.label}; }
  static Arc InArc(const LabeledEdgeUpdate& u) { return {u.source, u.label}; }
  static bool LabelInRange(const LabeledDigraph& g,
                           const LabeledEdgeUpdate& u) {
    return u.label < g.NumLabels();
  }
  static LabeledEdge MakeEdge(VertexId source, const Arc& arc) {
    return {source, arc.vertex, arc.label};
  }
  static Arc OutArcOf(const LabeledEdge& e) { return {e.target, e.label}; }
  static LabeledDigraph FromEdges(const LabeledDigraph& like,
                                  std::vector<LabeledEdge> edges) {
    return LabeledDigraph::FromEdges(
        static_cast<VertexId>(like.NumVertices()), like.NumLabels(),
        std::move(edges));
  }

  // Build: one label-BFS per rank and direction (pruned_labeled_two_hop.cc).
  struct Scratch;
  template <typename Engine, typename Emit>
  static bool Sweep(const Engine& engine, const LabeledDigraph& graph,
                    uint32_t r, bool forward, bool speculative, Scratch& s,
                    Emit&& emit);
  template <typename Engine>
  static void PropagateInsert(Engine& engine, VertexId s, const Arc& arc);
};

/// P2H+-style pruned labeled 2-hop index (Peng et al. [33], paper §4.1.3),
/// with DLCR-style [10] incremental edge insertion — the 2-hop rows of
/// Table 2.
///
/// Every vertex carries Lin/Lout entries (hop, SPLS): (h, S) ∈ Lin(v)
/// means h reaches v via a path whose minimal label set is S.
/// Qr(s, t, alpha) is true iff there is a common hop h with
/// S_out(s, h) ∪ S_in(h, t) ⊆ alpha's mask (the endpoints act as their own
/// virtual hops with empty SPLS).
///
/// Build runs forward/backward *label-BFSs* from vertices in decreasing-
/// degree order; states (vertex, label set) expand in nondecreasing
/// |label set| (so recorded SPLSs are minimal) and a state is pruned when
/// the index built so far already answers the corresponding query — the
/// non-redundancy guarantee of P2H+. Works on general graphs.
///
/// Dynamics (the DLCR row), all behind `ApplyUpdate`:
///
///  * Inserts resume label-BFSs through the new arc for every hop that
///    reaches its source, keeping the index correct (possibly with
///    redundant entries — DLCR's redundancy elimination bookkeeping is
///    out of scope; see DESIGN.md).
///  * Deletes go through the engine's decremental machinery (`TwoHopEngine`,
///    DESIGN.md §2.5) over labeled arcs. A delete is *locally
///    redundant* — zero damage — when a live all-`label` detour s ->* t
///    survives a bounded search. Otherwise label-ignoring sweeps over the
///    superset graph mark ancestor ranks of s as forward-damaged and
///    descendant ranks of t as backward-damaged (a sound over-approximation
///    of the constrained ancestor/descendant sets); damaged witnesses are
///    re-checked by a constrained traversal, so answers stay exact at any
///    damage level. `RebuildFromUpdates` re-minimizes and clears the
///    damage once it crosses the staleness budget.
class PrunedLabeledTwoHop : public TwoHopEngine<LabeledTwoHopTraits> {
 public:
  /// `num_threads` parallelizes the build with rank-batched
  /// speculate/commit/redo; speculative sweeps consult a worker-local
  /// shadow of their own rank's entries, since the serial pruning oracle
  /// sees in-sweep insertions. The labeling is bit-identical to a serial
  /// build for any thread count (docs/PARALLELISM.md). 0 =
  /// `DefaultThreads()`, 1 = serial.
  ///
  /// `staleness_budget` is the damage level past which `ApplyUpdate`
  /// reports `kDeferredRebuild` (answers stay exact; the caller decides
  /// when to pay for `RebuildFromUpdates`). 0 = never recommend.
  explicit PrunedLabeledTwoHop(size_t num_threads = 0,
                               TwoHopStorageOptions storage = {},
                               size_t staleness_budget =
                                   kDefaultStalenessBudget)
      : TwoHopEngine(VertexOrder::kDegree, 0, num_threads, storage,
                     staleness_budget) {}

  bool Query(VertexId s, VertexId t, LabelSet allowed) const override;
  /// Envelope format name too.
  std::string Name() const override { return "p2h"; }

  /// Applies a batch of labeled inserts and deletes (class comment).
  /// Validate-first: an endpoint or label out of range rejects the whole
  /// batch with no state change. Returns `kDeferredRebuild` once damage
  /// exceeds the staleness budget.
  UpdateResult ApplyUpdate(const LabeledUpdateBatch& batch) {
    return ApplyBatch(batch);
  }

  /// Deletions are absorbed incrementally (class comment).
  bool SupportsDeletions() const { return true; }

  /// Rebuilds from the live edge set (base ∪ extras, minus tombstones),
  /// re-minimizing the labeling and resetting damage to zero. Returns
  /// false when no live graph is attached (after `Load`).
  bool RebuildFromUpdates() { return Rebuild(); }

  /// Total number of (hop, SPLS) entries across all vertices.
  using TwoHopEngine::TotalEntries;
};

extern template class TwoHopEngine<LabeledTwoHopTraits>;

}  // namespace reach

#endif  // REACH_LCR_PRUNED_LABELED_TWO_HOP_H_
