#ifndef REACH_PLAIN_PRUNED_TWO_HOP_H_
#define REACH_PLAIN_PRUNED_TWO_HOP_H_

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/label_kernels.h"
#include "core/label_pool.h"
#include "core/mapped_file.h"
#include "core/reachability_index.h"
#include "core/two_hop_engine.h"
#include "graph/digraph.h"

namespace reach {

/// What the TOL family plugs into `TwoHopEngine`: an entry is a bare hop
/// rank, lists are strictly increasing, queries carry no constraint, and
/// the kernels are the plain sorted-set ones (`IntersectSorted`,
/// `CompressedRankPool`).
struct PlainTwoHopTraits {
  using Interface = DynamicReachabilityIndex;
  using Graph = Digraph;
  using Update = EdgeUpdate;
  using Arc = VertexId;
  using Entry = uint32_t;
  using CompressedPool = CompressedRankPool;
  struct Constraint {};

  static constexpr bool kRankGroups = false;
  // The envelope's format name: one name for the whole TOL family — the
  // stream stores the total order itself, so any `VertexOrder` instance
  // can load any other's labeling.
  static constexpr std::string_view kFormatName = "pll";
  // Payload magic, kept from the pre-envelope format.
  static constexpr uint64_t kPayloadMagic = 0x72656163682d3268ULL;  // reach-2h

  static uint32_t RankOf(uint32_t entry) { return entry; }
  static Constraint EntryConstraint(uint32_t) { return {}; }

  static bool Covered(std::span<const uint32_t> list, uint32_t rank,
                      Constraint) {
    return std::binary_search(list.begin(), list.end(), rank);
  }
  static bool Covered(const CompressedRankPool& pool, VertexId v,
                      uint32_t rank, Constraint) {
    return pool.Contains(v, rank);
  }
  static bool Intersect(std::span<const uint32_t> a,
                        std::span<const uint32_t> b, Constraint) {
    return IntersectSorted(a.data(), a.size(), b.data(), b.size());
  }
  static bool Intersect(const CompressedRankPool& a, VertexId va,
                        const CompressedRankPool& b, VertexId vb,
                        Constraint) {
    return CompressedRankPool::Intersect(a, va, b, vb);
  }
  static bool Intersect(const CompressedRankPool& pool, VertexId v,
                        std::span<const uint32_t> sorted, Constraint) {
    return pool.IntersectWithSorted(v, sorted.data(), sorted.size());
  }
  static bool Seal(CompressedRankPool& pool,
                   const std::vector<std::vector<uint32_t>>& lists,
                   size_t block_entries) {
    pool.Seal(lists, block_entries);
    return true;
  }

  static std::span<const VertexId> OutArcs(const Digraph& g, VertexId v) {
    return g.OutNeighbors(v);
  }
  static std::span<const VertexId> InArcs(const Digraph& g, VertexId v) {
    return g.InNeighbors(v);
  }
  static VertexId Head(VertexId arc) { return arc; }
  static bool ArcAllowed(VertexId, Constraint) { return true; }
  // Any live detour makes a delete redundant.
  static Constraint DetourConstraint(VertexId) { return {}; }
  static VertexId OutArc(const EdgeUpdate& u) { return u.target; }
  static VertexId InArc(const EdgeUpdate& u) { return u.source; }
  static bool LabelInRange(const Digraph&, const EdgeUpdate&) { return true; }
  static Edge MakeEdge(VertexId source, VertexId arc) { return {source, arc}; }
  static VertexId OutArcOf(const Edge& e) { return e.target; }
  static Digraph FromEdges(const Digraph& like, std::vector<Edge> edges) {
    return Digraph::FromEdges(static_cast<VertexId>(like.NumVertices()),
                              std::move(edges));
  }

  // Build: one pruned BFS per rank and direction (pruned_two_hop.cc).
  struct Scratch;
  template <typename Engine, typename Emit>
  static bool Sweep(const Engine& engine, const Digraph& graph, uint32_t r,
                    bool forward, bool speculative, Scratch& s, Emit&& emit);
  template <typename Engine>
  static void PropagateInsert(Engine& engine, VertexId s, VertexId t);
};

/// The 2-hop labeling framework of Cohen et al. [14] computed with pruned
/// BFSs under a total order — i.e., TOL [55], covering PLL [49] / DL [25] /
/// TFL [13] as order instantiations (paper §3.2).
///
/// Every vertex v carries two sets of hops: Lin(v) (vertices that reach v)
/// and Lout(v) (vertices v reaches). Qr(s, t) is true iff s == t,
/// s ∈ Lin(t), t ∈ Lout(s), or Lout(s) ∩ Lin(t) ≠ ∅ — the three cases of
/// the paper. Building runs a forward and a backward BFS from each vertex
/// in total-order sequence; a visit of w from hop v is pruned when the
/// labels built so far already answer Qr(v, w) (resp. Qr(w, v)), and when a
/// higher-ranked vertex is reached. This yields a *complete* index on
/// *general* digraphs (no DAG condensation needed — vertices of an SCC are
/// covered by their highest-ranked member).
///
/// Dynamics (the TOL row's "Yes" in Table 1), via `ApplyUpdate`:
///  * Inserts maintain correctness incrementally: for every hop h in
///    Lin(u) ∪ {u}, h is propagated through the new edge (u, v) to all
///    vertices reachable from v. Unlike TOL's full algorithm this may
///    retain redundant entries (redundancy elimination is out of scope);
///    `Build` can be re-run to re-minimize.
///  * Deletes are absorbed without rebuilding by the engine's superset
///    labeling, tombstones, damage marks and witness-trust answers
///    (`TwoHopEngine`, DESIGN.md §2.5); a delete is locally
///    redundant when any live detour survives. Answers stay exact at every
///    damage level; once damage crosses `staleness_budget` the batch
///    returns `kDeferredRebuild` and the caller schedules
///    `RebuildFromUpdates()`.
class PrunedTwoHop : public TwoHopEngine<PlainTwoHopTraits> {
 public:
  /// `num_threads` parallelizes the build with rank-batched speculative
  /// pruned BFSs (paraPLL-style); the committed labeling — including
  /// `Save` bytes — is bit-identical to a serial build for any thread
  /// count (docs/PARALLELISM.md). 0 = `DefaultThreads()`, 1 = serial.
  explicit PrunedTwoHop(VertexOrder order = VertexOrder::kDegree,
                        uint64_t seed = 0x70'6c'6cULL, size_t num_threads = 0,
                        TwoHopStorageOptions storage = {},
                        size_t staleness_budget = kDefaultStalenessBudget)
      : TwoHopEngine(order, seed, num_threads, storage, staleness_budget) {}

  bool Query(VertexId s, VertexId t) const override;
  std::string Name() const override;

  size_t PrepareConcurrentQueries(size_t slots) const override;
  bool QueryInSlot(VertexId s, VertexId t, size_t slot) const override;

  /// The unified write surface (see class comment). Inserts always apply
  /// incrementally; deletes apply incrementally with bounded local repair.
  UpdateResult ApplyUpdate(const UpdateBatch& batch) override {
    return ApplyBatch(batch);
  }
  bool SupportsDeletions() const override { return true; }
  /// Folds tombstones + inserted edges into a fresh build over the live
  /// edge set, resetting damage to zero.
  bool RebuildFromUpdates() override { return Rebuild(); }

  /// Writes an RCHX v2 *snapshot file* (docs/SNAPSHOTS.md): the sealed
  /// pool arrays — flat or compressed, any post-build delta folded in —
  /// laid out page-aligned behind a section table, so `LoadSnapshot` can
  /// mmap the file and serve queries straight off the mapping. Unlike
  /// `Save`, the bytes depend on the storage mode. Refuses while damaged,
  /// like `Save`.
  bool SaveSnapshot(std::ostream& out) const;

  /// Crash-safe snapshot write to a file: the stream form above routed
  /// through `WriteFileAtomic` (temp file + fsync + atomic rename), so a
  /// crash or failure mid-write can never tear an existing snapshot at
  /// `path` — it keeps its old bytes until the new ones are durable.
  bool SaveSnapshot(const std::string& path,
                    std::string* error = nullptr) const;

  /// Zero-copy restore of a snapshot written by `SaveSnapshot`: the file
  /// is mmap'd, the section table and pool structure are validated, and
  /// the sealed pools are pointed directly at the mapping — no copy, no
  /// reseal. The mapping is held by the index (and released on the next
  /// `Build`/`Load`/destruction). On failure the result names the
  /// failing section and byte offset; the index is left unspecified.
  LoadResult LoadSnapshot(const std::string& path);
  LoadResult LoadSnapshot(std::shared_ptr<MappedFile> file);

  /// Total number of label entries sum |Lin| + |Lout| — the index-size
  /// measure of §3.2.
  size_t TotalLabelEntries() const { return TotalEntries(); }

  /// Number of vertices covered by the (built or loaded) labeling.
  size_t NumIndexedVertices() const { return rank_.size(); }

  /// The hop ranks labeling `v` (ascending), for tests / ablation benches:
  /// the sealed pool slice merged with any post-build delta entries.
  std::vector<uint32_t> InLabels(VertexId v) const { return InEntries(v); }
  std::vector<uint32_t> OutLabels(VertexId v) const { return OutEntries(v); }
};

extern template class TwoHopEngine<PlainTwoHopTraits>;

}  // namespace reach

#endif  // REACH_PLAIN_PRUNED_TWO_HOP_H_
