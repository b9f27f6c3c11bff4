#include "lcr/pruned_labeled_two_hop.h"

#include "core/label_kernels.h"
#include "core/two_hop_engine_impl.h"

namespace reach {

namespace {

using Entry = LabeledTwoHopTraits::Entry;
using Arc = LabeledDigraph::Arc;

// Exponential search to the first entry with `entry.rank >= rank` at index
// >= `from` — the rank-projected analogue of `GallopLowerBound`, shared by
// the skewed-size advance of the LCR rank-group sweep.
template <typename E>
size_t GallopToRank(std::span<const E> entries, size_t from, uint32_t rank) {
  const size_t n = entries.size();
  if (from >= n || entries[from].rank >= rank) return from;
  size_t offset = 1;
  while (from + offset < n && entries[from + offset].rank < rank) {
    offset <<= 1;
  }
  const size_t lo = from + offset / 2;
  const size_t hi = std::min(n, from + offset + 1);
  return static_cast<size_t>(
      std::lower_bound(entries.begin() + lo, entries.begin() + hi, rank,
                       [](const E& e, uint32_t r) { return e.rank < r; }) -
      entries.begin());
}

// Rank-group two-pointer / galloping sweep over two sorted entry ranges
// (docs/QUERY_ENGINE.md).
bool IntersectEntryRanges(std::span<const Entry> out,
                          std::span<const Entry> in, LabelSet allowed) {
  // First/last-rank prefilter: disjoint rank ranges cannot share a hop.
  if (out.empty() || in.empty()) return false;
  if (out.back().rank < in.front().rank ||
      in.back().rank < out.front().rank) {
    return false;
  }
  // Rank-group sweep; skewed sizes advance by galloping instead of one
  // group at a time (same >= 8x threshold as the plain engine).
  const bool gallop = out.size() >= kGallopSkewThreshold * in.size() ||
                      in.size() >= kGallopSkewThreshold * out.size();
  size_t i = 0, j = 0;
  while (i < out.size() && j < in.size()) {
    if (out[i].rank < in[j].rank) {
      i = gallop ? GallopToRank(out, i + 1, in[j].rank) : i + 1;
    } else if (out[i].rank > in[j].rank) {
      j = gallop ? GallopToRank(in, j + 1, out[i].rank) : j + 1;
    } else {
      const uint32_t rank = out[i].rank;
      size_t i_end = i, j_end = j;
      while (i_end < out.size() && out[i_end].rank == rank) ++i_end;
      while (j_end < in.size() && in[j_end].rank == rank) ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        if (!IsSubsetOf(out[a].mask, allowed)) continue;
        for (size_t b = j; b < j_end; ++b) {
          if (IsSubsetOf(in[b].mask, allowed)) return true;
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return false;
}

// A label-BFS state: `vertex` reached with accumulated label set `mask`.
struct State {
  LabelSet mask;
  VertexId vertex;
};

// Bucket queue keyed by |mask| so states expand in nondecreasing number of
// distinct labels (minimal SPLSs first).
class BucketQueue {
 public:
  void Clear() {
    for (auto& b : buckets_) b.clear();
    level_ = 0;
    index_ = 0;
  }

  void Push(State s) { buckets_[LabelCount(s.mask)].push_back(s); }

  // Returns false when empty. States pushed at the current level while
  // draining it are still popped (same-level growth).
  bool Pop(State* out) {
    while (level_ <= kMaxLabels) {
      if (index_ < buckets_[level_].size()) {
        *out = buckets_[level_][index_++];
        return true;
      }
      buckets_[level_].clear();
      index_ = 0;
      ++level_;
    }
    return false;
  }

 private:
  std::vector<State> buckets_[kMaxLabels + 1];
  size_t level_ = 0;
  size_t index_ = 0;
};

// Per-sweep dominance antichains with O(1) sparse reset.
class SeenSets {
 public:
  void Reset(size_t n) {
    if (seen_.size() < n) seen_.resize(n);
    for (VertexId v : touched_) seen_[v] = MinimalLabelSets();
    touched_.clear();
  }

  // Adds mask for v unless dominated; returns true if added.
  bool Add(VertexId v, LabelSet mask) {
    if (seen_[v].empty()) touched_.push_back(v);
    return seen_[v].AddIfMinimal(mask);
  }

  bool Dominates(VertexId v, LabelSet mask) const {
    return seen_[v].Dominates(mask);
  }

  /// Distinct vertices added since the last `Reset` — exactly the set of
  /// vertices the sweep's pruning oracle was evaluated at, which is what
  /// the parallel build's conflict check needs.
  const std::vector<VertexId>& Touched() const { return touched_; }

 private:
  std::vector<MinimalLabelSets> seen_;
  std::vector<VertexId> touched_;
};

}  // namespace

bool LabeledTwoHopTraits::Covered(std::span<const Entry> list, uint32_t rank,
                                  LabelSet allowed) {
  // Entries are grouped by ascending rank; binary-search the group start.
  auto it = std::lower_bound(
      list.begin(), list.end(), rank,
      [](const Entry& e, uint32_t r) { return e.rank < r; });
  for (; it != list.end() && it->rank == rank; ++it) {
    if (IsSubsetOf(it->mask, allowed)) return true;
  }
  return false;
}

bool LabeledTwoHopTraits::Covered(const CompressedPool& pool, VertexId v,
                                  uint32_t rank, LabelSet allowed) {
  const size_t end = pool.BlockEnd(v);
  const size_t b = pool.LowerBoundBlock(pool.BlockBegin(v), end, rank);
  if (b == end || pool.Skip(b).first > rank) return false;
  // Rank groups are never split across blocks, so the whole group of
  // `rank` — if present — lives in this one block.
  Entry buf[CompressedPool::kMaxBlockEntries];
  const size_t count = pool.DecodeBlock(b, buf);
  return Covered({buf, count}, rank, allowed);
}

bool LabeledTwoHopTraits::Intersect(std::span<const Entry> out,
                                    std::span<const Entry> in,
                                    LabelSet allowed) {
  return IntersectEntryRanges(out, in, allowed);
}

bool LabeledTwoHopTraits::Intersect(const CompressedPool& out_pool,
                                    VertexId s, const CompressedPool& in_pool,
                                    VertexId t, LabelSet allowed) {
  size_t i = out_pool.BlockBegin(s), j = in_pool.BlockBegin(t);
  const size_t i_end = out_pool.BlockEnd(s), j_end = in_pool.BlockEnd(t);
  if (i == i_end || j == j_end) return false;
  // Whole-list prefilter straight off the skip entries.
  if (out_pool.Skip(i_end - 1).last < in_pool.Skip(j).first ||
      in_pool.Skip(j_end - 1).last < out_pool.Skip(i).first) {
    return false;
  }
  constexpr size_t kCap = CompressedPool::kMaxBlockEntries;
  Entry buf_out[kCap], buf_in[kCap];
  size_t decoded_out = SIZE_MAX, decoded_in = SIZE_MAX;
  size_t count_out = 0, count_in = 0;
  while (i != i_end && j != j_end) {
    const auto& so = out_pool.Skip(i);
    const auto& si = in_pool.Skip(j);
    if (so.last < si.first) {
      i = out_pool.LowerBoundBlock(i + 1, i_end, si.first);
      continue;
    }
    if (si.last < so.first) {
      j = in_pool.LowerBoundBlock(j + 1, j_end, so.first);
      continue;
    }
    if (decoded_out != i) {
      count_out = out_pool.DecodeBlock(i, buf_out);
      decoded_out = i;
    }
    if (decoded_in != j) {
      count_in = in_pool.DecodeBlock(j, buf_in);
      decoded_in = j;
    }
    if (IntersectEntryRanges({buf_out, count_out}, {buf_in, count_in},
                             allowed)) {
      return true;
    }
    // Equal-last advance-both is sound: blocks end at whole rank groups,
    // so the shared last group was fully checked by this pair.
    const bool advance_out = so.last <= si.last;
    const bool advance_in = si.last <= so.last;
    if (advance_out) ++i;
    if (advance_in) ++j;
  }
  return false;
}

bool LabeledTwoHopTraits::Intersect(const CompressedPool& pool, VertexId v,
                                    std::span<const Entry> other,
                                    LabelSet allowed) {
  if (other.empty()) return false;
  const size_t end = pool.BlockEnd(v);
  size_t b = pool.LowerBoundBlock(pool.BlockBegin(v), end,
                                  other.front().rank);
  Entry buf[CompressedPool::kMaxBlockEntries];
  for (; b != end && pool.Skip(b).first <= other.back().rank; ++b) {
    const size_t count = pool.DecodeBlock(b, buf);
    if (IntersectEntryRanges({buf, count}, other, allowed)) return true;
  }
  return false;
}

// Per-worker build scratch: the label-BFS queue and dominance sets, plus
// a speculative sweep's shadow of its own entries (its rank group).
struct LabeledTwoHopTraits::Scratch {
  BucketQueue queue;
  SeenSets seen;
  std::vector<std::vector<LabelSet>> local;
  std::vector<VertexId> local_touched;

  const std::vector<VertexId>& Touched() const { return seen.Touched(); }
};

template <typename Engine, typename Emit>
bool LabeledTwoHopTraits::Sweep(const Engine& engine,
                                const LabeledDigraph& graph, uint32_t r,
                                bool forward, bool speculative, Scratch& s,
                                Emit&& emit) {
  // The P2H+ sweep: forward populates Lin via hop -> x label-BFS states,
  // backward populates Lout.
  //
  // The serial pruning oracle LabelQuery(hop, x, next) also reads the
  // rank-r entry group of Lin(x) — entries this very sweep inserted. A
  // speculative sweep sees only the committed prefix (which holds no
  // rank-r groups), so it shadows its own entries in `local`:
  // shadow-covered || LabelQuery then equals the serial oracle exactly.
  // Label-BFS state counts can exceed n (one state per (vertex, mask)),
  // hence the higher flood cap.
  const size_t n = graph.NumVertices();
  const size_t cap = speculative ? std::max<size_t>(1024, 4 * n) : SIZE_MAX;
  const VertexId hop = engine.by_rank_[r];
  if (speculative) {
    if (s.local.size() < n) s.local.resize(n);
    for (VertexId v : s.local_touched) s.local[v].clear();
    s.local_touched.clear();
  }
  s.queue.Clear();
  s.seen.Reset(n);
  s.seen.Add(hop, 0);
  s.queue.Push({0, hop});
  size_t evaluated = 0;
  State state;
  while (s.queue.Pop(&state)) {
    for (const Arc& arc : forward ? graph.OutArcs(state.vertex)
                                  : graph.InArcs(state.vertex)) {
      const VertexId x = arc.vertex;
      if (x == hop || engine.rank_[x] < r) continue;
      const LabelSet next = state.mask | LabelBit(arc.label);
      if (s.seen.Dominates(x, next)) continue;
      ++evaluated;
      const bool covered =
          (speculative &&
           std::any_of(s.local[x].begin(), s.local[x].end(),
                       [next](LabelSet m) { return IsSubsetOf(m, next); })) ||
          (forward ? engine.LabelQuery(hop, x, next)
                   : engine.LabelQuery(x, hop, next));
      s.seen.Add(x, next);  // covered states still block their supersets
      if (covered) continue;
      if (speculative) {
        if (s.local[x].empty()) s.local_touched.push_back(x);
        s.local[x].push_back(next);
      }
      emit(x, Entry{r, next});
      s.queue.Push({next, x});
    }
    if (evaluated > cap) return false;
  }
  return true;
}

template <typename Engine>
void LabeledTwoHopTraits::PropagateInsert(Engine& engine, VertexId s,
                                          const Arc& arc) {
  // Every newly answerable pair (x, y, A) decomposes as x -> s (old paths,
  // mask M1 ⊆ A), the new arc (label ∈ A), then t -> y (old paths,
  // M2 ⊆ A). The old index answers (x, s, M1) through some hop entry of
  // Lin(s) (or the virtual hop s), so propagating each such hop through the
  // new arc to everything reachable from t restores completeness.
  // Traversal prunes only by per-sweep dominance, never by index queries —
  // minimality is traded for correctness (see class comment). It runs over
  // the superset adjacency, not the live one: the delta overlay must keep
  // describing the superset, or a later tombstone resurrection (which adds
  // no labels) would leave pairs routed through the tombstoned arc without
  // a witness — a wrong exact negative.
  std::vector<Entry> hops = engine.InEntries(s);
  hops.push_back({engine.rank_[s], 0});
  BucketQueue queue;
  SeenSets seen;
  State state;
  for (const Entry& hop_entry : hops) {
    const VertexId hop = engine.by_rank_[hop_entry.rank];
    queue.Clear();
    seen.Reset(engine.graph_->NumVertices());
    const LabelSet start = hop_entry.mask | LabelBit(arc.label);
    seen.Add(arc.vertex, start);
    queue.Push({start, arc.vertex});
    while (queue.Pop(&state)) {
      if (state.vertex != hop) {
        engine.AddInEntry(state.vertex, {hop_entry.rank, state.mask});
      }
      engine.ForEachArc(state.vertex, /*forward=*/true, /*live=*/false,
                        [&](const Arc& a) {
                          const LabelSet next = state.mask | LabelBit(a.label);
                          if (seen.Add(a.vertex, next)) {
                            queue.Push({next, a.vertex});
                          }
                        });
    }
  }
}

template class TwoHopEngine<LabeledTwoHopTraits>;

bool PrunedLabeledTwoHop::Query(VertexId s, VertexId t,
                                LabelSet allowed) const {
  return Answer(s, t, allowed, 0);
}

}  // namespace reach
