#ifndef REACHBENCH_INPUTS_H_
#define REACHBENCH_INPUTS_H_

// The benchmark's inputs and its independent oracle. Everything here but
// the graph is a function of the `--seed` argument; none of it asks the
// library whether a pair is reachable. The graph and the labels come from
// the library's generators (they are inputs, not answers); reachability
// is decided by the breadth-first searches below, over adjacency the
// benchmark builds itself.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/labeled_digraph.h"
#include "graph/types.h"

namespace reachbench {

using reach::Edge;
using reach::LabelSet;
using reach::VertexId;

/// SplitMix64: small, portable and fully specified, so a seed gives the
/// same stream on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// A plain query with its true answer.
struct Pair {
  VertexId s = 0;
  VertexId t = 0;
  bool reachable = false;
};

/// A label-constrained query with its true answer.
struct LcrPair {
  VertexId s = 0;
  VertexId t = 0;
  LabelSet allowed = 0;
  bool reachable = false;
};

/// Forward adjacency lists, built from an edge list by the benchmark (not
/// by `reach::Digraph`), with a stamped visited array so repeated searches
/// cost O(reached) each. The churn writer edits its copy as it plans.
class Adjacency {
 public:
  Adjacency(size_t num_vertices, const std::vector<Edge>& edges);

  size_t NumVertices() const { return out_.size(); }
  void Insert(VertexId u, VertexId v) { out_[u].push_back(v); }
  /// Removes one (u, v) edge; it must be present.
  void Delete(VertexId u, VertexId v);

  /// Breadth-first search from `s`; afterwards `Reached(v)` answers for
  /// every v until the next search. Returns the reached vertices, `s`
  /// included.
  const std::vector<VertexId>& Search(VertexId s);
  bool Reached(VertexId v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<std::vector<VertexId>> out_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> order_;
};

/// The same in CSR form for a labeled graph: a search that follows only
/// arcs whose label is in `allowed`.
class LabeledAdjacency {
 public:
  explicit LabeledAdjacency(const reach::LabeledDigraph& graph);

  const std::vector<VertexId>& Search(VertexId s, LabelSet allowed);
  bool Reached(VertexId v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<size_t> offsets_;
  std::vector<VertexId> targets_;
  std::vector<uint8_t> labels_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  std::vector<VertexId> order_;
};

/// Draws up to `per_class` reachable and `per_class` unreachable targets
/// for the source of the last `adj.Search`, appending them to `pos` and
/// `neg`. Unreachable targets come from `preferred` (vertices the caller
/// knows `s` does not reach) when it is non-empty, else uniformly.
/// Reflexive pairs are never drawn.
void DrawTargets(const Adjacency& adj, VertexId s,
                 const std::vector<VertexId>& reached, size_t per_class,
                 Rng& rng, std::vector<Pair>& pos, std::vector<Pair>& neg,
                 const std::vector<VertexId>& preferred);

/// The `ScaleFreeDag` every workload uses. Its generator seed is fixed:
/// `--seed` draws the queries and updates, not the graph, because the
/// graph's shape alone moved read costs by a third between seeds, more
/// than the changes the benchmark is meant to judge.
inline constexpr VertexId kNumVertices = VertexId{1} << 14;
inline constexpr size_t kOutDegree = 3;
inline constexpr uint64_t kGraphSeed = 0x5ca1ef4ee;
/// Labels of the Zipf-labeled copy `lcr:pll` is built on.
inline constexpr uint32_t kNumLabels = 8;
inline constexpr double kZipfSkew = 1.2;

/// The shared inputs of all workloads; everything but the graph and its
/// labels is drawn from the seed.
struct Inputs {
  reach::Digraph graph;
  reach::LabeledDigraph labeled;
  /// The pair universe: reachable and unreachable pairs, equal in number,
  /// each list in random order.
  std::vector<Pair> pos;
  std::vector<Pair> neg;
  /// Label-constrained pairs over `labeled`, for `lcr:pll`.
  std::vector<LcrPair> lcr_pos;
  std::vector<LcrPair> lcr_neg;
};

/// Pairs per answer class in the universe; 2^15 unreachable pairs are
/// twice what the service's negative-result cache holds (2^14 entries by
/// default), so the tail of the serve stream cannot stay cached.
inline constexpr size_t kUniversePerClass = size_t{1} << 15;
/// Label-constrained pairs per answer class.
inline constexpr size_t kLcrPerClass = size_t{1} << 12;

Inputs MakeInputs(uint64_t seed);

}  // namespace reachbench

#endif  // REACHBENCH_INPUTS_H_
