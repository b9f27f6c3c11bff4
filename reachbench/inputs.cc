#include "inputs.h"

#include <algorithm>
#include <utility>

#include "graph/generators.h"

namespace reachbench {

namespace {

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Below(i)]);
  }
}

// Draws a vertex outside the current search's reach by rejection; returns
// false when a few dozen draws all land inside it (a source that reaches
// nearly everything).
template <typename Adj>
bool DrawUnreached(const Adj& adj, size_t n, Rng& rng, VertexId* out) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto v = static_cast<VertexId>(rng.Below(n));
    if (!adj.Reached(v)) {
      *out = v;
      return true;
    }
  }
  return false;
}

}  // namespace

Adjacency::Adjacency(size_t num_vertices, const std::vector<Edge>& edges)
    : out_(num_vertices), stamp_(num_vertices, 0) {
  for (const Edge& e : edges) out_[e.source].push_back(e.target);
  order_.reserve(num_vertices);
}

void Adjacency::Delete(VertexId u, VertexId v) {
  std::vector<VertexId>& out = out_[u];
  *std::find(out.begin(), out.end(), v) = out.back();
  out.pop_back();
}

const std::vector<VertexId>& Adjacency::Search(VertexId s) {
  ++epoch_;
  order_.clear();
  order_.push_back(s);
  stamp_[s] = epoch_;
  for (size_t head = 0; head < order_.size(); ++head) {
    for (const VertexId w : out_[order_[head]]) {
      if (stamp_[w] != epoch_) {
        stamp_[w] = epoch_;
        order_.push_back(w);
      }
    }
  }
  return order_;
}

LabeledAdjacency::LabeledAdjacency(const reach::LabeledDigraph& graph)
    : offsets_(graph.NumVertices() + 1, 0), stamp_(graph.NumVertices(), 0) {
  const std::vector<reach::LabeledEdge> edges = graph.Edges();
  for (const auto& e : edges) ++offsets_[e.source + 1];
  for (size_t v = 0; v < graph.NumVertices(); ++v) {
    offsets_[v + 1] += offsets_[v];
  }
  targets_.resize(edges.size());
  labels_.resize(edges.size());
  std::vector<size_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges) {
    const size_t at = fill[e.source]++;
    targets_[at] = e.target;
    labels_[at] = static_cast<uint8_t>(e.label);
  }
  order_.reserve(graph.NumVertices());
}

const std::vector<VertexId>& LabeledAdjacency::Search(VertexId s,
                                                      LabelSet allowed) {
  ++epoch_;
  order_.clear();
  order_.push_back(s);
  stamp_[s] = epoch_;
  for (size_t head = 0; head < order_.size(); ++head) {
    const VertexId u = order_[head];
    for (size_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const VertexId w = targets_[i];
      if ((allowed >> labels_[i] & 1U) != 0 && stamp_[w] != epoch_) {
        stamp_[w] = epoch_;
        order_.push_back(w);
      }
    }
  }
  return order_;
}

void DrawTargets(const Adjacency& adj, VertexId s,
                 const std::vector<VertexId>& reached, size_t per_class,
                 Rng& rng, std::vector<Pair>& pos, std::vector<Pair>& neg,
                 const std::vector<VertexId>& preferred) {
  if (reached.size() > 1) {
    for (size_t i = 0; i < per_class; ++i) {
      // reached[0] is s itself.
      pos.push_back({s, reached[1 + rng.Below(reached.size() - 1)], true});
    }
  }
  for (size_t i = 0; i < per_class; ++i) {
    VertexId t = 0;
    if (!preferred.empty()) {
      t = preferred[rng.Below(preferred.size())];
    } else if (!DrawUnreached(adj, adj.NumVertices(), rng, &t)) {
      break;
    }
    neg.push_back({s, t, false});
  }
}

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.graph = reach::ScaleFreeDag(kNumVertices, kOutDegree, kGraphSeed);
  in.labeled = reach::WithZipfLabels(in.graph, kNumLabels, kZipfSkew,
                                     kGraphSeed + 1);
  Rng rng(seed);
  const size_t n = in.graph.NumVertices();

  Adjacency adj(n, in.graph.Edges());
  // Four pairs of each class per source: 2^13 searches for the universe.
  while (in.pos.size() < kUniversePerClass ||
         in.neg.size() < kUniversePerClass) {
    const auto s = static_cast<VertexId>(rng.Below(n));
    DrawTargets(adj, s, adj.Search(s), 4, rng, in.pos, in.neg, {});
  }
  in.pos.resize(kUniversePerClass);
  in.neg.resize(kUniversePerClass);
  Shuffle(in.pos, rng);
  Shuffle(in.neg, rng);

  // Label-constrained pairs: a random non-empty label set per source.
  // Negatives are drawn first among targets the source reaches without
  // the constraint, so the label check (not plain reachability) decides
  // them; a uniformly unreachable target stands in when there is none.
  LabeledAdjacency ladj(in.labeled);
  const LabelSet all = (LabelSet{1} << kNumLabels) - 1;
  while (in.lcr_pos.size() < kLcrPerClass ||
         in.lcr_neg.size() < kLcrPerClass) {
    const auto s = static_cast<VertexId>(rng.Below(n));
    const LabelSet allowed = static_cast<LabelSet>(rng.Below(all)) + 1;
    const std::vector<VertexId> plain = adj.Search(s);
    const std::vector<VertexId>& within = ladj.Search(s, allowed);
    for (int i = 0; i < 2 && within.size() > 1; ++i) {
      in.lcr_pos.push_back(
          {s, within[1 + rng.Below(within.size() - 1)], allowed, true});
    }
    std::vector<VertexId> blocked;
    for (VertexId v : plain) {
      if (!ladj.Reached(v)) blocked.push_back(v);
    }
    for (int i = 0; i < 2; ++i) {
      VertexId t = 0;
      if (!blocked.empty()) {
        t = blocked[rng.Below(blocked.size())];
      } else if (!DrawUnreached(ladj, n, rng, &t)) {
        break;
      }
      in.lcr_neg.push_back({s, t, allowed, false});
    }
  }
  in.lcr_pos.resize(kLcrPerClass);
  in.lcr_neg.resize(kLcrPerClass);
  Shuffle(in.lcr_pos, rng);
  Shuffle(in.lcr_neg, rng);
  return in;
}

}  // namespace reachbench
