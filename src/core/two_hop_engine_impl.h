#ifndef REACH_CORE_TWO_HOP_ENGINE_IMPL_H_
#define REACH_CORE_TWO_HOP_ENGINE_IMPL_H_

// Member definitions of `TwoHopEngine`. Include only from a translation
// unit that explicitly instantiates the engine for its traits (after the
// traits' out-of-line members are defined), so the kernels inline into
// the query path there.

#include <algorithm>
#include <atomic>
#include <istream>
#include <numeric>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "core/two_hop_engine.h"
#include "graph/condensation.h"
#include "graph/digraph.h"
#include "graph/rng.h"
#include "obs/metrics_registry.h"
#include "par/parallel_for.h"
#include "par/thread_pool.h"

namespace reach {

namespace two_hop_detail {

// Inserts `value` into sorted `v`, which does not hold it yet.
template <typename T>
void SortedInsert(std::vector<T>& v, const T& value) {
  v.insert(std::lower_bound(v.begin(), v.end(), value), value);
}

// Removes `value` from sorted `v`, which holds it.
template <typename T>
void SortedErase(std::vector<T>& v, const T& value) {
  v.erase(std::lower_bound(v.begin(), v.end(), value));
}

}  // namespace two_hop_detail

template <typename Traits>
void TwoHopEngine<Traits>::ComputeOrder(const Graph& graph) {
  const size_t n = graph.NumVertices();
  by_rank_.resize(n);
  std::iota(by_rank_.begin(), by_rank_.end(), 0);
  switch (order_) {
    case VertexOrder::kDegree:
      std::stable_sort(by_rank_.begin(), by_rank_.end(),
                       [&](VertexId a, VertexId b) {
                         return graph.Degree(a) > graph.Degree(b);
                       });
      break;
    case VertexOrder::kReverseDegree:
      std::stable_sort(by_rank_.begin(), by_rank_.end(),
                       [&](VertexId a, VertexId b) {
                         return graph.Degree(a) < graph.Degree(b);
                       });
      break;
    case VertexOrder::kTopological:
      // Topological position of each vertex's SCC (Tarjan ids are reverse
      // topological, so higher component id = earlier in topo order);
      // degree breaks ties inside an SCC and between parallel components.
      // Only plain graphs take this order; the labeled engine is always
      // constructed with kDegree.
      if constexpr (std::is_same_v<Graph, Digraph>) {
        Condensation cond = Condense(graph);
        std::stable_sort(
            by_rank_.begin(), by_rank_.end(), [&](VertexId a, VertexId b) {
              const VertexId ca = cond.DagVertex(a), cb = cond.DagVertex(b);
              if (ca != cb) return ca > cb;
              return graph.Degree(a) > graph.Degree(b);
            });
      }
      break;
    case VertexOrder::kRandom: {
      Xoshiro256ss rng(seed_);
      for (size_t i = n; i > 1; --i) {
        std::swap(by_rank_[i - 1], by_rank_[rng.NextBounded(i)]);
      }
      break;
    }
  }
  rank_.resize(n);
  for (uint32_t r = 0; r < n; ++r) rank_[by_rank_[r]] = r;
}

template <typename Traits>
void TwoHopEngine<Traits>::Build(const Graph& graph) {
  BuildStatsScope build(&this->build_stats_);
  probes_.Reset();
  graph_ = &graph;
  ResetDynamicState();
  ClearPools();  // free the old labeling before the new one grows
  {
    BuildPhaseTimer timer(&this->build_stats_.phases, "order");
    ComputeOrder(graph);
  }
  {
    BuildPhaseTimer timer(&this->build_stats_.phases, "label");
    BuildLabels(graph, ResolveThreads(num_threads_));
  }
  {
    BuildPhaseTimer timer(&this->build_stats_.phases, "seal");
    SealLabels();
  }
  this->build_stats_.size_bytes = IndexSizeBytes();
  this->build_stats_.num_entries = TotalEntries();
}

template <typename Traits>
void TwoHopEngine<Traits>::BuildLabels(const Graph& graph, size_t threads) {
  const size_t n = graph.NumVertices();
  lin_.assign(n, {});
  lout_.assign(n, {});
  if (n == 0) return;

  // paraPLL-style speculate/validate/redo over rank batches
  // (docs/PARALLELISM.md). Phase 1 runs every sweep of the batch in
  // parallel against the *committed* label prefix only. Phase 2 commits in
  // rank order: a sweep whose pruning oracle never read a label set the
  // batch committed to in the meantime is appended verbatim; otherwise it
  // is redone serially against the live labeling. Pruning against fewer
  // labels visits a superset of the serial sweep's vertices, so checking
  // the speculative visited set is a sound (conservative) staleness test —
  // the committed labeling is bit-identical to the serial build for any
  // thread count or batching.
  std::vector<typename Traits::Scratch> scratch(std::max<size_t>(threads, 1));

  // lin_stamp[x] == batch_epoch iff the current batch already committed a
  // Lin(x) entry (dually lout_stamp) — exactly the reads that can make a
  // speculative oracle stale. Serial builds and the warmup keep
  // batch_epoch at the stamps' initial 0, so stamping is inert there.
  std::vector<uint32_t> lin_stamp(n, 0), lout_stamp(n, 0);
  uint32_t batch_epoch = 0;

  // The exact serial sweep: entries go straight into the labeling. Also
  // used for the warmup prefix and for conflict redos.
  const auto serial_sweep = [&](uint32_t r, bool forward) {
    auto& labels = forward ? lin_ : lout_;
    std::vector<uint32_t>& stamp = forward ? lin_stamp : lout_stamp;
    Traits::Sweep(*this, graph, r, forward, /*speculative=*/false,
                  scratch[0], [&](VertexId x, const Entry& entry) {
                    labels[x].push_back(entry);
                    stamp[x] = batch_epoch;
                  });
  };
  if (threads <= 1) {
    for (uint32_t r = 0; r < n; ++r) {
      serial_sweep(r, /*forward=*/true);
      serial_sweep(r, /*forward=*/false);
    }
    return;
  }

  // Outcome of one speculative sweep (one rank, one direction).
  struct Sweep {
    std::vector<std::pair<VertexId, Entry>> labeled;  // in push order
    std::vector<VertexId> visited;  // vertices the oracle was evaluated at
    bool redo = false;              // overflowed the cap: rerun serially
  };
  // A speculative sweep gives up (false) once it floods far past what the
  // serial one would visit (because the prefix is still thin); it is then
  // redone serially — bounding wasted work without affecting the result.
  const auto speculative_sweep = [&](uint32_t r, bool forward,
                                     typename Traits::Scratch& s,
                                     Sweep* out) {
    out->redo = !Traits::Sweep(*this, graph, r, forward,
                               /*speculative=*/true, s,
                               [&](VertexId x, const Entry& entry) {
                                 out->labeled.emplace_back(x, entry);
                               });
    if (out->redo) {
      out->labeled.clear();
    } else {
      out->visited = s.Touched();
    }
  };

  // A forward oracle call reads Lout(hop) and Lin(x) at evaluated
  // vertices x (the remaining reads cannot change during the batch);
  // backward is symmetric. The sweep is stale iff the batch committed to
  // one of those label sets after phase 1 snapshotted the labeling.
  const auto commit_rank = [&](uint32_t r, bool forward, Sweep& sweep) {
    const VertexId hop = by_rank_[r];
    std::vector<uint32_t>& stamp = forward ? lin_stamp : lout_stamp;
    bool conflict =
        sweep.redo || (forward ? lout_stamp : lin_stamp)[hop] == batch_epoch;
    for (size_t i = 0; !conflict && i < sweep.visited.size(); ++i) {
      conflict = stamp[sweep.visited[i]] == batch_epoch;
    }
    if (conflict) {
      serial_sweep(r, forward);
      return;
    }
    auto& labels = forward ? lin_ : lout_;
    for (const auto& [x, entry] : sweep.labeled) {
      labels[x].push_back(entry);
      stamp[x] = batch_epoch;
    }
  };

  const uint32_t num_ranks = static_cast<uint32_t>(n);
  // Warmup: early sweeps run against a nearly empty labeling and would
  // speculatively flood the graph; run them serially.
  uint32_t r = 0;
  const uint32_t warmup = static_cast<uint32_t>(std::min<size_t>(n, 32));
  for (; r < warmup; ++r) {
    serial_sweep(r, /*forward=*/true);
    serial_sweep(r, /*forward=*/false);
  }

  // Batches grow geometrically: small while the prefix is thin (frequent
  // conflicts), large once pruning has kicked in and sweeps are cheap and
  // almost always conflict-free.
  size_t batch_size = 2 * threads;
  const size_t max_batch = std::max<size_t>(64 * threads, 256);
  std::vector<Sweep> fwd, bwd;
  while (r < num_ranks) {
    const uint32_t batch_end =
        static_cast<uint32_t>(std::min<size_t>(num_ranks, r + batch_size));
    const size_t count = batch_end - r;
    fwd.assign(count, Sweep{});
    bwd.assign(count, Sweep{});
    ++batch_epoch;

    std::atomic<size_t> next{0};
    ParallelForWorkers(threads, [&](size_t worker) {
      typename Traits::Scratch& s = scratch[worker];
      for (;;) {
        const size_t unit = next.fetch_add(1, std::memory_order_relaxed);
        if (unit >= 2 * count) return;
        const uint32_t rank = r + static_cast<uint32_t>(unit / 2);
        const bool forward = (unit % 2) == 0;
        speculative_sweep(rank, forward, s,
                          forward ? &fwd[unit / 2] : &bwd[unit / 2]);
      }
    });

    for (uint32_t offset = 0; offset < count; ++offset) {
      commit_rank(r + offset, /*forward=*/true, fwd[offset]);
      commit_rank(r + offset, /*forward=*/false, bwd[offset]);
    }
    r = batch_end;
    batch_size = std::min(batch_size * 2, max_batch);
  }
}

template <typename Traits>
void TwoHopEngine<Traits>::ClearPools() {
  lin_pool_.Clear();
  lout_pool_.Clear();
  lin_cpool_.Clear();
  lout_cpool_.Clear();
  compressed_ = false;
  mapping_.reset();
}

template <typename Traits>
void TwoHopEngine<Traits>::SealLabels() {
  ClearPools();
  budget_exceeded_ = false;
  // Flat-equivalent footprint, for the budget decision and the
  // compression-ratio gauge.
  const size_t n = lin_.size();
  size_t entries = 0;
  for (size_t v = 0; v < n; ++v) entries += lin_[v].size() + lout_[v].size();
  const size_t flat_bytes =
      2 * (n + 1) * sizeof(uint64_t) + entries * sizeof(Entry);
  const size_t budget = storage_.budget_mb * (size_t{1} << 20);
  if (storage_.compress || (budget != 0 && flat_bytes > budget)) {
    // Compressed tiers: the requested block size first; while a budget is
    // set and still exceeded, coarser blocks (fewer skip entries) instead
    // of failing. A pool refusing to seal (a rank group larger than any
    // block) keeps the flat layout.
    size_t block =
        std::clamp(storage_.block_entries, CompressedPool::kMinBlockEntries,
                   CompressedPool::kMaxBlockEntries);
    while (Traits::Seal(lin_cpool_, lin_, block) &&
           Traits::Seal(lout_cpool_, lout_, block)) {
      const size_t bytes =
          lin_cpool_.MemoryBytes() + lout_cpool_.MemoryBytes();
      if (budget == 0 || bytes <= budget ||
          block >= CompressedPool::kMaxBlockEntries) {
        compressed_ = true;
        budget_exceeded_ = budget != 0 && bytes > budget;
        break;
      }
      block *= 2;
    }
    if (!compressed_) {
      lin_cpool_.Clear();
      lout_cpool_.Clear();
    }
  }
  if (!compressed_) {
    budget_exceeded_ = budget != 0 && flat_bytes > budget;
    lin_pool_.Seal(std::move(lin_));
    lout_pool_.Seal(std::move(lout_));
  }
  std::vector<std::vector<Entry>>().swap(lin_);
  std::vector<std::vector<Entry>>().swap(lout_);
  delta_lin_.clear();
  has_delta_ = false;
  PublishStorageGauges(flat_bytes);
}

template <typename Traits>
void TwoHopEngine<Traits>::PublishStorageGauges(
    size_t flat_equivalent_bytes) const {
  MetricsRegistry& reg = MetricsRegistry::Global();
  const size_t n = rank_.size();
  const size_t bytes =
      compressed_ ? lin_cpool_.MemoryBytes() + lout_cpool_.MemoryBytes()
                  : lin_pool_.MemoryBytes() + lout_pool_.MemoryBytes();
  reg.GetGauge("index.bytes").Set(static_cast<double>(bytes));
  reg.GetGauge("index.bytes_per_vertex")
      .Set(n == 0 ? 0.0
                  : static_cast<double>(bytes) / static_cast<double>(n));
  if (compressed_) {
    reg.GetGauge("index.compression_ratio")
        .Set(bytes == 0 ? 1.0
                        : static_cast<double>(flat_equivalent_bytes) /
                              static_cast<double>(bytes));
  }
  if (storage_.budget_mb != 0) {
    reg.GetGauge("index.budget_exceeded").Set(budget_exceeded_ ? 1 : 0);
  }
}

template <typename Traits>
bool TwoHopEngine<Traits>::LabelQuery(VertexId s, VertexId t,
                                      Constraint c) const {
  if (s == t) return true;
  const std::span<const Entry> out = lout_[s];
  const std::span<const Entry> in = lin_[t];
  // The endpoints act as their own virtual hops.
  return Traits::Covered(in, rank_[s], c) ||
         Traits::Covered(out, rank_[t], c) || Traits::Intersect(out, in, c);
}

template <typename Traits>
bool TwoHopEngine<Traits>::SupersetAnswer(VertexId s, VertexId t,
                                          Constraint c) const {
  if (s == t) return true;
  const uint32_t rs = rank_[s];
  const uint32_t rt = rank_[t];
  // Delta entries live outside the pool, so every (pool, delta) pairing
  // that could supply the common hop is checked separately.
  if (compressed_) {
    // The skip tables answer membership by decoding at most one block, and
    // the intersection decodes only blocks that can overlap.
    if (Traits::Covered(lin_cpool_, t, rs, c) ||
        Traits::Covered(lout_cpool_, s, rt, c) ||
        Traits::Intersect(lout_cpool_, s, lin_cpool_, t, c)) {
      return true;
    }
    if (!has_delta_) return false;
    const std::span<const Entry> delta = delta_lin_[t];
    return Traits::Covered(delta, rs, c) ||
           Traits::Intersect(lout_cpool_, s, delta, c);
  }
  const std::span<const Entry> out = lout_pool_.Slice(s);
  const std::span<const Entry> in = lin_pool_.Slice(t);
  if (Traits::Covered(in, rs, c) || Traits::Covered(out, rt, c) ||
      Traits::Intersect(out, in, c)) {
    return true;
  }
  if (!has_delta_) return false;
  const std::span<const Entry> delta = delta_lin_[t];
  return Traits::Covered(delta, rs, c) || Traits::Intersect(out, delta, c);
}

template <typename Traits>
bool TwoHopEngine<Traits>::Answer(VertexId s, VertexId t, Constraint c,
                                  size_t slot) const {
  [[maybe_unused]] QueryProbe& probe = probes_.Slot(slot);
  REACH_PROBE_INC(probe, queries);
  // Worst-case entries consulted: the Lout(s) ∩ Lin(t) intersection scans
  // both lists end to end. (The build-time oracle is left unprobed — the
  // pruning tests would otherwise swamp the counts.)
  REACH_PROBE_ADD(probe, labels_scanned,
                  (compressed_ ? lout_cpool_.ListEntries(s) +
                                     lin_cpool_.ListEntries(t)
                               : lout_pool_.Slice(s).size() +
                                     lin_pool_.Slice(t).size()) +
                      (has_delta_ ? delta_lin_[t].size() : 0));
  // Zero damage is the common case and pays nothing for decremental
  // support: every delete so far was locally redundant (or there were
  // none), so the superset's reachability relation is the live one.
  const bool reachable = s == t || (damage_ == 0
                                        ? SupersetAnswer(s, t, c)
                                        : DamagedAnswer(s, t, c, slot));
  if (reachable) {
    REACH_PROBE_INC(probe, positives);
  } else {
    REACH_PROBE_INC(probe, label_rejections);
  }
  return reachable;
}

template <typename Traits>
bool TwoHopEngine<Traits>::DamagedAnswer(VertexId s, VertexId t,
                                         Constraint c, size_t slot) const {
  // Witness-trust protocol: the labels cover the superset graph, so "no
  // covered witness" is an exact negative even while damaged. A covered
  // witness whose hub ranks are unmarked is an exact positive (its claims
  // provably survived every damaging delete); damaged witnesses prove
  // nothing either way and fall through to live verification. The slow
  // lane pays for materializing the merged entry lists.
  const std::vector<Entry> out = OutEntries(s);
  const std::vector<Entry> in = InEntries(t);
  bool damaged_witness = false;
  // Virtual hop s: rank(s) ∈ Lin(t) claims s -> t (a forward claim).
  if (Traits::Covered(std::span<const Entry>(in), rank_[s], c)) {
    if (!RankDamagedFwd(rank_[s])) return true;
    damaged_witness = true;
  }
  // Virtual hop t: rank(t) ∈ Lout(s) claims s -> t (a backward claim).
  if (Traits::Covered(std::span<const Entry>(out), rank_[t], c)) {
    if (!RankDamagedBwd(rank_[t])) return true;
    damaged_witness = true;
  }
  // Real hop h: Lout(s) claims s -> h (stale if h is backward-damaged),
  // Lin(t) claims h -> t (stale if h is forward-damaged). Walk the common
  // rank groups and let the kernel decide whether a group covers `c`.
  size_t i = 0, j = 0;
  while (i < out.size() && j < in.size()) {
    const uint32_t rank = Traits::RankOf(out[i]);
    if (rank < Traits::RankOf(in[j])) {
      ++i;
      continue;
    }
    if (Traits::RankOf(in[j]) < rank) {
      ++j;
      continue;
    }
    size_t i_end = i, j_end = j;
    while (i_end < out.size() && Traits::RankOf(out[i_end]) == rank) ++i_end;
    while (j_end < in.size() && Traits::RankOf(in[j_end]) == rank) ++j_end;
    if (Traits::Intersect(std::span(out).subspan(i, i_end - i),
                          std::span(in).subspan(j, j_end - j), c)) {
      if (!RankDamagedBwd(rank) && !RankDamagedFwd(rank)) return true;
      damaged_witness = true;
    }
    i = i_end;
    j = j_end;
  }
  if (!damaged_witness) return false;
  // Exact live-graph check; unbounded on purpose (the exactness backstop —
  // the label pruning keeps the frontier near the damaged region).
  REACH_PROBE_INC(probes_.Slot(slot), fallbacks);
  return LiveSearch(s, t, c, verify_ws_.Slot(slot), SIZE_MAX);
}

template <typename Traits>
bool TwoHopEngine<Traits>::LiveSearch(VertexId s, VertexId t, Constraint c,
                                      SearchWorkspace& ws,
                                      size_t budget) const {
  ws.Prepare(graph_->NumVertices());
  std::vector<VertexId>& queue = ws.queue();
  queue.push_back(s);
  ws.MarkForward(s);
  for (size_t head = 0; head < queue.size(); ++head) {
    if (queue[head] == t) return true;
    if (queue.size() > budget) return false;
    ForEachArc(queue[head], /*forward=*/true, /*live=*/true,
               [&](const Arc& arc) {
                 const VertexId w = Traits::Head(arc);
                 // A superset negative is final: no admitted path even in
                 // the superset graph.
                 if (Traits::ArcAllowed(arc, c) && ws.MarkForward(w) &&
                     SupersetAnswer(w, t, c)) {
                   queue.push_back(w);
                 }
               });
  }
  return false;
}

template <typename Traits>
template <typename Fn>
void TwoHopEngine<Traits>::ForEachArc(VertexId v, bool forward, bool live,
                                      Fn&& fn) const {
  const std::vector<Arc>* tomb = nullptr;
  if (live && !tomb_out_.empty()) {
    tomb = &(forward ? tomb_out_ : tomb_in_)[v];
    if (tomb->empty()) tomb = nullptr;
  }
  const auto visit = [&](const Arc& arc) {
    if (tomb == nullptr ||
        !std::binary_search(tomb->begin(), tomb->end(), arc)) {
      fn(arc);
    }
  };
  for (const Arc& arc : forward ? Traits::OutArcs(*graph_, v)
                                : Traits::InArcs(*graph_, v)) {
    visit(arc);
  }
  if (!extra_out_.empty()) {
    for (const Arc& arc : (forward ? extra_out_ : extra_in_)[v]) visit(arc);
  }
}

template <typename Traits>
bool TwoHopEngine<Traits>::HasArc(VertexId s, const Arc& arc) const {
  const auto base = Traits::OutArcs(*graph_, s);  // sorted
  return std::binary_search(base.begin(), base.end(), arc) ||
         (!extra_out_.empty() &&
          std::find(extra_out_[s].begin(), extra_out_[s].end(), arc) !=
              extra_out_[s].end());
}

template <typename Traits>
bool TwoHopEngine<Traits>::IsTombstoned(VertexId s, const Arc& arc) const {
  return !tomb_out_.empty() &&
         std::binary_search(tomb_out_[s].begin(), tomb_out_[s].end(), arc);
}

template <typename Traits>
UpdateResult TwoHopEngine<Traits>::ApplyBatch(
    const std::vector<Update>& batch) {
  if (graph_ == nullptr) {
    return UpdateResult::Rejected(
        "no live graph: Build() before ApplyUpdate (Load'ed labelings are "
        "read-only)");
  }
  // Validate-first: a rejected batch must leave no partial state behind.
  const VertexId n = static_cast<VertexId>(graph_->NumVertices());
  for (const Update& update : batch) {
    if (update.source >= n || update.target >= n) {
      return UpdateResult::Rejected("endpoint out of range");
    }
    if (!Traits::LabelInRange(*graph_, update)) {
      return UpdateResult::Rejected("label out of range");
    }
  }
  size_t applied = 0;
  for (const Update& update : batch) {
    applied += update.IsInsert() ? ApplyInsert(update) : ApplyDelete(update);
  }
  return UpdateResult::Applied(applied, batch.size() - applied, damage_,
                               staleness_budget_);
}

template <typename Traits>
bool TwoHopEngine<Traits>::ApplyInsert(const Update& update) {
  const VertexId s = update.source;
  const VertexId t = update.target;
  if (s == t) return false;  // reachability is reflexive anyway
  const Arc out = Traits::OutArc(update);
  if (IsTombstoned(s, out)) {
    // Resurrecting a deleted arc: the labels already cover it (it is part
    // of the superset), so dropping the tombstone is the whole update.
    // Damage marks stay — conservative, cleared at rebuild.
    two_hop_detail::SortedErase(tomb_out_[s], out);
    two_hop_detail::SortedErase(tomb_in_[t], Traits::InArc(update));
    return true;
  }
  if (HasArc(s, out)) return false;
  if (extra_out_.empty()) {
    extra_out_.resize(graph_->NumVertices());
    extra_in_.resize(graph_->NumVertices());
  }
  extra_out_[s].push_back(out);
  extra_in_[t].push_back(Traits::InArc(update));

  // The damage marks are transitive closures over the superset as of each
  // damaging delete; this insert grows the superset, so re-close them. If
  // t already reaches a damaged tombstone source, everything reaching s
  // now does too (a simple path from t to that source cannot revisit t, so
  // the pre-insert closure decides the check) — symmetrically for the
  // backward marks. Without this, a vertex wired into a damaged region
  // *after* the delete keeps unmarked claims routed through the dead arc,
  // and the witness-trust protocol returns a stale positive.
  if (!damaged_fwd_.empty()) {
    if (!fwd_all_damaged_ && damaged_fwd_[rank_[t]] != 0 &&
        damaged_fwd_[rank_[s]] == 0) {
      if (!DamageSweep(s, /*backward=*/true)) fwd_all_damaged_ = true;
    }
    if (!bwd_all_damaged_ && damaged_bwd_[rank_[s]] != 0 &&
        damaged_bwd_[rank_[t]] == 0) {
      if (!DamageSweep(t, /*backward=*/false)) bwd_all_damaged_ = true;
    }
  }

  // The sealed pools are immutable, so the entries that restore
  // completeness go into the unsealed delta overlay the query path checks
  // alongside the pools.
  if (delta_lin_.empty()) delta_lin_.resize(graph_->NumVertices());
  has_delta_ = true;
  Traits::PropagateInsert(*this, s, out);
  return true;
}

template <typename Traits>
void TwoHopEngine<Traits>::AddInEntry(VertexId x, const Entry& entry) {
  const uint32_t rank = Traits::RankOf(entry);
  const Constraint c = Traits::EntryConstraint(entry);
  const bool sealed = compressed_
                          ? Traits::Covered(lin_cpool_, x, rank, c)
                          : Traits::Covered(lin_pool_.Slice(x), rank, c);
  std::vector<Entry>& delta = delta_lin_[x];
  if (sealed || Traits::Covered(std::span<const Entry>(delta), rank, c)) {
    return;
  }
  // Appended at the end of its rank group, keeping the overlay sorted.
  delta.insert(std::upper_bound(delta.begin(), delta.end(), rank,
                                [](uint32_t r, const Entry& e) {
                                  return r < Traits::RankOf(e);
                                }),
               entry);
}

template <typename Traits>
bool TwoHopEngine<Traits>::ApplyDelete(const Update& update) {
  const VertexId s = update.source;
  const VertexId t = update.target;
  const Arc out = Traits::OutArc(update);
  if (!HasArc(s, out)) return false;       // never existed: no-op
  if (IsTombstoned(s, out)) return false;  // already deleted: no-op
  if (tomb_out_.empty()) {
    tomb_out_.resize(graph_->NumVertices());
    tomb_in_.resize(graph_->NumVertices());
  }
  // Tombstone rather than erase, even for extras (see tomb_out_).
  two_hop_detail::SortedInsert(tomb_out_[s], out);
  two_hop_detail::SortedInsert(tomb_in_[t], Traits::InArc(update));
  if (s == t) return true;  // a self-loop never changes reachability
  // Locally redundant: a live detour s ->* t that `DetourConstraint`
  // admits survives within the budget, so every query path through the
  // arc reroutes within its own constraint — the reachability relation is
  // untouched and the labels stay exact. Zero damage, zero query cost.
  // Overrun counts as "not redundant" (conservative).
  if (LiveSearch(s, t, Traits::DetourConstraint(out), ws_,
                 kLocalSearchBudget)) {
    return true;
  }
  MarkDamage(s, t);
  ++damage_;
  return true;
}

template <typename Traits>
void TwoHopEngine<Traits>::MarkDamage(VertexId u, VertexId v) {
  const size_t n = graph_->NumVertices();
  if (damaged_fwd_.empty()) {
    damaged_fwd_.assign(n, 0);
    damaged_bwd_.assign(n, 0);
  }
  // Every hub that reaches u in the *superset* may have forward claims
  // routed through (u, v); every hub the superset reaches from v may have
  // backward claims through it. The sweeps ignore labels (an
  // over-approximation of every constrained ancestor/descendant set) and
  // run over the superset adjacency on purpose: claims rerouted through
  // since-deleted arcs are still traced back to their hubs.
  if (!DamageSweep(u, /*backward=*/true)) fwd_all_damaged_ = true;
  if (!DamageSweep(v, /*backward=*/false)) bwd_all_damaged_ = true;
}

template <typename Traits>
bool TwoHopEngine<Traits>::DamageSweep(VertexId start, bool backward) {
  ws_.Prepare(graph_->NumVertices());
  std::vector<VertexId>& queue = ws_.queue();
  queue.push_back(start);
  ws_.MarkForward(start);
  std::vector<uint8_t>& marks = backward ? damaged_fwd_ : damaged_bwd_;
  for (size_t head = 0; head < queue.size(); ++head) {
    marks[rank_[queue[head]]] = 1;
    if (queue.size() > kLocalSearchBudget) return false;
    ForEachArc(queue[head], /*forward=*/!backward, /*live=*/false,
               [&](const Arc& arc) {
                 if (ws_.MarkForward(Traits::Head(arc))) {
                   queue.push_back(Traits::Head(arc));
                 }
               });
  }
  return true;
}

template <typename Traits>
bool TwoHopEngine<Traits>::Rebuild() {
  if (graph_ == nullptr) return false;
  // Materialize the live edge set (base ∪ extras, minus tombstones) and
  // rebuild over it: folds the delta overlay in, drops the tombstones, and
  // resets damage — the payoff step of the rebuild-threshold policy.
  auto edges = graph_->Edges();
  for (VertexId v = 0; v < extra_out_.size(); ++v) {
    for (const Arc& arc : extra_out_[v]) {
      edges.push_back(Traits::MakeEdge(v, arc));
    }
  }
  std::erase_if(edges, [&](const auto& e) {
    return IsTombstoned(e.source, Traits::OutArcOf(e));
  });
  owned_graph_ = Traits::FromEdges(*graph_, std::move(edges));
  this->Build(owned_graph_);
  return true;
}

template <typename Traits>
void TwoHopEngine<Traits>::ResetDynamicState() {
  extra_out_.clear();
  extra_in_.clear();
  tomb_out_.clear();
  tomb_in_.clear();
  delta_lin_.clear();
  has_delta_ = false;
  damage_ = 0;
  damaged_fwd_.clear();
  damaged_bwd_.clear();
  fwd_all_damaged_ = false;
  bwd_all_damaged_ = false;
}

template <typename Traits>
size_t TwoHopEngine<Traits>::IndexSizeBytes() const {
  // The sealed layout's real footprint (aligned entry blocks plus offset
  // arrays, or the compressed blocks plus skip tables), the rank
  // translation tables, and any delta overlay.
  size_t delta_bytes = 0;
  if (has_delta_) {
    delta_bytes = delta_lin_.size() * sizeof(std::vector<Entry>);
    for (const auto& d : delta_lin_) {
      delta_bytes += d.capacity() * sizeof(Entry);
    }
  }
  const size_t pool_bytes =
      compressed_ ? lin_cpool_.MemoryBytes() + lout_cpool_.MemoryBytes()
                  : lin_pool_.MemoryBytes() + lout_pool_.MemoryBytes();
  return pool_bytes +
         (rank_.size() + by_rank_.size()) * sizeof(uint32_t) + delta_bytes;
}

template <typename Traits>
size_t TwoHopEngine<Traits>::TotalEntries() const {
  size_t entries =
      compressed_ ? lin_cpool_.NumEntries() + lout_cpool_.NumEntries()
                  : lin_pool_.NumEntries() + lout_pool_.NumEntries();
  for (const auto& d : delta_lin_) entries += d.size();
  return entries;
}

template <typename Traits>
std::vector<typename Traits::Entry> TwoHopEngine<Traits>::InEntries(
    VertexId v) const {
  std::vector<Entry> merged;
  if (compressed_) {
    lin_cpool_.Decode(v, &merged);
  } else {
    const std::span<const Entry> sealed = lin_pool_.Slice(v);
    merged.assign(sealed.begin(), sealed.end());
  }
  if (has_delta_ && !delta_lin_[v].empty()) {
    const std::vector<Entry>& delta = delta_lin_[v];
    std::vector<Entry> out(merged.size() + delta.size());
    std::merge(merged.begin(), merged.end(), delta.begin(), delta.end(),
               out.begin(), [](const Entry& a, const Entry& b) {
                 return Traits::RankOf(a) < Traits::RankOf(b);
               });
    merged = std::move(out);
  }
  return merged;
}

template <typename Traits>
std::vector<typename Traits::Entry> TwoHopEngine<Traits>::OutEntries(
    VertexId v) const {
  std::vector<Entry> out;
  if (compressed_) {
    lout_cpool_.Decode(v, &out);
  } else {
    const std::span<const Entry> sealed = lout_pool_.Slice(v);
    out.assign(sealed.begin(), sealed.end());
  }
  return out;
}

// Payload layout (after the envelope), kept byte-identical to the
// historical per-format codecs: u64 magic, u64 vertex count, the rank and
// by-rank tables as u32 vectors, then every Lin list and every Lout list,
// each a u64 entry count followed by the raw entries.
template <typename Traits>
bool TwoHopEngine<Traits>::Save(std::ostream& out) const {
  static_assert(std::has_unique_object_representations_v<Entry>,
                "entries are written as raw bytes");
  using serialize_detail::WriteBytes;
  using serialize_detail::WritePod;
  using serialize_detail::WriteU32Vec;
  // A damaged labeling is only exact together with the live tombstone +
  // graph state, which the stream does not carry: refuse rather than
  // persist stale positives.
  if (damage_ > 0) return false;
  if (!WriteEnvelope(out, Traits::kFormatName)) return false;
  WritePod(out, Traits::kPayloadMagic);
  WritePod(out, static_cast<uint64_t>(rank_.size()));
  WriteU32Vec(out, rank_);
  WriteU32Vec(out, by_rank_);
  const auto write_list = [&out](const std::vector<Entry>& entries) {
    WritePod(out, static_cast<uint64_t>(entries.size()));
    WriteBytes(out, entries.data(), entries.size() * sizeof(Entry));
  };
  const size_t n = rank_.size();
  for (VertexId v = 0; v < n; ++v) write_list(InEntries(v));
  for (VertexId v = 0; v < n; ++v) write_list(OutEntries(v));
  return static_cast<bool>(out);
}

template <typename Traits>
LoadResult TwoHopEngine<Traits>::Load(std::istream& in) {
  using serialize_detail::ReadBytes;
  using serialize_detail::ReadPod;
  using serialize_detail::ReadU32Vec;
  LoadResult envelope = ReadEnvelope(in, Traits::kFormatName);
  if (!envelope) return envelope;
  // Corrupt payloads name the failing section and its starting byte
  // offset, so a truncated or smashed stream is diagnosable.
  const auto offset = [&in]() -> uint64_t {
    const std::streampos pos = in.tellg();
    return pos < 0 ? 0 : static_cast<uint64_t>(pos);
  };
  uint64_t at = offset();
  uint64_t magic = 0, n = 0;
  if (!ReadPod(in, &magic) || magic != Traits::kPayloadMagic) {
    return CorruptAt("payload magic", at);
  }
  at = offset();
  if (!ReadPod(in, &n)) return CorruptAt("vertex count", at);
  const auto in_range = [n](const std::vector<uint32_t>& table) {
    return table.size() == n &&
           std::all_of(table.begin(), table.end(),
                       [n](uint32_t x) { return x < n; });
  };
  at = offset();
  if (!ReadU32Vec(in, &rank_, n) || !in_range(rank_)) {
    return CorruptAt("rank table", at);
  }
  at = offset();
  if (!ReadU32Vec(in, &by_rank_, n) || !in_range(by_rank_)) {
    return CorruptAt("by-rank table", at);
  }
  // Each list must hold in-range hop ranks in the order the kernels rely
  // on: strictly increasing, or nondecreasing where a rank may carry a
  // group of entries. The count cap rejects nonsense sizes without
  // rejecting legal dense labelings.
  const uint64_t max_entries = Traits::kRankGroups ? n * 64 : n;
  const auto read_list = [&](std::vector<Entry>* entries) {
    uint64_t count = 0;
    if (!ReadPod(in, &count) || count > max_entries) return false;
    entries->resize(count);
    if (!ReadBytes(in, entries->data(), count * sizeof(Entry))) return false;
    for (size_t i = 0; i < count; ++i) {
      const uint32_t rank = Traits::RankOf((*entries)[i]);
      if (rank >= n) return false;
      if (i > 0) {
        const uint32_t prev = Traits::RankOf((*entries)[i - 1]);
        if (Traits::kRankGroups ? rank < prev : rank <= prev) return false;
      }
    }
    return true;
  };
  lin_.assign(n, {});
  lout_.assign(n, {});
  for (size_t v = 0; v < n; ++v) {
    at = offset();
    if (!read_list(&lin_[v])) {
      return CorruptAt("Lin[" + std::to_string(v) + "]", at);
    }
  }
  for (size_t v = 0; v < n; ++v) {
    at = offset();
    if (!read_list(&lout_[v])) {
      return CorruptAt("Lout[" + std::to_string(v) + "]", at);
    }
  }
  graph_ = nullptr;
  ResetDynamicState();
  SealLabels();
  return LoadResult{};
}

}  // namespace reach

#endif  // REACH_CORE_TWO_HOP_ENGINE_IMPL_H_
