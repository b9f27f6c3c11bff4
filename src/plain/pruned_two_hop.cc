#include "plain/pruned_two_hop.h"

#include <cstring>

#include "core/two_hop_engine_impl.h"

namespace reach {

// Per-worker build scratch: epoch-stamped visited marks + BFS queue, and
// the vertices a speculative sweep's pruning oracle was evaluated at.
struct PlainTwoHopTraits::Scratch {
  SearchWorkspace ws;
  std::vector<VertexId> touched;

  const std::vector<VertexId>& Touched() const { return touched; }
};

template <typename Engine, typename Emit>
bool PlainTwoHopTraits::Sweep(const Engine& engine, const Digraph& graph,
                              uint32_t r, bool forward, bool speculative,
                              Scratch& s, Emit&& emit) {
  // Forward: add hop to Lin of everything it reaches, unless the labels
  // already answer Qr(hop, w); backward: Lout of everything reaching it.
  // A forward oracle call reads Lout(hop) and Lin(w) of a not yet visited
  // w, so this sweep's own entries never feed its pruning.
  const size_t n = graph.NumVertices();
  const size_t cap = speculative ? std::max<size_t>(1024, n / 16) : SIZE_MAX;
  const VertexId hop = engine.by_rank_[r];
  s.ws.Prepare(n);
  s.touched.clear();
  std::vector<VertexId>& queue = s.ws.queue();
  queue.push_back(hop);
  s.ws.MarkForward(hop);
  for (size_t head = 0; head < queue.size(); ++head) {
    for (VertexId w : forward ? graph.OutNeighbors(queue[head])
                              : graph.InNeighbors(queue[head])) {
      if (engine.rank_[w] <= r || !s.ws.MarkForward(w)) continue;
      if (speculative) s.touched.push_back(w);
      if (forward ? engine.LabelQuery(hop, w, {})
                  : engine.LabelQuery(w, hop, {})) {
        continue;  // prune: already covered
      }
      emit(w, r);  // ranks arrive ascending: lists stay sorted
      queue.push_back(w);
    }
    if (s.touched.size() > cap) return false;
  }
  return true;
}

template <typename Engine>
void PlainTwoHopTraits::PropagateInsert(Engine& engine, VertexId s,
                                        VertexId t) {
  // Any pair newly connected by (s, t) decomposes into x -> s (old paths)
  // and t -> y (old paths); the old index answers x -> s with some hop
  // h ∈ Lout(x) ∩ (Lin(s) ∪ {s}). Propagating every such h through the new
  // edge to all of Reach(t) restores the invariant: h lands in Lin(y), so
  // Qr(x, y) finds it. No pruning beyond already-present labels; this
  // trades label minimality for correctness (see class comment).
  std::vector<uint32_t> hops = engine.InEntries(s);
  hops.push_back(engine.rank_[s]);
  // One shared sweep computes Reach(t); each hop is then added to every
  // vertex on it (equivalent to one unpruned BFS per hop, without
  // re-traversing the edges). The sweep runs over the SUPERSET adjacency,
  // not the live one: the delta overlay must keep describing the superset,
  // or a later tombstone resurrection (which adds no labels) would leave
  // pairs routed through the tombstoned edge without a witness — turning
  // "no witness" into a wrong exact negative.
  SearchWorkspace& ws = engine.ws_;
  ws.Prepare(engine.graph_->NumVertices());
  std::vector<VertexId>& reach = ws.queue();
  reach.push_back(t);
  ws.MarkForward(t);
  for (size_t head = 0; head < reach.size(); ++head) {
    engine.ForEachArc(reach[head], /*forward=*/true, /*live=*/false,
                      [&](VertexId w) {
                        if (ws.MarkForward(w)) reach.push_back(w);
                      });
  }
  for (uint32_t h : hops) {
    const VertexId hop = engine.by_rank_[h];
    for (VertexId x : reach) {
      if (x != hop) engine.AddInEntry(x, h);
    }
  }
}

template class TwoHopEngine<PlainTwoHopTraits>;

bool PrunedTwoHop::Query(VertexId s, VertexId t) const {
  return Answer(s, t, {}, 0);
}

bool PrunedTwoHop::QueryInSlot(VertexId s, VertexId t, size_t slot) const {
  return Answer(s, t, {}, slot);
}

size_t PrunedTwoHop::PrepareConcurrentQueries(size_t slots) const {
  if (slots == 0) slots = 1;
  probes_.EnsureSlots(slots);
  // Damaged-witness verification traverses; give every slot its own
  // scratch now — growing mid-fanout would race.
  verify_ws_.EnsureSlots(slots);
  return slots;
}

namespace {

// RCHX v2 snapshot-file section kinds (private to the "pll" format).
enum SnapshotSectionKind : uint32_t {
  kSecMeta = 1,
  kSecRank = 2,
  kSecByRank = 3,
  // Flat storage.
  kSecLinOffsets = 4,
  kSecLinEntries = 5,
  kSecLoutOffsets = 6,
  kSecLoutEntries = 7,
  // Compressed storage.
  kSecLinVertexBlocks = 8,
  kSecLinSkip = 9,
  kSecLinData = 10,
  kSecLoutVertexBlocks = 11,
  kSecLoutSkip = 12,
  kSecLoutData = 13,
};

// Fixed-layout snapshot metadata (kSecMeta).
struct SnapshotMeta {
  uint64_t payload_magic;  // PlainTwoHopTraits::kPayloadMagic
  uint64_t num_vertices;
  uint64_t lin_entries;
  uint64_t lout_entries;
  uint32_t storage;  // 0 = flat pools, 1 = block-compressed pools
  uint32_t block_entries;
};
static_assert(sizeof(SnapshotMeta) == 40);
static_assert(std::is_trivially_copyable_v<SnapshotMeta>);

}  // namespace

bool PrunedTwoHop::SaveSnapshot(std::ostream& out) const {
  // Same contract as `Save`: never persist a labeling whose exactness
  // depends on live tombstone state.
  if (damage_ > 0) return false;
  const size_t n = rank_.size();
  // A post-build delta overlay is folded into temporary pools so the
  // snapshot always holds one sealed, delta-free labeling. The
  // temporaries must outlive WriteTo (sections point into them).
  FlatLabelPool<uint32_t> merged_flat;
  CompressedRankPool merged_compressed;
  const FlatLabelPool<uint32_t>* lin_flat = &lin_pool_;
  const CompressedRankPool* lin_c = &lin_cpool_;
  if (has_delta_) {
    std::vector<std::vector<uint32_t>> merged(n);
    for (VertexId v = 0; v < n; ++v) merged[v] = InLabels(v);
    if (compressed_) {
      merged_compressed.Seal(merged, lin_cpool_.BlockEntries());
      lin_c = &merged_compressed;
    } else {
      merged_flat.Seal(std::move(merged));
      lin_flat = &merged_flat;
    }
  }

  SnapshotWriter writer{std::string(PlainTwoHopTraits::kFormatName)};
  SnapshotMeta meta{};
  meta.payload_magic = PlainTwoHopTraits::kPayloadMagic;
  meta.num_vertices = n;
  meta.storage = compressed_ ? 1 : 0;
  if (compressed_) {
    meta.lin_entries = lin_c->NumEntries();
    meta.lout_entries = lout_cpool_.NumEntries();
    meta.block_entries = static_cast<uint32_t>(lin_c->BlockEntries());
  } else {
    meta.lin_entries = lin_flat->NumEntries();
    meta.lout_entries = lout_pool_.NumEntries();
  }
  writer.AddSection(kSecMeta, &meta, sizeof(meta));
  writer.AddSection(kSecRank, rank_.data(),
                    rank_.size() * sizeof(uint32_t));
  writer.AddSection(kSecByRank, by_rank_.data(),
                    by_rank_.size() * sizeof(VertexId));
  if (compressed_) {
    const auto add_pool = [&writer](uint32_t blocks_kind,
                                    uint32_t skip_kind, uint32_t data_kind,
                                    const CompressedRankPool& pool) {
      writer.AddSection(blocks_kind, pool.VertexBlocksRaw().data(),
                        pool.VertexBlocksRaw().size_bytes());
      writer.AddSection(skip_kind, pool.SkipRaw().data(),
                        pool.SkipRaw().size_bytes());
      writer.AddSection(data_kind, pool.DataRaw().data(),
                        pool.DataRaw().size_bytes());
    };
    add_pool(kSecLinVertexBlocks, kSecLinSkip, kSecLinData, *lin_c);
    add_pool(kSecLoutVertexBlocks, kSecLoutSkip, kSecLoutData,
             lout_cpool_);
  } else {
    writer.AddSection(kSecLinOffsets, lin_flat->OffsetsRaw().data(),
                      lin_flat->OffsetsRaw().size_bytes());
    writer.AddSection(kSecLinEntries, lin_flat->EntriesRaw().data(),
                      lin_flat->EntriesRaw().size_bytes());
    writer.AddSection(kSecLoutOffsets, lout_pool_.OffsetsRaw().data(),
                      lout_pool_.OffsetsRaw().size_bytes());
    writer.AddSection(kSecLoutEntries, lout_pool_.EntriesRaw().data(),
                      lout_pool_.EntriesRaw().size_bytes());
  }
  return writer.WriteTo(out);
}

bool PrunedTwoHop::SaveSnapshot(const std::string& path,
                                std::string* error) const {
  return WriteFileAtomic(
      path, [this](std::ostream& out) { return SaveSnapshot(out); }, error);
}

LoadResult PrunedTwoHop::LoadSnapshot(const std::string& path) {
  std::string error;
  std::shared_ptr<MappedFile> file = MappedFile::Open(path, &error);
  if (file == nullptr) return {LoadStatus::kCorrupt, error};
  return LoadSnapshot(std::move(file));
}

LoadResult PrunedTwoHop::LoadSnapshot(std::shared_ptr<MappedFile> file) {
  SnapshotView view;
  LoadResult parsed = view.Parse(file->data(), file->size(),
                                PlainTwoHopTraits::kFormatName);
  if (!parsed) return parsed;
  const std::span<const uint8_t> meta_bytes = view.Section(kSecMeta);
  if (meta_bytes.size() != sizeof(SnapshotMeta)) {
    return {LoadStatus::kCorrupt, "meta section: wrong size"};
  }
  SnapshotMeta meta;
  std::memcpy(&meta, meta_bytes.data(), sizeof(meta));
  if (meta.payload_magic != PlainTwoHopTraits::kPayloadMagic) {
    return {LoadStatus::kCorrupt, "meta section: bad payload magic"};
  }
  if (meta.storage > 1) {
    return {LoadStatus::kCorrupt, "meta section: unknown storage mode"};
  }
  const uint64_t n = meta.num_vertices;
  if (n > UINT32_MAX) {
    return {LoadStatus::kCorrupt, "meta section: vertex count overflow"};
  }
  const std::span<const uint32_t> rank =
      view.TypedSection<uint32_t>(kSecRank);
  const std::span<const uint32_t> by_rank =
      view.TypedSection<uint32_t>(kSecByRank);
  if (rank.size() != n) {
    return {LoadStatus::kCorrupt, "rank section: size mismatch"};
  }
  if (by_rank.size() != n) {
    return {LoadStatus::kCorrupt, "by-rank section: size mismatch"};
  }
  for (uint32_t r : rank) {
    if (r >= n) {
      return {LoadStatus::kCorrupt, "rank section: rank out of range"};
    }
  }
  for (uint32_t v : by_rank) {
    if (v >= n) {
      return {LoadStatus::kCorrupt, "by-rank section: vertex out of range"};
    }
  }

  // All header-level checks passed: reset storage, then point the pools
  // at the mapping. SealFromView validates the pool structure (CSR
  // monotonicity / block tables) before the pool goes live.
  ClearPools();
  compressed_ = meta.storage == 1;
  if (compressed_) {
    if (!lin_cpool_.SealFromView(
            view.TypedSection<uint32_t>(kSecLinVertexBlocks),
            view.TypedSection<CompressedRankPool::SkipEntry>(kSecLinSkip),
            view.Section(kSecLinData), meta.lin_entries,
            meta.block_entries) ||
        lin_cpool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lin block sections: malformed"};
    }
    if (!lout_cpool_.SealFromView(
            view.TypedSection<uint32_t>(kSecLoutVertexBlocks),
            view.TypedSection<CompressedRankPool::SkipEntry>(kSecLoutSkip),
            view.Section(kSecLoutData), meta.lout_entries,
            meta.block_entries) ||
        lout_cpool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lout block sections: malformed"};
    }
  } else {
    const std::span<const uint32_t> lin_entries =
        view.TypedSection<uint32_t>(kSecLinEntries);
    const std::span<const uint32_t> lout_entries =
        view.TypedSection<uint32_t>(kSecLoutEntries);
    if (lin_entries.size() != meta.lin_entries ||
        lout_entries.size() != meta.lout_entries) {
      return {LoadStatus::kCorrupt, "entry sections: size mismatch"};
    }
    if (!lin_pool_.SealFromView(view.TypedSection<uint64_t>(kSecLinOffsets),
                                lin_entries) ||
        lin_pool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lin offsets: malformed CSR"};
    }
    if (!lout_pool_.SealFromView(
            view.TypedSection<uint64_t>(kSecLoutOffsets), lout_entries) ||
        lout_pool_.NumVertices() != n) {
      return {LoadStatus::kCorrupt, "Lout offsets: malformed CSR"};
    }
  }

  rank_.assign(rank.begin(), rank.end());
  by_rank_.assign(by_rank.begin(), by_rank.end());
  graph_ = nullptr;
  ResetDynamicState();
  budget_exceeded_ = false;
  mapping_ = std::move(file);  // pool views point into this mapping
  const size_t flat_equivalent =
      2 * (static_cast<size_t>(n) + 1) * sizeof(uint64_t) +
      static_cast<size_t>(meta.lin_entries + meta.lout_entries) *
          sizeof(uint32_t);
  PublishStorageGauges(flat_equivalent);
  return LoadResult{};
}

std::string PrunedTwoHop::Name() const {
  switch (order_) {
    case VertexOrder::kDegree:
      return "pll";  // == DL; degree-order TOL
    case VertexOrder::kTopological:
      return "tfl";
    case VertexOrder::kReverseDegree:
      return "tol(revdeg)";
    case VertexOrder::kRandom:
      return "tol(random)";
  }
  return "2hop";
}

}  // namespace reach
