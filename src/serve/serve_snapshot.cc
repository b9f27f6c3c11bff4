#include "serve/serve_snapshot.h"

#include <algorithm>
#include <utility>

namespace reach {

namespace {

// `base` minus every edge `reduced` names, plus the edges whose final op
// in `reduced` is `kind`. Both inputs are sorted by edge, and so is the
// result.
std::vector<Edge> Overlay(const std::vector<Edge>& base,
                          const std::vector<EdgeUpdate>& reduced,
                          EdgeUpdate::Kind kind) {
  std::vector<Edge> out;
  out.reserve(base.size() + reduced.size());
  size_t i = 0;
  for (const EdgeUpdate& u : reduced) {
    const Edge e{u.source, u.target};
    while (i < base.size() && base[i] < e) out.push_back(base[i++]);
    if (i < base.size() && base[i] == e) ++i;  // superseded
    if (u.kind == kind) out.push_back(e);
  }
  out.insert(out.end(), base.begin() + static_cast<ptrdiff_t>(i), base.end());
  return out;
}

}  // namespace

EffectiveUpdates EffectiveState(const PendingUpdates& updates,
                                const EffectiveUpdates& base) {
  // Group updates by edge, arrival order kept within each group, and keep
  // the last update of each group: that edge's final op.
  std::vector<EdgeUpdate> reduced(updates);
  std::stable_sort(reduced.begin(), reduced.end(),
                   [](const EdgeUpdate& a, const EdgeUpdate& b) {
                     return Edge{a.source, a.target} < Edge{b.source, b.target};
                   });
  bool has_deletes = base.has_deletes;
  size_t kept = 0;
  for (size_t i = 0; i < reduced.size(); ++i) {
    if (reduced[i].IsDelete()) has_deletes = true;
    if (kept > 0 && reduced[kept - 1].source == reduced[i].source &&
        reduced[kept - 1].target == reduced[i].target) {
      reduced[kept - 1] = reduced[i];
    } else {
      reduced[kept++] = reduced[i];
    }
  }
  reduced.resize(kept);
  EffectiveUpdates eff;
  eff.adds = Overlay(base.adds, reduced, EdgeUpdate::Kind::kInsert);
  eff.dels = Overlay(base.dels, reduced, EdgeUpdate::Kind::kDelete);
  eff.has_deletes = has_deletes;
  return eff;
}

PublishedView::~PublishedView() {
  delete current_.load(std::memory_order_relaxed);
  for (const ServeView* view : retired_) delete view;
}

void PublishedView::Publish(ServeView view) {
  const ServeView* next = new ServeView(std::move(view));
  const ServeView* old = current_.exchange(next, std::memory_order_seq_cst);
  if (old != nullptr) retired_.push_back(old);
  Reclaim();
}

void PublishedView::Reclaim() {
  // Seq_cst against the readers' cell stores: a reader that stored a
  // retired pointer after these loads re-reads `current_` after that
  // store, sees the newer view, and retries instead of using it.
  uintptr_t named[kCells];
  for (size_t c = 0; c < kCells; ++c) {
    named[c] = cells_[c].load(std::memory_order_seq_cst);
  }
  std::erase_if(retired_, [&](const ServeView* view) {
    if (std::find(named, named + kCells, reinterpret_cast<uintptr_t>(view)) !=
        named + kCells) {
      return false;  // still pinned
    }
    delete view;
    return true;
  });
}

}  // namespace reach
