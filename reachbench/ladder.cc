// index-ladder: one thread, no service. Builds the 2-hop roster and times
// every index on the same fixed pair set, half reachable and half not, in
// closed-loop batches. L0-L2 do all the work here; the serve layer none.

#include <memory>
#include <string>
#include <vector>

#include "core/fastpath_index.h"
#include "core/index_factory.h"
#include "core/label_kernels.h"
#include "core/query_workload.h"
#include "phases.h"

namespace reachbench {

namespace {

// Queries per timed batch: long enough that the two clock reads cost a few
// percent of a ~50 ns probe, short enough to keep a latency distribution.
constexpr size_t kBatch = 16;
// Pairs per class of the fixed ladder set (a prefix of the universe).
constexpr size_t kLadderPerClass = 4096;

struct Rung {
  const char* spec;
  const char* key;  // per-layer metric prefix
  const char* build_span;
  const char* query_span;
};

constexpr Rung kRoster[] = {
    {"pll", "l1.pll", "pll.Build", "pll.Query"},
    {"pll:compress=1", "l2.compress", "pll:compress=1.Build",
     "pll:compress=1.Query"},
    {"pll:fastpath=1", "l2.fastpath", "pll:fastpath=1.Build",
     "pll:fastpath=1.Query"},
    {"lcr:pll", "l1.lcr_pll", "lcr:pll.Build", "lcr:pll.Query"},
};
constexpr size_t kRungs = sizeof(kRoster) / sizeof(kRoster[0]);

struct Built {
  reach::MadeIndex made;
  double build_s = 0;
};

Built BuildRung(const Rung& rung, const Inputs& in, SpanLane* lane) {
  Built b;
  b.made = reach::MakeIndex(rung.spec);
  const uint64_t id = NextId(lane);
  const Clock::time_point t0 = Clock::now();
  if (b.made.lcr) {
    b.made.lcr->Build(in.labeled);
  } else {
    b.made.plain->Build(in.graph);
  }
  const Clock::time_point t1 = Clock::now();
  RecordKept(lane, rung.build_span, id, t0, t1);
  b.build_s = static_cast<double>(NsBetween(t0, t1)) / 1e9;
  return b;
}

size_t IndexBytes(const reach::MadeIndex& m) {
  return m.lcr ? m.lcr->IndexSizeBytes() : m.plain->IndexSizeBytes();
}

// One timed batch of `kBatch` queries; returns the wrong answers.
uint64_t TimedBatch(const reach::MadeIndex& m, const std::vector<Pair>& pairs,
                    const std::vector<LcrPair>& lcr_pairs, size_t begin,
                    const char* span, SpanLane* lane, Histogram& hist) {
  uint64_t wrong = 0;
  const uint64_t id = NextId(lane);
  const Clock::time_point t0 = Clock::now();
  if (m.lcr) {
    for (size_t i = begin; i < begin + kBatch; ++i) {
      const LcrPair& p = lcr_pairs[i];
      wrong += m.lcr->Query(p.s, p.t, p.allowed) != p.reachable;
    }
  } else {
    for (size_t i = begin; i < begin + kBatch; ++i) {
      const Pair& p = pairs[i];
      wrong += m.plain->Query(p.s, p.t) != p.reachable;
    }
  }
  const Clock::time_point t1 = Clock::now();
  Record(lane, span, id, t0, t1, kBatch);
  hist.Record(static_cast<uint64_t>(NsBetween(t0, t1)));
  return wrong;
}

// Keeps the timed kernel calls observable.
volatile size_t g_intersect_hits = 0;

// L0: `IntersectSorted` on random sorted rank arrays of `na` and `nb`
// entries drawn from [0, n): ns per call, median over timed blocks.
double IntersectNs(size_t na, size_t nb, size_t n, uint64_t seed) {
  constexpr size_t kArrays = 1024;
  constexpr size_t kBlock = 64;
  constexpr int kRounds = 32;
  Rng rng(seed);
  std::vector<std::vector<uint32_t>> a(kArrays), b(kArrays);
  const auto fill = [&](std::vector<uint32_t>& v, size_t len) {
    while (v.size() < len) v.push_back(static_cast<uint32_t>(rng.Below(n)));
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  for (size_t i = 0; i < kArrays; ++i) {
    fill(a[i], na);
    fill(b[i], nb);
  }
  std::vector<double> per_call;
  size_t hits = 0;
  for (int r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < kArrays; i += kBlock) {
      const Clock::time_point t0 = Clock::now();
      for (size_t j = i; j < i + kBlock; ++j) {
        hits += reach::IntersectSorted(a[j].data(), a[j].size(), b[j].data(),
                                       b[j].size());
      }
      per_call.push_back(static_cast<double>(NsBetween(t0, Clock::now())) /
                         kBlock);
    }
  }
  g_intersect_hits = hits;
  return Median(per_call);
}

}  // namespace

void RunIndexLadder(const Inputs& in, const PhaseConfig& cfg,
                    Report& report) {
  SpanLane* lane = cfg.spans ? cfg.spans->NewLane("ladder") : nullptr;
  const double n = static_cast<double>(in.graph.NumVertices());

  // Build every rung `kSetupRepeats` times; keep the last build.
  std::vector<reach::MadeIndex> rungs(kRungs);
  std::vector<std::vector<double>> build_s(kRungs);
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    for (size_t r = 0; r < kRungs; ++r) {
      Built b = BuildRung(kRoster[r], in, lane);
      rungs[r] = std::move(b.made);
      build_s[r].push_back(b.build_s);
    }
  }

  const std::vector<Pair> pos(in.pos.begin(), in.pos.begin() + kLadderPerClass);
  const std::vector<Pair> neg(in.neg.begin(), in.neg.begin() + kLadderPerClass);

  // Checked pass: every rung answers every pair once, untimed. It warms
  // the caches and reads the deterministic probe counters.
  const reach::MadeIndex& pll = rungs[0];
  pll.plain->ResetProbe();
  const auto* fastpath =
      dynamic_cast<const reach::DynamicFastPathIndex*>(rungs[2].plain.get());
  if (fastpath == nullptr) {
    throw PreconditionError{"pll:fastpath=1 is not a DynamicFastPathIndex"};
  }
  fastpath->ResetProbe();
  for (size_t r = 0; r < kRungs; ++r) {
    const reach::MadeIndex& m = rungs[r];
    if (m.lcr) {
      for (const auto* set : {&in.lcr_pos, &in.lcr_neg}) {
        for (const LcrPair& p : *set) {
          ++report.attempted;
          report.failed += m.lcr->Query(p.s, p.t, p.allowed) != p.reachable;
        }
      }
    } else {
      for (const auto* set : {&pos, &neg}) {
        for (const Pair& p : *set) {
          ++report.attempted;
          report.failed += m.plain->Query(p.s, p.t) != p.reachable;
        }
      }
    }
  }
  const reach::FastPathVerdictStats verdicts = fastpath->VerdictStats();
  if (verdicts.Decided() == 0 || verdicts.Decided() == verdicts.Total()) {
    throw PreconditionError{
        "index-ladder: the fast path decided " +
        std::to_string(verdicts.Decided()) + " of " +
        std::to_string(verdicts.Total()) + " queries (needs some, not all)"};
  }
  const reach::QueryProbe pll_probe = pll.plain->Probe();

  // Timed loop: whole rounds; a round is every rung answering the whole
  // set once, in batches alternating between the two answer classes.
  // Rounds are filed by the time window they start in.
  std::vector<Histogram> pos_hist(kRungs * kWindows);
  std::vector<Histogram> neg_hist(kRungs * kWindows);
  const Clock::time_point begin = Clock::now();
  const auto window_ns = static_cast<int64_t>(cfg.seconds * 1e9 / kWindows);
  for (Clock::time_point now = begin;
       now < begin + std::chrono::nanoseconds(window_ns * kWindows);
       now = Clock::now()) {
    const auto w = static_cast<size_t>(NsBetween(begin, now) / window_ns);
    for (size_t r = 0; r < kRungs; ++r) {
      const reach::MadeIndex& m = rungs[r];
      const size_t per_class = m.lcr ? in.lcr_pos.size() : pos.size();
      Histogram& ph = pos_hist[r * kWindows + w];
      Histogram& nh = neg_hist[r * kWindows + w];
      for (size_t i = 0; i < per_class; i += kBatch) {
        report.failed += TimedBatch(m, pos, in.lcr_pos, i,
                                    kRoster[r].query_span, lane, ph);
        report.failed += TimedBatch(m, neg, in.lcr_neg, i,
                                    kRoster[r].query_span, lane, nh);
        report.attempted += 2 * kBatch;
      }
    }
  }

  // End to end: the roster pooled per window, per-query ns = batch ns /
  // kBatch; each metric is the median of its per-window values.
  const double batch = static_cast<double>(kBatch);
  std::vector<double> qps, p50, p99, pos_p50, neg_p50;
  std::vector<std::vector<double>> rung_pos(kRungs), rung_neg(kRungs);
  for (size_t w = 0; w < kWindows; ++w) {
    Histogram all, all_pos, all_neg;
    for (size_t r = 0; r < kRungs; ++r) {
      const Histogram& ph = pos_hist[r * kWindows + w];
      const Histogram& nh = neg_hist[r * kWindows + w];
      all_pos.Merge(ph);
      all_neg.Merge(nh);
      rung_pos[r].push_back(ph.Quantile(0.50) / batch);
      rung_neg[r].push_back(nh.Quantile(0.50) / batch);
    }
    all.Merge(all_pos);
    all.Merge(all_neg);
    qps.push_back(1e9 / (all.Mean() / batch));
    p50.push_back(all.Quantile(0.50) / batch);
    p99.push_back(all.Quantile(0.99) / batch);
    pos_p50.push_back(all_pos.Quantile(0.50) / batch);
    neg_p50.push_back(all_neg.Quantile(0.50) / batch);
  }
  double setup_s = 0;
  size_t roster_bytes = 0;
  for (size_t r = 0; r < kRungs; ++r) {
    setup_s += Median(build_s[r]);
    roster_bytes += IndexBytes(rungs[r]);
  }
  report.Set("setup_s", setup_s, "s");
  report.Set("query_throughput", Median(qps), "queries/s");
  report.Set("query_p50_ns", Median(p50), "ns");
  report.Set("query_p99_ns", Median(p99), "ns");
  report.Set("query_pos_p50_ns", Median(pos_p50), "ns");
  report.Set("query_neg_p50_ns", Median(neg_p50), "ns");
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");

  // Per layer: each rung on its own.
  report.Set("index_bytes_per_vertex", static_cast<double>(roster_bytes) / n,
             "B/vertex");
  for (size_t r = 0; r < kRungs; ++r) {
    const std::string key = kRoster[r].key;
    report.Set(key + ".build_s", Median(build_s[r]), "s");
    report.Set(key + ".pos_p50_ns", Median(rung_pos[r]), "ns");
    report.Set(key + ".neg_p50_ns", Median(rung_neg[r]), "ns");
    report.Set(key + ".bytes_per_vertex",
               static_cast<double>(IndexBytes(rungs[r])) / n,
               "B/vertex");
  }
  report.Set("l2.fastpath.decided_share",
             static_cast<double>(verdicts.Decided()) /
                 static_cast<double>(verdicts.Total()),
             "ratio");
  report.Set("l0.labels_scanned_per_query",
             static_cast<double>(pll_probe.labels_scanned) /
                 static_cast<double>(pll_probe.queries),
             "count");
  if (cfg.spans == nullptr) return;

  // L0: the kernel alone, on arrays of the mean pll label length.
  const auto mean_label = static_cast<size_t>(
      static_cast<double>(pll.plain->Stats().num_entries) / (2 * n) + 0.5);
  const size_t len = std::max<size_t>(mean_label, 1);
  const auto nv = static_cast<size_t>(n);
  report.Set("l0.intersect_ns.equal", IntersectNs(len, len, nv, cfg.seed),
             "ns");
  report.Set("l0.intersect_ns.skew16",
             IntersectNs(len, 16 * len, nv, cfg.seed + 1), "ns");

  // L1 ceiling for bare reads: `BatchQuery` over the fixed set at the
  // full thread count.
  std::vector<reach::QueryPair> batch_pairs;
  std::vector<uint8_t> truth;
  for (const auto* set : {&pos, &neg}) {
    for (const Pair& p : *set) {
      batch_pairs.push_back({p.s, p.t});
      truth.push_back(p.reachable ? 1 : 0);
    }
  }
  std::vector<double> batch_qps;
  for (int rep = 0; rep < 32; ++rep) {
    const uint64_t id = NextId(lane);
    const Clock::time_point t0 = Clock::now();
    const std::vector<uint8_t> got =
        pll.plain->BatchQuery(batch_pairs, cfg.threads);
    const Clock::time_point t1 = Clock::now();
    RecordKept(lane, "pll.BatchQuery", id, t0, t1,
           static_cast<uint32_t>(batch_pairs.size()));
    batch_qps.push_back(static_cast<double>(batch_pairs.size()) * 1e9 /
                  static_cast<double>(NsBetween(t0, t1)));
    report.attempted += got.size();
    for (size_t i = 0; i < got.size(); ++i) {
      report.failed += (got[i] != 0) != (truth[i] != 0);
    }
  }
  report.Set("l1.pll.batch_throughput", Median(batch_qps), "queries/s");
}

}  // namespace reachbench
