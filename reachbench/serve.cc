// serve-read and serve-churn: `ReachService("pll")` over the same graph
// and pair universe as the ladder. Readers are closed loops; the churn
// writer is an open loop on a fixed schedule.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/index_factory.h"
#include "phases.h"
#include "serve/reach_service.h"

namespace reachbench {

namespace {

using reach::ReachService;
using reach::ServeAnswer;
using reach::ServeStats;

// Unreachable pairs in the hot head of a read stream: 2^11 fill an
// eighth of the negative-result cache.
constexpr size_t kHotPairs = size_t{1} << 11;
// Queries per read stream; a reader cycles through its stream.
constexpr size_t kStreamLength = size_t{1} << 16;
// Readers look at the clock every this many queries.
constexpr size_t kDeadlineStride = 64;

// The churn writer: 250 updates/s, 30% of them deletes of live edges, and
// a check of `kCheckSources` sources against its own live edge set every
// 250 updates (`kCheckPerClass` pairs of each class each). A drain at
// this size builds pll single-threaded in 0.3-0.5 s. With the drain
// threshold at 500, a drain starts every 2 s of schedule, on the same
// update every run, and ends well before the next one, so what readers
// see follows the writer's schedule, not how long each drain happened to
// take. At 10k updates/s the writer spends most of the run blocked on the
// pending cap; with the default threshold of 64 the pending list tracks
// the drain time, and read costs spread by a third between runs.
constexpr double kUpdatesPerSecond = 250;
constexpr uint64_t kDeletePercent = 30;
constexpr size_t kCheckEvery = 250;
constexpr size_t kCheckSources = 4;
constexpr size_t kCheckPerClass = 2;
constexpr size_t kDrainThreshold = 500;
// Pending-buffer cap, as a deployment would set one: at the cap the
// writer blocks (the default policy) until a drain catches up. At this
// rate it should not bind; `l4.backpressure_blocked` counts when it does.
constexpr size_t kMaxPending = 1024;

reach::ServiceOptions ServeOptions() {
  reach::ServiceOptions options;
  options.spec = "pll";
  return options;
}

// Constructor + Start + first Flush, `kServeSetupRepeats` times; returns
// the last service and reports the median as `setup_s`.
std::unique_ptr<ReachService> SetUp(const Inputs& in,
                                    const reach::ServiceOptions& options,
                                    SpanLane* lane, Report& report) {
  std::unique_ptr<ReachService> service;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kServeSetupRepeats; ++rep) {
    if (service) service->Stop();
    service.reset();
    const uint64_t id = NextId(lane);
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<ReachService>(in.graph, options);
    const Clock::time_point t1 = Clock::now();
    service->Start();
    const Clock::time_point t2 = Clock::now();
    service->Flush();
    const Clock::time_point t3 = Clock::now();
    RecordKept(lane, "ReachService::ReachService", id, t0, t1);
    RecordKept(lane, "ReachService::Start", id, t1, t2);
    RecordKept(lane, "ReachService::Flush", id, t2, t3);
    setup_s.push_back(static_cast<double>(NsBetween(t0, t3)) / 1e9);
  }
  report.Set("setup_s", Median(setup_s), "s");
  return service;
}

// Per-reader measurements, merged after the readers are joined:
// latencies per time window and answer class.
struct ReaderTally {
  explicit ReaderTally(size_t windows = 1) : pos(windows), neg(windows) {}
  std::vector<Histogram> pos;
  std::vector<Histogram> neg;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t pending_sum = 0;
};

// One checked, timed service query. `truth` < 0: the answer class is
// taken from the answer (the graph is changing); otherwise the answer
// must equal it.
inline void TimedServeQuery(const ReachService& service, const Pair& p,
                            int truth, SpanLane* lane, ReaderTally& tally,
                            size_t window = 0) {
  const uint64_t id = NextId(lane);
  const Clock::time_point t0 = Clock::now();
  const ServeAnswer ans = service.Query(p.s, p.t);
  const Clock::time_point t1 = Clock::now();
  Record(lane, "ReachService::Query", id, t0, t1);
  const bool positive = truth < 0 ? ans.reachable : truth != 0;
  (positive ? tally.pos : tally.neg)[window].Record(
      static_cast<uint64_t>(NsBetween(t0, t1)));
  ++tally.attempted;
  tally.failed += !ans.exact || (truth >= 0 && ans.reachable != (truth != 0));
}

// The end-to-end query metrics: medians over the first `windows` windows
// (each `window_s` long) of the per-window values, readers pooled.
void SetQueryMetrics(const std::vector<ReaderTally>& tallies, size_t windows,
                     double window_s, Report& report) {
  std::vector<double> qps, p50, p99, pos_p50, neg_p50;
  for (size_t w = 0; w < windows; ++w) {
    Histogram pos, neg;
    for (const ReaderTally& t : tallies) {
      pos.Merge(t.pos[w]);
      neg.Merge(t.neg[w]);
    }
    Histogram all = pos;
    all.Merge(neg);
    qps.push_back(static_cast<double>(all.count()) / window_s);
    p50.push_back(all.Quantile(0.50));
    p99.push_back(all.Quantile(0.99));
    pos_p50.push_back(pos.Quantile(0.50));
    neg_p50.push_back(neg.Quantile(0.50));
  }
  for (const ReaderTally& t : tallies) {
    report.attempted += t.attempted;
    report.failed += t.failed;
  }
  report.Set("query_throughput", Median(qps), "queries/s");
  report.Set("query_p50_ns", Median(p50), "ns");
  report.Set("query_p99_ns", Median(p99), "ns");
  report.Set("query_pos_p50_ns", Median(pos_p50), "ns");
  report.Set("query_neg_p50_ns", Median(neg_p50), "ns");
}

double Share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

// Plain copies of the service counters, for before/after deltas.
struct Counters {
  uint64_t queries, index_answers, delta_answers, fallback_answers,
      delete_verifies, deletes, rebuilds, negcache_hits,
      backpressure_blocked;

  static Counters Of(const ServeStats& s) {
    return {s.queries.load(),          s.index_answers.load(),
            s.delta_answers.load(),    s.fallback_answers.load(),
            s.delete_verifies.load(),  s.deletes.load(),
            s.rebuilds.load(),         s.negcache_hits.load(),
            s.backpressure_blocked.load()};
  }
  Counters Minus(const Counters& o) const {
    return {queries - o.queries,
            index_answers - o.index_answers,
            delta_answers - o.delta_answers,
            fallback_answers - o.fallback_answers,
            delete_verifies - o.delete_verifies,
            deletes - o.deletes,
            rebuilds - o.rebuilds,
            negcache_hits - o.negcache_hits,
            backpressure_blocked - o.backpressure_blocked};
  }
};

// The churn writer's schedule, fixed before the run from the seed: the
// updates in order; the pair it queries right after each update, with
// the answer a search of its own live edge set gives at that point; the
// pairs it checks every `kCheckEvery` updates; and the pairs checked
// after the final Flush.
struct ChurnPlan {
  std::vector<reach::EdgeUpdate> updates;
  std::vector<Pair> own_checks;           // own_checks[i]: after update i
  std::vector<std::vector<Pair>> checks;  // checks[c]: after update
                                          // (c + 1) * kCheckEvery - 1
  std::vector<Pair> final_checks;
  size_t deletes = 0;
  // Deletes after which the tail still reaches the head by another path.
  size_t deletes_still_reachable = 0;
  // Unreachable pairs, and those of them that a deleted edge used to
  // connect: in the periodic checks (the delete still pending) and in the
  // final ones.
  struct Negatives {
    size_t all = 0;
    size_t cut = 0;
  } periodic, after_flush;
};

// Inserts go from a larger to a smaller vertex id, the orientation
// `ScaleFreeDag` draws its edges in, so the live graph stays acyclic and
// the universe keeps a mix of answers; deletes pick a live edge.
//
// Between drains the service answers from its last snapshot plus the
// pending updates. A pair the superset graph (the snapshot's edges plus
// every pending insert) connects while the live graph does not is where
// a stale positive would come from, so the periodic checks draw their
// unreachable pairs among those first, from sources at the tails of
// pending deletes. The plan takes the snapshot to be the live graph at
// the last multiple of `kDrainThreshold` updates, where a drain starts.
ChurnPlan MakeChurnPlan(const Inputs& in, uint64_t seed, size_t updates) {
  Rng rng(seed);
  const size_t n = in.graph.NumVertices();
  std::vector<Edge> live_edges = in.graph.Edges();
  Adjacency live(n, live_edges);
  Adjacency superset = live;            // since the last drain point
  Adjacency ever = live;                // every edge the run has seen
  std::vector<VertexId> delete_tails;   // since the last drain point
  std::vector<VertexId> all_delete_tails;
  std::unordered_set<uint64_t> present;
  const auto key = [](VertexId s, VertexId t) {
    return uint64_t{s} << 32 | t;
  };
  for (const Edge& e : live_edges) present.insert(key(e.source, e.target));

  ChurnPlan plan;
  // Checks from `sources` sources, every other one the tail of a delete
  // in `tails`; unreachable pairs come first from those that `wider`
  // connects and the live graph does not.
  const auto draw_checks = [&](size_t sources, Adjacency& wider,
                               const std::vector<VertexId>& tails,
                               std::vector<Pair>& out,
                               ChurnPlan::Negatives& count) {
    std::vector<Pair> neg;
    for (size_t i = 0; i < sources; ++i) {
      const auto s = i % 2 == 0 && !tails.empty()
                         ? tails[rng.Below(tails.size())]
                         : static_cast<VertexId>(rng.Below(n));
      const std::vector<VertexId>& reached = live.Search(s);
      std::vector<VertexId> cut;
      for (const VertexId v : wider.Search(s)) {
        if (!live.Reached(v)) cut.push_back(v);
      }
      const size_t drawn = neg.size();
      DrawTargets(live, s, reached, kCheckPerClass, rng, out, neg, cut);
      count.all += neg.size() - drawn;
      if (!cut.empty()) count.cut += neg.size() - drawn;
    }
    out.insert(out.end(), neg.begin(), neg.end());
  };

  plan.updates.reserve(updates);
  plan.own_checks.reserve(updates);
  for (size_t i = 0; i < updates; ++i) {
    if (rng.Below(100) < kDeletePercent) {
      const size_t pick = rng.Below(live_edges.size());
      const Edge e = live_edges[pick];
      live_edges[pick] = live_edges.back();
      live_edges.pop_back();
      present.erase(key(e.source, e.target));
      live.Delete(e.source, e.target);
      delete_tails.push_back(e.source);
      all_delete_tails.push_back(e.source);
      plan.updates.push_back(reach::EdgeUpdate::Delete(e.source, e.target));
      ++plan.deletes;
      live.Search(e.source);
      const bool still = live.Reached(e.target);
      plan.deletes_still_reachable += still;
      plan.own_checks.push_back({e.source, e.target, still});
    } else {
      VertexId u = 0, v = 0;
      do {
        u = static_cast<VertexId>(rng.Below(n));
        v = static_cast<VertexId>(rng.Below(n));
        if (u < v) std::swap(u, v);
      } while (u == v || present.count(key(u, v)) != 0);
      live_edges.push_back({u, v});
      present.insert(key(u, v));
      live.Insert(u, v);
      superset.Insert(u, v);
      ever.Insert(u, v);
      plan.updates.push_back(reach::EdgeUpdate::Insert(u, v));
      plan.own_checks.push_back({u, v, true});
    }
    if ((i + 1) % kCheckEvery == 0) {
      draw_checks(kCheckSources, superset, delete_tails,
                  plan.checks.emplace_back(), plan.periodic);
    }
    if ((i + 1) % kDrainThreshold == 0) {
      superset = live;
      delete_tails.clear();
    }
  }
  // After the final Flush no delete is pending: the pairs any delete of
  // the run cut must be unreachable in the rebuilt snapshot.
  draw_checks(128, ever, all_delete_tails, plan.final_checks,
              plan.after_flush);
  return plan;
}

// Queries `pairs` through the service and counts wrong or inexact
// answers into `report`.
void CheckPairs(const ReachService& service, const std::vector<Pair>& pairs,
                uint64_t id, SpanLane* lane, Report& report) {
  for (const Pair& p : pairs) {
    const Clock::time_point t0 = Clock::now();
    const ServeAnswer ans = service.Query(p.s, p.t);
    Record(lane, "ReachService::Query", id, t0, Clock::now());
    ++report.attempted;
    report.failed += !ans.exact || ans.reachable != p.reachable;
  }
}

// The skewed read stream of one serve reader: half the queries repeat a
// hot head of unreachable pairs small enough for the negative-result
// cache, half come uniformly from the whole universe (reachable or not
// with probability 1/2), so a quarter of the stream is reachable.
std::vector<Pair> ReadStream(const Inputs& in, uint64_t seed, size_t reader) {
  Rng rng(seed ^ (0x5eed0000ULL + reader));
  std::vector<Pair> stream;
  stream.reserve(kStreamLength);
  for (size_t i = 0; i < kStreamLength; ++i) {
    if (rng.Below(2) == 0) {
      stream.push_back(in.neg[rng.Below(kHotPairs)]);
    } else {
      const std::vector<Pair>& cls = rng.Below(2) == 0 ? in.pos : in.neg;
      stream.push_back(cls[rng.Below(cls.size())]);
    }
  }
  return stream;
}

}  // namespace

void RunServeRead(const Inputs& in, const PhaseConfig& cfg, Report& report) {
  SpanLog* log = cfg.spans;
  SpanLane* main_lane = log ? log->NewLane("main") : nullptr;
  std::unique_ptr<ReachService> service =
      SetUp(in, ServeOptions(), main_lane, report);
  const Counters start = Counters::Of(service->stats());
  const size_t readers = cfg.threads;
  std::vector<std::vector<Pair>> streams;
  for (size_t r = 0; r < readers; ++r) {
    streams.push_back(ReadStream(in, cfg.seed, r));
  }

  // Single-reader phase (a fifth of the time): the bare index and the
  // service answer the same stream chunks in turn, so the serve tax is
  // the difference of two medians taken the same way.
  reach::MadeIndex bare = reach::MakeIndex("pll");
  bare.plain->Build(in.graph);
  ReaderTally bare_tally, one_tally;
  double one_wall_s = 0;
  const Clock::time_point single_deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds / 5));
  for (size_t at = 0; Clock::now() < single_deadline;
       at = (at + kDeadlineStride) % kStreamLength) {
    for (size_t i = at; i < at + kDeadlineStride; ++i) {
      const Pair& p = streams[0][i];
      const uint64_t id = NextId(main_lane);
      const Clock::time_point t0 = Clock::now();
      const bool got = bare.plain->Query(p.s, p.t);
      const Clock::time_point t1 = Clock::now();
      Record(main_lane, "pll.Query", id, t0, t1);
      (p.reachable ? bare_tally.pos : bare_tally.neg)[0].Record(
          static_cast<uint64_t>(NsBetween(t0, t1)));
      ++bare_tally.attempted;
      bare_tally.failed += got != p.reachable;
    }
    const Clock::time_point w0 = Clock::now();
    for (size_t i = at; i < at + kDeadlineStride; ++i) {
      TimedServeQuery(*service, streams[0][i], streams[0][i].reachable,
                      main_lane, one_tally);
    }
    one_wall_s += static_cast<double>(NsBetween(w0, Clock::now())) / 1e9;
  }
  report.attempted += bare_tally.attempted + one_tally.attempted;
  report.failed += bare_tally.failed + one_tally.failed;
  bare.plain.reset();

  // Main phase: `readers` closed-loop readers, each over its own stream.
  const Counters before = Counters::Of(service->stats());
  std::vector<ReaderTally> tallies(readers, ReaderTally(kWindows));
  std::vector<SpanLane*> lanes(readers, nullptr);
  for (size_t r = 0; r < readers && log; ++r) {
    lanes[r] = log->NewLane("reader " + std::to_string(r));
  }
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  const double main_seconds = cfg.seconds - cfg.seconds / 5;
  Clock::time_point go_time;
  std::vector<std::thread> threads;
  for (size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const Clock::time_point deadline =
          go_time + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(main_seconds));
      const std::vector<Pair>& stream = streams[r];
      const int64_t window_ns =
          static_cast<int64_t>(main_seconds * 1e9 / kWindows);
      size_t at = 0;
      for (Clock::time_point now = Clock::now(); now < deadline;
           now = Clock::now()) {
        const auto window = std::min<size_t>(
            static_cast<size_t>(NsBetween(go_time, now) / window_ns),
            kWindows - 1);
        for (size_t i = at; i < at + kDeadlineStride; ++i) {
          TimedServeQuery(*service, stream[i], stream[i].reachable, lanes[r],
                          tallies[r], window);
        }
        at = (at + kDeadlineStride) % kStreamLength;
      }
    });
  }
  while (ready.load() < readers) std::this_thread::yield();
  go_time = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  const Counters delta = Counters::Of(service->stats()).Minus(before);
  const Counters total = Counters::Of(service->stats()).Minus(start);
  service->Stop();

  SetQueryMetrics(tallies, kWindows, main_seconds / kWindows, report);
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");

  Histogram one_all = one_tally.pos[0];
  one_all.Merge(one_tally.neg[0]);
  Histogram bare_all = bare_tally.pos[0];
  bare_all.Merge(bare_tally.neg[0]);
  const double one_qps = static_cast<double>(one_all.count()) / one_wall_s;
  const double multi_qps = report.metrics["query_throughput"].value;
  report.Set("l3.serve_p50_ns.1reader", one_all.Quantile(0.5), "ns");
  report.Set("l3.serve_tax_ns", one_all.Quantile(0.5) - bare_all.Quantile(0.5),
             "ns");
  report.Set("l3.throughput.1reader", one_qps, "queries/s");
  report.Set("l3.read_scaling",
             multi_qps / (static_cast<double>(readers) * one_qps), "ratio");
  const double hit_share = Share(delta.negcache_hits, delta.queries);
  report.Set("l3.negcache_hit_share", hit_share, "ratio");
  report.Set("l3.index_answer_share",
             Share(delta.index_answers, delta.queries), "ratio");

  if (total.rebuilds != 0) {
    throw PreconditionError{"serve-read: " + std::to_string(total.rebuilds) +
                            " rebuilds ran with no writer"};
  }
  if (!(hit_share > 0.0 && hit_share < 1.0)) {
    throw PreconditionError{"serve-read: negative-cache hit share " +
                            std::to_string(hit_share) +
                            " is not strictly between 0 and 1"};
  }
}

void RunServeChurn(const Inputs& in, const PhaseConfig& cfg, Report& report) {
  SpanLog* log = cfg.spans;
  SpanLane* writer_lane = log ? log->NewLane("writer") : nullptr;
  const auto num_updates =
      static_cast<size_t>(kUpdatesPerSecond * cfg.seconds + 0.5);
  const ChurnPlan plan = MakeChurnPlan(in, cfg.seed ^ 0xc4a2ULL, num_updates);
  std::fprintf(stderr,
               "reachbench: churn plan: %zu updates, %zu deletes (%zu still "
               "reachable after it); unreachable pairs cut by a delete: "
               "%zu of %zu periodic (delete pending), %zu of %zu final\n",
               plan.updates.size(), plan.deletes,
               plan.deletes_still_reachable, plan.periodic.cut,
               plan.periodic.all, plan.after_flush.cut, plan.after_flush.all);

  reach::ServiceOptions options = ServeOptions();
  options.max_pending_edges = kMaxPending;
  options.drain_threshold = kDrainThreshold;
  std::unique_ptr<ReachService> service =
      SetUp(in, options, writer_lane, report);
  ReachService& svc = *service;

  // One writer, one thread for the rebuilds, the rest read.
  const size_t readers = cfg.threads > 2 ? cfg.threads - 2 : 1;
  std::vector<std::vector<Pair>> streams;
  for (size_t r = 0; r < readers; ++r) {
    streams.push_back(ReadStream(in, cfg.seed, r));
  }
  // Reads while the writer's schedule runs go to window 0, reads during
  // the final drain to window 1, which the query metrics leave out. The
  // schedule spans whole drain cycles, so pooling it is steadier than a
  // median over windows cut across the cycles.
  std::vector<ReaderTally> tallies(readers, ReaderTally(2));
  std::vector<SpanLane*> lanes(readers, nullptr);
  for (size_t r = 0; r < readers && log; ++r) {
    lanes[r] = log->NewLane("reader " + std::to_string(r));
  }

  const Counters before = Counters::Of(svc.stats());
  const Clock::time_point start = Clock::now();
  const Clock::time_point schedule_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  // The reader threads, declared after everything they read; the
  // destructor stops and joins them on every way
  // out of the writer loop, exceptions included.
  struct ReaderThreads {
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    ReaderThreads() = default;
    ReaderThreads(const ReaderThreads&) = delete;
    ReaderThreads& operator=(const ReaderThreads&) = delete;
    void StopAndJoin() {
      done.store(true, std::memory_order_relaxed);
      for (std::thread& t : threads) {
        if (t.joinable()) t.join();
      }
    }
    ~ReaderThreads() { StopAndJoin(); }
  } reader_threads;
  for (size_t r = 0; r < readers; ++r) {
    reader_threads.threads.emplace_back([&, r] {
      const std::vector<Pair>& stream = streams[r];
      ReaderTally& tally = tallies[r];
      for (size_t i = 0;
           !reader_threads.done.load(std::memory_order_relaxed);
           i = (i + 1) % kStreamLength) {
        tally.pending_sum += svc.PendingEdgeCount();
        const size_t window = Clock::now() < schedule_end ? 0 : 1;
        TimedServeQuery(svc, stream[i], -1, lanes[r], tally, window);
      }
    });
  }

  // The writer (this thread): update i is due at start + i / rate.
  Histogram update_ns, apply_ns, late_ns;
  Report writer;
  Clock::time_point last_accepted = start;
  for (size_t i = 0; i < plan.updates.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(i / kUpdatesPerSecond));
    // Sleep through most of the gap, then spin to the due time.
    if (due - Clock::now() > std::chrono::microseconds(200)) {
      std::this_thread::sleep_until(due - std::chrono::microseconds(100));
    }
    while (Clock::now() < due) {
    }
    const reach::EdgeUpdate& u = plan.updates[i];
    const uint64_t id = NextId(writer_lane);
    const Clock::time_point t0 = Clock::now();
    const reach::UpdateResult result = svc.ApplyUpdate({u});
    const Clock::time_point t1 = Clock::now();
    Record(writer_lane, "ReachService::ApplyUpdate", id, t0, t1);
    late_ns.Record(static_cast<uint64_t>(NsBetween(due, t0)));
    apply_ns.Record(static_cast<uint64_t>(NsBetween(t0, t1)));
    update_ns.Record(static_cast<uint64_t>(NsBetween(due, t1)));
    ++writer.attempted;
    if (!result.ok()) {
      ++writer.failed;
    } else {
      last_accepted = t1;
      // Read-your-writes: the only writer's query is ordered after its
      // own accepted update. After an insert the pair is reachable; after
      // a delete, with the delete still pending, the service must verify
      // its snapshot's positive against the live graph.
      CheckPairs(svc, {plan.own_checks[i]}, id, writer_lane, writer);
    }
    if ((i + 1) % kCheckEvery == 0) {
      CheckPairs(svc, plan.checks[i / kCheckEvery], NextId(writer_lane),
                 writer_lane, writer);
    }
  }
  const uint64_t flush_id = NextId(writer_lane);
  const Clock::time_point f0 = Clock::now();
  svc.Flush();
  const Clock::time_point f1 = Clock::now();
  RecordKept(writer_lane, "ReachService::Flush", flush_id, f0, f1);
  reader_threads.StopAndJoin();
  const double wall_s = static_cast<double>(NsBetween(start, f1)) / 1e9;
  const Counters delta = Counters::Of(svc.stats()).Minus(before);

  // After the final Flush the snapshot holds every update: check a sample
  // against a search of the final live edge set.
  CheckPairs(svc, plan.final_checks, NextId(writer_lane), writer_lane,
             writer);
  svc.Stop();
  report.attempted += writer.attempted;
  report.failed += writer.failed;

  SetQueryMetrics(tallies, 1, cfg.seconds, report);
  report.Set("peak_rss_mb", PeakRssMb(), "MiB");

  uint64_t reads = 0, pending_sum = 0;
  for (const ReaderTally& t : tallies) {
    reads += t.attempted;
    pending_sum += t.pending_sum;
  }
  report.Set("update_p50_ns", update_ns.Quantile(0.50), "ns");
  report.Set("update_p99_ns", update_ns.Quantile(0.99), "ns");
  report.Set("drain_lag_ms",
             static_cast<double>(NsBetween(last_accepted, f1)) / 1e6, "ms");
  report.Set("l4.pending_mean", Share(pending_sum, reads), "updates");
  report.Set("l4.delta_answer_share",
             Share(delta.delta_answers, delta.queries), "ratio");
  report.Set("l4.delete_verify_share",
             Share(delta.delete_verifies, delta.queries), "ratio");
  report.Set("l4.fallback_share",
             Share(delta.fallback_answers, delta.queries), "ratio");
  report.Set("l4.rebuilds", static_cast<double>(delta.rebuilds), "count");
  report.Set("l4.snapshot_interval_ms",
             delta.rebuilds == 0
                 ? 0.0
                 : wall_s * 1e3 / static_cast<double>(delta.rebuilds),
             "ms");
  report.Set("l4.apply_update_ns_p50", apply_ns.Quantile(0.50), "ns");
  report.Set("l4.writer_late_ms_p99", late_ns.Quantile(0.99) / 1e6, "ms");
  report.Set("l4.backpressure_blocked",
             static_cast<double>(delta.backpressure_blocked), "count");

  // Fixed work: the paths this workload exists for must have run, and so
  // must the drains the threshold implies (five at --seconds 10), less
  // one that a slow drain may fold into the next.
  const uint64_t planned_drains = plan.updates.size() / kDrainThreshold;
  const uint64_t min_rebuilds =
      std::max<uint64_t>(1, planned_drains > 0 ? planned_drains - 1 : 0);
  std::string missing;
  if (delta.deletes < plan.deletes) {
    missing += " deletes " + std::to_string(delta.deletes) + " < planned " +
               std::to_string(plan.deletes) + ";";
  }
  if (delta.delete_verifies == 0) missing += " no delete verifications;";
  if (delta.delta_answers == 0) missing += " no delta answers;";
  if (delta.rebuilds < min_rebuilds) {
    missing += " " + std::to_string(delta.rebuilds) + " rebuilds < " +
               std::to_string(min_rebuilds) + ";";
  }
  if (!missing.empty()) throw PreconditionError{"serve-churn:" + missing};
}

}  // namespace reachbench
