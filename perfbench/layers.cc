// The traced run: per-layer metrics measured from outside each layer.
//
// It repeats the timed run's set-up, then
//   1. drives the seeded stream over the wire untraced, snapshotting every
//      layer's public counters around the window;
//   2. drives it again with the span tracer on and every 4th RETRIEVE
//      PROFILE-flagged, so client latency minus the server's own total
//      isolates the wire, and the recorded spans give per-layer durations;
//   3. replays a fresh seeded stream in process, alternate requests through
//      ObjService::Execute and through the strategy (or sharded engine)
//      directly, which peels the service and strategy costs apart;
//   4. times the LockManager and BufferPool on their own, in loops.
// Every window also checks the exact-sum invariant: the per-tag I/O
// breakdown adds up to the disk counters, and a lone request's profile
// I/O equals the disk delta it caused.
#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "exec/lock_manager.h"
#include "net/service.h"
#include "obs/trace.h"

namespace perfbench {

using namespace objrep;

namespace {

constexpr uint32_t kProfileEvery = 4;
constexpr size_t kLoneRequests = 50;
constexpr size_t kMaxReplay = 8000;

/// Wall time per call of `body(thread, i)` on each of `threads` threads.
template <typename Body>
double TimedLoopNs(uint32_t threads, uint64_t iters, Body body) {
  std::atomic<uint32_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < iters; ++i) body(t, i);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  const double t0 = NowSeconds();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return (NowSeconds() - t0) * 1e9 / static_cast<double>(iters);
}

/// LockManager: one shared Acquire + Release on a single table lock.
double LockPairNs(uint32_t threads) {
  LockManager lm;
  return TimedLoopNs(threads, 2000000 / threads, [&](uint32_t, uint64_t) {
    lm.Acquire(1, LockMode::kShared);
    lm.Release(1, LockMode::kShared);
  });
}

/// BufferPool hit path: FetchPage + unpin over 1024 resident pages.
double PoolHitNs(uint32_t threads) {
  constexpr uint32_t kPages = 1024;
  DiskManager disk;
  BufferPool pool(&disk, 2 * kPages);
  std::vector<PageId> pids;
  for (uint32_t i = 0; i < kPages; ++i) {
    pids.push_back(disk.AllocatePage());
    PageGuard g;
    OBJREP_CHECK(pool.FetchPage(pids.back(), &g).ok());
  }
  return TimedLoopNs(threads, 4000000 / threads, [&](uint32_t t, uint64_t i) {
    PageGuard g;
    OBJREP_CHECK(pool.FetchPage(pids[(i * 7 + t * 131) % kPages], &g).ok());
  });
}

/// BufferPool miss path: a cyclic scan over 4x as many pages as frames on
/// a zero-latency disk, so every timed fetch evicts.
double PoolMissUs(uint32_t frames, double budget_s) {
  DiskManager disk;
  BufferPool pool(&disk, frames);
  const uint64_t npages = 4ull * frames;
  for (uint64_t i = 0; i < npages; ++i) disk.AllocatePage();
  uint64_t k = 0;
  for (; k < frames; ++k) {  // fill the free frames (no eviction yet)
    PageGuard g;
    OBJREP_CHECK(pool.FetchPage(static_cast<PageId>(k), &g).ok());
  }
  const uint64_t misses_before = pool.misses();
  const double t0 = NowSeconds();
  uint64_t timed = 0;
  do {
    for (int j = 0; j < 16; ++j, ++k, ++timed) {
      PageGuard g;
      OBJREP_CHECK(pool.FetchPage(static_cast<PageId>(k % npages), &g).ok());
    }
  } while (NowSeconds() - t0 < budget_s && timed < 3ull * frames);
  const double us = (NowSeconds() - t0) * 1e6 / static_cast<double>(timed);
  OBJREP_CHECK(pool.misses() - misses_before == timed);
  return us;
}

struct SpanStats {
  std::map<std::string, std::vector<double>> durations;
  /// Per UPDATE: its span minus the MVCC commits inside it.
  std::vector<double> update_wait_us;
};

/// Parses the tracer's JSON dump (one event per line).
SpanStats ParseSpans(const std::string& dump) {
  SpanStats out;
  std::map<uint64_t, std::pair<double, double>> updates;  // trace -> (span, commits)
  std::istringstream in(dump);
  std::string line;
  const std::string name_key = "{\"name\":\"";
  while (std::getline(in, line)) {
    size_t p = line.find(name_key);
    if (p == std::string::npos || line.find("\"ph\":\"X\"") == std::string::npos) {
      continue;
    }
    p += name_key.size();
    const std::string name = line.substr(p, line.find('"', p) - p);
    const double dur = static_cast<double>(JsonU64(line, "dur"));
    out.durations[name].push_back(dur);
    const uint64_t trace = JsonU64(line, "trace");
    if (trace == 0) continue;
    if (name == "update") updates[trace].first += dur;
    if (name == "mvcc_commit") updates[trace].second += dur;
  }
  for (const auto& [trace, u] : updates) {
    if (u.first > 0) out.update_wait_us.push_back(u.first - u.second);
  }
  return out;
}

/// Top-level I/O of a profile, per tag (the shards' slices follow it).
IoTagBreakdown ProfileIo(const std::string& json) {
  IoTagBreakdown io;
  const size_t lo = json.find("\"io\":");
  if (lo == std::string::npos) return io;
  const std::string top = json.substr(lo, json.find("\"shards\":") - lo);
  for (size_t t = 0; t < kNumIoTags; ++t) {
    std::string key = "\"";
    key.append(IoTagName(static_cast<IoTag>(t))).append("\":{");
    const size_t at = top.find(key);
    if (at == std::string::npos) continue;
    io.reads[t] = JsonU64(top, "reads", at);
    io.writes[t] = JsonU64(top, "writes", at);
  }
  return io;
}

/// Per-shard slices of a profile: count, and the slowest slice's share.
void ShardSlices(const std::string& json, double* slices, double* slowest) {
  const size_t at = json.find("\"shards\":[");
  uint64_t n = 0, max_us = 0;
  for (size_t p = json.find("\"shard\":", at); p != std::string::npos;
       p = json.find("\"shard\":", p + 1)) {
    ++n;
    max_us = std::max(max_us, JsonU64(json, "us", p));
  }
  const uint64_t total = JsonU64(json, "total_us");
  *slices = static_cast<double>(n);
  *slowest = total > 0 ? static_cast<double>(max_us) / total : 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

size_t CountUpdates(const LoadResult& r) {
  return std::count_if(r.samples.begin(), r.samples.end(),
                       [](const Sample& s) { return s.update; });
}

}  // namespace

Status RunLayers(const WorkloadDef& w, uint64_t seed, double seconds,
                 Metrics* m, RunTotals* totals) {
  const uint32_t clients = w.clients();
  Backend b;
  std::unique_ptr<Truth> truth_ptr;
  LoadResult warm;
  OBJREP_RETURN_NOT_OK(SetUp(w, seed, &b, &truth_ptr, &warm));
  totals->Add(warm, "warm-up");
  Truth& truth = *truth_ptr;
  const uint16_t port = b.server->port();

  auto check_sum = [&](const Snapshot& s) {
    std::string why;
    if (!TagsSumToCounters(s, &why)) totals->CheckFailed(why);
  };

  // 1. Untraced window, with a sampler for the live version count.
  const double window_s = seconds / 4;
  LoadOptions untraced;
  untraced.clients = clients;
  untraced.phase = 3;
  untraced.seconds = window_s;
  std::atomic<bool> sampling{true};
  std::atomic<uint64_t> versions_peak{0};
  std::thread sampler([&] {
    while (sampling.load()) {
      uint64_t live = 0;
      for (ComplexDatabase* v : b.volumes()) {
        if (v->mvcc != nullptr) live += v->mvcc->stats().versions_live;
      }
      versions_peak.store(std::max(versions_peak.load(), live));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const Snapshot a0 = TakeSnapshot(b);
  LoadResult ua = RunClosedLoop(port, w, seed, &truth, untraced);
  const Snapshot a1 = TakeSnapshot(b);
  sampling.store(false);
  sampler.join();
  totals->Add(ua, "untraced window");
  check_sum(a1);

  // 2. Traced window with profiled requests.
  Trace::Clear();
  Trace::SetEnabled(true);
  LoadOptions traced = untraced;
  traced.phase = 5;
  traced.profile_every = kProfileEvery;
  LoadResult tr = RunClosedLoop(port, w, seed, &truth, traced);
  Trace::SetEnabled(false);
  totals->Add(tr, "traced window");
  check_sum(TakeSnapshot(b));
  std::ostringstream dump;
  Trace::WriteJson(dump);
  Trace::Clear();
  const SpanStats spans = ParseSpans(dump.str());

  // 3. In-process replays of a fresh seeded stream, RETRIEVEs only, with
  // the server idle.
  std::vector<net::Request> replay;
  {
    RequestStream stream(w, truth.ref(), seed, 6, 0);
    while (replay.size() < kMaxReplay) {
      net::Request req = stream.Next();
      if (req.verb == net::Verb::kRetrieve) replay.push_back(req);
    }
  }
  std::unique_ptr<net::ObjService> service =
      b.engine != nullptr
          ? std::make_unique<net::ObjService>(b.engine.get(), w.strategy,
                                              StrategyOptions{})
          : std::make_unique<net::ObjService>(b.db.get(), w.strategy,
                                              StrategyOptions{});
  std::unique_ptr<Strategy> strategy;
  if (b.db != nullptr) {
    OBJREP_RETURN_NOT_OK(
        MakeStrategy(w.strategy, b.db.get(), StrategyOptions{}, &strategy));
  }
  // Each path times one request, checks its answer and counts it.
  auto via_service = [&](const net::Request& req, net::Response* resp) {
    const double t0 = NowSeconds();
    *resp = service->Execute(req);
    const double us = (NowSeconds() - t0) * 1e6;
    std::string why = resp->error;
    totals->Count(resp->status == net::RespStatus::kOk &&
                      truth.CheckRetrieve(req, resp->values, &why),
                  why);
    return us;
  };
  auto via_strategy = [&](const net::Request& req) {
    Query q;
    q.kind = Query::Kind::kRetrieve;
    q.lo_parent = req.lo_parent;
    q.num_top = req.num_top;
    q.attr_index = req.attr_index;
    RetrieveResult result;
    const double t0 = NowSeconds();
    Status s = strategy != nullptr
                   ? strategy->ExecuteRetrieve(q, &result)
                   : b.engine->ExecuteRetrieve(w.strategy, q, &result);
    const double us = (NowSeconds() - t0) * 1e6;
    std::string why = s.ToString();
    totals->Count(s.ok() && truth.CheckRetrieve(req, result.values, &why),
                  why);
    return us;
  };

  // Lone PROFILE-flagged requests: profile I/O per tag must equal the disk
  // delta. Background read-ahead is not the request's own I/O, so the
  // prefetch tag may only grow on the disk side.
  for (size_t i = 0; i < kLoneRequests; ++i) {
    net::Request req = replay[i];
    req.flags = net::kReqFlagProfile;
    const Snapshot s0 = TakeSnapshot(b);
    net::Response resp;
    via_service(req, &resp);
    const Snapshot s1 = TakeSnapshot(b);
    if (resp.status != net::RespStatus::kOk) continue;
    const IoTagBreakdown prof = ProfileIo(resp.profile_json);
    const IoTagBreakdown disk = s1.tags - s0.tags;
    for (size_t t = 0; t < kNumIoTags; ++t) {
      const bool prefetch = t == static_cast<size_t>(IoTag::kPrefetch);
      const bool ok = prefetch ? prof.reads[t] <= disk.reads[t] &&
                                     prof.writes[t] <= disk.writes[t]
                               : prof.reads[t] == disk.reads[t] &&
                                     prof.writes[t] == disk.writes[t];
      if (!ok) {
        totals->CheckFailed(
            std::string("lone-request profile I/O differs from the disk "
                        "delta on tag ") +
            IoTagName(static_cast<IoTag>(t)));
        break;
      }
    }
  }

  // The paths take alternate requests of the rest of the stream: running
  // one request through both would hand the second path a pool (and cache)
  // the first had just warmed for it.
  std::vector<double> service_us, strategy_us;
  const double replay_end = NowSeconds() + window_s;
  for (size_t i = kLoneRequests;
       i < replay.size() && NowSeconds() < replay_end; ++i) {
    net::Response resp;
    if (i % 2 == 0) {
      service_us.push_back(via_service(replay[i], &resp));
    } else {
      strategy_us.push_back(via_strategy(replay[i]));
    }
  }
  const Snapshot end = TakeSnapshot(b);
  check_sum(end);
  StopServer(&b);

  // 4. Layer loops, outside any request.
  const uint32_t n = HardwareThreads();
  const double lock_1t = LockPairNs(1), lock_nt = LockPairNs(n);
  const double hit_1t = PoolHitNs(1), hit_nt = PoolHitNs(n);
  const double miss_budget_s = std::min(0.5, seconds / 20);
  const double miss_100 = PoolMissUs(100, miss_budget_s);
  const double miss_1000 = PoolMissUs(1000, miss_budget_s);
  const double miss_10000 = PoolMissUs(10000, miss_budget_s);

  // Per-layer figures.
  std::vector<double> wire_us, lock_wait_us, slices, slowest;
  for (const ProfiledSample& p : tr.profiles) {
    wire_us.push_back(p.latency_us -
                      static_cast<double>(JsonU64(p.profile_json, "total_us")));
    lock_wait_us.push_back(
        static_cast<double>(JsonU64(p.profile_json, "lock_wait_us")));
    double sl = 0, sf = 0;
    ShardSlices(p.profile_json, &sl, &sf);
    slices.push_back(sl);
    slowest.push_back(sf);
  }
  auto span_us = [&](const char* name) {
    auto it = spans.durations.find(name);
    return it == spans.durations.end() ? 0.0 : Median(it->second);
  };
  const double completed = static_cast<double>(ua.samples.size());
  const double updates = static_cast<double>(CountUpdates(ua));
  const IoCounters dio = a1.io - a0.io;
  const IoTagBreakdown dtags = a1.tags - a0.tags;
  auto tag_per_query = [&](IoTag t) {
    return Ratio(static_cast<double>(dtags.total_for(t)), completed);
  };
  const double rps_untraced = Ratio(completed, ua.elapsed_s);
  const double rps_traced =
      Ratio(static_cast<double>(tr.samples.size()), tr.elapsed_s);
  std::printf("# traced run: %zu untraced and %zu traced requests, %zu "
              "profiles, %zu service and %zu strategy replays\n",
              ua.samples.size(), tr.samples.size(), tr.profiles.size(),
              service_us.size(), strategy_us.size());

  m->Set("net.wire_us", Median(wire_us), "us");
  m->Set("net.busy_rejected", static_cast<double>(end.server.busy_rejected),
         "count");
  m->Set("net.bad_frames", static_cast<double>(end.server.bad_frames), "count");
  m->Set("service.execute_us", Median(service_us), "us");
  m->Set("exec.lock_pair_ns_1t", lock_1t, "ns");
  m->Set("exec.lock_pair_ns_Nt", lock_nt, "ns");
  m->Set("exec.lock_wait_us", Mean(lock_wait_us), "us");
  m->Set("core.strategy_us", Median(strategy_us), "us");
  m->Set("pool.hit_ratio",
         Ratio(static_cast<double>(a1.hits - a0.hits),
               static_cast<double>(a1.hits - a0.hits + a1.misses - a0.misses)),
         "ratio");
  m->Set("pool.evictions_per_query",
         Ratio(static_cast<double>(a1.evictions - a0.evictions), completed),
         "evictions/query");
  m->Set("pool.hit_ns_1t", hit_1t, "ns");
  m->Set("pool.hit_ns_Nt", hit_nt, "ns");
  m->Set("pool.miss_us_100", miss_100, "us");
  m->Set("pool.miss_us_1000", miss_1000, "us");
  m->Set("pool.miss_us_10000", miss_10000, "us");
  // inflight_waits are a subset of coalesced misses, so the share of
  // misses served by another thread's read is coalesced / misses.
  m->Set("pool.inflight_wait_frac",
         Ratio(static_cast<double>(a1.coalesced - a0.coalesced),
               static_cast<double>(a1.misses - a0.misses)),
         "ratio");
  m->Set("pool.prefetch_useful_frac",
         Ratio(static_cast<double>(a1.promoted - a0.promoted),
               static_cast<double>(a1.promoted - a0.promoted + a1.wasted -
                                   a0.wasted)),
         "ratio");
  m->Set("disk.reads_per_query", Ratio(static_cast<double>(dio.reads), completed),
         "pages/query");
  m->Set("disk.writes_per_query",
         Ratio(static_cast<double>(dio.writes), completed), "pages/query");
  m->Set("disk.seq_read_frac",
         Ratio(static_cast<double>(dio.seq_reads), static_cast<double>(dio.reads)),
         "ratio");
  m->Set("io.index_probe_per_query", tag_per_query(IoTag::kIndexProbe),
         "pages/query");
  m->Set("io.cache_fetch_per_query", tag_per_query(IoTag::kCacheFetch),
         "pages/query");
  m->Set("io.cache_maint_per_query", tag_per_query(IoTag::kCacheMaint),
         "pages/query");
  m->Set("io.prefetch_per_query", tag_per_query(IoTag::kPrefetch),
         "pages/query");
  m->Set("cache.unit_hit_ratio",
         Ratio(static_cast<double>(a1.cache.hits - a0.cache.hits),
               static_cast<double>(a1.cache.hits - a0.cache.hits +
                                   a1.cache.misses - a0.cache.misses)),
         "ratio");
  m->Set("cache.invalidated_per_update",
         Ratio(static_cast<double>(a1.cache.invalidated_units -
                                   a0.cache.invalidated_units),
               updates),
         "units/update");
  m->Set("mvcc.conflicts_per_update",
         Ratio(static_cast<double>(a1.mvcc_conflicts - a0.mvcc_conflicts),
               updates),
         "conflicts/update");
  m->Set("mvcc.commit_wait_us", Mean(spans.update_wait_us), "us");
  m->Set("mvcc.versions_live_peak", static_cast<double>(versions_peak.load()),
         "versions");
  m->Set("wal.bytes_per_update",
         Ratio(static_cast<double>(a1.wal_bytes - a0.wal_bytes), updates),
         "bytes/update");
  m->Set("shard.slices_per_retrieve", Mean(slices), "slices/retrieve");
  m->Set("shard.slowest_slice_frac", Mean(slowest), "ratio");
  m->Set("span.net_request_us", span_us("net_request"), "us");
  m->Set("span.shard_retrieve_us", span_us("shard_retrieve"), "us");
  m->Set("span.lock_wait_us", span_us("lock_wait"), "us");
  m->Set("span.mvcc_commit_us", span_us("mvcc_commit"), "us");
  m->Set("span.wal_commit_us", span_us("wal_commit"), "us");
  m->Set("obs.trace_overhead_frac", 1.0 - Ratio(rps_traced, rps_untraced),
         "ratio");
  return Status::OK();
}

}  // namespace perfbench
