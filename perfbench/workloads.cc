#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.h"
#include "objstore/rows.h"

namespace perfbench {

using namespace objrep;

namespace {

// Why each workload exists, and what it loads and bypasses, is recorded in
// BENCHMARK.json and perfbench/README.md; the parameters live only here.
std::vector<WorkloadDef> MakeWorkloads() {
  std::vector<WorkloadDef> out;

  // Pure served-read CPU: every page resident, zero-latency device.
  WorkloadDef resident;
  resident.name = "resident_read";
  resident.spec.num_parents = 10000;  // the paper's database, ShareFactor 5
  resident.spec.buffer_pages = 4096;  // ~2.4x the ~1.7k pages it occupies
  resident.strategy = StrategyKind::kDfs;
  resident.io_requests = 1000;
  // CPU-bound: one worker and two clients keep fewer threads runnable than
  // a small host has vCPUs, so a woken thread finds a vCPU that the host
  // is running instead of queueing behind one it has preempted.
  resident.max_clients = 2;
  resident.max_workers = 1;
  out.push_back(resident);

  // Miss and eviction path: database ~3.4x the pool, synchronous
  // read-ahead, zero-latency device.
  WorkloadDef evict;
  evict.name = "evict_probe";
  evict.spec.num_parents = 20000;
  evict.spec.buffer_pages = 1000;
  evict.spec.prefetch = true;
  evict.spec.prefetch_workers = 0;
  evict.strategy = StrategyKind::kDfs;
  evict.io_requests = 500;
  evict.max_clients = 2;  // CPU-bound too
  evict.max_workers = 1;
  out.push_back(evict);

  // Writes beside reads on the engine backend: 2 shards, MVCC, WAL, the
  // object cache, async read-ahead, the paper's 100-page pool per shard
  // and a 100 us device.
  WorkloadDef mix;
  mix.name = "update_mix";
  mix.spec.num_parents = 10000;
  mix.spec.buffer_pages = 100;
  mix.spec.build_cache = true;
  mix.spec.enable_wal = true;
  mix.spec.enable_mvcc = true;
  mix.spec.prefetch = true;
  mix.spec.prefetch_workers = 2;
  mix.spec.io_latency_us = 100;
  mix.shards = 2;
  mix.strategy = StrategyKind::kSmart;  // NumTop 10 < threshold: DFSCACHE
  mix.pr_update = 0.2;
  mix.io_requests = 300;
  out.push_back(mix);
  return out;
}

constexpr uint64_t kWarmupRequests = 200;

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> table = MakeWorkloads();
  return table;
}

}  // namespace

uint32_t HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadDef& w : Workloads()) names.push_back(w.name);
  return names;
}

uint32_t WorkloadDef::clients() const {
  return std::min(max_clients, HardwareThreads());
}
uint32_t WorkloadDef::workers() const {
  return std::min(max_workers, HardwareThreads());
}

std::vector<ComplexDatabase*> Backend::volumes() const {
  std::vector<ComplexDatabase*> out;
  if (db != nullptr) {
    out.push_back(db.get());
  } else {
    for (const auto& s : sdb->shards) out.push_back(s.get());
  }
  return out;
}

Status StartBackend(const WorkloadDef& w, Backend* out) {
  if (w.shards == 0) {
    OBJREP_RETURN_NOT_OK(BuildDatabase(w.spec, &out->db));
  } else {
    OBJREP_RETURN_NOT_OK(
        shard::BuildShardedDatabase(w.spec, w.shards, &out->sdb));
    out->engine = std::make_unique<shard::ShardedEngine>(out->sdb.get(),
                                                         StrategyOptions{});
  }
  net::ServerConfig sc;
  sc.num_workers = w.workers();
  sc.default_strategy = w.strategy;
  out->server = out->engine != nullptr
                    ? std::make_unique<net::ObjServer>(out->engine.get(), sc)
                    : std::make_unique<net::ObjServer>(out->db.get(), sc);
  return out->server->Start();
}

void DropPools(Backend* b) {
  for (ComplexDatabase* v : b->volumes()) v->pool->DropAllFrames();
}

Status SetUp(const WorkloadDef& w, uint64_t seed, Backend* b,
             std::unique_ptr<Truth>* truth, LoadResult* warmup) {
  StopServer(b);
  truth->reset();
  *b = Backend{};
  OBJREP_RETURN_NOT_OK(StartBackend(w, b));
  *truth = std::make_unique<Truth>(b->truth());
  // A pool that can hold the whole database is filled by retrieving every
  // parent once; otherwise a fixed number of requests of the mix brings
  // the pool and the object cache to their steady state.
  bool fits = true;
  for (ComplexDatabase* v : b->volumes()) {
    fits = fits && v->TotalPages() <= v->pool->capacity();
  }
  LoadOptions warm;
  warm.clients = w.clients();
  warm.phase = 2;
  warm.sweep = fits;
  warm.requests = kWarmupRequests;
  *warmup = RunClosedLoop(b->server->port(), w, seed, truth->get(), warm);
  return Status::OK();
}

void StopServer(Backend* b) {
  if (b->server == nullptr) return;
  b->server->Stop();
  b->server.reset();
}

// ---------------------------------------------------------------------------

RequestStream::RequestStream(const WorkloadDef& w, const ComplexDatabase& shape,
                             uint64_t seed, uint32_t phase, uint32_t client)
    : w_(w),
      rng_(seed * 0x9e3779b97f4a7c15ULL + phase * 1000003ULL + client),
      num_parents_(shape.spec.num_parents),
      children_per_rel_(shape.spec.num_children_total() /
                        shape.spec.num_child_rels) {
  for (const Table* t : shape.child_rels) rel_ids_.push_back(t->rel_id());
}

net::Request RequestStream::NextUpdate() {
  net::Request req;
  req.verb = net::Verb::kUpdate;
  for (uint32_t i = 0; i < kUpdateBatch; ++i) {
    Oid oid;
    oid.rel = rel_ids_[rng_.Uniform(rel_ids_.size())];
    oid.key = static_cast<uint32_t>(rng_.Uniform(children_per_rel_));
    req.update_targets.push_back(oid);
  }
  return req;
}

net::Request RequestStream::Next() {
  if (w_.pr_update > 0 && rng_.NextDouble() < w_.pr_update) {
    return NextUpdate();
  }
  net::Request req;
  req.verb = net::Verb::kRetrieve;
  req.num_top = kNumTop;
  req.lo_parent =
      static_cast<uint32_t>(rng_.Uniform(num_parents_ - kNumTop + 1));
  req.attr_index = static_cast<uint8_t>(rng_.Uniform(3));
  return req;
}

// ---------------------------------------------------------------------------

Truth::Truth(const ComplexDatabase& ref) : ref_(ref) {
  for (size_t r = 0; r < ref.child_rels.size(); ++r) {
    rel_index_[ref.child_rels[r]->rel_id()] = r;
  }
}

int32_t Truth::NoteUpdate(const std::vector<Oid>& targets) {
  const int32_t v = next_value_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(mu_);
  for (const Oid& oid : targets) written_[oid.Packed()].push_back(v);
  any_update_.store(true, std::memory_order_release);
  return v;
}

bool Truth::Ret1Allowed(const Oid& oid, int32_t v) const {
  const ChildRow& row = ref_.child_rows[rel_index_.at(oid.rel)][oid.key];
  if (v == row.ret1) return true;
  if (!any_update_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> l(mu_);
  auto it = written_.find(oid.Packed());
  return it != written_.end() &&
         std::find(it->second.begin(), it->second.end(), v) !=
             it->second.end();
}

bool Truth::CheckRetrieve(const net::Request& req,
                          const std::vector<int32_t>& values,
                          std::string* why) const {
  size_t i = 0;
  for (uint32_t p = req.lo_parent; p < req.lo_parent + req.num_top; ++p) {
    for (const Oid& oid : ref_.units[ref_.unit_of_parent[p]]) {
      if (i >= values.size()) {
        *why = "retrieve returned too few values";
        return false;
      }
      const ChildRow& row = ref_.child_rows[rel_index_.at(oid.rel)][oid.key];
      const int32_t v = values[i++];
      const bool ok = req.attr_index == 1   ? v == row.ret2
                      : req.attr_index == 2 ? v == row.ret3
                                            : Ret1Allowed(oid, v);
      if (!ok) {
        *why = "retrieve value mismatch at parent " + std::to_string(p) +
               " attr " + std::to_string(req.attr_index) + ": got " +
               std::to_string(v);
        return false;
      }
    }
  }
  if (i != values.size()) {
    *why = "retrieve returned too many values";
    return false;
  }
  return true;
}

bool Truth::CheckBase(const std::function<bool(const Oid&, int32_t*)>& read,
                      std::string* why) const {
  for (const auto& rows : ref_.child_rows) {
    for (const ChildRow& row : rows) {
      int32_t v = 0;
      if (!read(row.oid, &v)) {
        *why = "base row missing for key " + std::to_string(row.oid.key);
        return false;
      }
      std::lock_guard<std::mutex> l(mu_);
      auto it = written_.find(row.oid.Packed());
      const bool ok =
          it == written_.end()
              ? v == row.ret1
              : std::find(it->second.begin(), it->second.end(), v) !=
                    it->second.end();
      if (!ok) {
        *why = "base ret1 of key " + std::to_string(row.oid.key) +
               " is " + std::to_string(v) +
               ", neither generated nor written by an update";
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------

Snapshot TakeSnapshot(const Backend& b) {
  Snapshot s;
  const std::vector<ComplexDatabase*> vols = b.volumes();
  // The counters and the breakdown are separate relaxed loads; background
  // read-ahead may land between them, so retry until the counters hold
  // still across the breakdown read.
  for (int attempt = 0;; ++attempt) {
    IoCounters before, after;
    IoTagBreakdown tags;
    for (ComplexDatabase* v : vols) before += v->disk->counters();
    for (ComplexDatabase* v : vols) tags += v->disk->breakdown();
    for (ComplexDatabase* v : vols) after += v->disk->counters();
    if ((before.reads == after.reads && before.writes == after.writes) ||
        attempt == 1000) {
      s.io = after;
      s.tags = tags;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (ComplexDatabase* v : vols) {
    BufferPool& p = *v->pool;
    s.hits += p.hits();
    s.misses += p.misses();
    s.evictions += p.evictions();
    s.coalesced += p.coalesced_misses();
    s.promoted += p.prefetch_promoted();
    s.wasted += p.prefetch_wasted();
    if (v->cache != nullptr) {
      CacheManager::CacheStats c = v->cache->stats();
      s.cache.hits += c.hits;
      s.cache.misses += c.misses;
      s.cache.invalidated_units += c.invalidated_units;
    }
    if (v->mvcc != nullptr) {
      MvccStats m = v->mvcc->stats();
      s.mvcc_conflicts += m.conflicts;
      s.versions_live += m.versions_live;
    }
    if (v->wal != nullptr) s.wal_bytes += v->wal->size_bytes();
  }
  if (b.server != nullptr) s.server = b.server->stats();
  return s;
}

bool TagsSumToCounters(const Snapshot& s, std::string* why) {
  if (s.tags.total_reads() == s.io.reads &&
      s.tags.total_writes() == s.io.writes) {
    return true;
  }
  *why = "per-tag I/O (" + std::to_string(s.tags.total_reads()) + " reads, " +
         std::to_string(s.tags.total_writes()) +
         " writes) does not sum to the disk counters (" +
         std::to_string(s.io.reads) + ", " + std::to_string(s.io.writes) + ")";
  return false;
}

// ---------------------------------------------------------------------------

void RunTotals::Add(const LoadResult& r, const char* phase) {
  attempted += r.attempted;
  failed += r.failed;
  for (const std::string& e : r.errors) {
    std::printf("# %s failure: %s\n", phase, e.c_str());
  }
}

void RunTotals::Count(bool ok, const std::string& why) {
  ++attempted;
  if (ok) return;
  if (failed++ < 5) std::printf("# in-process failure: %s\n", why.c_str());
}

void RunTotals::CheckFailed(const std::string& why) {
  correct = false;
  std::printf("# check failed: %s\n", why.c_str());
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 0.5);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

uint64_t JsonU64(const std::string& json, const std::string& key,
                 size_t from) {
  const std::string pat = "\"" + key + "\":";
  size_t pos = json.find(pat, from);
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + pat.size(), nullptr, 10);
}

}  // namespace perfbench
