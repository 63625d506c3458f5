// Shared pieces of the repository benchmark: the workload table, the
// backend each workload serves from, the seeded request streams, the
// ground-truth output checker, the closed-loop load generator, and the
// counter snapshots the traced run reads.
//
// Everything here drives the library from outside, through its public
// headers: the benchmark never reaches into a layer's internals, so the
// numbers it prints are the ones a caller of that layer would observe.
#ifndef OBJREP_PERFBENCH_BENCH_H_
#define OBJREP_PERFBENCH_BENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/strategy.h"
#include "mvcc/version_store.h"
#include "net/protocol.h"
#include "net/server.h"
#include "objstore/cache_manager.h"
#include "objstore/database.h"
#include "shard/engine.h"
#include "shard/sharded_db.h"
#include "util/random.h"

namespace perfbench {

using objrep::Status;

/// Parents per RETRIEVE (NumTop) and subobjects per UPDATE, on every
/// workload.
inline constexpr uint32_t kNumTop = 10;
inline constexpr uint32_t kUpdateBatch = 5;

/// One benchmark workload: the database it serves, the backend, and the
/// request mix its closed-loop clients send.
struct WorkloadDef {
  const char* name = "";
  objrep::DatabaseSpec spec;
  uint32_t shards = 0;  ///< 0: single-database backend
  objrep::StrategyKind strategy = objrep::StrategyKind::kDfs;
  double pr_update = 0;
  /// Requests of the fixed one-client sequence that io_per_query counts.
  uint32_t io_requests = 0;
  /// Closed-loop clients and server workers, each at most nproc.
  uint32_t max_clients = 4;
  uint32_t max_workers = 2;

  uint32_t clients() const;
  uint32_t workers() const;

  /// Without background read-ahead workers a one-client run's I/O is a
  /// function of its inputs, so io_per_query must repeat exactly.
  bool deterministic_io() const { return spec.prefetch_workers == 0; }
};

/// The workload table; null when `name` is unknown.
const WorkloadDef* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

uint32_t HardwareThreads();

/// One built database and the server in front of it.
struct Backend {
  std::unique_ptr<objrep::ComplexDatabase> db;         // single backend
  std::unique_ptr<objrep::shard::ShardedDatabase> sdb;  // sharded backend
  std::unique_ptr<objrep::shard::ShardedEngine> engine;
  std::unique_ptr<objrep::net::ObjServer> server;

  /// The database holding the generation ground truth and the shape the
  /// request streams draw from.
  const objrep::ComplexDatabase& truth() const {
    return db != nullptr ? *db : *sdb->reference;
  }
  /// Every volume requests run against (the database or each shard).
  std::vector<objrep::ComplexDatabase*> volumes() const;
};

/// Builds the database of `w` and starts a server in front of it. The
/// database is part of the workload's definition (its generation seed is
/// fixed); the run's seed picks the request streams.
Status StartBackend(const WorkloadDef& w, Backend* out);
/// Empties every pool without write-back, so the next request starts cold.
/// Only while no request is in flight.
void DropPools(Backend* b);
void StopServer(Backend* b);

/// Deterministic per-(seed, phase, client) request generator.
class RequestStream {
 public:
  RequestStream(const WorkloadDef& w, const objrep::ComplexDatabase& shape,
                uint64_t seed, uint32_t phase, uint32_t client);
  /// Next request of the workload's mix. UPDATE values are assigned by
  /// the caller (Truth::NoteUpdate).
  objrep::net::Request Next();
  objrep::net::Request NextUpdate();

 private:
  const WorkloadDef& w_;
  objrep::Rng rng_;
  uint32_t num_parents_;
  uint32_t children_per_rel_;
  std::vector<uint32_t> rel_ids_;
};

/// Ground truth of every subobject value, advanced by the UPDATEs sent.
/// Thread-safe.
class Truth {
 public:
  explicit Truth(const objrep::ComplexDatabase& ref);

  const objrep::ComplexDatabase& ref() const { return ref_; }

  /// Records an UPDATE about to be sent and returns its fresh ret1 value
  /// (distinct from every value the database holds or was given).
  int32_t NoteUpdate(const std::vector<objrep::Oid>& targets);

  /// Checks a RETRIEVE answer position by position: ret2/ret3 exact, ret1
  /// the generated value or one an UPDATE sent so far wrote to that OID.
  bool CheckRetrieve(const objrep::net::Request& req,
                     const std::vector<int32_t>& values,
                     std::string* why) const;

  /// Checks the stored ret1 of every subobject after the run: the
  /// generated value if no UPDATE targeted it, else one of the values
  /// UPDATEs wrote to it. `read` returns false when the row is absent.
  bool CheckBase(const std::function<bool(const objrep::Oid&, int32_t*)>& read,
                 std::string* why) const;

 private:
  bool Ret1Allowed(const objrep::Oid& oid, int32_t v) const;
  const objrep::ComplexDatabase& ref_;
  std::unordered_map<uint32_t, size_t> rel_index_;
  std::atomic<int32_t> next_value_{1000000000};
  std::atomic<bool> any_update_{false};
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<int32_t>> written_;  // guarded
};

// ---------------------------------------------------------------------------
// Closed-loop load generator.

struct LoadOptions {
  uint32_t clients = 1;
  uint32_t phase = 0;     ///< stream selector, so phases draw fresh requests
  double seconds = 0;     ///< >0: run for this long
  uint64_t requests = 0;  ///< seconds == 0: run exactly this many in total
  bool sweep = false;     ///< retrieve every parent once instead
  bool updates_only = false;
  uint32_t profile_every = 0;  ///< PROFILE-flag every k-th RETRIEVE
};

/// One successful request. Kept small: a run stores one per request, and
/// the harness's own memory is part of peak_rss_mb.
struct Sample {
  float latency_us = 0;  ///< client send to client receive
  bool update = false;
};

struct ProfiledSample {
  double latency_us = 0;
  std::string profile_json;
};

struct LoadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double elapsed_s = 0;
  std::vector<Sample> samples;  ///< successful requests only
  std::vector<ProfiledSample> profiles;
  std::vector<std::string> errors;  ///< first few failure reasons
};

LoadResult RunClosedLoop(uint16_t port, const WorkloadDef& w, uint64_t seed,
                         Truth* truth, const LoadOptions& opt);

// ---------------------------------------------------------------------------
// Counter snapshots (summed over every volume).

struct Snapshot {
  objrep::IoCounters io;
  objrep::IoTagBreakdown tags;
  uint64_t hits = 0, misses = 0, evictions = 0;
  uint64_t coalesced = 0;
  uint64_t promoted = 0, wasted = 0;
  objrep::CacheManager::CacheStats cache;
  uint64_t mvcc_conflicts = 0, versions_live = 0;
  uint64_t wal_bytes = 0;
  objrep::net::ObjServer::Stats server;
};

/// Takes a snapshot once the volume counters are stable, so the disk
/// counters and the per-tag breakdown describe the same instant.
Snapshot TakeSnapshot(const Backend& b);

/// The exact-sum invariant: the per-tag breakdown summed over tags equals
/// the volume counters, for reads and for writes.
bool TagsSumToCounters(const Snapshot& s, std::string* why);

// ---------------------------------------------------------------------------
// Small helpers.

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile of an ascending vector (q in [0, 1]).
double Percentile(const std::vector<double>& sorted, double q);
double Median(std::vector<double> v);
double Mean(const std::vector<double>& v);

/// Unsigned integer value of `"key":` in `json` at or after `from`; 0
/// when absent.
uint64_t JsonU64(const std::string& json, const std::string& key,
                 size_t from = 0);

/// Named metric values in print order, each with its unit.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

/// The set-up that setup_s times: StartBackend, then the workload's
/// warm-up through a closed loop. `truth` is reset to the new database's.
Status SetUp(const WorkloadDef& w, uint64_t seed, Backend* b,
             std::unique_ptr<Truth>* truth, LoadResult* warmup);

/// Operations attempted and failed over all of a run's phases, and whether
/// every output check passed. Failure reasons are printed as description
/// lines.
struct RunTotals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  /// Adds a closed-loop phase's counts.
  void Add(const LoadResult& r, const char* phase);
  /// Counts one in-process operation.
  void Count(bool ok, const std::string& why);
  /// Records a failed check that is not tied to one operation.
  void CheckFailed(const std::string& why);
};

/// The traced run's per-layer metrics for one workload.
Status RunLayers(const WorkloadDef& w, uint64_t seed, double seconds,
                 Metrics* out, RunTotals* totals);

}  // namespace perfbench

#endif  // OBJREP_PERFBENCH_BENCH_H_
