// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics of one workload: served
// latency and throughput from a closed loop of the workload's clients over
// loopback, the paper's page I/O per query, set-up time and peak memory.
// --trace 1 runs the separate traced run that measures each layer from
// outside (layers.cc). Lines starting with '#' describe the run; the last
// line is one JSON object with the metrics, the attempted and failed
// operation counts, and whether every output check passed. The exit code
// is nonzero only when the run could not be carried out; a failed check
// reports "correct": false.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <random>

#include "bench.h"

namespace perfbench {
namespace {

using namespace objrep;

/// Fresh databases the io pass runs on; they must agree where the
/// workload's I/O is deterministic.
constexpr int kIoPasses = 2;
/// The io pass's request sequence is fixed, like the database: the
/// paper's yardstick then moves only when the code changes the I/O, not
/// with the run's seed.
constexpr uint64_t kIoSequenceSeed = 7;
/// Set-up time is the median of a run's set-ups: the one that serves the
/// timed window, and one more after every kSlicesPerSetup slices of it, so
/// that they meet the host in as many states as the slices do.
constexpr int kSlicesPerSetup = 10;
/// Latency samples a slice keeps (a uniform subsample beyond it), so the
/// harness's memory does not grow with throughput and peak_rss_mb does not
/// follow the request rate.
constexpr size_t kSamplesPerSlice = 4000;
/// Slices of the timed window.
constexpr int kSlices = 120;
/// Share of the slices the served metrics are taken from: those that
/// completed requests fastest.
constexpr double kKeptShare = 0.1;
/// A reported tail percentile keeps at least this many samples beyond it.
constexpr size_t kTailSamples = 10;
/// UPDATEs probed on a workload whose mix has none, spread over the slices.
constexpr uint32_t kUpdateProbe = 30000;

/// Nearest-rank index of the q-quantile among `n` > 0 ascending samples.
size_t QuantileIndex(size_t n, double q) {
  return static_cast<size_t>(std::ceil(q * static_cast<double>(n))) - 1;
}

/// Indices of the slices the metrics are taken from: the kKeptShare of
/// them with the highest rate, extended in rate order until they hold
/// kTailSamples samples beyond the p99 of `lat`. A shared host takes this
/// process's vCPUs away (steal time) and slows them in phases of seconds
/// that can cover most of a run; a slice inside one completes fewer
/// requests, each later. The fastest slices measure the program outside
/// those phases; a change that slows every slice still moves them.
std::vector<size_t> FastestSlices(const std::vector<double>& rate,
                                  const std::vector<std::vector<double>>& lat) {
  std::vector<size_t> idx(rate.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](size_t a, size_t b) { return rate[a] > rate[b]; });
  const size_t share = static_cast<size_t>(std::lround(kKeptShare * rate.size()));
  const size_t min_samples = kTailSamples * 100;
  size_t keep = 0, samples = 0;
  while (keep < idx.size() &&
         (keep < std::max<size_t>(1, share) || samples < min_samples)) {
    samples += lat[idx[keep++]].size();
  }
  idx.resize(keep);
  return idx;
}

/// The q-quantile of the samples of the kept slices pooled, lowered where
/// needed to keep kTailSamples beyond it. Prints where it was taken.
double PooledQuantile(const char* verb, std::vector<double> pooled,
                      double q) {
  if (pooled.empty()) return 0;
  std::sort(pooled.begin(), pooled.end());
  const size_t n = pooled.size();
  size_t idx = QuantileIndex(n, q);
  if (n > kTailSamples && n - 1 - idx < kTailSamples) idx = n - 1 - kTailSamples;
  if (idx != QuantileIndex(n, q)) {
    std::printf("# %s p%g: reported at p%.2f to keep %zu samples beyond\n",
                verb, 100 * q, 100.0 * static_cast<double>(idx + 1) / n,
                kTailSamples);
  }
  return pooled[idx];
}

void LatencyMetrics(const char* verb,
                    const std::vector<std::vector<double>>& slices,
                    const std::vector<size_t>& kept,
                    const std::string& p50_name, const std::string& p99_name,
                    Metrics* m) {
  size_t total = 0;
  for (const auto& s : slices) total += s.size();
  std::vector<double> pooled;
  for (size_t k : kept) {
    pooled.insert(pooled.end(), slices[k].begin(), slices[k].end());
  }
  std::printf("# %s latency: %zu samples from the fastest %zu of %zu "
              "slices (%zu samples in all)\n",
              verb, pooled.size(), kept.size(), slices.size(), total);
  m->Set(p50_name, PooledQuantile(verb, pooled, 0.5), "us");
  m->Set(p99_name, PooledQuantile(verb, pooled, 0.99), "us");
}

/// Reads every subobject's stored ret1 after the run (after an MVCC fold
/// for the engine backend) and checks it against the UPDATEs sent.
bool CheckBaseRows(Backend* b, const Truth& truth, std::string* why) {
  if (b->engine != nullptr) {
    if (Status s = b->engine->FoldAll(); !s.ok()) {
      *why = "FoldAll: " + s.ToString();
      return false;
    }
  }
  auto read_one = [](ComplexDatabase* db, const Oid& oid, int32_t* v) {
    const Table* t = db->ChildRelById(oid.rel);
    Value val;
    if (t == nullptr || !t->GetField(oid.key, kChildRet1, &val).ok()) {
      return false;
    }
    *v = val.as_int32();
    return true;
  };
  bool replicas_agree = true;
  auto read = [&](const Oid& oid, int32_t* v) {
    if (b->db != nullptr) return read_one(b->db.get(), oid, v);
    bool first = true;
    for (uint32_t k : b->sdb->router.HoldersOf(oid.Packed())) {
      int32_t got = 0;
      if (!read_one(b->sdb->shards[k].get(), oid, &got)) return false;
      if (!first && got != *v) replicas_agree = false;
      *v = got;
      first = false;
    }
    return !first;
  };
  if (!truth.CheckBase(read, why)) return false;
  if (!replicas_agree) {
    *why = "shard replicas of one subobject disagree after the fold";
    return false;
  }
  return true;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The paper's yardstick on a fresh database: page reads plus writes of a
/// fixed one-client sequence that starts from an empty pool.
Status IoPass(const WorkloadDef& w, RunTotals* totals, uint64_t* pages,
              double* per_query) {
  Backend b;
  OBJREP_RETURN_NOT_OK(StartBackend(w, &b));
  DropPools(&b);
  Truth truth(b.truth());
  const Snapshot before = TakeSnapshot(b);
  LoadOptions opt;
  opt.phase = 1;
  opt.requests = w.io_requests;
  LoadResult r =
      RunClosedLoop(b.server->port(), w, kIoSequenceSeed, &truth, opt);
  const Snapshot after = TakeSnapshot(b);
  StopServer(&b);
  totals->Add(r, "io pass");
  std::string why;
  if (!TagsSumToCounters(after, &why)) totals->CheckFailed(why);
  *pages = (after.io - before.io).total();
  *per_query = static_cast<double>(*pages) /
               static_cast<double>(std::max<size_t>(1, r.samples.size()));
  return Status::OK();
}

int RunEndToEnd(const WorkloadDef& w, uint64_t seed, double seconds,
                Metrics* m, RunTotals* totals) {
  const uint32_t clients = w.clients();
  std::printf("# workload %s: seed %llu, %u closed-loop clients, %u server "
              "workers, %.1f s timed\n",
              w.name, static_cast<unsigned long long>(seed), clients,
              w.workers(), seconds);
  std::vector<uint64_t> io_pages(kIoPasses);
  std::vector<double> io_per_query(kIoPasses);
  for (int i = 0; i < kIoPasses; ++i) {
    if (Status s = IoPass(w, totals, &io_pages[i], &io_per_query[i]);
        !s.ok()) {
      std::fprintf(stderr, "io pass failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  std::printf("# io pass: %u requests, pages per pass:", w.io_requests);
  for (uint64_t p : io_pages) {
    std::printf(" %llu", static_cast<unsigned long long>(p));
  }
  std::printf("%s\n", w.deterministic_io() ? " (deterministic)" : "");
  if (w.deterministic_io() &&
      std::adjacent_find(io_pages.begin(), io_pages.end(),
                         std::not_equal_to<>()) != io_pages.end()) {
    totals->CheckFailed("io_per_query did not repeat exactly for one seed");
  }

  std::vector<double> setup_s;
  auto set_up = [&](Backend* b, std::unique_ptr<Truth>* truth) {
    const double t0 = NowSeconds();
    LoadResult warm;
    Status s = SetUp(w, seed, b, truth, &warm);
    setup_s.push_back(NowSeconds() - t0);
    totals->Add(warm, "warm-up");
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.ToString().c_str());
    }
    return s.ok();
  };
  Backend b;
  std::unique_ptr<Truth> truth;
  if (!set_up(&b, &truth)) return 1;

  // The timed window runs as kSlices slices. On a workload whose mix has
  // no UPDATE, a share of the update probe follows each slice, so update
  // latency is sampled across the whole window, not in one burst.
  std::vector<std::vector<double>> retrieve_lat(kSlices), update_lat(kSlices);
  std::vector<double> slice_rps(kSlices), probe_rate(kSlices);
  std::mt19937_64 subsample_rng(seed);
  auto subsample = [&](std::vector<double>* lat) {
    if (lat->size() <= kSamplesPerSlice) return;
    std::vector<double> kept;
    std::sample(lat->begin(), lat->end(), std::back_inserter(kept),
                kSamplesPerSlice, subsample_rng);
    lat->swap(kept);
  };
  for (int k = 0; k < kSlices; ++k) {
    LoadOptions slice;
    slice.clients = clients;
    slice.phase = 10 + k;
    slice.seconds = seconds / kSlices;
    LoadResult r = RunClosedLoop(b.server->port(), w, seed, truth.get(), slice);
    totals->Add(r, "timed");
    for (const Sample& s : r.samples) {
      (s.update ? update_lat : retrieve_lat)[k].push_back(s.latency_us);
    }
    slice_rps[k] = static_cast<double>(retrieve_lat[k].size()) / r.elapsed_s;
    if (w.pr_update == 0) {
      LoadOptions probe;
      probe.phase = 100 + k;
      probe.requests = kUpdateProbe / kSlices;
      probe.updates_only = true;
      LoadResult p =
          RunClosedLoop(b.server->port(), w, seed, truth.get(), probe);
      totals->Add(p, "update probe");
      for (const Sample& s : p.samples) update_lat[k].push_back(s.latency_us);
      probe_rate[k] = static_cast<double>(p.samples.size()) / p.elapsed_s;
    }
    subsample(&retrieve_lat[k]);
    subsample(&update_lat[k]);
    if ((k + 1) % kSlicesPerSetup == 0) {
      Backend spare;
      std::unique_ptr<Truth> spare_truth;
      if (!set_up(&spare, &spare_truth)) return 1;
      StopServer(&spare);
    }
  }
  StopServer(&b);
  std::string why;
  if (!CheckBaseRows(&b, *truth, &why)) totals->CheckFailed(why);

  const std::vector<size_t> kept = FastestSlices(slice_rps, retrieve_lat);
  std::vector<double> kept_rps;
  for (size_t k : kept) kept_rps.push_back(slice_rps[k]);
  std::vector<double> sorted_rps = slice_rps;
  std::sort(sorted_rps.begin(), sorted_rps.end());
  std::printf("# retrieve_rps: median of the fastest %zu of %d slices; all "
              "slices' min/quartiles/max %.0f %.0f %.0f %.0f %.0f\n",
              kept.size(), kSlices, sorted_rps.front(),
              Percentile(sorted_rps, 0.25), Percentile(sorted_rps, 0.5),
              Percentile(sorted_rps, 0.75), sorted_rps.back());
  std::sort(setup_s.begin(), setup_s.end());
  std::printf("# setup_s: median of %zu set-ups, %.3f to %.3f s\n",
              setup_s.size(), setup_s.front(), setup_s.back());
  m->Set("retrieve_rps", Median(kept_rps), "1/s");
  LatencyMetrics("retrieve", retrieve_lat, kept, "retrieve_p50_us",
                 "retrieve_p99_us", m);
  std::printf("# update latency source: %s\n",
              w.pr_update == 0
                  ? "one-client probe after each timed slice"
                  : "timed mix");
  LatencyMetrics("update", update_lat,
                 FastestSlices(w.pr_update == 0 ? probe_rate : slice_rps,
                               update_lat),
                 "update_p50_us", "update_p99_us", m);
  m->Set("io_per_query", Median(io_per_query), "pages/query");
  m->Set("setup_s", Median(setup_s), "s");
  m->Set("peak_rss_mb", PeakRssMb(), "MB");
  return 0;
}

void PrintResult(const RunTotals& t, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              t.correct && t.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed));
  bool first = true;
  for (const auto& [name, vu] : m.items) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const std::string& n : WorkloadNames()) {
    std::fprintf(stderr, " %s", n.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(k, "--trace") == 0) {
      trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  const WorkloadDef* w = FindWorkload(workload);
  if (w == nullptr || argc % 2 == 0 || !(seconds > 0) ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  Metrics m;
  RunTotals totals;
  if (trace == 0) {
    if (int rc = RunEndToEnd(*w, seed, seconds, &m, &totals); rc != 0) {
      return rc;
    }
  } else {
    Status s = RunLayers(*w, seed, seconds, &m, &totals);
    if (!s.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  PrintResult(totals, m);
  return 0;
}
