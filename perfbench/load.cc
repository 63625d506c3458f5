// Closed-loop load generator: each client owns one connection and sends
// its next request only after the previous reply arrived, so a slower
// server receives proportionally less load (no backlog can build up).
#include <algorithm>
#include <thread>

#include "bench.h"
#include "net/client.h"

namespace perfbench {

using namespace objrep;

namespace {

constexpr size_t kMaxErrors = 5;

struct ClientResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Sample> samples;
  std::vector<ProfiledSample> profiles;
  std::vector<std::string> errors;
};

void Fail(ClientResult* r, std::string why) {
  ++r->failed;
  if (r->errors.size() < kMaxErrors) r->errors.push_back(std::move(why));
}

}  // namespace

LoadResult RunClosedLoop(uint16_t port, const WorkloadDef& w, uint64_t seed,
                         Truth* truth, const LoadOptions& opt) {
  const ComplexDatabase& shape = truth->ref();
  const uint32_t num_parents = shape.spec.num_parents;
  std::atomic<uint64_t> next_index{0};
  std::vector<ClientResult> per_client(opt.clients);
  const double t0 = NowSeconds();
  const double deadline = t0 + opt.seconds;

  auto client_main = [&](uint32_t c) {
    ClientResult& r = per_client[c];
    net::ObjClient client;
    if (Status s = client.Connect("127.0.0.1", port); !s.ok()) {
      ++r.attempted;
      Fail(&r, "connect: " + s.ToString());
      return;
    }
    RequestStream stream(w, shape, seed, opt.phase, c);
    uint64_t retrieves = 0;
    for (;;) {
      net::Request req;
      if (opt.sweep) {
        const uint64_t lo = next_index.fetch_add(1) * kNumTop;
        if (lo >= num_parents) break;
        req.verb = net::Verb::kRetrieve;
        req.lo_parent = static_cast<uint32_t>(lo);
        req.num_top = std::min<uint32_t>(kNumTop, num_parents - req.lo_parent);
        req.attr_index = static_cast<uint8_t>(lo / kNumTop % 3);
      } else {
        if (opt.seconds > 0 ? NowSeconds() >= deadline
                            : next_index.fetch_add(1) >= opt.requests) {
          break;
        }
        req = opt.updates_only ? stream.NextUpdate() : stream.Next();
      }
      const bool update = req.verb == net::Verb::kUpdate;
      if (update) req.new_ret1 = truth->NoteUpdate(req.update_targets);
      const bool profiled = !update && opt.profile_every > 0 &&
                            ++retrieves % opt.profile_every == 0;
      if (profiled) req.flags |= net::kReqFlagProfile;

      net::Response resp;
      const auto send = std::chrono::steady_clock::now();
      Status s = client.Call(req, &resp);
      const auto recv = std::chrono::steady_clock::now();
      ++r.attempted;
      if (!s.ok()) {
        Fail(&r, "transport: " + s.ToString());
        client.Close();
        if (!client.Connect("127.0.0.1", port).ok()) break;
        continue;
      }
      if (resp.status != net::RespStatus::kOk) {
        Fail(&r, std::string(net::RespStatusName(resp.status)) + ": " +
                     resp.error);
        continue;
      }
      std::string why;
      if (update ? resp.updated != req.update_targets.size()
                 : !truth->CheckRetrieve(req, resp.values, &why)) {
        Fail(&r, update ? "update acknowledged the wrong target count"
                        : why);
        continue;
      }
      const double latency_us =
          std::chrono::duration<double, std::micro>(recv - send).count();
      r.samples.push_back(Sample{static_cast<float>(latency_us), update});
      if (profiled) {
        r.profiles.push_back(
            ProfiledSample{latency_us, std::move(resp.profile_json)});
      }
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < opt.clients; ++c) {
    threads.emplace_back(client_main, c);
  }
  for (std::thread& t : threads) t.join();

  LoadResult out;
  out.elapsed_s = NowSeconds() - t0;
  for (ClientResult& r : per_client) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.samples.insert(out.samples.end(), r.samples.begin(), r.samples.end());
    out.profiles.insert(out.profiles.end(),
                        std::make_move_iterator(r.profiles.begin()),
                        std::make_move_iterator(r.profiles.end()));
    for (std::string& e : r.errors) {
      if (out.errors.size() < kMaxErrors) out.errors.push_back(std::move(e));
    }
  }
  return out;
}

}  // namespace perfbench
