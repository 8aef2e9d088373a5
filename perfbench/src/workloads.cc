#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "serving/model_registry.h"
#include "stats.h"

namespace lte::perfbench {

namespace {

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-6;
}

// Span ids. Requests and fleet preparation count up from 0; arrivals and
// verification scans have ranges of their own, so no two requests of a run
// share an id.
constexpr int64_t kArrivalIds = int64_t{1} << 40;
constexpr int64_t kVerifyIds = int64_t{2} << 40;

/// What one client thread saw; merged into the Outcome after the join.
struct ClientLog {
  std::vector<double> start_ms;
  std::vector<double> request_ms;
  std::vector<int64_t> request_end_ns;
  std::map<std::string, int64_t> failed;
  int64_t attempted = 0;

  /// Records a timed request that began at `start_ns` and just completed.
  void Completed(int64_t start_ns) {
    const int64_t now = NowNs();
    request_ms.push_back(static_cast<double>(now - start_ns) * 1e-6);
    request_end_ns.push_back(now);
  }
};

void MergeLogs(const std::vector<ClientLog>& logs, Outcome* out) {
  for (const ClientLog& log : logs) {
    out->start_ms.insert(out->start_ms.end(), log.start_ms.begin(),
                         log.start_ms.end());
    out->request_ms.insert(out->request_ms.end(), log.request_ms.begin(),
                           log.request_ms.end());
    out->request_end_ns.insert(out->request_end_ns.end(),
                               log.request_end_ns.begin(),
                               log.request_end_ns.end());
    for (const auto& [kind, n] : log.failed) out->failed[kind] += n;
    out->attempted += log.attempted;
  }
}

/// Runs `body(client)` on `clients` threads (the caller is client 0) and
/// returns the wall time in seconds once all of them have finished.
double RunClients(int64_t clients, const std::function<void(int64_t)>& body) {
  const int64_t start = NowNs();
  {
    std::vector<std::jthread> threads;
    for (int64_t c = 1; c < clients; ++c) threads.emplace_back(body, c);
    body(0);
  }  // jthread joins here, on every path.
  return static_cast<double>(NowNs() - start) * 1e-9;
}

/// Starts `session` for `user`; with `timed`, the latency goes to start_ms.
bool StartUser(const User& user, core::ExplorationSession* session,
               TraceBuffer* trace, int64_t request, bool timed,
               ClientLog* log) {
  ++log->attempted;
  const int64_t t0 = NowNs();
  Status st;
  {
    SpanScope span(trace, SpanKind::kStart, request);
    st = session->StartExploration(user.start_labels, user.variant,
                                   session->session_rng());
  }
  if (timed) log->start_ms.push_back(MsSince(t0));
  if (!st.ok()) ++log->failed["start"];
  return st.ok();
}

/// Users arriving during the timed loop. A client that sends `requests`
/// timed requests also serves its share of the run's `total` arrivals
/// (arrival i belongs to client i % clients), spread evenly between its
/// requests. An arrival is a fleet user's StartExploration on a fresh
/// session, timed into start_ms; the session is then dropped. Spreading the
/// starts over the whole loop gives start latency as many seconds of
/// measurement as the requests get.
class Arrivals {
 public:
  Arrivals(const Fixture& fixture, const std::vector<User>& users,
           int64_t client, int64_t clients, int64_t total, int64_t requests,
           int64_t session_threads)
      : fixture_(fixture),
        users_(users),
        client_(client),
        clients_(clients),
        mine_((total - client + clients - 1) / clients),
        requests_(std::max<int64_t>(1, requests)),
        session_threads_(session_threads) {}

  /// Serves the arrivals due before this client's timed request `k`.
  void Before(int64_t k, TraceBuffer* trace, ClientLog* log) {
    while (done_ < mine_ && done_ * requests_ < (k + 1) * mine_) {
      const int64_t i = client_ + clients_ * done_++;
      const User& user = users_[static_cast<size_t>(i) % users_.size()];
      auto session = NewSession(fixture_, user, session_threads_);
      StartUser(user, session.get(), trace, kArrivalIds + i, /*timed=*/true,
                log);
    }
  }

 private:
  const Fixture& fixture_;
  const std::vector<User>& users_;
  const int64_t client_;
  const int64_t clients_;
  const int64_t mine_;
  const int64_t requests_;
  const int64_t session_threads_;
  int64_t done_ = 0;
};

/// Digest of the first `limit` matches (all of them when `limit` < 0).
uint64_t MatchesDigest(const std::vector<int64_t>& matches,
                       int64_t limit = -1) {
  const size_t n = limit < 0 ? matches.size()
                             : std::min(matches.size(),
                                        static_cast<size_t>(limit));
  return MixDigest(0, matches.data(), n * sizeof(int64_t));
}

// Traffic parameters. Each has its basis beside it; "assumed" marks an
// unmeasured assumption about real users.
// retrieve: a request retrieves all of a user's matches (the paper's final
// retrieval) or, with this share (assumed), a first page.
constexpr double kFullRetrievalShare = 0.5;
// A bounded retrieval returns at most this many matches: the limit of the
// repository's multi-session bench (bench/bench_multi_session.cc). Pages on
// retrieve and reads on churn both use it.
constexpr int64_t kPageLimit = 200;
// churn: Zipf exponent of user popularity, YCSB's default request
// distribution (Cooper et al., SoCC 2010; ROADMAP item 5 asks for Zipf).
constexpr double kZipfExponent = 0.99;

/// Request ids: unique across client threads.
int64_t RequestId(int64_t client, int64_t clients, int64_t local) {
  return client + clients * local;
}

}  // namespace

int64_t Outcome::failed_total() const {
  int64_t total = 0;
  for (const auto& [kind, n] : failed) total += n;
  return total;
}

Status RunRetrieve(const Fixture& fixture, const RetrieveConfig& config,
                   bool trace, Outcome* out) {
  *out = Outcome{};
  const int64_t n = config.fleet;
  const int64_t clients = config.clients;
  std::vector<User> users;
  for (int64_t i = 0; i < n; ++i) {
    users.push_back(MakeUser(fixture, i));
  }
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions(
      static_cast<size_t>(n));
  // One extra buffer for the standalone scans of the verification.
  out->traces.resize(static_cast<size_t>(clients) + 1);
  std::vector<ClientLog> logs(static_cast<size_t>(clients));
  const auto buffer = [&](int64_t client) {
    return trace ? &out->traces[static_cast<size_t>(client)] : nullptr;
  };

  out->fleet_s = RunClients(clients, [&](int64_t client) {
    ClientLog& log = logs[static_cast<size_t>(client)];
    int64_t local = 0;
    for (const int64_t u : UsersOfShard(n, client, clients)) {
      const auto ui = static_cast<size_t>(u);
      sessions[ui] = NewSession(fixture, users[ui], /*num_threads=*/1);
      StartUser(users[ui], sessions[ui].get(), buffer(client),
                RequestId(client, clients, local++), /*timed=*/false, &log);
    }
  });

  // Each client's request list comes from its own stream.
  struct Request {
    int64_t user = 0;
    int64_t limit = -1;
    uint64_t digest = 0;
  };
  const int64_t per_client = config.warmup_per_client +
                             config.requests_per_client;
  std::vector<std::vector<Request>> plans(static_cast<size_t>(clients));
  for (int64_t c = 0; c < clients; ++c) {
    Rng stream = Stream(fixture.seed, kClientStream, static_cast<uint64_t>(c));
    for (int64_t i = 0; i < per_client; ++i) {
      Request req;
      req.user = stream.UniformInt(n);
      if (!stream.Bernoulli(kFullRetrievalShare)) req.limit = kPageLimit;
      plans[static_cast<size_t>(c)].push_back(req);
    }
  }

  serving::CoalescedScanOptions options;
  options.num_threads = config.lanes;
  serving::CoalescedScanScheduler scheduler(fixture.model, &fixture.table,
                                            options);
  const auto serve = [&](int64_t client, int64_t begin, int64_t end,
                         bool timed) {
    ClientLog& log = logs[static_cast<size_t>(client)];
    TraceBuffer* tb = timed ? buffer(client) : nullptr;
    Arrivals arrivals(fixture, users, client, clients,
                      timed ? config.arrivals : 0, end - begin,
                      /*session_threads=*/1);
    std::vector<int64_t> matches;
    for (int64_t i = begin; i < end; ++i) {
      arrivals.Before(i - begin, tb, &log);
      Request& req = plans[static_cast<size_t>(client)][static_cast<size_t>(i)];
      const int64_t id = RequestId(client, clients, n + i);
      ++log.attempted;
      const int64_t t0 = NowNs();
      Status st;
      {
        SpanScope span(tb, SpanKind::kRequest, id);
        {
          SpanScope call(tb, SpanKind::kSchedulerCall, id);
          st = scheduler.RetrieveMatches(
              *sessions[static_cast<size_t>(req.user)], req.limit, &matches);
        }
        req.digest = MatchesDigest(matches);
      }
      if (timed) log.Completed(t0);
      if (!st.ok()) ++log.failed["retrieve"];
    }
  };
  RunClients(clients, [&](int64_t client) {
    serve(client, 0, config.warmup_per_client, /*timed=*/false);
  });
  const serving::CoalescedScanStats before = scheduler.stats();
  out->loop_start_ns = NowNs();
  out->loop_s = RunClients(clients, [&](int64_t client) {
    serve(client, config.warmup_per_client, per_client, /*timed=*/true);
  });
  const serving::CoalescedScanStats after = scheduler.stats();
  out->scheduler_used = true;
  out->scheduler.batches = after.batches - before.batches;
  out->scheduler.requests = after.requests - before.requests;
  out->scheduler.largest_batch = after.largest_batch;
  out->scheduler.encode_passes = after.encode_passes - before.encode_passes;
  MergeLogs(logs, out);

  // Verification: every answer equals the prefix of the same session's
  // standalone full retrieval on the same kernel.
  TraceBuffer* verify_tb = trace ? &out->traces.back() : nullptr;
  std::vector<std::vector<int64_t>> full(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    SpanScope span(verify_tb, SpanKind::kRetrieve, kVerifyIds + u);
    if (!sessions[static_cast<size_t>(u)]
             ->RetrieveMatches(fixture.table, -1,
                               &full[static_cast<size_t>(u)])
             .ok()) {
      ++out->failed["verify"];
    }
  }
  for (const auto& plan : plans) {
    for (const Request& req : plan) {
      if (req.digest !=
          MatchesDigest(full[static_cast<size_t>(req.user)], req.limit)) {
        ++out->failed["verify"];
      }
    }
  }

  eval::ConfusionCounts counts;
  for (int64_t u = 0; u < n; ++u) {
    uint64_t unused = 0;
    if (!ScoreEval(fixture, users[static_cast<size_t>(u)],
                   *sessions[static_cast<size_t>(u)], &counts, &unused)
             .ok()) {
      ++out->failed["score"];
    }
  }
  out->f1 = eval::F1Score(counts);
  return Status::OK();
}

Status RunChurn(const Fixture& fixture, const ChurnConfig& config, bool trace,
                Outcome* out) {
  *out = Outcome{};
  namespace fs = std::filesystem;
  const int64_t n = config.users;
  std::error_code ec;
  // Leftover checkpoints would turn creates into restores: start empty.
  fs::remove_all(config.checkpoint_dir, ec);
  fs::create_directories(config.checkpoint_dir, ec);
  if (ec) {
    return Status::IoError("churn: cannot create " + config.checkpoint_dir);
  }

  std::vector<User> users;
  std::vector<Rng> streams;
  for (int64_t i = 0; i < n; ++i) {
    users.push_back(MakeUser(fixture, i));
    streams.push_back(Stream(fixture.seed, kUserStream,
                             static_cast<uint64_t>(users.back().id)));
  }
  const auto user_id = [](const User& user) {
    return "u" + std::to_string(user.id);
  };

  serving::ModelRegistry registry(fixture.model);
  serving::SessionManagerOptions options;
  options.max_resident = config.resident;
  options.checkpoint_dir = config.checkpoint_dir;
  options.session_num_threads = config.session_threads;
  serving::SessionManager manager(&registry, options);

  out->traces.resize(1);
  TraceBuffer* tb = trace ? &out->traces[0] : nullptr;
  ClientLog log;

  // Per-user request history, replayed by the verification: kind (0 = write
  // round, 1 = read) and answer digest.
  struct Record {
    int kind = 0;
    uint64_t digest = 0;
  };
  std::vector<std::vector<Record>> history(static_cast<size_t>(n));

  // Fleet preparation: every user starts once, in a seed-chosen order; with
  // K < N the manager already evicts here, so the timed loop starts from a
  // full cache and every cold user restores a checkpoint.
  Rng popularity = Stream(fixture.seed, kPopularityStream, 0);
  std::vector<int64_t> by_rank(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) by_rank[static_cast<size_t>(u)] = u;
  popularity.Shuffle(&by_rank);
  const int64_t prep_start = NowNs();
  for (int64_t rank = n - 1; rank >= 0; --rank) {
    const int64_t u = by_rank[static_cast<size_t>(rank)];
    const User& user = users[static_cast<size_t>(u)];
    serving::SessionManager::Lease lease;
    ++log.attempted;
    Status st;
    {
      SpanScope acquire(tb, SpanKind::kAcquire, u);
      acquire.SetTag(kAcquireCreate);
      st = manager.Acquire(user_id(user), &lease);
    }
    if (!st.ok()) {
      ++log.failed["acquire"];
      continue;
    }
    lease.session()->set_scan_path(user.path);
    lease.session()->SeedRng(user.session_seed);
    StartUser(user, lease.session(), tb, u, /*timed=*/false, &log);
  }
  out->fleet_s = static_cast<double>(NowNs() - prep_start) * 1e-9;

  // The traffic: who sends the next request comes from one seeded stream
  // (Zipf over a seeded popularity order); what the request carries comes
  // from that user's own stream. One client thread, so the LRU order and
  // every eviction are fixed by the seed.
  const ZipfSampler zipf(n, kZipfExponent);
  Rng traffic = Stream(fixture.seed, kTrafficStream, 0);
  serving::SessionManagerStats before;
  const int64_t total = config.warmup + config.requests;
  Arrivals arrivals(fixture, users, 0, 1, config.arrivals, config.requests,
                    config.session_threads);
  int64_t loop_start = NowNs();
  std::vector<int64_t> matches;
  for (int64_t i = 0; i < total; ++i) {
    if (i == config.warmup) {
      before = manager.stats();
      loop_start = NowNs();
      out->loop_start_ns = loop_start;
    }
    const bool timed = i >= config.warmup;
    const int64_t id = n + i;
    TraceBuffer* rtb = timed ? tb : nullptr;
    if (timed) arrivals.Before(i - config.warmup, tb, &log);
    const int64_t u = by_rank[static_cast<size_t>(zipf.Sample(&traffic))];
    const auto ui = static_cast<size_t>(u);
    const User& user = users[ui];
    Record record;
    record.kind = history[ui].size() % 2 == 0 ? 0 : 1;
    ++log.attempted;
    const int64_t t0 = NowNs();
    Status st;
    {
      SpanScope span(rtb, SpanKind::kRequest, id);
      serving::SessionManager::Lease lease;
      {
        SpanScope acquire(rtb, SpanKind::kAcquire, id);
        const serving::SessionManagerStats pre = manager.stats();
        st = manager.Acquire(user_id(user), &lease);
        const serving::SessionManagerStats post = manager.stats();
        acquire.SetTag(post.restores > pre.restores ? kAcquireRestore
                       : post.creates > pre.creates ? kAcquireCreate
                                                    : kAcquireHit);
      }
      if (st.ok()) {
        core::ExplorationSession* session = lease.session();
        session->set_scan_path(user.path);
        if (record.kind == 0) {
          const auto round = static_cast<int64_t>(history[ui].size() / 2 + 1);
          st = LabellingRound(fixture, user, round, &streams[ui], session,
                              rtb, id, &record.digest);
        } else {
          SpanScope retrieve(rtb, SpanKind::kRetrieve, id);
          st = session->RetrieveMatches(fixture.table, kPageLimit, &matches);
          record.digest = MatchesDigest(matches);
        }
        SpanScope release(rtb, SpanKind::kRelease, id);
        lease.Release();
      } else {
        ++log.failed["acquire"];
      }
    }
    if (timed) log.Completed(t0);
    if (!st.ok()) ++log.failed[record.kind == 0 ? "round" : "retrieve"];
    history[ui].push_back(record);
  }
  out->loop_s = static_cast<double>(NowNs() - loop_start) * 1e-9;
  const serving::SessionManagerStats after = manager.stats();
  out->sessions_used = true;
  out->sessions.hits = after.hits - before.hits;
  out->sessions.creates = after.creates - before.creates;
  out->sessions.restores = after.restores - before.restores;
  out->sessions.evictions = after.evictions - before.evictions;
  int64_t files = 0;
  int64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(config.checkpoint_dir, ec)) {
    if (entry.path().extension() == ".ltesession") {
      ++files;
      bytes += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  out->checkpoint_bytes_mean =
      files == 0 ? 0.0
                 : static_cast<double>(bytes) / static_cast<double>(files);
  MergeLogs({log}, out);

  // Scoring: every user's final verdicts on the eval sample, read back
  // through the manager.
  eval::ConfusionCounts counts;
  std::vector<uint64_t> managed(static_cast<size_t>(n), 0);
  for (int64_t u = 0; u < n; ++u) {
    const User& user = users[static_cast<size_t>(u)];
    serving::SessionManager::Lease lease;
    if (!manager.Acquire(user_id(user), &lease).ok()) {
      ++out->failed["score"];
      continue;
    }
    lease.session()->set_scan_path(user.path);
    if (!ScoreEval(fixture, user, *lease.session(), &counts,
                   &managed[static_cast<size_t>(u)])
             .ok()) {
      ++out->failed["score"];
    }
  }

  // Verification on seed-chosen users: a never-evicted replay of the user's
  // requests must give the same answers and the same final verdicts.
  for (const int64_t u :
       SeededSubset(n, config.replay_users, fixture.seed ^ 0xC4)) {
    const auto ui = static_cast<size_t>(u);
    const User& user = users[ui];
    auto replay = NewSession(fixture, user, config.session_threads);
    Rng stream =
        Stream(fixture.seed, kUserStream, static_cast<uint64_t>(user.id));
    ClientLog scratch;
    StartUser(user, replay.get(), nullptr, -1, /*timed=*/false,
              &scratch);
    int64_t writes = 0;
    for (const Record& record : history[ui]) {
      uint64_t digest = 0;
      Status st;
      if (record.kind == 0) {
        st = LabellingRound(fixture, user, ++writes, &stream, replay.get(),
                            nullptr, -1, &digest);
      } else {
        st = replay->RetrieveMatches(fixture.table, kPageLimit, &matches);
        digest = MatchesDigest(matches);
      }
      if (!st.ok() || digest != record.digest) ++out->failed["verify"];
    }
    eval::ConfusionCounts unused;
    uint64_t expected = 0;
    if (!ScoreEval(fixture, user, *replay, &unused, &expected).ok() ||
        expected != managed[ui]) {
      ++out->failed["verify"];
    }
  }
  out->f1 = eval::F1Score(counts);
  fs::remove_all(config.checkpoint_dir, ec);
  return Status::OK();
}

}  // namespace lte::perfbench
