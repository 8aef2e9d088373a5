// lte_perfbench: the closed-loop end-to-end benchmark of the LTE serving
// stack. One process, one workload:
//
//   lte_perfbench --workload retrieve|churn --seed N --seconds S
//                 --trace 0|1 [--work-dir DIR] [--trace-dir DIR]
//
// The work a run does is a pure function of (workload, seed, seconds): the
// request counts are fixed up front from the run length, never from how fast
// requests complete, so request counts, session counts, checkpoint bytes and
// f1_final repeat exactly. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the run records spans
// around every call into a layer and reports the per-layer metrics instead
// (bench.trace_overhead is added by perfbench/run.py, which compares the
// traced run with an untraced one of the same seed).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "fixture.h"
#include "probes.h"
#include "report.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace lte::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int64_t seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";  // Checkpoints; emptied.
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtoll(value, nullptr, 10);
    } else if (key == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2 == 1) && args->seconds > 0 &&
         (args->workload == "retrieve" || args->workload == "churn");
}

/// The thread budget: half the host's cores, at least one. Client threads
/// plus pool lanes of every workload stay within it (a blocked client of
/// the coalesced scheduler is not running).
struct Budget {
  int64_t nproc = 1;
  int64_t threads = 1;
};

Budget MakeBudget() {
  Budget b;
  b.nproc = DefaultThreadCount();
  b.threads = std::max<int64_t>(1, b.nproc / 2);
  return b;
}

const char* HostIsa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "sse2";
#else
  return "non-x86";
#endif
}

const char* BuildIsa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "baseline";
#endif
}

/// Resets the kernel's resident-set high-water mark to the current resident
/// set, after handing freed heap back to the system, so that PeakRssMb
/// measures what serving adds on top of the fixture rather than the
/// transient peak of Pretrain. Returns false where the kernel does not offer
/// the reset.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return !clear.fail();
}

/// Peak resident set of the whole process, set-up included.
double ProcessPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Peak resident set (VmHWM) since ResetPeakRss; the whole-process peak
/// where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB.
    }
  }
  return ProcessPeakRssMb();
}

// Work per second of run length, calibrated so one run of each workload
// measures about `--seconds` on a 4-core x86-64 host with the budget below.
constexpr int64_t kRetrievePerSecond = 110;
constexpr int64_t kChurnPerSecond = 130;
// Users arriving (one StartExploration each) during the timed loop. Not a
// traffic claim: the rate gives start_ms_p50 600 samples in a 20 s run; at
// 10 per second retrieve's start_ms_p50 spread reached 0.34 on a 4-core host.
constexpr int64_t kArrivalsPerSecond = 30;
// Users per workload: the N = 48 of the repository's session-churn bench
// (bench/bench_session_churn.cc); churn keeps K = N / 4 of them resident,
// that bench's middle capacity point.
constexpr int64_t kUsers = 48;

RetrieveConfig RetrieveSize(const Budget& b, int64_t seconds) {
  RetrieveConfig c;
  c.fleet = kUsers;
  c.clients = b.threads;
  c.lanes = b.threads;
  c.requests_per_client =
      std::max<int64_t>(1, kRetrievePerSecond * seconds / c.clients);
  c.arrivals = kArrivalsPerSecond * seconds;
  return c;
}

ChurnConfig ChurnSize(const Budget& b, int64_t seconds,
                      const std::string& work_dir) {
  ChurnConfig c;
  c.users = kUsers;
  c.resident = kUsers / 4;
  c.session_threads = b.threads;
  c.requests = std::max<int64_t>(1, kChurnPerSecond * seconds);
  c.warmup = c.requests / 20;
  c.arrivals = kArrivalsPerSecond * seconds;
  c.checkpoint_dir = work_dir + "/churn_checkpoints";
  return c;
}

// The probe user of ProbeRows; above every workload's user ids.
constexpr int64_t kProbeUser = 100000;

void Add(Result* r, const std::string& name, double value,
         const std::string& unit) {
  r->metrics.push_back(Metric{name, value, unit});
}

/// Spans of an outcome with their self times.
struct SpanSet {
  std::vector<Span> spans;
  std::vector<int64_t> self_ns;
  explicit SpanSet(const Outcome& o)
      : spans(MergeBuffers(o.traces)), self_ns(SelfTimesNs(spans)) {}
  double P50(SpanKind kind, int32_t tag = -1) const {
    return Percentile(DurationsMs(spans, kind, tag), 50.0);
  }
  double TotalMs(SpanKind kind) const {
    double total = 0.0;
    for (const double ms : DurationsMs(spans, kind)) total += ms;
    return total;
  }
  double SelfMs(SpanKind kind) const {
    return static_cast<double>(SelfTotalNs(spans, self_ns, kind)) * 1e-6;
  }
};

// requests_per_s and request_ms_tail are medians over up to kMaxWindows
// equal-count windows of the timed loop (SummarizeWindows), so a burst of
// noise from other tenants of the host moves one window, not the figure.
// Each window keeps at least kWindowSamples requests, the fewest whose p90
// has 10 samples beyond it, so the tail never falls back to the median.
constexpr int64_t kMaxWindows = 20;
constexpr int64_t kWindowSamples = 110;

int64_t WindowCount(const Outcome& o) {
  const auto n = static_cast<int64_t>(o.request_ms.size());
  return std::clamp<int64_t>(n / kWindowSamples, 1, kMaxWindows);
}

WindowStats Windows(const Outcome& o) {
  return SummarizeWindows(o.request_end_ns, o.request_ms, o.loop_start_ns,
                          WindowCount(o));
}

void AddEndToEnd(const Fixture& fixture, const Outcome& o, Result* r) {
  const WindowStats ws = Windows(o);
  Add(r, "setup_s", fixture.pretrain_s + o.fleet_s, "s");
  Add(r, "requests_per_s", ws.rate, "1/s");
  Add(r, "request_ms_p50", Percentile(o.request_ms, 50.0), "ms");
  Add(r, "request_ms_tail", ws.tail.value, "ms");
  Add(r, "start_ms_p50", Percentile(o.start_ms, 50.0), "ms");
  Add(r, "f1_final", o.f1, "ratio");
  Add(r, "peak_rss_mb", PeakRssMb(), "MB");
}

/// Per-layer metrics come from the workload's own calls only. A layer the
/// workload never calls is reported as 0 and listed in `not_used`, so a
/// reader can tell "not exercised here" from a measured value.
class LayerReport {
 public:
  explicit LayerReport(Result* result) : result_(result) {}
  void Add(const std::string& name, double value, const std::string& unit,
           bool used = true) {
    if (!used) not_used_.push_back(name);
    result_->metrics.push_back(Metric{name, used ? value : 0.0, unit});
  }
  const std::vector<std::string>& not_used() const { return not_used_; }

 private:
  Result* result_;
  std::vector<std::string> not_used_;
};

void AddLayers(const Fixture& fixture, const Outcome& main,
               const RowProbes& rows, LayerReport* r) {
  const SpanSet own(main);
  const auto calls = [&](SpanKind kind, int32_t tag = -1) {
    return !DurationsMs(own.spans, kind, tag).empty();
  };

  r->Add("core.pretrain_s", fixture.pretrain_s, "s");
  r->Add("core.pretrain.taskgen_s", fixture.taskgen_s, "s");
  r->Add("core.pretrain.metatrain_s", fixture.metatrain_s, "s");
  r->Add("core.adapt.start_ms_p50", own.P50(SpanKind::kStart), "ms",
         calls(SpanKind::kStart));
  r->Add("core.adapt.continue_ms_p50", own.P50(SpanKind::kContinue), "ms",
         calls(SpanKind::kContinue));
  r->Add("core.scan.retrieve_ms_p50", own.P50(SpanKind::kRetrieve), "ms",
         calls(SpanKind::kRetrieve));
  r->Add("core.session.save_ms_p50", rows.save_ms_p50, "ms");
  r->Add("core.session.load_ms_p50", rows.load_ms_p50, "ms");
  const bool suggests = calls(SpanKind::kSuggest);
  r->Add("policy.suggest_ms_p50", own.P50(SpanKind::kSuggest), "ms", suggests);
  r->Add("policy.suggest_share",
         own.TotalMs(SpanKind::kSuggest) / own.TotalMs(SpanKind::kRequest),
         "ratio", suggests);

  r->Add("preprocess.encode_ns_per_row", rows.encode_ns_per_row, "ns/row");
  static const char* kKernels[] = {"scalar", "simd"};
  static const char* kVariants[] = {"basic", "meta", "meta_star"};
  for (int k = 0; k < 2; ++k) {
    for (int v = 0; v < 3; ++v) {
      r->Add(std::string("core.score_ns_per_row.") + kKernels[k] + "." +
                 kVariants[v],
             rows.score_ns_per_row[k][v], "ns/row");
    }
  }
  r->Add("core.refine_ns_per_row",
         rows.score_ns_per_row[0][2] - rows.score_ns_per_row[0][1], "ns/row");

  const auto per_request = [](double x, int64_t requests) {
    return requests > 0 ? x / static_cast<double>(requests) : 0.0;
  };
  const bool sched = main.scheduler_used;
  const serving::CoalescedScanStats& st = main.scheduler;
  r->Add("serving.scheduler.call_ms_p50", own.P50(SpanKind::kSchedulerCall),
         "ms", sched);
  r->Add("serving.scheduler.batch_mean",
         per_request(static_cast<double>(st.requests), st.batches), "requests",
         sched);
  r->Add("serving.scheduler.largest_batch",
         static_cast<double>(st.largest_batch), "requests", sched);
  r->Add("serving.scheduler.encode_passes_per_request",
         per_request(static_cast<double>(st.encode_passes), st.requests),
         "count", sched);

  const bool sess = main.sessions_used;
  const serving::SessionManagerStats& ss = main.sessions;
  const int64_t acquires = ss.hits + ss.creates + ss.restores;
  static const char* kAcquireTags[] = {"hit", "create", "restore"};
  for (const int32_t tag : {kAcquireHit, kAcquireCreate, kAcquireRestore}) {
    r->Add(std::string("serving.sessions.acquire_ms_p50.") + kAcquireTags[tag],
           own.P50(SpanKind::kAcquire, tag), "ms",
           sess && calls(SpanKind::kAcquire, tag));
  }
  // With one client an eviction happens inside the Acquire that brings a cold
  // user in (counted in acquire ...restore), so release is the unpin alone.
  r->Add("serving.sessions.release_ms_p50", own.P50(SpanKind::kRelease), "ms",
         sess);
  r->Add("serving.sessions.hit_ratio",
         per_request(static_cast<double>(ss.hits), acquires), "ratio", sess);
  r->Add("serving.sessions.evictions_per_request",
         per_request(static_cast<double>(ss.evictions), acquires), "ratio",
         sess);
  r->Add("serving.sessions.restores_per_request",
         per_request(static_cast<double>(ss.restores), acquires), "ratio",
         sess);
  r->Add("serving.sessions.checkpoint_bytes_mean", main.checkpoint_bytes_mean,
         "B", sess);

  // The generator's own time inside requests: request bookkeeping (the
  // request span's self time) plus candidate pools and oracle labelling.
  const double client_ms = own.SelfMs(SpanKind::kRequest) +
                           own.SelfMs(SpanKind::kPool) +
                           own.SelfMs(SpanKind::kOracle);
  r->Add("bench.client_self_share",
         client_ms / own.TotalMs(SpanKind::kRequest), "ratio");
  const Tail tail = Windows(main).tail;
  r->Add("bench.request_samples", static_cast<double>(tail.samples), "count");
  r->Add("bench.tail_percentile", tail.percentile, "percentile");
  for (const char* kind :
       {"start", "round", "retrieve", "acquire", "score", "verify"}) {
    const auto it = main.failed.find(kind);
    r->Add(std::string("bench.failed.") + kind,
           it == main.failed.end() ? 0.0 : static_cast<double>(it->second),
           "count");
  }
}

Status RunWorkload(const std::string& name, const Fixture& fixture,
                   const Budget& budget, int64_t seconds, bool trace,
                   const std::string& work_dir, Outcome* out) {
  if (name == "retrieve") {
    return RunRetrieve(fixture, RetrieveSize(budget, seconds), trace, out);
  }
  return RunChurn(fixture, ChurnSize(budget, seconds, work_dir), trace, out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lte_perfbench --workload retrieve|churn "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
                 "[--trace-dir DIR]\n");
    return 2;
  }
  const Budget budget = MakeBudget();
  std::printf("host: nproc=%lld isa=%s build_isa=%s compiler=%s\n",
              static_cast<long long>(budget.nproc), HostIsa(), BuildIsa(),
              __VERSION__);
  std::printf(
      "thread budget %lld: pretrain lanes %lld; retrieve %lld clients, %lld "
      "scheduler lanes; churn 1 client x %lld lanes\n",
      static_cast<long long>(budget.threads),
      static_cast<long long>(budget.threads),
      static_cast<long long>(budget.threads),
      static_cast<long long>(budget.threads),
      static_cast<long long>(budget.threads));

  // The shared pool exists before anything is timed.
  ThreadPool::Shared();
  FixtureOptions fixture_options;
  fixture_options.threads = budget.threads;
  Fixture fixture;
  int64_t phase = NowNs();
  Status st = BuildFixture(args.seed, fixture_options, &fixture);
  if (!st.ok()) {
    std::fprintf(stderr, "fixture failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("fixture: %.3f s (pretrain %.3f s)\n",
              static_cast<double>(NowNs() - phase) * 1e-9, fixture.pretrain_s);
  std::printf("peak rss: %s\n",
              ResetPeakRss() ? "high-water mark reset after the fixture"
                             : "whole process (no high-water reset)");
  phase = NowNs();

  Outcome outcome;
  st = RunWorkload(args.workload, fixture, budget, args.seconds, args.trace,
                   args.work_dir, &outcome);
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  std::printf("workload: %.3f s (fleet %.3f s, timed loop %.3f s)\n",
              static_cast<double>(NowNs() - phase) * 1e-9, outcome.fleet_s,
              outcome.loop_s);
  Result result;
  result.attempted = outcome.attempted;
  result.failed = outcome.failed_total();
  const Tail tail = Windows(outcome).tail;
  std::printf("timed loop: %lld requests, %.9f s\n",
              static_cast<long long>(outcome.request_ms.size()),
              outcome.loop_s);
  std::printf(
      "%s seed=%llu: tail = median over %lld windows of p%g (at least %lld "
      "beyond in each) of %lld requests; %lld attempted, %lld failed\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<long long>(WindowCount(outcome)), tail.percentile,
      static_cast<long long>(tail.beyond),
      static_cast<long long>(tail.samples),
      static_cast<long long>(outcome.attempted),
      static_cast<long long>(result.failed));
  std::printf("peak rss: %.1f MB since set-up, %.1f MB whole process\n",
              PeakRssMb(), ProcessPeakRssMb());
  if (outcome.scheduler_used) {
    const auto& s = outcome.scheduler;
    std::printf("scheduler: %lld requests, %lld batches, largest %lld, "
                "%lld encode passes\n",
                static_cast<long long>(s.requests),
                static_cast<long long>(s.batches),
                static_cast<long long>(s.largest_batch),
                static_cast<long long>(s.encode_passes));
  }
  if (outcome.sessions_used) {
    const auto& s = outcome.sessions;
    std::printf("sessions: %lld hits, %lld creates, %lld restores, %lld "
                "evictions, checkpoint bytes mean %.1f\n",
                static_cast<long long>(s.hits),
                static_cast<long long>(s.creates),
                static_cast<long long>(s.restores),
                static_cast<long long>(s.evictions),
                outcome.checkpoint_bytes_mean);
  }
  for (const auto& [kind, n] : outcome.failed) {
    std::printf("failed %s: %lld\n", kind.c_str(), static_cast<long long>(n));
  }

  if (!args.trace) {
    AddEndToEnd(fixture, outcome, &result);
  } else {
    RowProbes rows;
    st = ProbeRows(fixture, kProbeUser, args.work_dir, &rows);
    if (!st.ok()) {
      std::fprintf(stderr, "row probes failed: %s\n", st.ToString().c_str());
      return 1;
    }
    LayerReport layers(&result);
    AddLayers(fixture, outcome, rows, &layers);
    std::string not_used;
    for (const std::string& name : layers.not_used()) not_used += " " + name;
    std::printf("not used by %s (reported as 0):%s\n", args.workload.c_str(),
                not_used.empty() ? " none" : not_used.c_str());

    const std::string& trace_dir = args.trace_dir;
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    const SpanSet spans(outcome);
    const std::string path = trace_dir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    if (!WriteTrace(path, spans.spans, spans.self_ns)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", spans.spans.size(),
                path.c_str());
  }
  result.correct = result.failed == 0;
  std::printf("%s\n", ToJson(result).c_str());
  return 0;
}

}  // namespace
}  // namespace lte::perfbench

int main(int argc, char** argv) { return lte::perfbench::Main(argc, argv); }
