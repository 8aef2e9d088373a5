#ifndef LTE_PERFBENCH_WORKLOADS_H_
#define LTE_PERFBENCH_WORKLOADS_H_

// The two closed-loop workloads. Each runs a fixed amount of work — a pure
// function of the run seed and the configured request counts, never of how
// fast requests complete — records every answer, and checks the answers
// after the timed loop.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "fixture.h"
#include "serving/coalesced_scan_scheduler.h"
#include "serving/session_manager.h"
#include "trace.h"

namespace lte::perfbench {

/// retrieve: an adapted fleet served through the coalesced scheduler; a
/// request retrieves a fleet user's matches, all of them or a first page.
struct RetrieveConfig {
  int64_t fleet = 24;
  int64_t requests_per_client = 500;
  int64_t warmup_per_client = 8;
  int64_t clients = 1;
  int64_t lanes = 1;     // CoalescedScanOptions::num_threads.
  int64_t arrivals = 0;
};

/// churn: Zipf-popular users through a K-of-N SessionManager, one client.
/// Each user alternates a labelling round (a write) with a retrieval of its
/// first 200 matches (a read): the 50/50 update/read mix of YCSB workload A.
struct ChurnConfig {
  int64_t users = 64;
  int64_t resident = 8;
  int64_t requests = 2000;
  int64_t warmup = 100;
  int64_t session_threads = 1;
  int64_t replay_users = 6;
  int64_t arrivals = 0;
  std::string checkpoint_dir;
};

/// Everything a workload run measured.
struct Outcome {
  double fleet_s = 0.0;            // Fleet preparation (part of set-up).
  std::vector<double> start_ms;    // Arrivals' StartExploration latencies.
  std::vector<double> request_ms;  // Timed requests, end to end.
  std::vector<int64_t> request_end_ns;  // Their completion times.
  int64_t loop_start_ns = 0;
  double loop_s = 0.0;             // Wall time of the timed loop.
  double f1 = 0.0;                 // Pooled F1 of the scored users.
  int64_t attempted = 0;
  std::map<std::string, int64_t> failed;  // Per call kind.
  std::vector<TraceBuffer> traces;        // One per client thread (+1).
  // Serving-layer counter deltas over the timed loop.
  bool scheduler_used = false;
  serving::CoalescedScanStats scheduler;
  bool sessions_used = false;
  serving::SessionManagerStats sessions;
  double checkpoint_bytes_mean = 0.0;
  int64_t failed_total() const;
};

/// Every workload prepares its fleet (counted in set-up), then runs its timed
/// loop, into which `arrivals` new users are interleaved: each starts a fresh
/// session of a fleet user (timed into start_ms) and leaves. Arrival time is
/// inside the loop's wall time but outside request latencies.
///
/// The workloads. `trace` enables span recording; the work done is the same
/// either way. A non-OK Status means the run could not be set up; failed
/// requests are counted in the outcome instead.
Status RunRetrieve(const Fixture& fixture, const RetrieveConfig& config,
                   bool trace, Outcome* out);
Status RunChurn(const Fixture& fixture, const ChurnConfig& config, bool trace,
                Outcome* out);

}  // namespace lte::perfbench

#endif  // LTE_PERFBENCH_WORKLOADS_H_
