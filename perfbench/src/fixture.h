#ifndef LTE_PERFBENCH_FIXTURE_H_
#define LTE_PERFBENCH_FIXTURE_H_

// The shared seeded fixture every workload runs against (an SDSS-like table,
// its four 2-D subspaces, a meta-trained model), the simulated users, and the
// request building blocks the workloads share.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "data/subspace.h"
#include "data/table.h"
#include "eval/metrics.h"
#include "eval/uir_generator.h"
#include "trace.h"

namespace lte::perfbench {

/// Stream families under the run seed (see `Stream`). One family per kind of
/// draw, so adding draws of one kind never shifts another.
enum StreamDomain : uint64_t {
  kTableStream = 1,
  kModelStream,
  kUirStream,
  kUserStream,      // Per-user request contents (pools, limits).
  kSessionStream,   // Per-user session rng seed.
  kClientStream,    // Per-client request sequences (retrieve).
  kTrafficStream,   // Which user sends the next request (churn).
  kPopularityStream,
  kProbeStream,
};

struct FixtureOptions {
  int64_t table_rows = 8192;
  int64_t eval_rows = 2048;
  /// Pool lanes for Pretrain (ExplorerOptions, MetaTrainerOptions and
  /// k-means alike). Never 0: the benchmark fixes its own thread budget.
  int64_t threads = 1;
};

struct Fixture {
  uint64_t seed = 0;  // The run seed.
  data::Table table;  // Min-max normalized.
  std::vector<data::Subspace> subspaces;
  eval::UirGenerator uir_generator{core::MetaTaskGenOptions{}};
  std::vector<int64_t> eval_rows;
  std::shared_ptr<const core::ExplorationModel> model;
  double pretrain_s = 0.0;  // Median of the Pretrains.
  double taskgen_s = 0.0;    // Summed over subspaces (ExplorationModel).
  double metatrain_s = 0.0;  // Summed over subspaces (ExplorationModel).
};

/// Builds the table, the ground-truth UIR generator and the eval sample
/// (untimed: they are the simulated users' world, not the system's work),
/// then runs three identical timed Pretrains; `pretrain_s` is their median
/// and a model that differs between them is an error. The dataset is fixed, like the paper's SDSS
/// table: the table, its eval sample, the ground-truth clustering and the
/// model come from a constant seed. The run seed `seed` picks the simulated
/// users: their interest regions, session seeds and request streams.
Status BuildFixture(uint64_t seed, const FixtureOptions& options,
                    Fixture* fixture);

/// One simulated user: a ground-truth interest region, the variant and scan
/// kernel the user's session runs, and the oracle's answers for the initial
/// tuples and the eval sample.
struct User {
  int64_t id = 0;
  core::Variant variant = core::Variant::kBasic;
  core::ScanPath path = core::ScanPath::kColumnar;
  eval::GroundTruthUir uir;
  std::vector<std::vector<double>> start_labels;
  std::vector<double> eval_truth;
  uint64_t session_seed = 0;
};

/// User `id`: variant cycles Basic/Meta/Meta* with the id and the scan kernel
/// alternates scalar/SIMD every three ids, so any six consecutive ids cover
/// every (variant, kernel) pair exactly once. The region comes from the
/// user's own stream.
User MakeUser(const Fixture& fixture, int64_t id);

/// A fresh session for `user` (scan path set, session rng seeded) that has
/// not started exploring yet.
std::unique_ptr<core::ExplorationSession> NewSession(const Fixture& fixture,
                                                     const User& user,
                                                     int64_t num_threads);

/// Order-sensitive running digest of request answers.
uint64_t MixDigest(uint64_t digest, const void* data, size_t size);

/// One labelling round, the unit of interactive work: draw a candidate pool
/// of 200 rows from `stream`, let the session's policy suggest 5 of them on
/// subspace `round % num_subspaces`, label them with the user's ground
/// truth, and feed them back through ContinueExploration. The suggested
/// rows and labels are folded into `*digest`.
Status LabellingRound(const Fixture& fixture, const User& user, int64_t round,
                      Rng* stream, core::ExplorationSession* session,
                      TraceBuffer* trace, int64_t request, uint64_t* digest);

/// Adds the session's verdicts on the eval sample to `*counts` and returns
/// their digest; fails if the scan fails.
Status ScoreEval(const Fixture& fixture, const User& user,
                 const core::ExplorationSession& session,
                 eval::ConfusionCounts* counts, uint64_t* digest);

}  // namespace lte::perfbench

#endif  // LTE_PERFBENCH_FIXTURE_H_
