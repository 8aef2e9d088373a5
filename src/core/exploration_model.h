#ifndef LTE_CORE_EXPLORATION_MODEL_H_
#define LTE_CORE_EXPLORATION_MODEL_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/meta_learner.h"
#include "core/meta_task.h"
#include "core/meta_trainer.h"
#include "core/optimizer_fpfn.h"
#include "data/subspace.h"
#include "data/table.h"
#include "policy/suggest_policy.h"
#include "preprocess/tabular_encoder.h"

namespace lte::core {

/// End-to-end configuration of the LTE framework.
struct ExplorerOptions {
  preprocess::EncoderOptions encoder;
  MetaTaskGenOptions task_gen;
  MetaLearnerOptions learner;  // tuple_feature_dim is filled per subspace.
  MetaTrainerOptions trainer;
  FpFnOptions fpfn;
  /// |T^M|: meta-tasks generated per meta-subspace (paper default 15000;
  /// the library defaults smaller — see DESIGN.md).
  int64_t num_meta_tasks = 200;
  /// Pool lanes for every fan-out, offline and online: per-subspace task
  /// generation + encoding + meta-training in `ExplorationModel::Pretrain`,
  /// per-subspace fast adaptation in `ExplorationSession::StartExploration`,
  /// and the chunked table scans of `PredictRows`/`RetrieveMatches` all
  /// share this one knob on the process-wide ThreadPool (sessions may
  /// override it per session). The library-wide convention applies: 0 = auto
  /// (one lane per hardware thread), 1 = the exact sequential path, N caps
  /// the lanes (matching `MetaTrainerOptions`/`KMeansOptions`). Parallel
  /// training reads key-split `Rng::Fork(subspace_index)` streams and scans
  /// concatenate their per-block results in row order, so every result
  /// is bit-identical at any thread count (see rng.h for the split scheme).
  int64_t num_threads = 0;
  /// Online fast-adaptation schedule. A larger learning rate than the
  /// offline ρ is preferred online (paper Fig. 8(d) discussion).
  int64_t online_steps = 30;
  int64_t online_batch_size = 16;
  double online_lr = 0.1;
  /// Acquisition strategy new sessions install per subspace at
  /// StartExploration (DESIGN.md §2f). A host knob like num_threads: not
  /// part of the serialized model or its fingerprint, and overridable per
  /// session/subspace via `ExplorationSession::ConfigureSuggestPolicy`.
  policy::PolicyOptions suggest_policy;
};

/// The user-independent half of the LTE framework (paper Figure 2, offline
/// phase): the fitted tabular encoder, the per-subspace clustering contexts
/// and initial tuples, and the meta-trained learners.
///
/// Built once by `Pretrain` (or restored by `Load`) and then **immutable**:
/// every method below the build section is const and touches no hidden
/// mutable state, so one model can be shared *by reference* across any
/// number of threads — each holding its own `ExplorationSession` — with no
/// synchronization. The build methods themselves are not thread-safe and
/// must complete (on one thread) before the model is shared.
///
/// Every caller holds the model through a shared handle and explores
/// through sessions attached to it — one for a single-user program, one per
/// concurrent user for a server:
///
///   auto model = std::make_shared<ExplorationModel>(options);
///   model->Pretrain(table, subspaces, /*train_meta=*/true, &rng);
///   ExplorationSession session(model);  // ...one per user.
class ExplorationModel {
 public:
  explicit ExplorationModel(ExplorerOptions options) : options_(options) {}

  ExplorationModel(const ExplorationModel&) = delete;
  ExplorationModel& operator=(const ExplorationModel&) = delete;

  /// Offline phase: fits the tabular encoder, runs the clustering step per
  /// subspace, selects the initial tuples, and — when `train_meta` is set —
  /// generates meta-tasks and meta-trains one meta-learner per subspace.
  /// `train_meta=false` prepares the Basic variant (no pre-training cost).
  /// Build method: must not race with any other use of this model.
  Status Pretrain(const data::Table& table,
                  const std::vector<data::Subspace>& subspaces,
                  bool train_meta, Rng* rng);

  /// Model persistence: writes the full pre-trained state (options, tabular
  /// encoder, per-subspace clustering contexts, initial tuples, and trained
  /// meta-learners) to `path`. Offline training and online serving can then
  /// live in separate processes. Requires Pretrain to have run. Fails with
  /// IoError when any byte — the final flush included — cannot be written.
  Status Save(const std::string& path) const;

  /// Stream counterpart of Save (same format, no file handling).
  Status SaveToStream(std::ostream* out) const;

  /// Restores a pre-trained model saved by `Save`, replacing this
  /// instance's state. Sessions can start exploring immediately; no
  /// re-clustering or re-training happens. The threading knob
  /// (`num_threads`) is a property of the serving host, not of the model,
  /// so the constructed value survives the load. Build method: must
  /// not race with any other use of this model.
  Status Load(const std::string& path);

  /// Stream counterpart of Load (same format, no file handling).
  Status LoadFromStream(std::istream* in);

  /// True once Pretrain or Load has succeeded.
  bool pretrained() const { return pretrained_; }
  bool meta_trained() const { return meta_trained_; }

  /// Content fingerprint of the pre-trained state: the FNV-1a 64-bit hash of
  /// the model's serialized bytes, computed once at the end of Pretrain/Load
  /// (the model is immutable afterwards, so the value never changes while
  /// sessions are attached). Saved sessions are stamped with it so a stale
  /// session cannot silently attach to a refreshed model: two models
  /// fingerprint equal iff their serialized artifacts are byte-identical.
  /// Host-independent — threading knobs are not serialized. 0 before
  /// Pretrain/Load.
  uint64_t fingerprint() const { return fingerprint_; }

  int64_t num_subspaces() const {
    return static_cast<int64_t>(subspaces_.size());
  }

  /// The `s`-th meta-subspace, or nullptr when `s` is out of
  /// [0, num_subspaces()).
  const data::Subspace* subspace(int64_t s) const;

  /// The tuples of subspace `s` the user labels during initial exploration:
  /// the k_s cluster centers of C^s followed by Δ random tuples, in raw
  /// subspace coordinates. Fixed after Pretrain. Returns nullptr before
  /// Pretrain or when `s` is out of range.
  const std::vector<std::vector<double>>* InitialTuples(int64_t s) const;

  /// Per-subspace generator (exposes the clustering context), or nullptr
  /// before Pretrain or when `s` is out of range.
  const MetaTaskGenerator* generator(int64_t s) const;

  /// Meta-trained learner of subspace `s`, or nullptr before Pretrain, when
  /// `s` is out of range, or when the model was built with
  /// `train_meta=false`.
  const MetaLearner* meta_learner(int64_t s) const;

  const preprocess::TabularEncoder& encoder() const { return encoder_; }
  const ExplorerOptions& options() const { return options_; }

  /// Closure encoding raw subspace-`s` points with the fitted encoder.
  /// Requires `s` in range.
  TupleEncoder MakeEncoder(int64_t s) const;

  /// Pre-training statistics (for the Figure 8(b) cost analysis). Summed
  /// over subspaces, i.e. total work; with num_threads > 1 the subspaces
  /// overlap in time, so wall clock is lower than these totals.
  double task_generation_seconds() const { return task_generation_seconds_; }
  double meta_training_seconds() const { return meta_training_seconds_; }

 private:
  struct SubspaceModel {
    MetaTaskGenerator generator{MetaTaskGenOptions{}};
    std::vector<std::vector<double>> initial_tuples;
    std::unique_ptr<MetaLearner> meta_learner;
  };

  /// Serializes to a string and hashes it; called once at the end of
  /// Pretrain/Load so `fingerprint()` is a pure read afterwards.
  void RecomputeFingerprint();

  ExplorerOptions options_;
  preprocess::TabularEncoder encoder_;
  std::vector<data::Subspace> subspaces_;
  std::vector<SubspaceModel> subspace_models_;
  bool pretrained_ = false;
  bool meta_trained_ = false;
  uint64_t fingerprint_ = 0;
  double task_generation_seconds_ = 0.0;
  double meta_training_seconds_ = 0.0;
};

}  // namespace lte::core

#endif  // LTE_CORE_EXPLORATION_MODEL_H_
