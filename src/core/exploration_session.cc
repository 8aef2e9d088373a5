#include "core/exploration_session.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "core/block_scan.h"
#include "core/meta_trainer.h"
#include "core/uis_feature.h"

namespace lte::core {
namespace {

// Session file header (see DESIGN.md §2d "Session lifecycle").
constexpr uint64_t kSessionMagic = 0x4C5445534553534EULL;  // "LTESESSN".
// v1: variant/rng/per-subspace history + task models. v2 appends one
// exploration-policy block per adapted subspace (DESIGN.md §2f); v1 files
// still load, installing the default UncertaintyPolicy per subspace.
constexpr uint64_t kSessionVersion = 2;
constexpr uint64_t kOldestLoadableSessionVersion = 1;

// Key-space offset separating the policy-construction streams from the
// per-subspace adaptation streams (both split from the same fork base in
// StartExploration). Any constant far outside [0, num_subspaces) works; the
// golden-ratio word keeps the XORed keys far from small integers.
constexpr uint64_t kPolicySeedKey = 0x9E3779B97F4A7C15ULL;

std::string HexU64(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llX",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

ExplorationSession::ExplorationSession(
    std::shared_ptr<const ExplorationModel> model, int64_t num_threads)
    : model_(std::move(model)), num_threads_override_(num_threads) {
  LTE_CHECK(model_ != nullptr);
}

int64_t ExplorationSession::num_threads() const {
  return num_threads_override_ >= 0 ? num_threads_override_
                                    : model_->options().num_threads;
}

void ExplorationSession::Reset() {
  states_.clear();
  active_count_ = 0;
  variant_ = Variant::kBasic;
}

void ExplorationSession::SeedRng(uint64_t seed) { rng_.emplace(seed); }

Rng* ExplorationSession::session_rng() {
  return rng_.has_value() ? &*rng_ : nullptr;
}

Status ExplorationSession::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.is_open()) {
    return Status::IoError("cannot open " + path + " for writing");
  }
  LTE_RETURN_IF_ERROR(SaveToStream(&out));
  // The final flush happens here, not in SaveToStream: check it too.
  out.close();
  if (out.fail()) return Status::IoError("write failure on " + path);
  return Status::OK();
}

Status ExplorationSession::SaveToStream(std::ostream* out) const {
  if (!model_->pretrained()) {
    return Status::FailedPrecondition(
        "session save: model has not been trained");
  }
  BinaryWriter w(out);
  w.WriteU64(kSessionMagic);
  w.WriteU64(kSessionVersion);
  w.WriteU64(model_->fingerprint());
  w.WriteU64(static_cast<uint64_t>(variant_));
  w.WriteI64(active_count_);
  w.WriteBool(rng_.has_value());
  if (rng_.has_value()) rng_->Save(&w);
  for (int64_t s = 0; s < active_count_; ++s) {
    const SubspaceSession& state = states_[static_cast<size_t>(s)];
    LTE_CHECK(state.task_model != nullptr);
    w.WriteDoubleVector(state.start_labels);
    w.WriteU64(state.history.size());
    for (const LabeledBatch& batch : state.history) {
      w.WritePointSet(batch.points);
      w.WriteDoubleVector(batch.labels);
    }
    state.task_model->Save(&w);
    // v2: the subspace's exploration policy — parameters and mutable state
    // (tau counters, bootstrap bag seeds) — so a restored session keeps
    // suggesting exactly where the saved one stopped.
    w.WriteBool(state.policy != nullptr);
    if (state.policy != nullptr) policy::SavePolicy(*state.policy, &w);
  }
  return w.status();
}

Status ExplorationSession::Load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path);
  }
  Status st = LoadFromStream(&in);
  if (!st.ok() && st.code() == StatusCode::kInvalidArgument) {
    return Status::InvalidArgument(path + ": " + st.message());
  }
  return st;
}

Status ExplorationSession::PeekCheckpointFingerprint(const std::string& path,
                                                     uint64_t* fingerprint) {
  if (fingerprint == nullptr) {
    return Status::InvalidArgument(
        "session peek: fingerprint must not be null");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot open " + path);
  }
  BinaryReader r(&in);
  uint64_t magic = 0;
  uint64_t version = 0;
  uint64_t stamped = 0;
  LTE_RETURN_IF_ERROR(r.ReadU64(&magic));
  if (magic != kSessionMagic) {
    return Status::InvalidArgument(path + ": not an LTE session file");
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&version));
  if (version < kOldestLoadableSessionVersion || version > kSessionVersion) {
    return Status::InvalidArgument(path + ": unsupported LTE session version " +
                                   std::to_string(version));
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&stamped));
  *fingerprint = stamped;
  return Status::OK();
}

Status ExplorationSession::LoadFromStream(std::istream* in) {
  try {
    return LoadFromStreamImpl(in);
  } catch (const std::exception& e) {
    // The library's error model never throws across API boundaries. The
    // plausibility guards stop corrupted length words before allocation,
    // but a length that is plausible yet beyond this host's memory can
    // still throw bad_alloc — map it to a Status like any other bad file.
    return Status::IoError(std::string("session load: ") + e.what());
  }
}

Status ExplorationSession::LoadFromStreamImpl(std::istream* in) {
  if (!model_->pretrained()) {
    return Status::FailedPrecondition(
        "session load: model has not been trained");
  }
  BinaryReader r(in);
  uint64_t magic = 0;
  uint64_t version = 0;
  uint64_t stamp = 0;
  uint64_t variant_u = 0;
  LTE_RETURN_IF_ERROR(r.ReadU64(&magic));
  if (magic != kSessionMagic) {
    return Status::InvalidArgument("not an LTE session file");
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&version));
  if (version < kOldestLoadableSessionVersion || version > kSessionVersion) {
    return Status::InvalidArgument("unsupported LTE session version " +
                                   std::to_string(version));
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&stamp));
  if (stamp != model_->fingerprint()) {
    return Status::FailedPrecondition(
        "session load: saved against model fingerprint " + HexU64(stamp) +
        " but the attached model's fingerprint is " +
        HexU64(model_->fingerprint()) +
        " — restart the exploration against the refreshed model");
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&variant_u));
  if (variant_u > static_cast<uint64_t>(Variant::kMetaStar)) {
    return Status::IoError("session load: invalid variant");
  }
  const Variant variant = static_cast<Variant>(variant_u);
  int64_t active = 0;
  LTE_RETURN_IF_ERROR(r.ReadI64(&active));
  if (active < 0 || active > model_->num_subspaces()) {
    return Status::IoError("session load: active subspace count out of range");
  }
  if ((variant == Variant::kMeta || variant == Variant::kMetaStar) &&
      active > 0 && !model_->meta_trained()) {
    // Unreachable when the fingerprint matched (meta_trained is part of the
    // hashed bytes); kept as defense in depth.
    return Status::IoError("session load: meta session, non-meta model");
  }
  bool has_rng = false;
  LTE_RETURN_IF_ERROR(r.ReadBool(&has_rng));
  std::optional<Rng> rng;
  if (has_rng) {
    rng.emplace(0);
    LTE_RETURN_IF_ERROR(rng->Load(&r));
  }

  // Decode and validate everything into temporaries; this session's state
  // is only replaced after the whole stream checked out, so a bad file
  // leaves the previous exploration intact.
  std::vector<SubspaceSession> states(
      static_cast<size_t>(model_->num_subspaces()));
  for (int64_t s = 0; s < active; ++s) {
    SubspaceSession& state = states[static_cast<size_t>(s)];
    LTE_RETURN_IF_ERROR(r.ReadDoubleVector(&state.start_labels));
    if (state.start_labels.size() != model_->InitialTuples(s)->size()) {
      return Status::IoError("session load: label count mismatch in subspace " +
                             std::to_string(s));
    }
    uint64_t num_batches = 0;
    LTE_RETURN_IF_ERROR(r.ReadU64(&num_batches));
    if (num_batches > kMaxSerializedCount) {
      return Status::IoError("session load: implausible history length");
    }
    const size_t width = model_->subspace(s)->attribute_indices.size();
    // Grow as the stream yields batches: a corrupt count runs into the end
    // of the stream instead of allocating up front.
    for (uint64_t b = 0; b < num_batches; ++b) {
      LabeledBatch& batch = state.history.emplace_back();
      LTE_RETURN_IF_ERROR(r.ReadPointSet(&batch.points));
      LTE_RETURN_IF_ERROR(r.ReadDoubleVector(&batch.labels));
      if (batch.points.empty() || batch.points.size() != batch.labels.size()) {
        return Status::IoError(
            "session load: malformed history batch in subspace " +
            std::to_string(s));
      }
      for (const auto& p : batch.points) {
        if (p.size() != width) {
          return Status::IoError(
              "session load: history point width mismatch in subspace " +
              std::to_string(s));
        }
      }
    }
    state.task_model = std::make_unique<TaskModel>();
    LTE_RETURN_IF_ERROR(TaskModel::LoadFrom(&r, state.task_model.get()));
    if (state.task_model->f_tau().in_features() !=
        model_->encoder().ProjectedWidth(
            model_->subspace(s)->attribute_indices)) {
      return Status::IoError(
          "session load: task model width mismatch in subspace " +
          std::to_string(s));
    }
    // Same handshake as StartExploration: warm the UIS-embedding cache so
    // the serving surface is write-free under concurrent scans.
    state.task_model->WarmUisEmbedding();
    if (variant == Variant::kMetaStar) {
      // The FP/FN optimizer is a pure function of the clustering context
      // and the center labels (the first k_s start labels), so it is
      // rebuilt rather than serialized.
      const MetaTaskGenerator& generator = *model_->generator(s);
      const auto k_s = static_cast<size_t>(generator.options().k_s);
      if (state.start_labels.size() < k_s) {
        return Status::IoError(
            "session load: too few center labels in subspace " +
            std::to_string(s));
      }
      const std::vector<double> center_labels(
          state.start_labels.begin(),
          state.start_labels.begin() + static_cast<int64_t>(k_s));
      state.fpfn.emplace(generator.context(), center_labels,
                         model_->options().fpfn);
    }
    if (version >= 2) {
      bool has_policy = false;
      LTE_RETURN_IF_ERROR(r.ReadBool(&has_policy));
      if (has_policy) {
        LTE_RETURN_IF_ERROR(policy::LoadPolicy(&r, &state.policy));
        if (state.policy->stochastic() && !has_rng) {
          // A legitimate save never produces this: installing a stochastic
          // policy requires the session rng, and the rng is never dropped.
          return Status::IoError(
              "session load: stochastic policy without a session rng in "
              "subspace " +
              std::to_string(s));
        }
      }
    }
    if (state.policy == nullptr) {
      // v1 files predate the policy layer: every adapted subspace ran pure
      // uncertainty sampling, so the migration installs exactly that.
      LTE_RETURN_IF_ERROR(
          policy::MakePolicy(policy::PolicyOptions{}, nullptr, &state.policy));
    }
  }
  // A well-formed file ends exactly at the payload boundary; trailing bytes
  // mean the header lied about the shape of what follows.
  char extra = 0;
  in->read(&extra, 1);
  if (in->gcount() != 0) {
    return Status::IoError("session load: trailing bytes after payload");
  }

  states_ = std::move(states);
  active_count_ = active;
  variant_ = variant;
  rng_ = std::move(rng);
  return Status::OK();
}

Status ExplorationSession::StartExploration(
    const std::vector<std::vector<double>>& labels_per_subspace,
    Variant variant, Rng* rng) {
  if (!model_->pretrained()) {
    return Status::FailedPrecondition("session: model has not been trained");
  }
  if (labels_per_subspace.empty() ||
      static_cast<int64_t>(labels_per_subspace.size()) >
          model_->num_subspaces()) {
    return Status::InvalidArgument(
        "session: label sets must cover 1..num_subspaces() subspaces");
  }
  if ((variant == Variant::kMeta || variant == Variant::kMetaStar) &&
      !model_->meta_trained()) {
    return Status::FailedPrecondition(
        "session: meta variant requires a meta-trained model");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("session: rng must not be null");
  }
  const policy::PolicyOptions& policy_options =
      model_->options().suggest_policy;
  LTE_RETURN_IF_ERROR(policy::ValidatePolicyOptions(policy_options));
  if (policy_options.kind != policy::PolicyKind::kUncertainty &&
      !rng_.has_value()) {
    return Status::FailedPrecondition(
        "session: stochastic suggest policy requires SeedRng — policy draws "
        "are served from (and persisted with) the session-owned stream");
  }
  // Validate every label set before mutating any online state, so a failed
  // call leaves the previous exploration intact.
  for (size_t s = 0; s < labels_per_subspace.size(); ++s) {
    if (labels_per_subspace[s].size() !=
        model_->InitialTuples(static_cast<int64_t>(s))->size()) {
      return Status::InvalidArgument(
          "session: label count mismatch in subspace " + std::to_string(s));
    }
  }
  variant_ = variant;
  active_count_ = static_cast<int64_t>(labels_per_subspace.size());
  states_.resize(static_cast<size_t>(model_->num_subspaces()));

  const ExplorerOptions& options = model_->options();
  // Subspaces adapt independently, so they fan out on the shared pool under
  // the same determinism contract as Pretrain: subspace s draws only from
  // the key-split stream fork_base.Fork(s), and every lane writes its own
  // states_[s] slot, so the adapted models are bit-identical for any
  // num_threads, including 1 — and for any number of sessions adapting
  // concurrently, since a session's lanes never read another session's
  // streams or state.
  Rng fork_base = rng->Fork();
  ThreadPool::Shared().ParallelFor(
      0, active_count_, ResolveThreadCount(num_threads()), [&](int64_t si) {
        const auto s = static_cast<size_t>(si);
        SubspaceSession& state = states_[s];
        Rng sub_rng = fork_base.Fork(static_cast<uint64_t>(si));
        const std::vector<double>& labels = labels_per_subspace[s];
        const MetaTaskGenerator& generator = *model_->generator(si);
        const SubspaceContext& ctx = generator.context();
        const auto k_s = static_cast<size_t>(generator.options().k_s);

        // v_R from the center labels (first k_s entries).
        const std::vector<double> center_labels(labels.begin(),
                                                labels.begin() + k_s);
        const std::vector<double> uis_feature = BuildUisFeature(
            center_labels, ctx.proximity_s, generator.expansion_l());

        // Basic trains the same architecture from scratch; Meta/Meta* adapt
        // the meta-learned initialization (the underlined path of
        // Algorithm 2).
        std::unique_ptr<MetaLearner> basic_learner;
        const MetaLearner* learner = model_->meta_learner(si);
        if (variant == Variant::kBasic) {
          MetaLearnerOptions lopt = options.learner;
          lopt.uis_feature_dim = options.task_gen.k_u;
          lopt.tuple_feature_dim = model_->encoder().ProjectedWidth(
              model_->subspace(si)->attribute_indices);
          lopt.use_memory = false;
          basic_learner = std::make_unique<MetaLearner>(lopt, &sub_rng);
          learner = basic_learner.get();
        }
        state.task_model =
            std::make_unique<TaskModel>(learner->CreateTaskModel(uis_feature));

        const TupleEncoder encode = model_->MakeEncoder(si);
        const std::vector<std::vector<double>>& initial =
            *model_->InitialTuples(si);
        std::vector<std::vector<double>> x;
        x.reserve(initial.size());
        for (const auto& p : initial) x.push_back(encode(p));
        LocallyAdapt(state.task_model.get(), x, labels, options.online_steps,
                     options.online_batch_size, options.online_lr, &sub_rng);
        // Adaptation is done: warm the cached UIS embedding so the serving
        // surface below is write-free and safe to fan out across threads.
        state.task_model->WarmUisEmbedding();

        if (variant == Variant::kMetaStar) {
          state.fpfn.emplace(ctx, center_labels, options.fpfn);
        } else {
          state.fpfn.reset();
        }
        // Install the model's default exploration policy. Seed material
        // (bootstrap bag seeds) comes from the lane's own keyed split —
        // kPolicySeedKey keeps it off the adaptation stream Fork(si), so the
        // adapted models (and the caller's rng position) are byte-identical
        // to a policy-less run, and identical at any thread count.
        Rng policy_rng =
            fork_base.Fork(kPolicySeedKey ^ static_cast<uint64_t>(si));
        const Status policy_status =
            policy::MakePolicy(policy_options, &policy_rng, &state.policy);
        LTE_CHECK_MSG(policy_status.ok(),
                      "policy construction failed after validation");
        // Persistence/audit record: the labels that produced this adapted
        // state (Save serializes them; Load rebuilds the FP/FN optimizer
        // from the center prefix).
        state.start_labels = labels;
        state.history.clear();
      });
  // Clear stale online state beyond the active prefix.
  for (size_t s = labels_per_subspace.size(); s < states_.size(); ++s) {
    states_[s].task_model.reset();
    states_[s].fpfn.reset();
    states_[s].policy.reset();
    states_[s].start_labels.clear();
    states_[s].history.clear();
  }
  return Status::OK();
}

Status ExplorationSession::ConfigureSuggestPolicy(
    int64_t s, const policy::PolicyOptions& options) {
  if (s < 0 || s >= active_count_ ||
      states_[static_cast<size_t>(s)].task_model == nullptr) {
    return Status::FailedPrecondition(
        "session: ConfigureSuggestPolicy on subspace " + std::to_string(s) +
        " before StartExploration adapted it");
  }
  LTE_RETURN_IF_ERROR(policy::ValidatePolicyOptions(options));
  if (options.kind != policy::PolicyKind::kUncertainty && !rng_.has_value()) {
    return Status::FailedPrecondition(
        "session: stochastic suggest policy requires SeedRng — policy draws "
        "are served from (and persisted with) the session-owned stream");
  }
  // Construction seed material (bootstrap bag seeds) comes from the session
  // rng: a sequential draw on the single-writer surface, persisted with the
  // session, so a reconfigure is reproducible run-to-run and the installed
  // policy survives Save/Load bit-identically.
  return policy::MakePolicy(options, rng_.has_value() ? &*rng_ : nullptr,
                            &states_[static_cast<size_t>(s)].policy);
}

const policy::SuggestPolicy* ExplorationSession::suggest_policy(
    int64_t s) const {
  if (s < 0 || static_cast<size_t>(s) >= states_.size()) return nullptr;
  return states_[static_cast<size_t>(s)].policy.get();
}

Status ExplorationSession::SuggestTuples(
    int64_t s, const std::vector<std::vector<double>>& candidates, int64_t k,
    std::vector<int64_t>* suggested) {
  if (suggested == nullptr) {
    return Status::InvalidArgument("session: suggested must not be null");
  }
  suggested->clear();
  if (s < 0 || s >= active_count_ ||
      states_[static_cast<size_t>(s)].task_model == nullptr) {
    return Status::FailedPrecondition(
        "session: SuggestTuples on subspace " + std::to_string(s) +
        " before StartExploration adapted it");
  }
  if (k < 0) {
    return Status::InvalidArgument("session: k must be >= 0");
  }
  SubspaceSession& state = states_[static_cast<size_t>(s)];
  LTE_CHECK(state.policy != nullptr);
  if (state.policy->stochastic() && !rng_.has_value()) {
    return Status::FailedPrecondition(
        "session: subspace " + std::to_string(s) +
        " runs a stochastic suggest policy but the session has no rng — "
        "call SeedRng first");
  }
  const std::vector<int64_t>& attrs = model_->subspace(s)->attribute_indices;
  const size_t width = attrs.size();
  for (const auto& point : candidates) {
    if (point.size() != width) {
      return Status::InvalidArgument(
          "session: candidate width mismatch in subspace " +
          std::to_string(s));
    }
  }
  const auto n = static_cast<int64_t>(candidates.size());
  if (n == 0) return Status::OK();

  // Columnar scoring: transpose the candidates into per-attribute arrays so
  // the same gather + batch-encode + batch-forward kernels as the scan path
  // score the whole batch in one pass (bit-identical to the per-point
  // encode/predict they replaced), into reused scratch — no per-call
  // allocations once capacities reach steady state.
  SuggestScratch& sc = suggest_scratch_;
  sc.transposed.resize(width * candidates.size());
  for (size_t j = 0; j < width; ++j) {
    double* col = sc.transposed.data() + j * candidates.size();
    for (size_t i = 0; i < candidates.size(); ++i) col[i] = candidates[i][j];
  }
  sc.columns.clear();
  for (size_t j = 0; j < width; ++j) {
    sc.columns.emplace_back(
        std::span<const double>(sc.transposed.data() + j * candidates.size(),
                                candidates.size()),
        std::span<const data::ColumnSlice>{}, nullptr);
  }
  // The "table" is the candidate batch itself, so the gather selects every
  // row — but the encode still wants real attribute ids for its per-column
  // models, while our views are positional. EncodeGatheredInto indexes
  // `columns` positionally and `attrs` by value, which is exactly this
  // split: columns[j] holds the values of attribute attrs[j].
  sc.rows.resize(candidates.size());
  std::iota(sc.rows.begin(), sc.rows.end(), int64_t{0});
  model_->encoder().EncodeGatheredInto(sc.columns, attrs, sc.rows,
                                       &sc.encoded);
  sc.probs.resize(candidates.size());
  state.task_model->PredictProbabilityBatch(sc.encoded, n, &sc.batch,
                                            sc.probs, batch_kernel());
  state.policy->Select(sc.probs, k, rng_.has_value() ? &*rng_ : nullptr,
                       suggested);
  return Status::OK();
}

Status ExplorationSession::ContinueExploration(
    int64_t s, const std::vector<std::vector<double>>& points,
    const std::vector<double>& labels, Rng* rng) {
  if (s < 0 || s >= active_count_) {
    return Status::InvalidArgument("session: subspace not active");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("session: rng must not be null");
  }
  if (points.empty() || points.size() != labels.size()) {
    return Status::InvalidArgument("session: points/labels mismatch");
  }
  const size_t width = model_->subspace(s)->attribute_indices.size();
  for (const auto& p : points) {
    if (p.size() != width) {
      return Status::InvalidArgument(
          "session: point width mismatch in subspace " + std::to_string(s));
    }
  }
  SubspaceSession& state = states_[static_cast<size_t>(s)];
  if (state.task_model == nullptr) {
    return Status::FailedPrecondition(
        "session: ContinueExploration before StartExploration");
  }
  const ExplorerOptions& options = model_->options();
  const TupleEncoder encode = model_->MakeEncoder(s);
  std::vector<std::vector<double>> x;
  x.reserve(points.size());
  for (const auto& p : points) x.push_back(encode(p));
  LocallyAdapt(state.task_model.get(), x, labels, options.online_steps,
               options.online_batch_size, options.online_lr, rng);
  state.task_model->WarmUisEmbedding();
  state.history.push_back(LabeledBatch{points, labels});
  return Status::OK();
}

Status ExplorationSession::ValidateServing(const data::Table& table) const {
  if (active_count_ <= 0) {
    return Status::FailedPrecondition(
        "session: RetrieveMatches/PredictRows before StartExploration");
  }
  for (int64_t s = 0; s < active_count_; ++s) {
    for (int64_t a : model_->subspace(s)->attribute_indices) {
      if (a >= table.num_columns()) {
        return Status::InvalidArgument(
            "session: table is narrower than subspace " + std::to_string(s) +
            " (needs attribute " + std::to_string(a) + ")");
      }
    }
  }
  return Status::OK();
}

double ExplorationSession::PredictSubspaceUnchecked(
    int64_t s, const std::vector<double>& point, Scratch* scratch) const {
  const SubspaceSession& state = states_[static_cast<size_t>(s)];
  model_->encoder().EncodeProjectedInto(
      point, model_->subspace(s)->attribute_indices, &scratch->encoded);
  double pred =
      state.task_model->PredictProbability(scratch->encoded) > 0.5 ? 1.0 : 0.0;
  if (state.fpfn.has_value()) pred = state.fpfn->Refine(point, pred);
  return pred;
}

void ExplorationSession::ScoreEncodedBlock(
    int64_t s, std::span<const double> encoded, std::span<const int64_t> rows,
    const std::vector<data::ColumnView>& columns,
    TaskModel::BatchScratch* batch_scratch, std::vector<double>* point_scratch,
    std::span<double> out) const {
  LTE_CHECK(s >= 0 && s < active_count_);
  const SubspaceSession& state = states_[static_cast<size_t>(s)];
  LTE_CHECK(state.task_model != nullptr);
  const auto count = static_cast<int64_t>(rows.size());
  LTE_CHECK(static_cast<int64_t>(out.size()) == count);
  state.task_model->PredictProbabilityBatch(encoded, count, batch_scratch,
                                            out, batch_kernel());
  for (int64_t i = 0; i < count; ++i) {
    double pred = out[static_cast<size_t>(i)] > 0.5 ? 1.0 : 0.0;
    if (state.fpfn.has_value()) {
      point_scratch->clear();
      const int64_t r = rows[static_cast<size_t>(i)];
      for (const data::ColumnView& col : columns) {
        point_scratch->push_back(col[r]);
      }
      pred = state.fpfn->Refine(*point_scratch, pred);
    }
    out[static_cast<size_t>(i)] = pred;
  }
}

std::optional<double> ExplorationSession::PredictSubspace(
    int64_t s, const std::vector<double>& point) const {
  if (s < 0 || s >= model_->num_subspaces() ||
      static_cast<size_t>(s) >= states_.size() ||
      states_[static_cast<size_t>(s)].task_model == nullptr) {
    return std::nullopt;
  }
  if (point.size() != model_->subspace(s)->attribute_indices.size()) {
    return std::nullopt;
  }
  Scratch scratch;
  return PredictSubspaceUnchecked(s, point, &scratch);
}

std::optional<double> ExplorationSession::PredictRow(
    const std::vector<double>& row) const {
  if (active_count_ <= 0) return std::nullopt;
  Scratch scratch;
  for (int64_t s = 0; s < active_count_; ++s) {
    scratch.point.clear();
    for (int64_t a : model_->subspace(s)->attribute_indices) {
      if (static_cast<size_t>(a) >= row.size()) return std::nullopt;
      scratch.point.push_back(row[static_cast<size_t>(a)]);
    }
    if (PredictSubspaceUnchecked(s, scratch.point, &scratch) < 0.5) {
      return 0.0;
    }
  }
  return 1.0;
}

Status ExplorationSession::PredictRows(const data::Table& table,
                                       std::span<const int64_t> rows,
                                       std::vector<double>* predictions) const {
  if (predictions == nullptr) {
    return Status::InvalidArgument("session: predictions must not be null");
  }
  LTE_RETURN_IF_ERROR(ValidateServing(table));
  for (int64_t r : rows) {
    if (r < 0 || r >= table.num_rows()) {
      return Status::OutOfRange("session: row index " + std::to_string(r) +
                                " outside [0, " +
                                std::to_string(table.num_rows()) + ")");
    }
  }
  predictions->assign(rows.size(), 0.0);
  // Every row's verdict is computed independently (blocks only group work),
  // so it equals PredictRow on that row wherever block boundaries fall.
  std::vector<int64_t> hits;
  const ScanSubscriber self{this, {}, -1, &hits};
  BlockScan().Run(table, static_cast<int64_t>(rows.size()), rows, {&self, 1},
                  ResolveThreadCount(num_threads()));
  for (const int64_t p : hits) (*predictions)[static_cast<size_t>(p)] = 1.0;
  return Status::OK();
}

Status ExplorationSession::RetrieveMatches(const data::Table& table,
                                           int64_t limit,
                                           std::vector<int64_t>* matches) const {
  if (matches == nullptr) {
    return Status::InvalidArgument("session: matches must not be null");
  }
  matches->clear();
  LTE_RETURN_IF_ERROR(ValidateServing(table));
  if (limit == 0) return Status::OK();  // Only limit < 0 means "unlimited".
  // A whole-table domain: match positions are row ids.
  const ScanSubscriber self{this, {}, limit, matches};
  BlockScan().Run(table, table.num_rows(), {}, {&self, 1},
                  ResolveThreadCount(num_threads()));
  return Status::OK();
}

}  // namespace lte::core
