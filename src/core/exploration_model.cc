#include "core/exploration_model.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/binary_io.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace lte::core {
namespace {

constexpr uint64_t kModelMagic = 0x4C54454D4F44454CULL;  // "LTEMODEL".
constexpr uint64_t kModelVersion = 1;

void SaveOptions(const ExplorerOptions& opt, BinaryWriter* w) {
  // MetaTaskGenOptions.
  w->WriteI64(opt.task_gen.k_u);
  w->WriteI64(opt.task_gen.k_s);
  w->WriteI64(opt.task_gen.k_q);
  w->WriteI64(opt.task_gen.delta);
  w->WriteI64(opt.task_gen.alpha);
  w->WriteI64(opt.task_gen.psi);
  w->WriteI64(opt.task_gen.expansion_l);
  w->WriteDouble(opt.task_gen.cluster_sample_fraction);
  w->WriteI64(opt.task_gen.min_cluster_sample);
  // MetaLearnerOptions (needed to rebuild the Basic variant online).
  w->WriteI64(opt.learner.uis_feature_dim);
  w->WriteI64(opt.learner.tuple_feature_dim);
  w->WriteI64(opt.learner.embedding_size);
  w->WriteI64Vector(opt.learner.uis_hidden);
  w->WriteI64Vector(opt.learner.tuple_hidden);
  w->WriteI64Vector(opt.learner.clf_hidden);
  w->WriteBool(opt.learner.use_memory);
  w->WriteI64(opt.learner.num_memory_modes);
  w->WriteDouble(opt.learner.sigma);
  // FpFnOptions + online schedule.
  w->WriteDouble(opt.fpfn.outer_fraction);
  w->WriteDouble(opt.fpfn.inner_fraction);
  w->WriteI64(opt.num_meta_tasks);
  w->WriteI64(opt.online_steps);
  w->WriteI64(opt.online_batch_size);
  w->WriteDouble(opt.online_lr);
}

Status LoadOptions(BinaryReader* r, ExplorerOptions* opt) {
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.k_u));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.k_s));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.k_q));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.delta));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.alpha));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.psi));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.expansion_l));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->task_gen.cluster_sample_fraction));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->task_gen.min_cluster_sample));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.uis_feature_dim));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.tuple_feature_dim));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.embedding_size));
  LTE_RETURN_IF_ERROR(r->ReadI64Vector(&opt->learner.uis_hidden));
  LTE_RETURN_IF_ERROR(r->ReadI64Vector(&opt->learner.tuple_hidden));
  LTE_RETURN_IF_ERROR(r->ReadI64Vector(&opt->learner.clf_hidden));
  LTE_RETURN_IF_ERROR(r->ReadBool(&opt->learner.use_memory));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->learner.num_memory_modes));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->learner.sigma));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->fpfn.outer_fraction));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->fpfn.inner_fraction));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->num_meta_tasks));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->online_steps));
  LTE_RETURN_IF_ERROR(r->ReadI64(&opt->online_batch_size));
  LTE_RETURN_IF_ERROR(r->ReadDouble(&opt->online_lr));
  return Status::OK();
}

}  // namespace

const data::Subspace* ExplorationModel::subspace(int64_t s) const {
  if (s < 0 || s >= num_subspaces()) return nullptr;
  return &subspaces_[static_cast<size_t>(s)];
}

const std::vector<std::vector<double>>* ExplorationModel::InitialTuples(
    int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return &subspace_models_[static_cast<size_t>(s)].initial_tuples;
}

const MetaTaskGenerator* ExplorationModel::generator(int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return &subspace_models_[static_cast<size_t>(s)].generator;
}

const MetaLearner* ExplorationModel::meta_learner(int64_t s) const {
  if (!pretrained_ || s < 0 || s >= num_subspaces()) return nullptr;
  return subspace_models_[static_cast<size_t>(s)].meta_learner.get();
}

TupleEncoder ExplorationModel::MakeEncoder(int64_t s) const {
  const std::vector<int64_t>& attrs =
      subspaces_[static_cast<size_t>(s)].attribute_indices;
  return [this, attrs](const std::vector<double>& point) {
    return encoder_.EncodeProjected(point, attrs);
  };
}

Status ExplorationModel::Pretrain(const data::Table& table,
                                  const std::vector<data::Subspace>& subspaces,
                                  bool train_meta, Rng* rng) {
  if (subspaces.empty()) {
    return Status::InvalidArgument("model: no subspaces");
  }
  subspaces_ = subspaces;
  encoder_ = preprocess::TabularEncoder(options_.encoder);
  LTE_RETURN_IF_ERROR(encoder_.Fit(table, rng));

  subspace_models_.clear();
  subspace_models_.resize(subspaces_.size());
  task_generation_seconds_ = 0.0;
  meta_training_seconds_ = 0.0;

  // Phase 1 — clustering contexts and initial tuples, sequential on the
  // caller's stream (draw-for-draw the pre-parallel path, so the Basic
  // variant is unaffected by the offline parallelization).
  for (size_t s = 0; s < subspaces_.size(); ++s) {
    SubspaceModel& model = subspace_models_[s];
    model.generator = MetaTaskGenerator(options_.task_gen);
    const std::vector<std::vector<double>> points =
        data::ProjectRows(table, subspaces_[s]);
    LTE_RETURN_IF_ERROR(model.generator.Init(points, rng));

    // Initial tuples: the k_s centers of C^s plus Δ random sample tuples —
    // the same construction as a meta-task's support set (paper Section
    // V-D), so the online labels line up with the meta-trained input.
    const SubspaceContext& ctx = model.generator.context();
    model.initial_tuples = ctx.centers_s;
    const auto n_sample = static_cast<int64_t>(ctx.sample_points.size());
    for (int64_t i = 0; i < options_.task_gen.delta; ++i) {
      model.initial_tuples.push_back(
          ctx.sample_points[static_cast<size_t>(rng->UniformInt(n_sample))]);
    }
  }

  // Phase 2 — task generation + encoding + meta-training. Meta-subspaces
  // are independent (Algorithm 2 runs once per subspace), so they fan out
  // on the shared pool. Subspace s trains on the key-split stream
  // fork_base.Fork(s): no lane ever touches another lane's RNG, which makes
  // the trained model bit-identical for any num_threads, including 1.
  if (train_meta) {
    Rng fork_base = rng->Fork();
    const auto n = static_cast<int64_t>(subspaces_.size());
    std::vector<Status> statuses(static_cast<size_t>(n));
    std::vector<double> gen_seconds(static_cast<size_t>(n), 0.0);
    std::vector<double> train_seconds(static_cast<size_t>(n), 0.0);
    ThreadPool::Shared().ParallelFor(
        0, n, ResolveThreadCount(options_.num_threads), [&](int64_t s) {
          SubspaceModel& model = subspace_models_[static_cast<size_t>(s)];
          Rng sub_rng = fork_base.Fork(static_cast<uint64_t>(s));
          Stopwatch sw;
          const std::vector<MetaTask> tasks =
              model.generator.GenerateTaskSet(options_.num_meta_tasks,
                                              &sub_rng);
          const std::vector<EncodedMetaTask> encoded = EncodeTasks(
              tasks, MakeEncoder(s), options_.trainer.num_threads);
          gen_seconds[static_cast<size_t>(s)] = sw.ElapsedSeconds();

          sw.Restart();
          MetaLearnerOptions lopt = options_.learner;
          lopt.uis_feature_dim = options_.task_gen.k_u;
          lopt.tuple_feature_dim = encoder_.ProjectedWidth(
              subspaces_[static_cast<size_t>(s)].attribute_indices);
          model.meta_learner = std::make_unique<MetaLearner>(lopt, &sub_rng);
          MetaTrainStats stats;
          statuses[static_cast<size_t>(s)] =
              MetaTrain(encoded, options_.trainer, &sub_rng,
                        model.meta_learner.get(), &stats);
          train_seconds[static_cast<size_t>(s)] = sw.ElapsedSeconds();
        });
    for (int64_t s = 0; s < n; ++s) {
      LTE_RETURN_IF_ERROR(statuses[static_cast<size_t>(s)]);
      task_generation_seconds_ += gen_seconds[static_cast<size_t>(s)];
      meta_training_seconds_ += train_seconds[static_cast<size_t>(s)];
    }
  }
  pretrained_ = true;
  meta_trained_ = train_meta;
  RecomputeFingerprint();
  return Status::OK();
}

void ExplorationModel::RecomputeFingerprint() {
  std::ostringstream bytes(std::ios::binary);
  const Status st = SaveToStream(&bytes);
  LTE_CHECK_MSG(st.ok(), "fingerprint: in-memory serialization cannot fail");
  const std::string s = bytes.str();
  fingerprint_ = Fnv1a64(s.data(), s.size());
}

Status ExplorationModel::Save(const std::string& path) const {
  if (!pretrained_) {
    return Status::FailedPrecondition("model: Save before Pretrain");
  }
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

Status ExplorationModel::SaveToStream(std::ostream* out) const {
  if (!pretrained_) {
    return Status::FailedPrecondition("model: Save before Pretrain");
  }
  BinaryWriter w(out);
  w.WriteU64(kModelMagic);
  w.WriteU64(kModelVersion);
  SaveOptions(options_, &w);
  encoder_.Save(&w);
  w.WriteBool(meta_trained_);
  w.WriteU64(subspaces_.size());
  for (size_t s = 0; s < subspaces_.size(); ++s) {
    w.WriteI64Vector(subspaces_[s].attribute_indices);
    const SubspaceContext& ctx = subspace_models_[s].generator.context();
    w.WritePointSet(ctx.centers_u);
    w.WritePointSet(ctx.centers_s);
    w.WritePointSet(ctx.centers_q);
    w.WritePointSet(ctx.sample_points);
    w.WritePointSet(subspace_models_[s].initial_tuples);
    const bool has_learner = subspace_models_[s].meta_learner != nullptr;
    w.WriteBool(has_learner);
    if (has_learner) subspace_models_[s].meta_learner->Save(&w);
  }
  return w.status();
}

Status ExplorationModel::Load(const std::string& path) {
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

Status ExplorationModel::LoadFromStream(std::istream* in) {
  BinaryReader r(in);
  uint64_t magic = 0;
  uint64_t version = 0;
  LTE_RETURN_IF_ERROR(r.ReadU64(&magic));
  if (magic != kModelMagic) {
    return Status::InvalidArgument("not an LTE model file");
  }
  LTE_RETURN_IF_ERROR(r.ReadU64(&version));
  if (version != kModelVersion) {
    return Status::InvalidArgument("unsupported LTE model version " +
                                   std::to_string(version));
  }
  ExplorerOptions options;
  LTE_RETURN_IF_ERROR(LoadOptions(&r, &options));
  // Threading is a serving-host knob, not model state: keep the values this
  // instance was constructed with (neither is serialized — LoadOptions
  // leaves them at their defaults).
  options.num_threads = options_.num_threads;
  options.trainer.num_threads = options_.trainer.num_threads;
  preprocess::TabularEncoder encoder;
  LTE_RETURN_IF_ERROR(encoder.Load(&r));
  bool meta_trained = false;
  LTE_RETURN_IF_ERROR(r.ReadBool(&meta_trained));
  uint64_t num_subspaces = 0;
  LTE_RETURN_IF_ERROR(r.ReadU64(&num_subspaces));
  if (num_subspaces == 0) {
    return Status::IoError("model load: no subspaces");
  }

  std::vector<data::Subspace> subspaces(num_subspaces);
  std::vector<SubspaceModel> models(num_subspaces);
  for (uint64_t s = 0; s < num_subspaces; ++s) {
    LTE_RETURN_IF_ERROR(r.ReadI64Vector(&subspaces[s].attribute_indices));
    SubspaceContext ctx;
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.centers_u));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.centers_s));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.centers_q));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&ctx.sample_points));
    if (static_cast<int64_t>(ctx.centers_u.size()) != options.task_gen.k_u ||
        static_cast<int64_t>(ctx.centers_s.size()) != options.task_gen.k_s ||
        static_cast<int64_t>(ctx.centers_q.size()) != options.task_gen.k_q) {
      return Status::IoError("model load: context shape mismatch");
    }
    models[s].generator = MetaTaskGenerator(options.task_gen);
    models[s].generator.RestoreContext(std::move(ctx));
    LTE_RETURN_IF_ERROR(r.ReadPointSet(&models[s].initial_tuples));
    bool has_learner = false;
    LTE_RETURN_IF_ERROR(r.ReadBool(&has_learner));
    if (has_learner) {
      LTE_RETURN_IF_ERROR(
          MetaLearner::LoadFrom(&r, &models[s].meta_learner));
    } else if (meta_trained) {
      return Status::IoError("model load: missing meta-learner");
    }
  }

  options_ = options;
  encoder_ = std::move(encoder);
  subspaces_ = std::move(subspaces);
  subspace_models_ = std::move(models);
  pretrained_ = true;
  meta_trained_ = meta_trained;
  task_generation_seconds_ = 0.0;
  meta_training_seconds_ = 0.0;
  RecomputeFingerprint();
  return Status::OK();
}

}  // namespace lte::core
