#include "core/meta_learner.h"

#include <algorithm>

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "nn/activations.h"
#include "nn/loss.h"
#include "nn/simd_kernels.h"

namespace lte::core {
namespace {

std::vector<int64_t> LayerSizes(int64_t in, const std::vector<int64_t>& hidden,
                                int64_t out) {
  std::vector<int64_t> sizes = {in};
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

}  // namespace

MetaLearner::MetaLearner(MetaLearnerOptions options, Rng* rng)
    : options_(options) {
  LTE_CHECK_GT(options_.uis_feature_dim, 0);
  LTE_CHECK_MSG(options_.tuple_feature_dim > 0,
                "tuple_feature_dim must be set to the encoded tuple width");
  LTE_CHECK_GT(options_.embedding_size, 0);
  const int64_t ne = options_.embedding_size;
  phi_r_ = nn::Mlp(LayerSizes(options_.uis_feature_dim, options_.uis_hidden, ne),
                   rng);
  phi_tau_ = nn::Mlp(
      LayerSizes(options_.tuple_feature_dim, options_.tuple_hidden, ne), rng);
  const int64_t clf_in = options_.use_memory ? ne : 2 * ne;
  phi_clf_ = nn::Mlp(LayerSizes(clf_in, options_.clf_hidden, 1), rng);

  if (options_.use_memory) {
    LTE_CHECK_GT(options_.num_memory_modes, 0);
    const int64_t m = options_.num_memory_modes;
    // Random initialization of the memories (paper Section VI-B). M_vR rows
    // act as mode prototypes for the attention; M_R stores parameter-shaped
    // bias rows (small, since θ_R = φ_R − σ·ω_R should start near φ_R); each
    // M_CP mode starts as a random projection of the concatenated embedding.
    memory_vr_ = nn::Matrix(m, options_.uis_feature_dim);
    memory_vr_.InitGaussian(rng, 0.1);
    memory_r_ = nn::Matrix(m, phi_r_.ParameterCount());
    memory_r_.InitGaussian(rng, 0.01);
    memory_cp_.clear();
    for (int64_t r = 0; r < m; ++r) {
      nn::Matrix cp(ne, 2 * ne);
      cp.InitGaussian(rng, 1.0 / std::sqrt(static_cast<double>(2 * ne)));
      memory_cp_.push_back(std::move(cp));
    }
  }
}

std::vector<double> MetaLearner::Attention(
    const std::vector<double>& uis_feature) const {
  if (!options_.use_memory) return {};
  LTE_CHECK_EQ(static_cast<int64_t>(uis_feature.size()),
               options_.uis_feature_dim);
  std::vector<double> a(static_cast<size_t>(options_.num_memory_modes));
  for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
    a[static_cast<size_t>(r)] =
        CosineSimilarity(uis_feature, memory_vr_.Row(r));
  }
  SoftmaxInPlace(&a);
  return a;
}

TaskModel MetaLearner::CreateTaskModel(
    const std::vector<double>& uis_feature) const {
  LTE_CHECK_EQ(static_cast<int64_t>(uis_feature.size()),
               options_.uis_feature_dim);
  TaskModel tm;
  tm.use_memory_ = options_.use_memory;
  tm.uis_feature_ = uis_feature;
  tm.attention_ = Attention(uis_feature);

  // θ_τ ⇐ φ_τ, θ_clf ⇐ φ_clf (Eq. 11); copies carry stale gradient
  // accumulators, so clear them.
  tm.f_r_ = phi_r_;
  tm.f_tau_ = phi_tau_;
  tm.f_clf_ = phi_clf_;

  if (options_.use_memory) {
    // θ_R ⇐ φ_R − σ·ω_R with ω_R = a_R^T M_R (Eq. 6, 8).
    std::vector<double> params = phi_r_.GetParameters();
    for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
      const double ar = tm.attention_[static_cast<size_t>(r)];
      const std::vector<double> row = memory_r_.Row(r);
      for (size_t i = 0; i < params.size(); ++i) {
        params[i] -= options_.sigma * ar * row[i];
      }
    }
    tm.f_r_.SetParameters(params);

    // M_cp ⇐ a_R^T M_CP (Eq. 10).
    const int64_t ne = options_.embedding_size;
    tm.m_cp_ = nn::Matrix(ne, 2 * ne);
    for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
      tm.m_cp_.AddScaled(memory_cp_[static_cast<size_t>(r)],
                         tm.attention_[static_cast<size_t>(r)]);
    }
    tm.grad_m_cp_ = nn::Matrix(ne, 2 * ne);
  }

  tm.ZeroGrad();
  tm.support_grad_r_.assign(
      static_cast<size_t>(tm.f_r_.ParameterCount()), 0.0);
  return tm;
}

void MetaLearner::UpdateMemories(const TaskModel& task_model, double eta,
                                 double beta, double gamma) {
  if (!options_.use_memory) return;
  const std::vector<double>& a = task_model.attention();
  LTE_CHECK_EQ(static_cast<int64_t>(a.size()), options_.num_memory_modes);

  // Attention-masked exponential writes (Eq. 14-16). The paper's literal
  // form "η·(a_R × v_R^T) + (1−η)·M" multiplies the *whole* matrix by
  // (1−η) on every task, which drives the memories toward zero unless the
  // write rate is vanishingly small (the paper searches rates down to
  // 5e-5). We implement the attention mask as a per-row convex blend —
  // row r moves a fraction η·a_R[r] toward the new content — which keeps
  // the memories on a stable scale at any write rate while preserving the
  // attentive-write semantics ("new information attentively added").
  auto blend_rows = [&](nn::Matrix* memory, double rate,
                        const std::vector<double>& content) {
    for (int64_t r = 0; r < memory->rows(); ++r) {
      const double w = rate * a[static_cast<size_t>(r)];
      std::vector<double> row = memory->Row(r);
      for (size_t c = 0; c < row.size(); ++c) {
        row[c] = (1.0 - w) * row[c] + w * content[c];
      }
      memory->SetRow(r, row);
    }
  };
  // M_vR ⇐ blend toward v_R (Eq. 14).
  blend_rows(&memory_vr_, eta, task_model.uis_feature());
  // M_R ⇐ blend toward ∇θ_R Loss accumulated during the local adaptation
  // (Eq. 15).
  blend_rows(&memory_r_, beta, task_model.support_grad_r());
  // M_CP[r] ⇐ blend toward the task's adapted M_cp (Eq. 16).
  for (int64_t r = 0; r < options_.num_memory_modes; ++r) {
    const double w = gamma * a[static_cast<size_t>(r)];
    nn::Matrix& mode = memory_cp_[static_cast<size_t>(r)];
    nn::Matrix blended(mode.rows(), mode.cols());
    blended.AddScaled(mode, 1.0 - w);
    blended.AddScaled(task_model.m_cp(), w);
    mode = std::move(blended);
  }
}

void MetaLearner::Save(BinaryWriter* writer) const {
  writer->WriteI64(options_.uis_feature_dim);
  writer->WriteI64(options_.tuple_feature_dim);
  writer->WriteI64(options_.embedding_size);
  writer->WriteI64Vector(options_.uis_hidden);
  writer->WriteI64Vector(options_.tuple_hidden);
  writer->WriteI64Vector(options_.clf_hidden);
  writer->WriteBool(options_.use_memory);
  writer->WriteI64(options_.num_memory_modes);
  writer->WriteDouble(options_.sigma);
  phi_r_.Save(writer);
  phi_tau_.Save(writer);
  phi_clf_.Save(writer);
  if (options_.use_memory) {
    memory_vr_.Save(writer);
    memory_r_.Save(writer);
    writer->WriteU64(memory_cp_.size());
    for (const nn::Matrix& m : memory_cp_) m.Save(writer);
  }
}

Status MetaLearner::LoadFrom(BinaryReader* reader,
                             std::unique_ptr<MetaLearner>* out) {
  std::unique_ptr<MetaLearner> learner(new MetaLearner());
  MetaLearnerOptions& opt = learner->options_;
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.uis_feature_dim));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.tuple_feature_dim));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.embedding_size));
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&opt.uis_hidden));
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&opt.tuple_hidden));
  LTE_RETURN_IF_ERROR(reader->ReadI64Vector(&opt.clf_hidden));
  LTE_RETURN_IF_ERROR(reader->ReadBool(&opt.use_memory));
  LTE_RETURN_IF_ERROR(reader->ReadI64(&opt.num_memory_modes));
  LTE_RETURN_IF_ERROR(reader->ReadDouble(&opt.sigma));
  LTE_RETURN_IF_ERROR(learner->phi_r_.Load(reader));
  LTE_RETURN_IF_ERROR(learner->phi_tau_.Load(reader));
  LTE_RETURN_IF_ERROR(learner->phi_clf_.Load(reader));
  if (opt.use_memory) {
    LTE_RETURN_IF_ERROR(learner->memory_vr_.Load(reader));
    LTE_RETURN_IF_ERROR(learner->memory_r_.Load(reader));
    uint64_t n = 0;
    LTE_RETURN_IF_ERROR(reader->ReadU64(&n));
    if (static_cast<int64_t>(n) != opt.num_memory_modes) {
      return Status::IoError("meta-learner load: memory mode mismatch");
    }
    learner->memory_cp_.assign(n, nn::Matrix());
    for (nn::Matrix& m : learner->memory_cp_) {
      LTE_RETURN_IF_ERROR(m.Load(reader));
    }
  }
  // Structural sanity: loaded block shapes must match the options.
  if (learner->phi_r_.in_features() != opt.uis_feature_dim ||
      learner->phi_tau_.in_features() != opt.tuple_feature_dim ||
      learner->phi_r_.out_features() != opt.embedding_size) {
    return Status::IoError("meta-learner load: block shape mismatch");
  }
  *out = std::move(learner);
  return Status::OK();
}

double TaskModel::ForwardLogit(const std::vector<double>& emb_r,
                               const std::vector<double>& tuple,
                               nn::Mlp::Cache* tau_cache,
                               nn::Mlp::Cache* clf_cache,
                               std::vector<double>* concat,
                               std::vector<double>* conv) const {
  const std::vector<double> emb_tau = f_tau_.Forward(tuple, tau_cache);
  std::vector<double> z = emb_r;
  z.insert(z.end(), emb_tau.begin(), emb_tau.end());
  std::vector<double> c = use_memory_ ? m_cp_.MatVec(z) : z;
  const std::vector<double> out = f_clf_.Forward(c, clf_cache);
  if (concat != nullptr) *concat = std::move(z);
  if (conv != nullptr) *conv = std::move(c);
  return out[0];
}

double TaskModel::AccumulateBatch(
    const std::vector<std::vector<double>>& tuples,
    const std::vector<double>& labels) {
  LTE_CHECK_EQ(tuples.size(), labels.size());
  LTE_CHECK(!tuples.empty());
  const double inv_n = 1.0 / static_cast<double>(tuples.size());

  // emb_R is shared by the whole batch: one forward through f_R, one
  // backward with the summed embedding gradient.
  nn::Mlp::Cache r_cache;
  const std::vector<double> emb_r = f_r_.Forward(uis_feature_, &r_cache);
  const auto ne = static_cast<int64_t>(emb_r.size());
  std::vector<double> g_emb_r_sum(emb_r.size(), 0.0);

  double loss = 0.0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    nn::Mlp::Cache tau_cache;
    nn::Mlp::Cache clf_cache;
    std::vector<double> concat;
    std::vector<double> conv;
    const double logit = ForwardLogit(emb_r, tuples[i], &tau_cache, &clf_cache,
                                      &concat, &conv);
    loss += inv_n * nn::BceWithLogits(logit, labels[i]);
    const double dlogit = inv_n * nn::BceWithLogitsGrad(logit, labels[i]);

    std::vector<double> g_conv = f_clf_.Backward(clf_cache, {dlogit});
    std::vector<double> g_concat;
    if (use_memory_) {
      grad_m_cp_.AddOuter(g_conv, concat);
      g_concat = m_cp_.TransposeMatVec(g_conv);
    } else {
      g_concat = std::move(g_conv);
    }
    for (int64_t j = 0; j < ne; ++j) {
      g_emb_r_sum[static_cast<size_t>(j)] += g_concat[static_cast<size_t>(j)];
    }
    const std::vector<double> g_emb_tau(g_concat.begin() + ne, g_concat.end());
    f_tau_.Backward(tau_cache, g_emb_tau);
  }
  f_r_.Backward(r_cache, g_emb_r_sum);
  return loss;
}

void TaskModel::ApplyAccumulated(double lr, double max_grad_norm) {
  // Record the θ_R gradient before consuming it (Eq. 15 uses it to write the
  // UIS-feature memory).
  const std::vector<double> gr = f_r_.GetGradients();
  LTE_CHECK_EQ(gr.size(), support_grad_r_.size());
  for (size_t i = 0; i < gr.size(); ++i) support_grad_r_[i] += gr[i];

  double effective_lr = lr;
  if (max_grad_norm > 0.0) {
    double norm_sq = 0.0;
    auto add = [&norm_sq](const std::vector<double>& g) {
      for (double x : g) norm_sq += x * x;
    };
    add(gr);
    add(f_tau_.GetGradients());
    add(f_clf_.GetGradients());
    if (use_memory_) {
      const double m = grad_m_cp_.FrobeniusNorm();
      norm_sq += m * m;
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > max_grad_norm) effective_lr = lr * max_grad_norm / norm;
  }

  f_r_.ApplyGradients(effective_lr);
  f_tau_.ApplyGradients(effective_lr);
  f_clf_.ApplyGradients(effective_lr);
  if (use_memory_) {
    m_cp_.AddScaled(grad_m_cp_, -effective_lr);
  }
  ZeroGrad();
  emb_r_valid_ = false;
}

void TaskModel::Save(BinaryWriter* writer) const {
  writer->WriteBool(use_memory_);
  writer->WriteDoubleVector(uis_feature_);
  writer->WriteDoubleVector(attention_);
  f_r_.Save(writer);
  f_tau_.Save(writer);
  f_clf_.Save(writer);
  if (use_memory_) m_cp_.Save(writer);
  writer->WriteDoubleVector(support_grad_r_);
}

Status TaskModel::LoadFrom(BinaryReader* reader, TaskModel* out) {
  TaskModel tm;
  LTE_RETURN_IF_ERROR(reader->ReadBool(&tm.use_memory_));
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&tm.uis_feature_));
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&tm.attention_));
  LTE_RETURN_IF_ERROR(tm.f_r_.Load(reader));
  LTE_RETURN_IF_ERROR(tm.f_tau_.Load(reader));
  LTE_RETURN_IF_ERROR(tm.f_clf_.Load(reader));
  if (tm.use_memory_) {
    LTE_RETURN_IF_ERROR(tm.m_cp_.Load(reader));
  }
  LTE_RETURN_IF_ERROR(reader->ReadDoubleVector(&tm.support_grad_r_));

  // Structural sanity: the three blocks and M_cp must agree on the shared
  // embedding size and the classifier input width (Section VI-A wiring).
  const int64_t ne = tm.f_r_.out_features();
  if (tm.f_tau_.out_features() != ne || tm.f_clf_.out_features() != 1) {
    return Status::IoError("task model load: block shape mismatch");
  }
  if (static_cast<int64_t>(tm.uis_feature_.size()) != tm.f_r_.in_features()) {
    return Status::IoError("task model load: UIS feature width mismatch");
  }
  if (static_cast<int64_t>(tm.support_grad_r_.size()) !=
      tm.f_r_.ParameterCount()) {
    return Status::IoError("task model load: support gradient size mismatch");
  }
  if (tm.use_memory_) {
    if (tm.m_cp_.rows() != ne || tm.m_cp_.cols() != 2 * ne ||
        tm.f_clf_.in_features() != ne) {
      return Status::IoError("task model load: conversion shape mismatch");
    }
    tm.grad_m_cp_ = nn::Matrix(ne, 2 * ne);
  } else if (tm.f_clf_.in_features() != 2 * ne) {
    return Status::IoError("task model load: classifier input mismatch");
  }
  tm.ZeroGrad();
  tm.emb_r_valid_ = false;
  *out = std::move(tm);
  return Status::OK();
}

void TaskModel::ZeroGrad() {
  f_r_.ZeroGrad();
  f_tau_.ZeroGrad();
  f_clf_.ZeroGrad();
  if (use_memory_) grad_m_cp_.Fill(0.0);
}

void TaskModel::WarmUisEmbedding() {
  if (!emb_r_valid_) {
    emb_r_cache_ = f_r_.Forward(uis_feature_);
    emb_r_valid_ = true;
  }
}

double TaskModel::Logit(const std::vector<double>& tuple) const {
  if (!emb_r_valid_) {
    emb_r_cache_ = f_r_.Forward(uis_feature_);
    emb_r_valid_ = true;
  }
  return ForwardLogit(emb_r_cache_, tuple, nullptr, nullptr, nullptr, nullptr);
}

double TaskModel::PredictProbability(const std::vector<double>& tuple) const {
  return nn::Sigmoid(Logit(tuple));
}

void TaskModel::PredictProbabilityBatch(std::span<const double> tuples,
                                        int64_t count, BatchScratch* scratch,
                                        std::span<double> out,
                                        nn::BatchKernel kernel) const {
  LTE_CHECK_GE(count, 0);
  LTE_CHECK_EQ(static_cast<int64_t>(tuples.size()),
               count * f_tau_.in_features());
  LTE_CHECK_EQ(static_cast<int64_t>(out.size()), count);
  if (count == 0) return;
  if (!emb_r_valid_) {
    emb_r_cache_ = f_r_.Forward(uis_feature_);
    emb_r_valid_ = true;
  }
  const auto ne = static_cast<int64_t>(emb_r_cache_.size());
  const int64_t in_w = f_tau_.in_features();

  // The emb_R-dependent prefixes are the same for every row; evaluate them
  // once per call.
  if (use_memory_) {
    // c = M_cp · [emb_R; emb_tau]. `mcp_left[o]` is the exact running-sum
    // prefix that MatVec reaches after the first N_e terms, and each row
    // continues the accumulation over its emb_tau half in the same order —
    // bit-identical to the per-row product.
    scratch->mcp_left.resize(static_cast<size_t>(ne));
    for (int64_t o = 0; o < ne; ++o) {
      const double* w = m_cp_.data().data() + o * 2 * ne;
      double s = 0.0;
      for (int64_t c = 0; c < ne; ++c) {
        s += w[c] * emb_r_cache_[static_cast<size_t>(c)];
      }
      scratch->mcp_left[static_cast<size_t>(o)] = s;
    }
  } else {
    // Plain MAML: f_clf reads the concatenation [emb_R, emb_tau]. Fold the
    // constant emb_R head into a first-layer prefix so rows feed f_clf just
    // their emb_tau half — no per-row copy of emb_R and half the layer-1
    // multiply-accumulates, with the accumulation order unchanged.
    f_clf_.ComputeFirstLayerPrefix(emb_r_cache_, &scratch->clf1_left);
  }

  // Slice the batch so the per-stage activations (emb_tau, clf_in, logits)
  // stay cache-resident while each weight matrix streams over them; a full
  // 1024-row block's activations otherwise evict the weights between stages.
  // Rows are independent and tile boundaries restart cleanly at every
  // multiple of kRowTile, so slicing cannot change any output bit.
  constexpr int64_t kSlice = 128;
  for (int64_t s0 = 0; s0 < count; s0 += kSlice) {
    const int64_t sc = std::min(kSlice, count - s0);
    const std::span<const double> slice =
        tuples.subspan(static_cast<size_t>(s0 * in_w),
                       static_cast<size_t>(sc * in_w));
    if (kernel == nn::BatchKernel::kSimd) {
      // Throughput mode: every stage runs through the float32 vector
      // kernels. The per-call constant folds above (mcp_left / clf1_left)
      // stay double — they are computed once, not per row — and seed the
      // float accumulators, preserving the reference's operation order at
      // float precision.
      f_tau_.ForwardBatchSimdInto(slice, sc, &scratch->mlp,
                                  &scratch->emb_tau);
      if (use_memory_) {
        // M_cp right-half product as one transposed-layout layer: weights
        // stride 2·N_e with the first N_e columns skipped, accumulators
        // seeded from mcp_left, no bias, no activation.
        const int64_t padded = nn::simd::PaddedCount(sc);
        scratch->fxt.resize(static_cast<size_t>(ne * padded));
        nn::simd::PackTransposedFloat(scratch->emb_tau.data(), sc, ne, padded,
                                      scratch->fxt.data());
        scratch->finit.resize(static_cast<size_t>(ne));
        for (int64_t o = 0; o < ne; ++o) {
          scratch->finit[static_cast<size_t>(o)] =
              static_cast<float>(scratch->mcp_left[static_cast<size_t>(o)]);
        }
        scratch->fyt.resize(static_cast<size_t>(ne * padded));
        nn::simd::LayerForwardTransposed(
            m_cp_.data().data(), /*w_stride=*/2 * ne, /*skip=*/ne,
            /*data_w=*/ne, /*out_w=*/ne, scratch->fxt.data(), padded,
            scratch->finit.data(), /*bias=*/nullptr, /*relu=*/false,
            scratch->fyt.data());
        scratch->clf_in.resize(static_cast<size_t>(sc * ne));
        nn::simd::UnpackTransposedToDouble(scratch->fyt.data(), sc, ne, padded,
                                           scratch->clf_in.data());
        f_clf_.ForwardBatchSimdInto(scratch->clf_in, sc, &scratch->mlp,
                                    &scratch->logits);
      } else {
        f_clf_.ForwardBatchSimdInto(scratch->emb_tau, sc, &scratch->mlp,
                                    &scratch->logits, scratch->clf1_left);
      }
      for (int64_t n = 0; n < sc; ++n) {
        out[static_cast<size_t>(s0 + n)] =
            nn::Sigmoid(scratch->logits[static_cast<size_t>(n)]);
      }
      continue;
    }
    f_tau_.ForwardBatchInto(slice, sc, &scratch->mlp, &scratch->emb_tau);

    if (use_memory_) {
      scratch->clf_in.resize(static_cast<size_t>(sc * ne));
      // Row-tiled like Mlp::ForwardBatchInto: each M_cp row is streamed once
      // per tile rather than once per tuple, the inner loop runs kRowTile
      // independent scalar accumulator chains, and the tile rows are read in
      // place at stride N_e (a transposed pack measures slower on the
      // deployment hosts — see the note in Mlp::ForwardBatchInto).
      // Accumulator t starts from the shared prefix and adds row t's tau
      // terms in ascending order — the per-row operation sequence of the
      // reference MatVec, so the product stays bit-identical.
      constexpr int64_t kRowTile = 8;
      const int64_t full = sc - sc % kRowTile;
      for (int64_t n0 = 0; n0 < full; n0 += kRowTile) {
        const double* base = scratch->emb_tau.data() + n0 * ne;
        for (int64_t o = 0; o < ne; ++o) {
          const double* w = m_cp_.data().data() + o * 2 * ne + ne;
          double acc[kRowTile];
          for (int64_t t = 0; t < kRowTile; ++t) {
            acc[t] = scratch->mcp_left[static_cast<size_t>(o)];
          }
          for (int64_t c = 0; c < ne; ++c) {
            const double wc = w[c];
            for (int64_t t = 0; t < kRowTile; ++t) {
              acc[t] += wc * base[t * ne + c];
            }
          }
          for (int64_t t = 0; t < kRowTile; ++t) {
            scratch->clf_in.data()[(n0 + t) * ne + o] = acc[t];
          }
        }
      }
      // Ragged tail: one row at a time, identical per-row operation order.
      for (int64_t n = full; n < sc; ++n) {
        const double* tau = scratch->emb_tau.data() + n * ne;
        for (int64_t o = 0; o < ne; ++o) {
          const double* w = m_cp_.data().data() + o * 2 * ne + ne;
          double s = scratch->mcp_left[static_cast<size_t>(o)];
          for (int64_t c = 0; c < ne; ++c) s += w[c] * tau[c];
          scratch->clf_in.data()[n * ne + o] = s;
        }
      }
      f_clf_.ForwardBatchInto(scratch->clf_in, sc, &scratch->mlp,
                              &scratch->logits);
    } else {
      f_clf_.ForwardBatchInto(scratch->emb_tau, sc, &scratch->mlp,
                              &scratch->logits, scratch->clf1_left);
    }

    for (int64_t n = 0; n < sc; ++n) {
      out[static_cast<size_t>(s0 + n)] =
          nn::Sigmoid(scratch->logits[static_cast<size_t>(n)]);
    }
  }
}

double TaskModel::EvaluateLoss(const std::vector<std::vector<double>>& tuples,
                               const std::vector<double>& labels) const {
  LTE_CHECK_EQ(tuples.size(), labels.size());
  if (tuples.empty()) return 0.0;
  double loss = 0.0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    loss += nn::BceWithLogits(Logit(tuples[i]), labels[i]);
  }
  return loss / static_cast<double>(tuples.size());
}

}  // namespace lte::core
