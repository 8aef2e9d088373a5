#ifndef LTE_CORE_META_LEARNER_H_
#define LTE_CORE_META_LEARNER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/binary_io.h"
#include "common/rng.h"
#include "nn/matrix.h"
#include "nn/mlp.h"

namespace lte::core {

/// Architecture and memory configuration of the UIS classifier
/// (paper Section VI-A/VI-B).
struct MetaLearnerOptions {
  /// k_u: length of the UIS feature vector v_R.
  int64_t uis_feature_dim = 100;
  /// N_r: length of the encoded tuple representation v_tau. Must be set.
  int64_t tuple_feature_dim = 0;
  /// N_e: embedding size shared by f_R and f_tau (paper default 100; the
  /// library defaults smaller for CPU-friendly benchmarks).
  int64_t embedding_size = 32;
  /// Hidden layers of the three blocks ({} = single linear layer).
  std::vector<int64_t> uis_hidden = {};
  std::vector<int64_t> tuple_hidden = {};
  std::vector<int64_t> clf_hidden = {32};
  /// Enables the memory-augmented optimization (UIS-feature memory M_R/M_vR
  /// and embedding-conversion memory M_CP). When disabled the classifier is
  /// plain MAML: [emb_R, emb_tau] feeds f_clf directly.
  bool use_memory = true;
  /// m: number of implicit modes stored by each memory.
  int64_t num_memory_modes = 6;
  /// σ: how much the task-wise bias ω_R adjusts φ_R (Eq. 6).
  double sigma = 0.1;
};

class MetaLearner;

/// Task-wise (local) parameters θ = {θ_R, θ_τ, θ_clf} plus the retrieved
/// conversion matrix M_cp, initialized from the meta-learned globals for one
/// task (Eq. 6, 10, 11) and then trained on the task's support set.
class TaskModel {
 public:
  /// One SGD micro-step's worth of accumulated gradients: runs forward and
  /// backward over the batch, adds gradients into the block accumulators,
  /// and returns the mean BCE loss. Call ApplyAccumulated() to step.
  double AccumulateBatch(const std::vector<std::vector<double>>& tuples,
                         const std::vector<double>& labels);

  /// Applies the accumulated gradients with learning rate `lr` (Eq. 12) and
  /// clears them. When `max_grad_norm` > 0 the joint gradient (all blocks
  /// plus M_cp) is rescaled to that L2 norm if it exceeds it — few-shot
  /// adaptation starts from a well-trained initialization whose early
  /// gradients can be violent; clipping keeps the first steps from
  /// overshooting into a saturated all-negative/all-positive regime.
  void ApplyAccumulated(double lr, double max_grad_norm = 0.0);

  void ZeroGrad();

  /// Classifier output before the sigmoid for one encoded tuple.
  ///
  /// Thread-safety: the first call after a parameter update lazily refreshes
  /// the cached UIS embedding (a benign-looking but real write under const).
  /// Call WarmUisEmbedding() once after the last update before fanning
  /// predictions out across threads; with a warm cache all const methods are
  /// safe to call concurrently.
  double Logit(const std::vector<double>& tuple) const;

  /// P(interesting) for one encoded tuple. Same thread-safety contract as
  /// Logit.
  double PredictProbability(const std::vector<double>& tuple) const;

  /// Reusable buffers for PredictProbabilityBatch. Capacities reach a steady
  /// state after the first block, so batched scoring allocates nothing per
  /// call.
  struct BatchScratch {
    nn::Mlp::BatchScratch mlp;
    std::vector<double> emb_tau;   // count x N_e tuple embeddings.
    std::vector<double> clf_in;    // count x f_clf input width.
    std::vector<double> logits;    // count x 1.
    std::vector<double> mcp_left;  // N_e: left half of M_cp applied to emb_R.
    std::vector<double> clf1_left; // f_clf layer-1 prefix over emb_R (kBasic).
    std::vector<float> fxt;        // kSimd: transposed emb_tau (M_cp stage).
    std::vector<float> fyt;        // kSimd: transposed M_cp outputs.
    std::vector<float> finit;      // kSimd: float seeds from mcp_left.
  };

  /// Block counterpart of PredictProbability for the columnar serving path:
  /// `tuples` holds exactly `count` row-major encoded tuples of f_tau's
  /// input width each, and `out` exactly `count` slots (both LTE_CHECKed);
  /// writes P(interesting) for tuple n into `out[n]`. With the default
  /// kScalar kernel each probability is bit-identical to PredictProbability
  /// on that tuple — the batch runs the same operation sequence per row (the
  /// constant left half of the M_cp · [emb_R; emb_tau] product is evaluated
  /// once per block, which is exactly the per-row accumulation prefix, so
  /// the sum is unchanged). With kSimd every stage — f_tau, the M_cp
  /// right-half product, f_clf — runs through the float32 vector kernels
  /// instead: statistically equal, parity-gated, deterministic (see
  /// nn::BatchKernel). Same thread-safety contract as Logit.
  void PredictProbabilityBatch(
      std::span<const double> tuples, int64_t count, BatchScratch* scratch,
      std::span<double> out,
      nn::BatchKernel kernel = nn::BatchKernel::kScalar) const;

  /// Eagerly refreshes the cached UIS embedding emb_R so that subsequent
  /// const predictions perform no writes at all — the required handshake
  /// between adaptation (single-threaded) and serving (parallel scans).
  void WarmUisEmbedding();

  /// Mean BCE loss over a labelled set (no gradient accumulation).
  double EvaluateLoss(const std::vector<std::vector<double>>& tuples,
                      const std::vector<double>& labels) const;

  const std::vector<double>& attention() const { return attention_; }
  const std::vector<double>& uis_feature() const { return uis_feature_; }
  const nn::Mlp& f_r() const { return f_r_; }
  const nn::Mlp& f_tau() const { return f_tau_; }
  const nn::Mlp& f_clf() const { return f_clf_; }

  /// Mutable block access for custom adaptation schemes (invalidates the
  /// cached UIS embedding where needed).
  nn::Mlp* mutable_f_r() {
    emb_r_valid_ = false;
    return &f_r_;
  }
  nn::Mlp* mutable_f_tau() { return &f_tau_; }
  nn::Mlp* mutable_f_clf() { return &f_clf_; }
  const nn::Matrix& m_cp() const { return m_cp_; }
  const nn::Matrix& grad_m_cp() const { return grad_m_cp_; }

  /// Gradient of θ_R accumulated over every ApplyAccumulated() call so far
  /// (used by the M_R memory update, Eq. 15).
  const std::vector<double>& support_grad_r() const { return support_grad_r_; }

  /// Serialization (session persistence): the adapted parameters θ, the
  /// retrieved M_cp, v_R, the attention, and the accumulated θ_R support
  /// gradient. Per-step gradient accumulators are *not* written — every
  /// adaptation step ends with ApplyAccumulated → ZeroGrad, so a task model
  /// at rest has all-zero accumulators and LoadFrom recreates them fresh.
  void Save(BinaryWriter* writer) const;

  /// Reconstructs a task model from a stream written by Save, validating
  /// block shapes against each other so a corrupted stream surfaces as an
  /// error Status instead of a malformed model. The UIS-embedding cache
  /// starts cold — call WarmUisEmbedding() before fanning out predictions.
  static Status LoadFrom(BinaryReader* reader, TaskModel* out);

 private:
  friend class MetaLearner;

  // Forward pass for one tuple given a precomputed emb_R; fills caches for
  // the backward pass when requested.
  double ForwardLogit(const std::vector<double>& emb_r,
                      const std::vector<double>& tuple,
                      nn::Mlp::Cache* tau_cache, nn::Mlp::Cache* clf_cache,
                      std::vector<double>* concat,
                      std::vector<double>* conv) const;

  bool use_memory_ = false;
  std::vector<double> uis_feature_;
  std::vector<double> attention_;
  nn::Mlp f_r_;
  nn::Mlp f_tau_;
  nn::Mlp f_clf_;
  nn::Matrix m_cp_;       // N_e x 2N_e (only when use_memory_).
  nn::Matrix grad_m_cp_;  // Accumulator matching m_cp_.
  std::vector<double> support_grad_r_;

  // emb_R depends only on v_R and θ_R; cache it between parameter updates.
  mutable bool emb_r_valid_ = false;
  mutable std::vector<double> emb_r_cache_;
};

/// The meta-learner C^M_φ: global initialization parameters
/// φ = {φ_R, φ_τ, φ_clf} plus the two memories of Section VI-B.
///
/// `CreateTaskModel` instantiates the task-wise classifier
/// (θ_R = φ_R − σ·ω_R with ω_R = a_R^T M_R; θ_τ = φ_τ; θ_clf = φ_clf;
/// M_cp = a_R^T M_CP), which the caller adapts on labelled tuples — the
/// meta-trainer offline, the exploration session online.
class MetaLearner {
 public:
  MetaLearner(MetaLearnerOptions options, Rng* rng);

  const MetaLearnerOptions& options() const { return options_; }

  /// Attention a_R over the m memory modes: softmax of cosine similarities
  /// between v_R and the rows of M_vR (Eq. 7). All-uniform when memories are
  /// disabled.
  std::vector<double> Attention(const std::vector<double>& uis_feature) const;

  /// Instantiates the task-wise classifier for a task with feature v_R.
  TaskModel CreateTaskModel(const std::vector<double>& uis_feature) const;

  /// Global parameter access for the meta-trainer's one-step global update
  /// (Eq. 13).
  nn::Mlp* mutable_phi_r() { return &phi_r_; }
  nn::Mlp* mutable_phi_tau() { return &phi_tau_; }
  nn::Mlp* mutable_phi_clf() { return &phi_clf_; }
  const nn::Mlp& phi_r() const { return phi_r_; }
  const nn::Mlp& phi_tau() const { return phi_tau_; }
  const nn::Mlp& phi_clf() const { return phi_clf_; }

  /// Attentive memory writes after a task's local adaptation
  /// (Eq. 14, 15, 16). No-op when memories are disabled.
  void UpdateMemories(const TaskModel& task_model, double eta, double beta,
                      double gamma);

  const nn::Matrix& memory_vr() const { return memory_vr_; }
  const nn::Matrix& memory_r() const { return memory_r_; }
  const std::vector<nn::Matrix>& memory_cp() const { return memory_cp_; }

  /// Serialization (model persistence): options, global parameters φ, and
  /// the memories.
  void Save(BinaryWriter* writer) const;
  /// Reconstructs a meta-learner from a stream written by Save.
  static Status LoadFrom(BinaryReader* reader,
                         std::unique_ptr<MetaLearner>* out);

 private:
  /// Internal: builds an empty shell for LoadFrom.
  MetaLearner() = default;

  MetaLearnerOptions options_;
  nn::Mlp phi_r_;
  nn::Mlp phi_tau_;
  nn::Mlp phi_clf_;
  nn::Matrix memory_vr_;              // m x k_u  (M_vR).
  nn::Matrix memory_r_;               // m x |θ_R| (M_R).
  std::vector<nn::Matrix> memory_cp_;  // m matrices of N_e x 2N_e (M_CP).
};

}  // namespace lte::core

#endif  // LTE_CORE_META_LEARNER_H_
