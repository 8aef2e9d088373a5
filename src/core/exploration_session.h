#ifndef LTE_CORE_EXPLORATION_SESSION_H_
#define LTE_CORE_EXPLORATION_SESSION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/exploration_model.h"
#include "core/meta_learner.h"
#include "core/optimizer_fpfn.h"
#include "data/table.h"
#include "policy/suggest_policy.h"

namespace lte::core {

/// Rows per serving scan block: the unit the block-scan engine
/// (core/block_scan.h) claims per lane and encodes and scores per subspace,
/// for standalone sessions and the coalesced serving front-end
/// (src/serving/) alike.
inline constexpr int64_t kServingBlockRows = 1024;

/// Which LTE variant answers predictions (paper Section VIII-A).
enum class Variant {
  /// Basic UIS classifier: same architecture, randomly initialized, trained
  /// online only.
  kBasic,
  /// Meta: the classifier fast-adapts from meta-learned initialization
  /// parameters (and memories).
  kMeta,
  /// Meta*: Meta plus the FP/FN prediction optimizer.
  kMetaStar,
};

/// Which batch kernel the block scans (`PredictRows`, `RetrieveMatches`,
/// the coalesced front-end's shared pass) and `SuggestTuples` score with.
/// Both run the same block-scan engine (DESIGN.md §2b "Columnar serving
/// path"); the reference they are tested against is `PredictRow`, row by
/// row. kColumnarSimd trades the byte-identity contract for throughput: it
/// is gated by statistical parity instead (same match sets up to an epsilon
/// of threshold-boundary rows), and stays opt-in.
enum class ScanPath {
  /// Default: scalar double kernels — every verdict byte-identical to
  /// `PredictRow` on the same row.
  kColumnar,
  /// Opt-in throughput mode: the same block/survivor scan, but the batch
  /// forward runs the float32 vector kernels (nn::BatchKernel::kSimd).
  /// Deterministic — same inputs, same bits, at any thread count and in any
  /// batch composition — but parity-gated rather than byte-identical to the
  /// scalar paths: a row whose probability sits within float error of the
  /// 0.5 threshold may flip. tests/columnar_scan_test.cc bounds the
  /// mismatch fraction; bench_columnar_scan measures and gates it in CI.
  kColumnarSimd,
};

/// One user's online exploration against a shared `ExplorationModel` (paper
/// Figure 2, online phase): the fast-adapted per-subspace task models, the
/// Meta* FP/FN optimizers, and the full query surface.
///
/// A session is cheap — it owns only the adapted classifiers, never the
/// clustering contexts or meta-learners — so a serving process holds one
/// model and hands each concurrent user their own session:
///
///   auto model = std::make_shared<ExplorationModel>(options);
///   Rng rng(seed);
///   model->Pretrain(table, subspaces, /*train_meta=*/true, &rng);
///   // Per user, possibly on its own thread:
///   ExplorationSession session(model);
///   session.StartExploration(user_labels, Variant::kMetaStar, &user_rng);
///   session.RetrieveMatches(table, /*limit=*/-1, &matches);
///
/// Thread-safety: distinct sessions over one model are fully independent —
/// any number may run concurrently (adaptation included) with no external
/// locking; their parallel scans share the process-wide ThreadPool safely.
/// One session is single-writer: the mutating calls (StartExploration,
/// ContinueExploration) must not race with each other or with this session's
/// queries; the const query surface is safe to call concurrently with
/// itself. Results are bit-identical at any thread count and for any number
/// of co-resident sessions — a session computes exactly what a standalone
/// run with the same seeds computes.
///
/// The session shares ownership of its model (an epoch snapshot handle, in
/// registry terms — see serving/model_registry.h), so the model can never
/// die under a live session: when a background refresh publishes a new
/// epoch, sessions pinned to the old one finish on it RCU-style and the old
/// model is reclaimed when the last handle drops. The model must not be
/// mutated (Pretrain/Load) while any session is attached.
///
/// Misuse-error contract: the query surface never aborts on out-of-range or
/// premature calls. Predictions return std::nullopt, and the batch/retrieval
/// entry points return a Status — an LTE_CHECK abort is reachable only
/// through genuine internal invariant violations, not through caller
/// mistakes.
class ExplorationSession {
 public:
  /// Attaches to `model` (shared with any number of other sessions; must be
  /// non-null). The session co-owns the model, pinning the snapshot it was
  /// created against for its whole lifetime. `num_threads` overrides the
  /// model's `options().num_threads` for this session's fan-outs when >= 0;
  /// the default -1 inherits the model's knob. Multi-user hosts typically
  /// run each session with num_threads = 1 and let the sessions themselves
  /// be the parallelism.
  explicit ExplorationSession(std::shared_ptr<const ExplorationModel> model,
                              int64_t num_threads = -1);

  ExplorationSession(const ExplorationSession&) = delete;
  ExplorationSession& operator=(const ExplorationSession&) = delete;

  const ExplorationModel& model() const { return *model_; }

  /// The pinned snapshot handle, e.g. for attaching further sessions to
  /// exactly this session's model epoch.
  const std::shared_ptr<const ExplorationModel>& model_handle() const {
    return model_;
  }

  /// Pool lanes used by this session's fan-outs (adaptation and scans),
  /// after resolving the -1 inherit sentinel against the model's options.
  int64_t num_threads() const;

  /// Online phase: `labels_per_subspace[s][i]` is the 0/1 label of
  /// (*model().InitialTuples(s))[i]. Fast-adapts a task model per subspace
  /// (and builds the FP/FN optimizer for Meta*). Providing labels for only
  /// the first k subspaces explores a k-subspace prefix of the interest
  /// space (the dimensionality sweeps of the paper's Figures 4 and 7(c) use
  /// this); PredictRow then conjoins only those subspaces. Fails if the
  /// model is not pretrained, label shapes mismatch, or a meta variant is
  /// requested without meta-training.
  ///
  /// Subspaces adapt in parallel lanes capped by `num_threads()`; subspace s
  /// trains on its own `Rng::Fork(s)` stream split from one `rng->Fork()`
  /// base, so the adapted models are bit-identical at any thread count (rng
  /// itself advances by exactly one draw).
  Status StartExploration(
      const std::vector<std::vector<double>>& labels_per_subspace,
      Variant variant, Rng* rng);

  /// Number of subspaces adapted by the last StartExploration.
  int64_t active_subspaces() const { return active_count_; }

  /// Active-learning hook (paper Section III-B "Iterative exploration"):
  /// scores `candidates` (raw subspace-`s` points) through the columnar
  /// batch encode + batch forward, then lets the subspace's exploration
  /// policy (default: uncertainty sampling — probability closest to 0.5)
  /// pick the `k` tuples most worth asking the user about next; their
  /// indices land in `*suggested` in selection order (fewer when
  /// `candidates` is smaller than `k`). Stochastic policies draw from the
  /// session-owned rng (SeedRng), advancing it — which is why this is a
  /// mutating call under the single-writer contract, like
  /// ContinueExploration. Fails if StartExploration has not adapted subspace
  /// `s`, `k` is negative, a candidate's width differs from the subspace's,
  /// or the policy is stochastic and the session has no rng.
  Status SuggestTuples(int64_t s,
                       const std::vector<std::vector<double>>& candidates,
                       int64_t k, std::vector<int64_t>* suggested);

  /// Replaces subspace `s`'s exploration policy (DESIGN.md §2f). The
  /// subspace must have been adapted by StartExploration (which installs the
  /// model's `options().suggest_policy` default). Construction seed material
  /// for policies with randomized state (bootstrap bag seeds) is drawn from
  /// the session rng, so a stochastic policy requires SeedRng first
  /// (FailedPrecondition otherwise). The installed policy — parameters and
  /// mutable state — persists with the session (checkpoint format v2).
  Status ConfigureSuggestPolicy(int64_t s,
                                const policy::PolicyOptions& options);

  /// Subspace `s`'s installed policy, or nullptr when `s` is out of range or
  /// not adapted.
  const policy::SuggestPolicy* suggest_policy(int64_t s) const;

  /// Iterative exploration (paper Section III-B, "Other IDE Modules"):
  /// feeds additional labelled tuples of subspace `s` (raw subspace
  /// coordinates) through the same local-update path, continuing from the
  /// current adapted state. Use after StartExploration, e.g. from an active-
  /// learning loop that keeps querying the user.
  Status ContinueExploration(int64_t s,
                             const std::vector<std::vector<double>>& points,
                             const std::vector<double>& labels, Rng* rng);

  /// 1.0 when the adapted models consider the subspace point interesting,
  /// 0.0 when not; std::nullopt when `s` is out of range, subspace `s` has
  /// not been adapted by StartExploration, or `point`'s width differs from
  /// the subspace's.
  std::optional<double> PredictSubspace(int64_t s,
                                        const std::vector<double>& point) const;

  /// Conjunctive UIR membership of a full-width table row (paper Section
  /// III-A: R^u = ∧ R_i): 1.0 / 0.0, or std::nullopt before
  /// StartExploration or when `row` is too narrow for an active subspace.
  /// The row-at-a-time reference the block scans are tested against: it
  /// shares no batching machinery with them, and on the scalar kernel every
  /// scan verdict equals it byte for byte.
  std::optional<double> PredictRow(const std::vector<double>& row) const;

  /// Batch counterpart of PredictRow: evaluates the conjunctive membership
  /// of the given `rows` of `table` (any order, duplicates allowed) and
  /// stores one 0.0/1.0 per index (in input order) in `*predictions`. The
  /// block-scan engine runs the rows in blocks over parallel lanes capped by
  /// `num_threads()`; the output is bit-identical at any thread count. Fails
  /// before StartExploration, when `table` is narrower than an active
  /// subspace's attributes, or on an out-of-range row index.
  Status PredictRows(const data::Table& table, std::span<const int64_t> rows,
                     std::vector<double>* predictions) const;

  /// Final retrieval (paper Section III-B): scans `table` and stores the row
  /// indices the adapted classifiers predict interesting — in ascending row
  /// order — in `*matches`. `limit < 0` scans everything, `limit == 0`
  /// returns an empty result, and `limit > 0` truncates to the first `limit`
  /// matches in row order. The block-scan engine claims blocks in increasing
  /// order over parallel lanes capped by `num_threads()`, concatenates their
  /// matches in block order, and with a positive `limit` stops claiming
  /// blocks once the matches found cover it, so the result is bit-identical
  /// at any thread count. Fails before StartExploration or when `table` is
  /// narrower than an active subspace's attributes.
  Status RetrieveMatches(const data::Table& table, int64_t limit,
                         std::vector<int64_t>* matches) const;

  /// Drops all adapted state (task models, FP/FN optimizers, and the
  /// labeled-tuple history), returning the session to its pre-
  /// StartExploration state. The model and the session rng are untouched.
  void Reset();

  /// Installs (or re-seeds) the session-owned rng. A session whose online
  /// updates draw from this stream — pass `session_rng()` to
  /// StartExploration/ContinueExploration — carries its full random state
  /// through Save/Load, so a restored session continues draw-for-draw where
  /// the saved one stopped (the byte-identical-reconnect contract the
  /// SessionManager churn tests enforce). Optional: callers managing their
  /// own Rng lifetimes can keep passing an external generator, at the price
  /// of persisting it themselves.
  void SeedRng(uint64_t seed);

  /// The session-owned rng, or nullptr when SeedRng has never run (and no
  /// Load restored one). Mutating like StartExploration: do not draw from it
  /// concurrently with this session's other calls.
  Rng* session_rng();

  /// Session persistence: writes this user's full online state — variant,
  /// per-subspace adapted `TaskModel`s, the labeled-tuple history
  /// (StartExploration labels plus every ContinueExploration batch), and the
  /// session rng if seeded — stamped with the owning model's content
  /// fingerprint (`ExplorationModel::fingerprint()`). The Meta* FP/FN
  /// optimizer is not serialized: it is a pure function of the clustering
  /// context and the initial center labels, so Load rebuilds it from the
  /// recorded history. Requires the model to be pretrained; an unstarted
  /// session saves fine (and restores to an unstarted session). Fails with
  /// IoError when any byte — the final flush included — cannot be written.
  Status Save(const std::string& path) const;

  /// Stream counterpart of Save (same format, no file handling).
  Status SaveToStream(std::ostream* out) const;

  /// Restores a session saved by `Save` into this session, replacing all
  /// online state. The file must have been saved against a model whose
  /// fingerprint matches this session's model — a stale session meeting a
  /// refreshed model returns FailedPrecondition (with both fingerprints in
  /// the message), never a crash. Any truncated or corrupted stream returns
  /// an error Status and leaves this session's previous state fully intact:
  /// the decode validates everything into temporaries and commits only on
  /// success. Host knobs (num_threads override, scan path) are not part of
  /// the file and keep their current values.
  Status Load(const std::string& path);

  /// Stream counterpart of Load (same format, no file handling).
  Status LoadFromStream(std::istream* in);

  /// Reads only the header of a session checkpoint file and stores the model
  /// fingerprint it was stamped with — the cheap "would Load even be
  /// possible?" probe checkpoint GC sweeps route on. Fails (leaving
  /// `*fingerprint` untouched) when the file is missing, truncated, or not a
  /// session checkpoint.
  static Status PeekCheckpointFingerprint(const std::string& path,
                                          uint64_t* fingerprint);

  /// FailedPrecondition before StartExploration; InvalidArgument when
  /// `table` is narrower than an active subspace's attribute indices. The
  /// scan entry points call this internally; the coalesced serving front-end
  /// (src/serving/) calls it at submission time so a misuse error surfaces
  /// on the submitting thread instead of inside a shared batch pass.
  Status ValidateServing(const data::Table& table) const;

  /// Low-level hook the block-scan engine scores with: scores
  /// `rows.size()` pre-encoded subspace-`s` tuples and writes the final
  /// 0.0/1.0 verdicts (threshold, then the Meta* FP/FN refinement) into
  /// `out`. `encoded` holds the tuples row-major at the subspace's projected
  /// width — exactly what `TabularEncoder::EncodeGatheredInto` produces —
  /// with `rows[k]` the table row id of tuple k and `columns` the subspace's
  /// attribute column views (read only by the FP/FN refiner's raw-point
  /// gather). Scoring uses this session's scan-path kernel (kColumnarSimd →
  /// the float32 vector kernels, kColumnar → the scalar reference), so a
  /// coalesced pass honors each subscriber's own throughput choice. `out[k]`
  /// is bit-identical to the same-kernel standalone verdict for that tuple —
  /// and, on the scalar kernel, to PredictRow's — because the encode and the
  /// batch forward are both row-independent: it does not matter which other
  /// rows — or which other sessions' rows — share the block (DESIGN.md §2c).
  ///
  /// Preconditions (LTE_CHECKed, not Status-mapped — callers are the block
  /// scan and benchmarks, which validate via ValidateServing first):
  /// StartExploration has adapted subspace `s`, the spans agree in size,
  /// and `encoded` holds exactly `rows.size()` tuples.
  /// Thread-safe under the same contract as the const query surface.
  void ScoreEncodedBlock(int64_t s, std::span<const double> encoded,
                         std::span<const int64_t> rows,
                         const std::vector<data::ColumnView>& columns,
                         TaskModel::BatchScratch* batch_scratch,
                         std::vector<double>* point_scratch,
                         std::span<double> out) const;

  /// Batch kernel behind PredictRows/RetrieveMatches, the coalesced
  /// front-end's scoring of this session, and SuggestTuples. The default
  /// kColumnar scores byte-identically to PredictRow (test-enforced); like
  /// num_threads, it sets speed, never output. kColumnarSimd is the opt-in
  /// throughput mode: deterministic but parity-gated, not byte-identical
  /// (see the ScanPath doc). Single-writer like the mutating calls: do not
  /// flip it concurrently with this session's queries.
  ScanPath scan_path() const { return scan_path_; }
  void set_scan_path(ScanPath path) { scan_path_ = path; }

 private:
  /// One ContinueExploration call's labelled tuples (raw subspace
  /// coordinates), recorded for persistence and audit/replay.
  struct LabeledBatch {
    std::vector<std::vector<double>> points;
    std::vector<double> labels;
  };

  /// Per-subspace online state: the fast-adapted classifier, the Meta*
  /// prediction optimizer, and the labeled-tuple history that produced them
  /// (start_labels over the model's InitialTuples, then one LabeledBatch per
  /// ContinueExploration call — unbounded but tiny: a handful of doubles per
  /// user interaction).
  struct SubspaceSession {
    std::unique_ptr<TaskModel> task_model;
    std::optional<FpFnOptimizer> fpfn;
    /// Acquisition strategy for SuggestTuples; non-null whenever task_model
    /// is (installed by StartExploration, Load, or ConfigureSuggestPolicy).
    std::unique_ptr<policy::SuggestPolicy> policy;
    std::vector<double> start_labels;
    std::vector<LabeledBatch> history;
  };

  /// Buffers for the row-at-a-time predictions: the raw projected point
  /// and its encoding.
  struct Scratch {
    std::vector<double> point;
    std::vector<double> encoded;
  };

  /// Reusable buffers for SuggestTuples: the candidate transpose (so the
  /// columnar batch encode can gather straight from contiguous per-attribute
  /// arrays), the encoded matrix, and the shared probability vector the
  /// policy selects from. Capacities reach a steady state after the first
  /// call, so an active-learning loop allocates nothing per round.
  struct SuggestScratch {
    std::vector<double> transposed;  // width x n, one column per attribute.
    std::vector<data::ColumnView> columns;
    std::vector<int64_t> rows;       // iota(n): candidate i is "row" i.
    std::vector<double> encoded;
    std::vector<double> probs;
    TaskModel::BatchScratch batch;
  };

  /// The batch kernel scan_path() selects.
  nn::BatchKernel batch_kernel() const {
    return scan_path_ == ScanPath::kColumnarSimd ? nn::BatchKernel::kSimd
                                                 : nn::BatchKernel::kScalar;
  }

  /// LoadFromStream body; the wrapper maps any escaping allocation failure
  /// (e.g. a plausible-but-huge corrupted length) to an IoError Status.
  Status LoadFromStreamImpl(std::istream* in);

  /// PredictSubspace body minus the misuse checks (callers validated).
  double PredictSubspaceUnchecked(int64_t s, const std::vector<double>& point,
                                  Scratch* scratch) const;

  std::shared_ptr<const ExplorationModel> model_;
  int64_t num_threads_override_;
  std::vector<SubspaceSession> states_;
  int64_t active_count_ = 0;
  Variant variant_ = Variant::kBasic;
  ScanPath scan_path_ = ScanPath::kColumnar;
  std::optional<Rng> rng_;  // Session-owned stream; persisted when present.
  SuggestScratch suggest_scratch_;  // Mutating-call scratch (single-writer).
};

}  // namespace lte::core

#endif  // LTE_CORE_EXPLORATION_SESSION_H_
