#include "probes.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "core/exploration_session.h"
#include "stats.h"

namespace lte::perfbench {

namespace {

constexpr int64_t kBlocks = 6;
constexpr int64_t kReps = 5;
constexpr int64_t kRounds = 8;
constexpr int64_t kSaveLoads = 5;

}  // namespace

Status ProbeRows(const Fixture& fixture, int64_t first_user,
                 const std::string& work_dir, RowProbes* out) {
  *out = RowProbes{};
  const core::ExplorationModel& model = *fixture.model;
  const data::Table& table = fixture.table;

  // One probe user explored under each variant. The three sessions share
  // the user's labels and rng, so Meta and Meta* adapt the same task model
  // and differ only by the FP/FN refinement. Each labels a few rounds, so
  // its checkpoint carries history like a served user's.
  static constexpr core::Variant kVariants[] = {
      core::Variant::kBasic, core::Variant::kMeta, core::Variant::kMetaStar};
  const User base = MakeUser(fixture, first_user);
  std::vector<std::unique_ptr<core::ExplorationSession>> sessions;
  for (const core::Variant variant : kVariants) {
    User user = base;
    user.variant = variant;
    sessions.push_back(NewSession(fixture, user, /*num_threads=*/1));
    core::ExplorationSession& session = *sessions.back();
    LTE_RETURN_IF_ERROR(session.StartExploration(
        user.start_labels, user.variant, session.session_rng()));
    Rng stream =
        Stream(fixture.seed, kProbeStream, static_cast<uint64_t>(user.id));
    uint64_t digest = 0;
    for (int64_t r = 0; r < kRounds; ++r) {
      LTE_RETURN_IF_ERROR(LabellingRound(fixture, user, r, &stream, &session,
                                         nullptr, -1, &digest));
    }
  }

  // Seed-chosen whole blocks.
  const int64_t num_blocks =
      std::max<int64_t>(1, table.num_rows() / core::kServingBlockRows);
  Rng block_rng = Stream(fixture.seed, kProbeStream, 0);
  const int64_t take = std::min(kBlocks, num_blocks);
  const std::vector<int64_t> blocks =
      block_rng.SampleWithoutReplacement(num_blocks, take);
  std::vector<std::vector<int64_t>> block_rows;
  for (const int64_t b : blocks) {
    std::vector<int64_t> rows(static_cast<size_t>(
        std::min(core::kServingBlockRows,
                 table.num_rows() - b * core::kServingBlockRows)));
    std::iota(rows.begin(), rows.end(), b * core::kServingBlockRows);
    block_rows.push_back(std::move(rows));
  }
  int64_t rows_per_pass = 0;
  for (const auto& rows : block_rows) {
    rows_per_pass += static_cast<int64_t>(rows.size());
  }
  rows_per_pass *= model.num_subspaces();

  // Encode every (block, subspace) once per repetition; keep the encodings
  // for the scoring probe.
  std::vector<std::vector<data::ColumnView>> columns(
      static_cast<size_t>(model.num_subspaces()));
  for (int64_t s = 0; s < model.num_subspaces(); ++s) {
    for (const int64_t a : model.subspace(s)->attribute_indices) {
      columns[static_cast<size_t>(s)].push_back(table.View(a));
    }
  }
  std::vector<std::vector<double>> encoded(block_rows.size() *
                                           columns.size());
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int64_t rep = 0; rep < kReps; ++rep) {
    const int64_t t0 = NowNs();
    for (size_t b = 0; b < block_rows.size(); ++b) {
      for (int64_t s = 0; s < model.num_subspaces(); ++s) {
        model.encoder().EncodeGatheredInto(
            columns[static_cast<size_t>(s)],
            model.subspace(s)->attribute_indices, block_rows[b],
            &encoded[b * columns.size() + static_cast<size_t>(s)]);
      }
    }
    best = std::min(best, NowNs() - t0);
  }
  out->encode_ns_per_row =
      static_cast<double>(best) / static_cast<double>(rows_per_pass);

  // Repetitions are interleaved across the (kernel, variant) pairs, so a
  // burst of host noise cannot land on one pair only; each keeps its best.
  static constexpr core::ScanPath kPaths[] = {core::ScanPath::kColumnar,
                                              core::ScanPath::kColumnarSimd};
  core::TaskModel::BatchScratch batch;
  std::vector<double> point;
  std::vector<double> verdicts(static_cast<size_t>(core::kServingBlockRows));
  int64_t best_score[2][3];
  for (auto& row : best_score) {
    std::fill(std::begin(row), std::end(row),
              std::numeric_limits<int64_t>::max());
  }
  for (int64_t rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < 2; ++k) {
      for (int v = 0; v < 3; ++v) {
        core::ExplorationSession& session = *sessions[static_cast<size_t>(v)];
        const core::ScanPath saved = session.scan_path();
        session.set_scan_path(kPaths[k]);
        const int64_t t0 = NowNs();
        for (size_t b = 0; b < block_rows.size(); ++b) {
          const auto& rows = block_rows[b];
          for (int64_t s = 0; s < model.num_subspaces(); ++s) {
            session.ScoreEncodedBlock(
                s, encoded[b * columns.size() + static_cast<size_t>(s)], rows,
                columns[static_cast<size_t>(s)], &batch, &point,
                std::span<double>(verdicts.data(), rows.size()));
          }
        }
        best_score[k][v] = std::min(best_score[k][v], NowNs() - t0);
        session.set_scan_path(saved);
      }
    }
  }
  for (int k = 0; k < 2; ++k) {
    for (int v = 0; v < 3; ++v) {
      out->score_ns_per_row[k][v] = static_cast<double>(best_score[k][v]) /
                                    static_cast<double>(rows_per_pass);
    }
  }

  // Session persistence: Save and Load each probe session a few times.
  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  for (size_t v = 0; v < sessions.size(); ++v) {
    const std::string path =
        work_dir + "/probe" + std::to_string(v) + ".ltesession";
    for (int64_t i = 0; i < kSaveLoads; ++i) {
      int64_t t0 = NowNs();
      LTE_RETURN_IF_ERROR(sessions[v]->Save(path));
      save_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
      core::ExplorationSession restored(fixture.model, /*num_threads=*/1);
      t0 = NowNs();
      LTE_RETURN_IF_ERROR(restored.Load(path));
      load_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    }
    std::filesystem::remove(path, ec);
  }
  out->save_ms_p50 = Percentile(save_ms, 50.0);
  out->load_ms_p50 = Percentile(load_ms, 50.0);
  return Status::OK();
}

}  // namespace lte::perfbench
