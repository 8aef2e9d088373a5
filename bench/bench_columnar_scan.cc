// Columnar vs row-at-a-time serving throughput.
//
// The columnar block scan (DESIGN.md §2b "Columnar serving path") evaluates
// one subspace at a time over 1024-row blocks gathered straight from the
// table's column storage, carrying the survivors between subspaces, instead
// of materializing every row and looping subspaces per row. This bench
// sweeps variant x threads over a full-table scan plus a bounded retrieval,
// timing three paths — the row-at-a-time reference (`PredictRow` on every
// row, one reused row buffer per lane), the scalar block scan, and the SIMD
// block scan — and reports their throughput and ratios. It verifies the
// contracts as it goes: the scalar block scan must never differ from the
// row reference in a single output byte, and the SIMD throughput mode must
// stay within statistical parity of the scalar verdicts (mismatch fraction
// and match-set F1 within epsilon — only rows whose probability sits
// exactly at the 0.5 threshold boundary may flip).
//
// Expected shape: columnar wins on every variant from the removed per-row
// heap traffic, the row-tiled batch kernels, and the once-per-call folding
// of the per-user-constant halves (the M_cp left half for the memory-mode
// variants; the emb_R head of f_clf's first layer for Basic, which also
// halves that layer's work — making Basic the largest winner). The
// acceptance bar for this path is >= 1.5x single-thread columnar speedup on
// the Meta variant in full (LTE_BENCH_FULL=1) mode. The SIMD mode rides on
// top of the columnar layout (float32 transposed tiles, vector kernels) and
// is reported as a further ratio over the scalar columnar pass.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "bench_common.h"
#include "core/exploration_model.h"
#include "core/exploration_session.h"
#include "eval/report.h"

namespace lte::bench {
namespace {

/// One (variant, threads) configuration of the sweep, all three paths timed.
struct SweepRow {
  std::string variant;
  int64_t threads = 0;
  double row_wall_s = 0.0;
  double col_wall_s = 0.0;
  double simd_wall_s = 0.0;
  double row_rows_per_s = 0.0;
  double col_rows_per_s = 0.0;
  double simd_rows_per_s = 0.0;
  double speedup = 0.0;       // row / columnar (scalar).
  double simd_speedup = 0.0;  // columnar (scalar) / simd.
  bool bit_identical = true;  // row vs columnar scalar.
  double simd_mismatch_fraction = 0.0;
  double simd_match_f1 = 1.0;
  bool simd_parity = true;
};

// The SIMD parity gate thresholds (see DESIGN.md §2b): only rows whose
// probability sits at the 0.5 threshold boundary may flip under float32, a
// measure-zero set in practice.
constexpr double kMaxSimdMismatchFraction = 1e-3;
constexpr double kMinSimdMatchF1 = 1.0 - 1e-3;

double MismatchFraction(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return 1.0;
  if (a.empty()) return 0.0;
  size_t mismatches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) ++mismatches;
  }
  return static_cast<double>(mismatches) / static_cast<double>(a.size());
}

// F1 between two ascending match-id sets: 1.0 means identical sets.
double MatchSetF1(const std::vector<int64_t>& ref,
                  const std::vector<int64_t>& got) {
  if (ref.empty() && got.empty()) return 1.0;
  std::vector<int64_t> both;
  std::set_intersection(ref.begin(), ref.end(), got.begin(), got.end(),
                        std::back_inserter(both));
  const double tp = static_cast<double>(both.size());
  const double denom = static_cast<double>(ref.size() + got.size());
  return denom == 0.0 ? 1.0 : 2.0 * tp / denom;
}

/// The row-at-a-time reference: `PredictRow` on every row of `table`, over
/// contiguous lanes capped by `threads`, each lane refilling one full-width
/// row buffer through the column views.
void PredictRowByRow(const core::ExplorationSession& session,
                     const data::Table& table, int64_t threads,
                     std::vector<double>* out) {
  std::vector<data::ColumnView> views;
  for (int64_t a = 0; a < table.num_columns(); ++a) {
    views.push_back(table.View(a));
  }
  out->assign(static_cast<size_t>(table.num_rows()), 0.0);
  ThreadPool::Shared().ParallelForShards(
      0, table.num_rows(), threads, [&](int64_t lo, int64_t hi) {
        std::vector<double> row(views.size());
        for (int64_t r = lo; r < hi; ++r) {
          for (size_t a = 0; a < views.size(); ++a) row[a] = views[a][r];
          (*out)[static_cast<size_t>(r)] =
              session.PredictRow(row).value_or(0.0);
        }
      });
}

/// The first `limit` row ids whose verdict in `preds` is 1.
std::vector<int64_t> FirstMatches(const std::vector<double>& preds,
                                  int64_t limit) {
  std::vector<int64_t> out;
  for (size_t r = 0; r < preds.size(); ++r) {
    if (static_cast<int64_t>(out.size()) >= limit) break;
    if (preds[r] > 0.5) out.push_back(static_cast<int64_t>(r));
  }
  return out;
}

const char* VariantName(core::Variant v) {
  switch (v) {
    case core::Variant::kBasic:
      return "Basic";
    case core::Variant::kMeta:
      return "Meta";
    case core::Variant::kMetaStar:
      return "Meta*";
  }
  return "?";
}

/// The encode layer alone, informational: every serving block of `table`
/// through `EncodeGatheredInto` for each subspace, in ns per (row,
/// subspace), min over `reps` passes. The scan walls above include it; this
/// names its share.
double EncodeNsPerRow(const core::ExplorationModel& model,
                      const data::Table& table, int64_t reps) {
  std::vector<int64_t> rows(static_cast<size_t>(table.num_rows()));
  std::iota(rows.begin(), rows.end(), int64_t{0});
  std::vector<double> encoded;
  double best_s = 0.0;
  for (int64_t r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int64_t s = 0; s < model.num_subspaces(); ++s) {
      const std::vector<int64_t>& attrs = model.subspace(s)->attribute_indices;
      std::vector<data::ColumnView> columns;
      for (const int64_t a : attrs) columns.push_back(table.View(a));
      for (size_t begin = 0; begin < rows.size();
           begin += static_cast<size_t>(core::kServingBlockRows)) {
        const size_t n = std::min(static_cast<size_t>(core::kServingBlockRows),
                                  rows.size() - begin);
        model.encoder().EncodeGatheredInto(
            columns, attrs, std::span<const int64_t>(rows).subspan(begin, n),
            &encoded);
      }
    }
    const double elapsed = sw.ElapsedSeconds();
    if (r == 0 || elapsed < best_s) best_s = elapsed;
  }
  const double cells = static_cast<double>(rows.size()) *
                       static_cast<double>(model.num_subspaces());
  return cells > 0.0 ? best_s * 1e9 / cells : 0.0;
}

/// Scripted user labels: interesting iff the subspace point's first
/// coordinate falls below the 40% quantile of the initial tuples' firsts —
/// guaranteed mixed, so the conjunctive scan has real survivors to narrow.
std::vector<std::vector<double>> UserLabels(
    const core::ExplorationModel& model) {
  std::vector<std::vector<double>> labels(
      static_cast<size_t>(model.num_subspaces()));
  for (int64_t s = 0; s < model.num_subspaces(); ++s) {
    const auto& tuples = *model.InitialTuples(s);
    std::vector<double> firsts;
    firsts.reserve(tuples.size());
    for (const auto& t : tuples) firsts.push_back(t[0]);
    std::sort(firsts.begin(), firsts.end());
    const double threshold = firsts[(4 * firsts.size()) / 10];
    for (const auto& t : tuples) {
      labels[static_cast<size_t>(s)].push_back(t[0] < threshold ? 1.0 : 0.0);
    }
  }
  return labels;
}

void Run() {
  PrintHeader("Columnar serving path: scan-path x variant x threads sweep");
  std::printf("hardware threads available: %lld\n",
              static_cast<long long>(DefaultThreadCount()));

  const int64_t rows = SmokeMode() ? 6000 : (FullScale() ? 100000 : 30000);
  const int64_t reps = SmokeMode() ? 2 : (FullScale() ? 5 : 3);
  Rng data_rng(11);
  const data::Table sdss = data::MakeSdssLike(rows, &data_rng);

  // One shared model with meta-training on, so the memory-mode variants are
  // servable. The serving path is what's measured, so meta-training itself
  // is kept cheap: few tasks and epochs, but the embedding (and with it the
  // per-row forward cost this bench exists to measure) stays at scale.
  core::ExplorerOptions opt = BaseRunnerOptions(1, ConvexPsi()).explorer;
  opt.num_meta_tasks = SmokeMode() ? 30 : 150;
  opt.trainer.epochs = SmokeMode() ? 1 : 2;
  auto model = std::make_shared<core::ExplorationModel>(opt);
  Rng pretrain_rng(42);
  if (!model->Pretrain(sdss, SdssSubspaces(), /*train_meta=*/true,
                      &pretrain_rng)
           .ok()) {
    std::printf("pretrain failed\n");
    return;
  }

  std::vector<int64_t> all_rows(static_cast<size_t>(sdss.num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  const std::vector<std::vector<double>> labels = UserLabels(*model);

  const std::vector<core::Variant> variants = {
      core::Variant::kBasic, core::Variant::kMeta, core::Variant::kMetaStar};
  const std::vector<int64_t> thread_sweep =
      SmokeMode() ? std::vector<int64_t>{1, 2}
                  : std::vector<int64_t>{1, 2, 4};

  bool all_identical = true;
  bool all_simd_parity = true;
  double max_simd_mismatch = 0.0;
  double meta_single_thread_speedup = 0.0;
  double meta_single_thread_simd_speedup = 0.0;
  std::vector<SweepRow> results;
  eval::TextTable table({"variant x threads", "row (s)", "columnar (s)",
                         "simd (s)", "simd rows/s", "col speedup",
                         "simd x col", "identical", "parity"});
  for (const core::Variant variant : variants) {
    for (const int64_t threads : thread_sweep) {
      core::ExplorationSession session(model, threads);
      Rng rng(1000);
      if (!session.StartExploration(labels, variant, &rng).ok()) {
        std::printf("StartExploration failed for %s\n", VariantName(variant));
        return;
      }

      SweepRow row;
      row.variant = VariantName(variant);
      row.threads = threads;

      // Same adapted session answers all paths, so any output difference
      // below is the scan implementation's fault alone. One untimed warmup
      // per path settles scratch capacities and the page cache; the untimed
      // retrievals feed the byte-identity and parity checks without
      // polluting the scan timing. The parity comparison runs over
      // unbounded retrievals — a bounded scalar prefix and a bounded SIMD
      // prefix could truncate at different rows and understate agreement.
      std::vector<double> row_preds;
      std::vector<double> col_preds;
      std::vector<double> simd_preds;
      std::vector<int64_t> row_matches;
      std::vector<int64_t> col_matches;
      std::vector<int64_t> col_matches_all;
      std::vector<int64_t> simd_matches_all;

      session.set_scan_path(core::ScanPath::kColumnar);
      PredictRowByRow(session, sdss, threads, &row_preds);
      row_matches = FirstMatches(row_preds, /*limit=*/500);
      if (!session.PredictRows(sdss, all_rows, &col_preds).ok()) return;
      if (!session.RetrieveMatches(sdss, /*limit=*/500, &col_matches).ok()) {
        return;
      }
      if (!session.RetrieveMatches(sdss, /*limit=*/-1, &col_matches_all)
               .ok()) {
        return;
      }
      session.set_scan_path(core::ScanPath::kColumnarSimd);
      if (!session.PredictRows(sdss, all_rows, &simd_preds).ok()) return;
      if (!session.RetrieveMatches(sdss, /*limit=*/-1, &simd_matches_all)
               .ok()) {
        return;
      }

      // Interleave single full-table passes and keep the minimum wall per
      // path. Back-to-back rep blocks attribute any machine-state drift
      // (frequency, competing load) to whichever path ran second; the
      // interleaved minimum compares the two paths' best under near-identical
      // conditions.
      row.row_wall_s = 0.0;
      row.col_wall_s = 0.0;
      row.simd_wall_s = 0.0;
      for (int64_t r = 0; r < reps; ++r) {
        Stopwatch row_sw;
        PredictRowByRow(session, sdss, threads, &row_preds);
        const double row_s = row_sw.ElapsedSeconds();
        if (r == 0 || row_s < row.row_wall_s) row.row_wall_s = row_s;

        session.set_scan_path(core::ScanPath::kColumnar);
        Stopwatch col_sw;
        if (!session.PredictRows(sdss, all_rows, &col_preds).ok()) return;
        const double col_s = col_sw.ElapsedSeconds();
        if (r == 0 || col_s < row.col_wall_s) row.col_wall_s = col_s;

        session.set_scan_path(core::ScanPath::kColumnarSimd);
        Stopwatch simd_sw;
        if (!session.PredictRows(sdss, all_rows, &simd_preds).ok()) return;
        const double simd_s = simd_sw.ElapsedSeconds();
        if (r == 0 || simd_s < row.simd_wall_s) row.simd_wall_s = simd_s;
      }

      row.bit_identical = row_preds == col_preds && row_matches == col_matches;
      all_identical = all_identical && row.bit_identical;
      row.simd_mismatch_fraction = MismatchFraction(col_preds, simd_preds);
      row.simd_match_f1 = MatchSetF1(col_matches_all, simd_matches_all);
      row.simd_parity =
          row.simd_mismatch_fraction <= kMaxSimdMismatchFraction &&
          row.simd_match_f1 >= kMinSimdMatchF1;
      all_simd_parity = all_simd_parity && row.simd_parity;
      max_simd_mismatch =
          std::max(max_simd_mismatch, row.simd_mismatch_fraction);
      const double scanned = static_cast<double>(rows);
      row.row_rows_per_s =
          row.row_wall_s > 0.0 ? scanned / row.row_wall_s : 0.0;
      row.col_rows_per_s =
          row.col_wall_s > 0.0 ? scanned / row.col_wall_s : 0.0;
      row.simd_rows_per_s =
          row.simd_wall_s > 0.0 ? scanned / row.simd_wall_s : 0.0;
      row.speedup =
          row.col_wall_s > 0.0 ? row.row_wall_s / row.col_wall_s : 0.0;
      row.simd_speedup =
          row.simd_wall_s > 0.0 ? row.col_wall_s / row.simd_wall_s : 0.0;
      if (variant == core::Variant::kMeta && threads == 1) {
        meta_single_thread_speedup = row.speedup;
        meta_single_thread_simd_speedup = row.simd_speedup;
      }
      table.AddRow(row.variant + " x " + std::to_string(threads),
                   {row.row_wall_s, row.col_wall_s, row.simd_wall_s,
                    row.simd_rows_per_s, row.speedup, row.simd_speedup,
                    row.bit_identical ? 1.0 : 0.0,
                    row.simd_parity ? 1.0 : 0.0},
                   2);
      results.push_back(row);
    }
  }
  table.Print();
  const double encode_ns_per_row = EncodeNsPerRow(*model, sdss, reps);
  std::printf("encode alone: %.1f ns per (row, subspace), min of %lld\n",
              encode_ns_per_row, static_cast<long long>(reps));
  std::printf("all row/columnar pairs byte-identical: %s\n",
              all_identical ? "yes" : "NO — scan-path contract violated");
  std::printf("all simd rows within statistical parity: %s "
              "(max mismatch fraction %.2e, gate <= %.0e)\n",
              all_simd_parity ? "yes" : "NO — parity contract violated",
              max_simd_mismatch, kMaxSimdMismatchFraction);
  std::printf("Meta single-thread columnar speedup: %.2fx (target >= 1.5x at "
              "full scale)\n",
              meta_single_thread_speedup);
  std::printf("Meta single-thread simd-over-columnar speedup: %.2fx\n",
              meta_single_thread_simd_speedup);

  const std::string json_path = JsonOutputPath();
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::printf("could not open %s for writing\n", json_path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"columnar_scan\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n",
                 SmokeMode() ? "smoke" : (FullScale() ? "full" : "scaled"));
    std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(rows));
    std::fprintf(f, "  \"reps\": %lld,\n", static_cast<long long>(reps));
    std::fprintf(f, "  \"hardware_threads\": %lld,\n",
                 static_cast<long long>(DefaultThreadCount()));
    std::fprintf(f, "  \"bit_identical\": %s,\n",
                 all_identical ? "true" : "false");
    std::fprintf(f, "  \"simd_parity\": %s,\n",
                 all_simd_parity ? "true" : "false");
    std::fprintf(f, "  \"simd_max_mismatch_fraction\": %.6e,\n",
                 max_simd_mismatch);
    std::fprintf(f, "  \"meta_single_thread_speedup\": %.3f,\n",
                 meta_single_thread_speedup);
    std::fprintf(f, "  \"meta_single_thread_simd_speedup\": %.3f,\n",
                 meta_single_thread_simd_speedup);
    std::fprintf(f, "  \"encode_ns_per_row\": %.3f,\n", encode_ns_per_row);
    std::fprintf(f, "  \"sweep\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
      const SweepRow& r = results[i];
      std::fprintf(
          f,
          "    {\"variant\": \"%s\", \"threads\": %lld, "
          "\"row_wall_s\": %.6f, \"columnar_wall_s\": %.6f, "
          "\"simd_wall_s\": %.6f, "
          "\"row_rows_per_s\": %.1f, \"columnar_rows_per_s\": %.1f, "
          "\"simd_rows_per_s\": %.1f, "
          "\"speedup\": %.3f, \"simd_speedup\": %.3f, "
          "\"bit_identical\": %s, \"simd_parity\": %s, "
          "\"simd_mismatch_fraction\": %.6e, \"simd_match_f1\": %.6f}%s\n",
          r.variant.c_str(), static_cast<long long>(r.threads), r.row_wall_s,
          r.col_wall_s, r.simd_wall_s, r.row_rows_per_s, r.col_rows_per_s,
          r.simd_rows_per_s, r.speedup, r.simd_speedup,
          r.bit_identical ? "true" : "false",
          r.simd_parity ? "true" : "false", r.simd_mismatch_fraction,
          r.simd_match_f1, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote JSON results to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace lte::bench

int main() {
  lte::bench::Run();
  return 0;
}
