// Quickstart: the full learn-to-explore loop on a small synthetic dataset.
//
//   1. Build a table and decompose its attributes into 2-D subspaces.
//   2. Offline: pre-train an ExplorationModel from automatically generated
//      meta-tasks (no user labels involved).
//   3. Online: attach an ExplorationSession and "label" the initial tuples
//      the framework selects (here a scripted user who likes the lower-left
//      corner of every subspace).
//   4. Fast-adapt and query the predicted user-interest region with the
//      batch prediction surface.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "core/lte.h"
#include "data/synthetic.h"
#include "preprocess/normalizer.h"

int main() {
  lte::Rng rng(7);

  // --- Data: 4 attributes, mixture-of-blobs distribution, normalized. ---
  lte::data::Table raw = lte::data::MakeBlobs(/*num_rows=*/8000,
                                              /*num_attributes=*/4,
                                              /*num_blobs=*/5, &rng);
  lte::preprocess::MinMaxNormalizer normalizer;
  if (!normalizer.Fit(raw).ok()) return 1;
  lte::data::Table table(raw.AttributeNames());
  for (int64_t r = 0; r < raw.num_rows(); ++r) {
    if (!table.AppendRow(normalizer.TransformRow(raw.Row(r))).ok()) return 1;
  }

  // --- Subspace decomposition (random 2-D split, as in the paper). ---
  const std::vector<lte::data::Subspace> subspaces =
      lte::data::DecomposeSpace({0, 1, 2, 3}, /*subspace_dim=*/2, &rng);
  std::printf("decomposed 4 attributes into %zu subspaces\n",
              subspaces.size());

  // --- Offline phase: meta-task generation + meta-training. The model is
  // user-independent; in a serving deployment it would be trained once and
  // shared (by reference) across every user's session. ---
  lte::core::ExplorerOptions options;
  options.task_gen.k_u = 50;
  options.task_gen.k_s = 25;  // Budget B = k_s + delta = 30 labels/subspace.
  options.task_gen.k_q = 50;
  options.num_meta_tasks = 150;
  options.learner.embedding_size = 24;
  options.learner.clf_hidden = {24};
  options.online_steps = 40;
  options.online_lr = 0.2;

  auto model = std::make_shared<lte::core::ExplorationModel>(options);
  lte::Status status =
      model->Pretrain(table, subspaces, /*train_meta=*/true, &rng);
  if (!status.ok()) {
    std::printf("pretrain failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("pre-training done: task generation %.2fs, meta-training %.2fs\n",
              model->task_generation_seconds(), model->meta_training_seconds());

  // --- Online phase: one user's session; the scripted user labels the
  // initial tuples. (A multi-user host attaches one session per user to
  // the same model.) ---
  // Interest: per subspace, points whose first coordinate is below that
  // attribute's median (a half-plane per subspace, conjunctive across
  // subspaces — roughly a quarter of the data overall).
  std::vector<double> medians(subspaces.size());
  for (size_t s = 0; s < subspaces.size(); ++s) {
    std::vector<double> values =
        table.column(subspaces[s].attribute_indices[0]).values();
    std::nth_element(values.begin(), values.begin() + values.size() / 2,
                     values.end());
    medians[s] = values[values.size() / 2];
  }
  const auto user_likes = [&](size_t s, const std::vector<double>& point) {
    return point[0] < medians[s];
  };
  std::vector<std::vector<double>> labels(subspaces.size());
  for (size_t s = 0; s < subspaces.size(); ++s) {
    for (const auto& tuple : *model->InitialTuples(static_cast<int64_t>(s))) {
      labels[s].push_back(user_likes(s, tuple) ? 1.0 : 0.0);
    }
    std::printf("subspace %zu: user labelled %zu initial tuples\n", s,
                labels[s].size());
  }

  lte::core::ExplorationSession session(model);
  status = session.StartExploration(labels, lte::core::Variant::kMetaStar,
                                    &rng);
  if (!status.ok()) {
    std::printf("exploration failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // --- Retrieve: batch-predict the whole table (parallel chunked scan). ---
  std::vector<int64_t> all_rows(static_cast<size_t>(table.num_rows()));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  std::vector<double> predictions;
  status = session.PredictRows(table, all_rows, &predictions);
  if (!status.ok()) {
    std::printf("prediction failed: %s\n", status.ToString().c_str());
    return 1;
  }

  int64_t predicted = 0;
  int64_t actually = 0;
  int64_t correct_positive = 0;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    const std::vector<double> row = table.Row(r);
    bool truth = true;
    for (size_t s = 0; s < subspaces.size(); ++s) {
      std::vector<double> p;
      for (int64_t a : subspaces[s].attribute_indices) {
        p.push_back(row[static_cast<size_t>(a)]);
      }
      truth = truth && user_likes(s, p);
    }
    const bool pred = predictions[static_cast<size_t>(r)] > 0.5;
    predicted += pred ? 1 : 0;
    actually += truth ? 1 : 0;
    correct_positive += (pred && truth) ? 1 : 0;
  }
  std::printf("predicted %lld interesting tuples (%lld truly interesting, "
              "%lld overlap)\n",
              static_cast<long long>(predicted),
              static_cast<long long>(actually),
              static_cast<long long>(correct_positive));
  return 0;
}
