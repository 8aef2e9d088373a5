#ifndef LTE_CORE_QUERY_SYNTHESIS_H_
#define LTE_CORE_QUERY_SYNTHESIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/exploration_session.h"
#include "preprocess/normalizer.h"
#include "tree/decision_tree.h"

namespace lte::core {

/// Options for distilling an adapted exploration into a relational query.
struct QuerySynthesisOptions {
  /// CART used to approximate each subspace's predicted region with
  /// axis-aligned boxes.
  tree::DecisionTreeOptions tree;
  /// Keep at most this many boxes per subspace (highest-support first).
  int64_t max_boxes_per_subspace = 8;
};

/// One axis-aligned box over a subspace's attributes: the building block of
/// the synthesized selection predicate.
struct BoxPredicate {
  /// Bounds per subspace attribute, clipped to the observed data range.
  std::vector<double> lower;
  std::vector<double> upper;
};

/// A disjunction of boxes for one subspace.
struct SubspaceClause {
  /// Attribute indices into the full-width row.
  std::vector<int64_t> attributes;
  std::vector<BoxPredicate> boxes;
  /// True when the subspace predicted everything positive (clause is TRUE).
  bool always_true = false;
};

/// The synthesized query: a conjunction of per-subspace clauses, mirroring
/// the UIR structure R^u = ∧_i R_i with each R_i a union of boxes.
struct SynthesizedQuery {
  std::vector<SubspaceClause> clauses;

  /// Evaluates the predicate on a full-width row (same coordinate space the
  /// session predicts in, i.e. normalized).
  bool Matches(const std::vector<double>& row) const;

  /// Renders `SELECT * FROM <table> WHERE ...`. `attribute_names` maps
  /// attribute indices to column names. When `denormalizer` is non-null the
  /// bounds are mapped back to raw attribute values (the session operates
  /// on normalized data, but the user's SQL should not).
  std::string ToSql(const std::string& table_name,
                    const std::vector<std::string>& attribute_names,
                    const preprocess::MinMaxNormalizer* denormalizer =
                        nullptr) const;
};

/// Distills the current adapted exploration of `session` into a
/// `SynthesizedQuery` (paper Section III-B, "Final retrieval": infer query
/// regions from the trained classifiers and transform them to query
/// filters). Per subspace it labels the clustering sample points with the
/// adapted classifier, fits a CART to those labels, and reads the positive
/// leaves off as boxes. Fails unless StartExploration has run.
Status SynthesizeQuery(const ExplorationSession& session,
                       const QuerySynthesisOptions& options,
                       SynthesizedQuery* query);

}  // namespace lte::core

#endif  // LTE_CORE_QUERY_SYNTHESIS_H_
