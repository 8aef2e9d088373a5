#ifndef LTE_PERFBENCH_PROBES_H_
#define LTE_PERFBENCH_PROBES_H_

// Per-row layer probes for the traced run: the block encode and the batch
// scoring of each (kernel, variant) pair, timed directly through the same
// public hooks the coalesced scheduler drives, plus session Save/Load.

#include <cstdint>
#include <string>

#include "common/status.h"
#include "fixture.h"

namespace lte::perfbench {

struct RowProbes {
  double encode_ns_per_row = 0.0;
  /// [kernel: 0 scalar, 1 simd][variant: 0 basic, 1 meta, 2 meta_star].
  double score_ns_per_row[2][3] = {};
  double save_ms_p50 = 0.0;
  double load_ms_p50 = 0.0;
};

/// Adapts probe user `first_user` under each variant, then times
/// `TabularEncoder::EncodeGatheredInto` and
/// `ExplorationSession::ScoreEncodedBlock` over seed-chosen 1024-row blocks
/// of the fixture's table (best of a few repetitions), and Save/Load of the
/// probe sessions to files under `work_dir`.
Status ProbeRows(const Fixture& fixture, int64_t first_user,
                 const std::string& work_dir, RowProbes* out);

}  // namespace lte::perfbench

#endif  // LTE_PERFBENCH_PROBES_H_
