// Sweep drivers that regenerate each of the paper's result figures.
// The bench binaries print these rows; the integration tests assert the
// paper's qualitative claims on them.
//
// SweepRunner is the one entry point: it binds the study context and the
// sweep shapes (its defaults are the paper's) once, and each figure is a
// method.  Every figure whose points are independent (5a, 5b, 6, 8) fans
// its work out on the shared worker pool (core/task_pool.h) under
// SweepOptions::execution: one task per row, except Fig. 6, whose tasks
// are its three regular references and one column per converter count.
// Results land in sweep order either way, so parallel output is
// bit-identical to serial.  Fig. 7 is a single seeded sampling campaign and
// always runs serially.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/study.h"
#include "core/task_pool.h"
#include "power/workload.h"

namespace vstack::core {

/// Fig. 5a: normalized TSV EM-free MTTF vs layer count.
struct Fig5aRow {
  std::size_t layers = 0;
  double reg_dense = 0.0;
  double reg_sparse = 0.0;
  double reg_few = 0.0;
  double vs_few = 0.0;  // all normalized to the 2-layer V-S PDN
};

/// Fig. 5b: normalized C4 EM-free MTTF vs layer count.
struct Fig5bRow {
  std::size_t layers = 0;
  double reg_25 = 0.0;
  double reg_50 = 0.0;
  double reg_75 = 0.0;
  double reg_100 = 0.0;
  double vs = 0.0;  // normalized to the 2-layer V-S PDN
};

/// Fig. 6: maximum on-chip voltage noise vs workload imbalance, 8-layer
/// stack.  Entries where the converter current limit is violated are
/// reported as std::nullopt (the paper skips those points).  Each converter
/// count's model is built once and solves every imbalance cold, so every
/// cell has the bits of a fresh model per point.  A row needs every
/// column: a fired deadline returns no rows.
struct Fig6Row {
  double imbalance = 0.0;
  std::vector<std::optional<double>> vs_noise;  // one per converter count
};
struct Fig6Result {
  std::vector<std::size_t> converter_counts;
  std::vector<Fig6Row> rows;
  // Regular-PDN reference lines (worst case: all layers active).
  double reg_dense = 0.0;
  double reg_sparse = 0.0;
  double reg_few = 0.0;
};

/// Fig. 8: system power efficiency vs imbalance.
struct Fig8Row {
  double imbalance = 0.0;
  std::vector<std::optional<double>> vs_efficiency;  // per converter count
  double regular_sc = 0.0;  // converters provide all power
};
struct Fig8Result {
  std::vector<std::size_t> converter_counts;
  std::vector<Fig8Row> rows;
};

/// Shared configuration for a SweepRunner; mirrors the ctx+config shape of
/// CampaignRunner / ContingencyEngine.
struct SweepOptions {
  /// Scheduling for every figure (see the header comment for the
  /// determinism guarantee).  A fired deadline keeps the committed row
  /// prefix of Figs. 5a, 5b and 8 and returns no Fig. 6 rows.
  ExecutionPolicy execution;

  /// Layer axis for the Fig. 5 lifetime plots.
  std::vector<std::size_t> layer_counts{2, 4, 6, 8};

  /// Stack height and converter axis for the Fig. 6/8 noise + efficiency
  /// maps.
  std::size_t layers = 8;
  std::vector<std::size_t> converter_counts{2, 4, 6, 8};

  /// Fig. 7 sampling shape.
  std::size_t fig7_samples = 1000;
  std::uint64_t fig7_seed = 2015;
};

/// The figure drivers: bind the study context and the sweep shapes once,
/// then call each figure.  The context must outlive the runner (same
/// borrowing rule as CampaignRunner).
class SweepRunner {
 public:
  SweepRunner(const StudyContext& ctx, SweepOptions options);

  const SweepOptions& options() const { return options_; }

  /// Fig. 5a over options().layer_counts.
  std::vector<Fig5aRow> fig5a() const;
  /// Fig. 5b over options().layer_counts.
  std::vector<Fig5bRow> fig5b() const;
  /// Fig. 6 at options().layers over options().converter_counts.
  Fig6Result fig6(const std::vector<double>& imbalances) const;
  /// Fig. 7: per-application power distributions (PARSEC campaign) of
  /// options().fig7_samples samples seeded with options().fig7_seed.
  std::vector<power::ApplicationPowerSummary> fig7() const;
  /// Fig. 8 at options().layers over options().converter_counts.
  Fig8Result fig8(const std::vector<double>& imbalances) const;

 private:
  const StudyContext& ctx_;
  SweepOptions options_;
};

}  // namespace vstack::core
