// Contingency engine: EM-risk ranking, deterministic N-1 sweeps, seeded
// Monte Carlo N-k campaigns, the shared engine's solve budget and ordered
// commit, and the acceptance property -- an N-1 sweep over EVERY TSV of the
// default 4-layer stacked configuration completes with each case either
// converged (with an attempt trail) or structurally diagnosed, never an
// exception or a NaN.
#include "core/contingency.h"

#include <gtest/gtest.h>

#include <cmath>

#include "power/workload.h"
#include "telemetry/telemetry.h"

namespace vstack::core {
namespace {

const StudyContext& ctx() {
  static const StudyContext c = StudyContext::paper_defaults();
  return c;
}

pdn::StackupConfig stacked4(std::size_t grid = 12) {
  auto cfg = make_stacked(ctx(), 4, pdn::TsvConfig::few(), 8);
  cfg.grid_nx = cfg.grid_ny = grid;
  return cfg;
}

std::vector<double> acts4() {
  return power::interleaved_layer_activities(4, 0.5);
}

bool is_tsv_kind(pdn::ConductorKind kind) {
  return kind == pdn::ConductorKind::RecyclingTsv ||
         kind == pdn::ConductorKind::ThroughVia;
}

TEST(ContingencyRankingTest, SortedProbabilitiesOverCandidateKinds) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.top_k = 0;  // rank the baseline, evaluate no case
  const auto report = engine.run_n_minus_1(acts4(), opts);
  EXPECT_TRUE(report.cases.empty());
  const auto& ranking = report.ranking;
  ASSERT_FALSE(ranking.empty());
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    const auto& e = ranking[i];
    EXPECT_GE(e.failure_probability, 0.0);
    EXPECT_LE(e.failure_probability, 1.0);
    EXPECT_GE(e.unit_current, 0.0);
    EXPECT_GT(e.count, 0u);
    // Grid straps, package lumps and leakage groups are not EM candidates.
    EXPECT_NE(e.kind, pdn::ConductorKind::GridStrap);
    EXPECT_NE(e.kind, pdn::ConductorKind::Leakage);
    if (i > 0) {
      EXPECT_LE(e.failure_probability, ranking[i - 1].failure_probability);
    }
  }
  // The auto mission time is the array's P = 0.5 crossing, so the worst
  // conductor must carry a substantial failure probability.
  EXPECT_GT(ranking.front().failure_probability, 0.05);
}

TEST(ContingencyN1Test, TopKSweepClassifiesEveryCase) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.top_k = 5;
  const auto report = engine.run_n_minus_1(acts4(), opts);
  ASSERT_EQ(report.cases.size(), 5u);
  EXPECT_EQ(report.survivable + report.degraded + report.infeasible, 5u);
  EXPECT_GT(report.base_max_node_deviation_fraction, 0.0);
  EXPECT_GT(report.base_tsv_current_sum, 0.0);
  for (const auto& c : report.cases) {
    EXPECT_FALSE(c.label.empty());
    EXPECT_EQ(c.faults.size(), 1u);
    if (c.solved) {
      EXPECT_TRUE(std::isfinite(c.max_node_deviation_fraction));
      EXPECT_TRUE(std::isfinite(c.tsv_current_sum));
      // An opened conductor can only make the noise worse (or leave it,
      // to iterative-solver tolerance).
      EXPECT_GE(c.max_node_deviation_fraction,
                report.base_max_node_deviation_fraction - 1e-6);
    } else {
      EXPECT_FALSE(c.diagnostic.empty());
    }
  }
}

TEST(ContingencyN1Test, TinyNoiseBudgetDegradesSurvivors) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.top_k = 3;
  opts.noise_budget_fraction = 1e-9;  // nothing passes this
  const auto report = engine.run_n_minus_1(acts4(), opts);
  EXPECT_EQ(report.survivable, 0u);
  EXPECT_EQ(report.degraded + report.infeasible, report.cases.size());
}

TEST(ContingencyCaseTest, StrandedTopRailIsInfeasible) {
  // IdealRails converters only pin intermediate rails; the top rail hangs
  // off the through-vias alone.  Opening every one strands layer 3's loads.
  const auto cfg = stacked4();
  const ContingencyEngine engine(ctx(), cfg);
  const pdn::PdnModel probe(cfg, ctx().layer_floorplan);
  pdn::FaultSet faults;
  for (std::size_t i = 0; i < probe.network().conductors().size(); ++i) {
    if (probe.network().conductors()[i].kind ==
        pdn::ConductorKind::ThroughVia) {
      faults.open_conductor(i);
    }
  }
  ASSERT_FALSE(faults.empty());

  const auto result = engine.evaluate_case(faults, acts4());
  EXPECT_EQ(result.outcome, CaseOutcome::Infeasible);
  EXPECT_GT(result.floating_islands, 0u);
  EXPECT_FALSE(result.diagnostic.empty());
}

TEST(ContingencyMonteCarloTest, SeededCampaignIsBitReproducible) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.trials = 6;
  opts.faults_per_trial = 2;
  opts.converter_faults_per_trial = 1;
  opts.leakage_faults_per_trial = 1;
  opts.seed = 2015;
  const auto a = engine.run_monte_carlo(acts4(), opts);
  const auto b = engine.run_monte_carlo(acts4(), opts);

  ASSERT_EQ(a.cases.size(), 6u);
  ASSERT_EQ(b.cases.size(), 6u);
  EXPECT_EQ(a.survivable, b.survivable);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.infeasible, b.infeasible);
  EXPECT_DOUBLE_EQ(a.worst_post_fault_deviation,
                   b.worst_post_fault_deviation);
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    const auto& fa = a.cases[i].faults.faults();
    const auto& fb = b.cases[i].faults.faults();
    ASSERT_EQ(fa.size(), fb.size());
    for (std::size_t j = 0; j < fa.size(); ++j) {
      EXPECT_EQ(fa[j].kind, fb[j].kind);
      EXPECT_EQ(fa[j].index, fb[j].index);
      EXPECT_DOUBLE_EQ(fa[j].severity, fb[j].severity);
    }
    EXPECT_EQ(a.cases[i].outcome, b.cases[i].outcome);
    EXPECT_DOUBLE_EQ(a.cases[i].max_node_deviation_fraction,
                     b.cases[i].max_node_deviation_fraction);
  }

  // A different seed must sample a different campaign.
  ContingencyOptions other = opts;
  other.seed = 7;
  const auto c = engine.run_monte_carlo(acts4(), other);
  bool any_difference = false;
  for (std::size_t i = 0; i < c.cases.size() && !any_difference; ++i) {
    const auto& fa = a.cases[i].faults.faults();
    const auto& fc = c.cases[i].faults.faults();
    if (fa.size() != fc.size()) {
      any_difference = true;
      break;
    }
    for (std::size_t j = 0; j < fa.size(); ++j) {
      if (fa[j].kind != fc[j].kind || fa[j].index != fc[j].index) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

void expect_reports_identical(const ContingencyReport& a,
                              const ContingencyReport& b) {
  ASSERT_EQ(a.cases.size(), b.cases.size());
  EXPECT_EQ(a.survivable, b.survivable);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.infeasible, b.infeasible);
  // Bitwise: both runs solve identical systems in identical order.
  EXPECT_EQ(a.worst_post_fault_deviation, b.worst_post_fault_deviation);
  EXPECT_EQ(a.base_max_node_deviation_fraction,
            b.base_max_node_deviation_fraction);
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_EQ(a.cases[i].label, b.cases[i].label);
    EXPECT_EQ(a.cases[i].outcome, b.cases[i].outcome);
    EXPECT_EQ(a.cases[i].solved, b.cases[i].solved);
    EXPECT_EQ(a.cases[i].max_node_deviation_fraction,
              b.cases[i].max_node_deviation_fraction) << "case " << i;
    EXPECT_EQ(a.cases[i].tsv_current_sum, b.cases[i].tsv_current_sum)
        << "case " << i;
  }
}

// Worker-pool determinism: the parallel sweeps commit cases in plan order,
// so jobs=4 must be bitwise identical to jobs=1 (same doubles, not just
// close ones).
TEST(ContingencyParallelTest, MonteCarloParallelMatchesSerialBitwise) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.trials = 6;
  opts.faults_per_trial = 2;
  opts.converter_faults_per_trial = 1;
  opts.leakage_faults_per_trial = 1;
  opts.seed = 2015;

  const auto serial = engine.run_monte_carlo(acts4(), opts);
  ContingencyOptions par = opts;
  par.execution.jobs = 4;
  const auto parallel = engine.run_monte_carlo(acts4(), par);
  expect_reports_identical(serial, parallel);
}

TEST(ContingencyParallelTest, N1ParallelMatchesSerialBitwise) {
  const ContingencyEngine engine(ctx(), stacked4());
  ContingencyOptions opts;
  opts.top_k = 6;

  const auto serial = engine.run_n_minus_1(acts4(), opts);
  ContingencyOptions par = opts;
  par.execution.jobs = 4;
  const auto parallel = engine.run_n_minus_1(acts4(), par);
  expect_reports_identical(serial, parallel);
}

// Each campaign solves the intact stack once (baseline and ranking from the
// same solve), then once per case.
TEST(ContingencySolveBudgetTest, BaselineSolvesOncePerCampaign) {
  const ContingencyEngine engine(ctx(), stacked4());
  const auto dc_solves = [] {
    return telemetry::snapshot().counter_value("pdn.dc.solves");
  };
#if VSTACK_TELEMETRY_ENABLED
  const double per_case = 1.0;
#else
  const double per_case = 0.0;
#endif
  ContingencyOptions n1;
  n1.top_k = 5;
  double before = dc_solves();
  ASSERT_EQ(engine.run_n_minus_1(acts4(), n1).cases.size(), 5u);
  EXPECT_EQ(dc_solves() - before, 6.0 * per_case);

  ContingencyOptions mc;
  mc.trials = 6;
  before = dc_solves();
  ASSERT_EQ(engine.run_monte_carlo(acts4(), mc).cases.size(), 6u);
  EXPECT_EQ(dc_solves() - before, 7.0 * per_case);

  before = dc_solves();
  ASSERT_EQ(engine.plan_monte_carlo(acts4(), mc).size(), 6u);
  EXPECT_EQ(dc_solves() - before, 1.0 * per_case);
}

// A target with eight ranked candidates whose fourth case (rank 3) is cut
// off by the deadline, the way a real solve reports it: the solve fails
// while the token has fired.
class TruncatingTarget final : public FaultTarget {
 public:
  std::optional<Baseline> baseline() const override {
    Baseline base;
    for (std::size_t i = 0; i < 8; ++i) {
      EmRiskEntry entry;
      entry.conductor_index = i;
      entry.count = 1;
      entry.failure_probability = 1.0 - 0.1 * static_cast<double>(i);
      base.report.ranking.push_back(entry);
    }
    return base;
  }

  ContingencyCase solve(const pdn::FaultSet& faults,
                        const Deadline& deadline) const override {
    ContingencyCase one;
    if (faults.faults().front().index == 3) {
      deadline.cancel();
      return one;
    }
    one.solved = true;
    one.max_node_deviation_fraction = 0.01;
    return one;
  }

  std::string open_label(std::size_t rank,
                         const EmRiskEntry&) const override {
    return "case" + std::to_string(rank);
  }
};

TEST(ContingencyEngineTest, TruncatedCaseEndsTheCommittedPrefix) {
  for (const std::size_t jobs : {1u, 4u}) {
    CampaignShape shape;
    shape.exhaustive = true;
    shape.execution.jobs = jobs;
    shape.execution.deadline = Deadline::cancellable();
    const ContingencyReport report =
        run_n_minus_1(TruncatingTarget(), shape);
    EXPECT_EQ(report.planned, 8u) << "jobs=" << jobs;
    EXPECT_TRUE(report.cancelled) << "jobs=" << jobs;
    ASSERT_EQ(report.cases.size(), 3u) << "jobs=" << jobs;
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(report.cases[i].label, "case" + std::to_string(i));
      EXPECT_EQ(report.cases[i].outcome, CaseOutcome::Survivable);
    }
    EXPECT_EQ(report.survivable, 3u);
    EXPECT_EQ(report.degraded + report.infeasible, 0u);
  }
}

// The acceptance property: N-1 over EVERY TSV (recycling TSVs and
// through-via chains) of the default 4-layer stacked configuration.  Each
// case must come back classified -- converged with an attempt trail, or a
// structured diagnostic -- and all reported metrics must be finite.
TEST(ContingencyAcceptanceTest, FullTsvNMinus1SweepNeverThrowsOrNans) {
  const auto cfg = stacked4();
  const ContingencyEngine engine(ctx(), cfg);
  const pdn::PdnModel probe(cfg, ctx().layer_floorplan);
  const auto& groups = probe.network().conductors();
  const auto activities = acts4();

  std::size_t tsv_cases = 0;
  std::size_t survivable = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (!is_tsv_kind(groups[i].kind)) continue;
    ++tsv_cases;
    pdn::FaultSet faults;
    faults.open_conductor(i);
    const auto result = engine.evaluate_case(faults, activities);

    ASSERT_GE(result.solve_attempts, 1u) << result.label;
    if (result.solved) {
      EXPECT_TRUE(std::isfinite(result.max_node_deviation_fraction))
          << result.label;
      EXPECT_TRUE(std::isfinite(result.max_ir_drop_fraction)) << result.label;
      EXPECT_TRUE(std::isfinite(result.max_converter_current))
          << result.label;
      EXPECT_TRUE(std::isfinite(result.tsv_current_sum)) << result.label;
      if (result.outcome == CaseOutcome::Survivable) ++survivable;
    } else {
      EXPECT_EQ(result.outcome, CaseOutcome::Infeasible) << result.label;
      EXPECT_FALSE(result.diagnostic.empty()) << result.label;
    }
  }
  // The default stack has hundreds of TSV groups and healthy redundancy:
  // the sweep must actually cover them, and most single opens must survive.
  EXPECT_GT(tsv_cases, 100u);
  EXPECT_GT(survivable, tsv_cases / 2);
}

}  // namespace
}  // namespace vstack::core
