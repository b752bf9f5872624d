// Fault campaign: rank the conductors of a voltage-stacked PDN by EM
// failure probability, then knock them out one at a time (N-1) and with a
// seeded Monte Carlo N-k campaign, and report what survives.
//
//   $ ./fault_campaign [layers] [grid]
//
// Every case runs through the non-throwing la::Solver (CG, then dense LU)
// -- damaged networks never throw; they come back Survivable, Degraded, or
// Infeasible with a structured diagnostic (see docs/fault_model.md).
#include <cstdlib>
#include <iostream>

#include "common/table.h"
#include "core/contingency.h"
#include "power/workload.h"

namespace {

const char* outcome_name(vstack::core::CaseOutcome outcome) {
  using vstack::core::CaseOutcome;
  switch (outcome) {
    case CaseOutcome::Survivable: return "survivable";
    case CaseOutcome::Degraded:   return "DEGRADED";
    case CaseOutcome::Infeasible: return "INFEASIBLE";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vstack;

  const std::size_t layers =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 4;
  const std::size_t grid =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 16;

  const auto ctx = core::StudyContext::paper_defaults();
  auto cfg = core::make_stacked(ctx, layers, pdn::TsvConfig::few(),
                                /*converters_per_core=*/8);
  cfg.grid_nx = cfg.grid_ny = grid;

  const auto acts = power::interleaved_layer_activities(layers, 0.5);
  const core::ContingencyEngine engine(ctx, cfg);

  // --- 1. Deterministic N-1 over the top EM risks. ----------------------
  core::ContingencyOptions opts;
  opts.top_k = 6;
  const auto n1 = engine.run_n_minus_1(acts, opts);

  std::cout << layers << "-layer voltage-stacked PDN, " << grid << "x" << grid
            << " grid; baseline noise "
            << TextTable::percent(n1.base_max_node_deviation_fraction, 2)
            << "\n\nN-1 sweep over the top " << opts.top_k
            << " EM risks:\n";
  TextTable t({"Case", "P(fail)", "Outcome", "Noise", "Attempts"});
  for (std::size_t k = 0; k < n1.cases.size(); ++k) {
    const auto& c = n1.cases[k];
    t.add_row({c.label, TextTable::num(n1.ranking[k].failure_probability, 4),
               outcome_name(c.outcome),
               c.solved ? TextTable::percent(c.max_node_deviation_fraction, 2)
                        : "-",
               std::to_string(c.solve_attempts)});
  }
  t.print(std::cout);

  // --- 2. Seeded Monte Carlo N-k with converter + leakage faults. -------
  core::ContingencyOptions mc;
  mc.trials = 12;
  mc.faults_per_trial = 2;
  mc.converter_faults_per_trial = 1;
  mc.leakage_faults_per_trial = 1;
  mc.seed = 2015;  // DAC'15 -- any seed reproduces bit-identically
  const auto nk = engine.run_monte_carlo(acts, mc);

  std::cout << "\nMonte Carlo N-k (" << mc.trials << " trials, seed "
            << mc.seed << "):\n";
  TextTable m({"Trial", "Faults", "Outcome", "Noise"});
  for (const auto& c : nk.cases) {
    m.add_row({c.label, std::to_string(c.faults.size()),
               outcome_name(c.outcome),
               c.solved ? TextTable::percent(c.max_node_deviation_fraction, 2)
                        : "-"});
  }
  m.print(std::cout);

  std::cout << "\nsummary: " << nk.survivable << " survivable, "
            << nk.degraded << " degraded, " << nk.infeasible
            << " infeasible; worst post-fault noise "
            << TextTable::percent(nk.worst_post_fault_deviation, 2) << "\n";
  return 0;
}
