#include "pgio/grid.h"

#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/error.h"
#include "la/sparse.h"
#include "telemetry/telemetry.h"

namespace vstack::pgio {

namespace {

const telemetry::Counter c_solve_calls("pgio.solve.calls");
const telemetry::Counter c_solve_failures("pgio.solve.failures");

std::string at_line(const PgNetlist& netlist, std::uint32_t line) {
  return netlist.source + ":" + std::to_string(line);
}

}  // namespace

/// Epoch-keyed solve system (pdn/solver.h's cached-system pattern): the
/// matrix is built first and the Solver bound only once its address is
/// final.  A backend change rebuilds just the Solver; a topology-epoch bump
/// rebuilds everything.
struct ImportedGrid::Cached {
  std::size_t epoch = 0;
  la::CsrMatrix matrix;
  la::Vector fixed_rhs;  // Dirichlet terms folded in from fixed slots
  la::Vector load_rhs;   // unit-scale load injections
  const la::Backend* backend = nullptr;
  std::unique_ptr<la::Solver> solver;
};

ImportedGrid::ImportedGrid(const PgNetlist& netlist) : netlist_(&netlist) {
  VS_SPAN("pgio.grid.build");
  const std::size_t n = netlist.nodes.size();
  const std::size_t ground = n;  // union-find index of the ground net

  parent_.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    parent_[i] = static_cast<std::uint32_t>(i);
  }
  const auto uf_index = [&](std::uint32_t node) -> std::size_t {
    return node == kGroundNode ? ground : node;
  };
  for (const auto& s : netlist.shorts) {
    std::size_t ra = find_root(uf_index(s.a));
    std::size_t rb = find_root(uf_index(s.b));
    if (ra == rb) continue;
    // Ground dominates as representative; otherwise the smaller node id.
    if (ra == ground || (rb != ground && ra < rb)) std::swap(ra, rb);
    parent_[ra] = static_cast<std::uint32_t>(rb);
  }

  // Pad potentials per collapsed root, rejecting post-collapse conflicts
  // the reader cannot see (it checks per-name, not per-net).
  struct PadAt {
    double volts;
    std::uint32_t node;
    std::uint32_t line;
  };
  std::unordered_map<std::size_t, PadAt> pad_at;
  for (const auto& pad : netlist.pads) {
    const std::size_t root = find_root(pad.a);
    if (root == ground) {
      VS_FAIL(at_line(netlist, pad.line) + ": pad node '" +
              std::string(netlist.nodes.name(pad.a)) + "' at " +
              std::to_string(pad.value) + " V is shorted into the ground net");
    }
    const auto [it, inserted] =
        pad_at.emplace(root, PadAt{pad.value, pad.a, pad.line});
    if (!inserted && it->second.volts != pad.value) {
      VS_FAIL(at_line(netlist, pad.line) + ": pad node '" +
              std::string(netlist.nodes.name(pad.a)) + "' at " +
              std::to_string(pad.value) + " V is shorted to pad node '" +
              std::string(netlist.nodes.name(it->second.node)) + "' at " +
              std::to_string(it->second.volts) + " V (line " +
              std::to_string(it->second.line) + ")");
    }
    if (std::abs(pad.value) > reference_potential_) {
      reference_potential_ = std::abs(pad.value);
    }
  }

  // Slot numbering: unknown roots first (in root-id order, so ids are
  // deterministic), then pad roots, then the ground net last.  The union
  // rule above makes each root the smallest node id of its class, so the
  // root doubles as the slot's reporting representative.
  root_slot_.assign(n + 1, kNoSlot);
  for (std::size_t id = 0; id < n; ++id) {
    const std::size_t root = find_root(id);
    if (root == ground || root_slot_[root] != kNoSlot ||
        pad_at.count(root) != 0) {
      continue;
    }
    root_slot_[root] = unknown_count_++;
    slot_rep_.push_back(static_cast<std::uint32_t>(root));
    slot_potential_.push_back(0.0);
  }
  for (std::size_t id = 0; id < n; ++id) {
    const std::size_t root = find_root(id);
    const auto it = pad_at.find(root);
    if (it == pad_at.end() || root_slot_[root] != kNoSlot) continue;
    root_slot_[root] = slot_potential_.size();
    slot_rep_.push_back(static_cast<std::uint32_t>(root));
    slot_potential_.push_back(it->second.volts);
  }
  root_slot_[ground] = slot_potential_.size();
  slot_rep_.push_back(kGroundNode);
  slot_potential_.push_back(0.0);

  const auto slot_of_node = [&](std::uint32_t node) -> std::size_t {
    return root_slot_[find_root(uf_index(node))];
  };

  conductors_.reserve(netlist.resistors.size());
  for (const auto& r : netlist.resistors) {
    const std::size_t sa = slot_of_node(r.a);
    const std::size_t sb = slot_of_node(r.b);
    if (sa == sb) continue;  // both ends merged: a collapsed loop
    conductors_.push_back(
        {pdn::ConductorKind::GridStrap, sa, sb, r.value, 1, 1});
  }
  loads_.reserve(netlist.loads.size());
  for (const auto& l : netlist.loads) {
    const std::size_t sa = slot_of_node(l.a);
    const std::size_t sb = slot_of_node(l.b);
    if (sa == sb) continue;
    loads_.push_back({sa, sb, l.value});
  }
  // Decap: each cap contributes its value as a grounded decap at every
  // unknown terminal (the benchmarks attach decap node-to-ground, so this
  // is exact for them; see docs/benchmark_ingestion.md).
  slot_cap_.assign(slot_count(), 0.0);
  for (const auto& c : netlist.caps) {
    const std::size_t sa = slot_of_node(c.a);
    const std::size_t sb = slot_of_node(c.b);
    if (sa < unknown_count_) slot_cap_[sa] += c.value;
    if (sb != sa && sb < unknown_count_) slot_cap_[sb] += c.value;
  }

  refresh_anchoring();
}

// Component scan over the live conductor graph: nominal potentials for the
// deviation metric, and weak pins for dangling subgrids.  Re-run after
// every fault mutation -- an open can orphan a whole subgrid, and solving
// it without a weak pin would hand the solver a singular matrix instead of
// a clean "load current stranded" verdict.
void ImportedGrid::refresh_anchoring() {
  std::vector<std::size_t> comp(slot_count());
  for (std::size_t s = 0; s < comp.size(); ++s) comp[s] = s;
  const auto comp_find = [&](std::size_t s) {
    while (comp[s] != s) {
      comp[s] = comp[comp[s]];
      s = comp[s];
    }
    return s;
  };
  for (const auto& c : conductors_) {
    if (c.count == 0 || c.unit_resistance <= 0.0) continue;  // open/disabled
    const std::size_t ra = comp_find(c.node_a);
    const std::size_t rb = comp_find(c.node_b);
    if (ra != rb) comp[std::max(ra, rb)] = std::min(ra, rb);
  }
  std::vector<double> comp_nominal(slot_count(), 0.0);
  std::vector<std::uint8_t> comp_anchored(slot_count(), 0);
  for (std::size_t s = unknown_count_; s < slot_count(); ++s) {
    const std::size_t root = comp_find(s);
    comp_anchored[root] = 1;
    if (std::abs(slot_potential_[s]) >= std::abs(comp_nominal[root])) {
      comp_nominal[root] = slot_potential_[s];
    }
  }
  nominal_.assign(slot_count(), 0.0);
  floating_.assign(slot_count(), 0);
  weak_pins_.clear();
  floating_nodes_ = 0;
  floating_load_current_ = 0.0;
  std::vector<std::uint8_t> pinned(slot_count(), 0);
  for (std::size_t s = 0; s < slot_count(); ++s) {
    const std::size_t root = comp_find(s);
    if (comp_anchored[root]) {
      nominal_[s] = is_fixed(s) ? slot_potential_[s] : comp_nominal[root];
      continue;
    }
    floating_[s] = 1;
    ++floating_nodes_;
    if (!pinned[root]) {
      pinned[root] = 1;
      weak_pins_.push_back(root);
    }
  }
  for (const auto& l : loads_) {
    if (floating_[l.vdd_node] || floating_[l.gnd_node]) {
      floating_load_current_ += std::abs(l.current);
    }
  }
}

ImportedGrid::ImportedGrid(const ImportedGrid& other)
    : netlist_(other.netlist_),
      unknown_count_(other.unknown_count_),
      topology_epoch_(other.topology_epoch_),
      parent_(other.parent_),
      root_slot_(other.root_slot_),
      slot_rep_(other.slot_rep_),
      slot_potential_(other.slot_potential_),
      nominal_(other.nominal_),
      floating_(other.floating_),
      weak_pins_(other.weak_pins_),
      floating_nodes_(other.floating_nodes_),
      floating_load_current_(other.floating_load_current_),
      reference_potential_(other.reference_potential_),
      conductors_(other.conductors_),
      loads_(other.loads_),
      slot_cap_(other.slot_cap_),
      last_solution_(other.last_solution_) {}

ImportedGrid::~ImportedGrid() = default;

std::size_t ImportedGrid::find_root(std::size_t node) const {
  while (parent_[node] != node) {
    parent_[node] = parent_[parent_[node]];
    node = parent_[node];
  }
  return node;
}

std::size_t ImportedGrid::slot_of(std::string_view name) const {
  if (is_ground_name(name)) {
    return root_slot_[netlist_->nodes.size()];
  }
  const std::uint32_t id = netlist_->nodes.find(name);
  if (id == NodeTable::kNotFound) return kNoSlot;
  return root_slot_[find_root(id)];
}

std::string_view ImportedGrid::slot_name(std::size_t slot) const {
  VS_REQUIRE(slot < slot_count(), "slot out of range");
  if (slot_rep_[slot] == kGroundNode) return "0";
  return netlist_->nodes.name(slot_rep_[slot]);
}

void ImportedGrid::remove_conductor_units(std::size_t index,
                                          std::size_t units) {
  VS_REQUIRE(index < conductors_.size(), "conductor index out of range");
  auto& group = conductors_[index];
  group.count -= std::min(units, group.count);
  ++topology_epoch_;
  refresh_anchoring();
}

void ImportedGrid::scale_conductor_resistance(std::size_t index,
                                              double factor) {
  VS_REQUIRE(index < conductors_.size(), "conductor index out of range");
  VS_REQUIRE(factor > 0.0, "resistance factor must be positive");
  conductors_[index].unit_resistance *= factor;
  ++topology_epoch_;
  // Resistance scaling cannot orphan a subgrid (factor is finite and the
  // group stays live), but a prior mutation may have -- keep it simple and
  // always recompute.
  refresh_anchoring();
}

void ImportedGrid::add_leakage_to_ground(std::size_t slot, double resistance) {
  VS_REQUIRE(slot < slot_count(), "slot out of range");
  VS_REQUIRE(resistance > 0.0, "leakage resistance must be positive");
  conductors_.push_back({pdn::ConductorKind::Leakage, slot,
                         root_slot_[netlist_->nodes.size()], resistance, 1,
                         1});
  ++topology_epoch_;
  refresh_anchoring();
}

void ImportedGrid::stamp_conductances(la::CooBuilder& builder,
                                      la::Vector& fixed_rhs,
                                      la::Vector& load_rhs) const {
  VS_REQUIRE(builder.size() == unknown_count_,
             "builder must be sized to unknown_count()");
  fixed_rhs.assign(unknown_count_, 0.0);
  load_rhs.assign(unknown_count_, 0.0);
  for (const auto& c : conductors_) {
    if (c.count == 0 || c.unit_resistance <= 0.0) continue;
    pdn::stamp_conductance(builder, &fixed_rhs, c.node_a, c.node_b,
                           c.conductance(), *this);
  }
  for (const std::size_t s : weak_pins_) {
    builder.add(s, s, kWeakPinConductance);
  }
  for (const auto& l : loads_) {
    if (l.vdd_node < unknown_count_) load_rhs[l.vdd_node] -= l.current;
    if (l.gnd_node < unknown_count_) load_rhs[l.gnd_node] += l.current;
  }
}

void ImportedGrid::ensure_system(const GridSolveOptions& options) const {
  const la::Backend* backend = &la::resolve_backend(options.backend);
  const la::SolveOptions solve_options{.backend = options.backend};
  if (cache_ && cache_->epoch == topology_epoch_) {
    if (cache_->backend == backend) return;
    // Same matrix, different kernels: rebuild only the Solver binding.
    cache_->solver.reset();
    cache_->solver =
        std::make_unique<la::Solver>(cache_->matrix, solve_options);
    cache_->backend = backend;
    return;
  }

  VS_SPAN("pgio.grid.assemble");
  auto next = std::make_unique<Cached>();
  next->epoch = topology_epoch_;
  la::CooBuilder builder(unknown_count_);
  stamp_conductances(builder, next->fixed_rhs, next->load_rhs);
  next->matrix = builder.build();
  // Bind the Solver only now: the matrix has reached its final address.
  if (unknown_count_ > 0) {
    next->solver = std::make_unique<la::Solver>(next->matrix, solve_options);
  }
  next->backend = backend;
  cache_ = std::move(next);
}

GridSolution ImportedGrid::solve_scaled(double load_scale,
                                        const GridSolveOptions& options) const {
  VS_SPAN("pgio.solve");
  c_solve_calls.add();
  GridSolution out;
  out.floating_islands = weak_pins_.size();
  out.floating_nodes = floating_nodes_;
  out.floating_load_current_a = std::abs(load_scale) * floating_load_current_;
  for (const auto& l : loads_) {
    out.load_current_a += std::abs(load_scale * l.current);
  }

  const auto accumulate_supply_current = [&](const la::Vector& voltages) {
    const auto voltage_of = [&](std::size_t slot) {
      return slot < unknown_count_ ? voltages[slot] : slot_potential_[slot];
    };
    for (const auto& c : conductors_) {
      if (c.count == 0 || c.unit_resistance <= 0.0) continue;
      const double g = c.conductance();
      for (const auto& [self, other] :
           {std::pair{c.node_a, c.node_b}, std::pair{c.node_b, c.node_a}}) {
        if (is_fixed(self) && slot_potential_[self] != 0.0) {
          out.supply_current_a +=
              g * (slot_potential_[self] - voltage_of(other));
        }
      }
    }
  };

  if (unknown_count_ == 0) {
    // Every slot is fixed (pads and ground only): nothing to solve, but
    // pad-to-pad / pad-to-ground currents are still well-defined.
    out.solve_ok = true;
    accumulate_supply_current(out.voltages);
    return out;
  }

  ensure_system(options);
  la::Vector rhs(unknown_count_);
  for (std::size_t i = 0; i < unknown_count_; ++i) {
    rhs[i] = cache_->fixed_rhs[i] + load_scale * cache_->load_rhs[i];
  }
  out.voltages.assign(unknown_count_, 0.0);
  if (last_solution_.size() == unknown_count_) {
    out.voltages = last_solution_;  // warm start from the previous point
  }
  out.report = cache_->solver->solve(rhs, out.voltages, options.iterative);
  out.solve_ok = out.report.converged;
  if (!out.solve_ok) {
    c_solve_failures.add();
    out.diagnostic = out.report.diagnostic;
    return out;
  }
  last_solution_ = out.voltages;

  for (std::size_t s = 0; s < unknown_count_; ++s) {
    if (floating_[s]) continue;
    const double deviation = std::abs(out.voltages[s] - nominal_[s]);
    if (deviation > out.max_deviation_v) {
      out.max_deviation_v = deviation;
      out.worst_slot = s;
    }
  }
  if (out.worst_slot != kNoSlot) {
    out.worst_node = std::string(slot_name(out.worst_slot));
  }
  if (reference_potential_ > 0.0) {
    out.max_deviation_fraction = out.max_deviation_v / reference_potential_;
  }
  accumulate_supply_current(out.voltages);
  return out;
}

bool ImportedGrid::node_voltage(const GridSolution& solution,
                                std::string_view name,
                                double* voltage) const {
  const std::size_t slot = slot_of(name);
  if (slot == kNoSlot) return false;
  if (is_fixed(slot)) {
    *voltage = slot_potential_[slot];
    return true;
  }
  VS_REQUIRE(solution.voltages.size() == unknown_count_,
             "solution does not match this grid");
  *voltage = solution.voltages[slot];
  return true;
}

}  // namespace vstack::pgio
