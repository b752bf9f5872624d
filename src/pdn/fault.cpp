#include "pdn/fault.h"

#include <numeric>
#include <sstream>

#include "common/error.h"

namespace vstack::pdn {

FaultSet& FaultSet::open_conductor(std::size_t index, std::size_t units) {
  VS_REQUIRE(units > 0, "open_conductor: units must be positive");
  faults_.push_back({FaultKind::OpenConductor, index, units, 1.0});
  return *this;
}

FaultSet& FaultSet::degrade_conductor(std::size_t index, double factor) {
  VS_REQUIRE(factor > 0.0, "degrade_conductor: factor must be positive");
  faults_.push_back({FaultKind::DegradeConductor, index, 0, factor});
  return *this;
}

FaultSet& FaultSet::converter_stuck_off(std::size_t index) {
  faults_.push_back({FaultKind::ConverterStuckOff, index, 0, 1.0});
  return *this;
}

FaultSet& FaultSet::leakage_to_ground(std::size_t node, double resistance) {
  VS_REQUIRE(resistance > 0.0, "leakage resistance must be positive");
  faults_.push_back({FaultKind::LeakageToGround, node, 0, resistance});
  return *this;
}

void FaultSet::apply_to(PdnNetwork& network) const {
  for (const Fault& f : faults_) {
    switch (f.kind) {
      case FaultKind::OpenConductor:
        network.remove_conductor_units(f.index, f.units);
        break;
      case FaultKind::DegradeConductor:
        network.scale_conductor_resistance(f.index, f.severity);
        break;
      case FaultKind::ConverterStuckOff:
        network.disable_converter(f.index);
        break;
      case FaultKind::LeakageToGround:
        network.add_leakage_to_ground(f.index, f.severity);
        break;
    }
  }
}

const char* conductor_kind_name(ConductorKind kind) {
  switch (kind) {
    case ConductorKind::GridStrap:    return "strap";
    case ConductorKind::PackageVdd:   return "pkg-vdd";
    case ConductorKind::PackageGnd:   return "pkg-gnd";
    case ConductorKind::C4Vdd:        return "c4-vdd";
    case ConductorKind::C4Gnd:        return "c4-gnd";
    case ConductorKind::TsvVdd:       return "tsv-vdd";
    case ConductorKind::TsvGnd:       return "tsv-gnd";
    case ConductorKind::RecyclingTsv: return "tsv-recycle";
    case ConductorKind::ThroughVia:   return "via";
    case ConductorKind::Leakage:      return "leak";
  }
  return "?";
}

std::string FaultSet::describe(const PdnNetwork& network) const {
  std::ostringstream oss;
  bool first = true;
  for (const Fault& f : faults_) {
    if (!first) oss << " ";
    first = false;
    switch (f.kind) {
      case FaultKind::OpenConductor: {
        const char* kind =
            f.index < network.conductors().size()
                ? conductor_kind_name(network.conductors()[f.index].kind)
                : "?";
        oss << "open[" << kind << "#" << f.index << "]";
        break;
      }
      case FaultKind::DegradeConductor:
        oss << "degrade[#" << f.index << " x" << f.severity << "]";
        break;
      case FaultKind::ConverterStuckOff:
        oss << "conv-off[" << f.index << "]";
        break;
      case FaultKind::LeakageToGround:
        oss << "leak[n" << f.index << " " << f.severity << "ohm]";
        break;
    }
  }
  return oss.str();
}

std::size_t IslandReport::floating_node_count() const {
  std::size_t n = 0;
  for (const auto& island : islands) n += island.size();
  return n;
}

namespace {

/// Union-find over the free nodes plus one virtual "anchored" slot that
/// stands in for every fixed potential.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];
      i = parent_[i];
    }
    return i;
  }

  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

IslandReport find_floating_islands(const PdnNetwork& network) {
  const std::size_t n = network.node_count();
  const std::size_t anchor = n;
  UnionFind uf(n + 1);

  const auto slot = [&](std::size_t node) {
    return FixedRails::is_fixed(node) ? anchor : node;
  };

  for (const auto& group : network.conductors()) {
    if (group.count == 0) continue;  // fully opened by a fault
    uf.unite(slot(group.node_a), slot(group.node_b));
  }

  const bool ideal_reference =
      network.config().converter_reference == ConverterReference::IdealRails;
  for (const auto& conv : network.converters()) {
    if (!conv.enabled) continue;
    if (ideal_reference) {
      // The stiff reference ties the output to its nominal level.
      uf.unite(conv.out, anchor);
    } else {
      // The midpoint element conducts between all three terminals.
      uf.unite(conv.top, conv.bottom);
      uf.unite(conv.top, conv.out);
    }
  }

  // Group non-anchored nodes by representative.
  const std::size_t anchored_root = uf.find(anchor);
  std::vector<std::vector<std::size_t>> by_root(n + 1);
  for (std::size_t node = 0; node < n; ++node) {
    const std::size_t root = uf.find(node);
    if (root != anchored_root) by_root[root].push_back(node);
  }

  IslandReport report;
  for (auto& group : by_root) {
    if (!group.empty()) report.islands.push_back(std::move(group));
  }
  return report;
}

}  // namespace vstack::pdn
