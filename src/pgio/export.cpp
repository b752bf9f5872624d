#include "pgio/export.h"

#include <cstdio>
#include <fstream>

#include "common/error.h"

namespace vstack::pgio {

namespace {

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string node_str(const PgNetlist& netlist, std::uint32_t node) {
  if (node == kGroundNode) return "0";
  return std::string(netlist.nodes.name(node));
}

void emit(std::string& out, const char prefix, std::size_t& counter,
          const std::string& a, const std::string& b, double value) {
  out += prefix + std::to_string(++counter) + " " + a + " " + b + " " +
         g17(value) + "\n";
}

}  // namespace

std::string write_netlist(const PgNetlist& netlist) {
  std::string out;
  if (!netlist.title.empty()) out += ".title " + netlist.title + "\n";
  std::size_t r = 0, v = 0, i = 0, c = 0;
  for (const auto& e : netlist.resistors) {
    emit(out, 'R', r, node_str(netlist, e.a), node_str(netlist, e.b), e.value);
  }
  for (const auto& e : netlist.shorts) {
    emit(out, 'R', r, node_str(netlist, e.a), node_str(netlist, e.b), 0.0);
  }
  for (const auto& e : netlist.pads) {
    emit(out, 'V', v, node_str(netlist, e.a), "0", e.value);
  }
  for (const auto& e : netlist.loads) {
    emit(out, 'I', i, node_str(netlist, e.a), node_str(netlist, e.b), e.value);
  }
  for (const auto& e : netlist.caps) {
    emit(out, 'C', c, node_str(netlist, e.a), node_str(netlist, e.b), e.value);
  }
  out += ".op\n.end\n";
  return out;
}

void write_netlist_file(const PgNetlist& netlist, const std::string& path) {
  std::ofstream out(path);
  VS_REQUIRE(static_cast<bool>(out), "cannot write '" + path + "'");
  out << write_netlist(netlist);
  VS_REQUIRE(static_cast<bool>(out), "write to '" + path + "' failed");
}

PgNetlist from_pdn_model(const pdn::PdnModel& model,
                         const std::vector<pdn::LoadInjection>& loads,
                         const pdn::PdnSolution* operating_point) {
  const pdn::PdnNetwork& network = model.network();
  const auto& config = model.config();
  const std::size_t nx = config.grid_nx;

  PgNetlist out;
  out.source = "<pdn-export>";
  out.title = "vstack " +
              std::string(config.is_voltage_stacked() ? "stacked" : "regular") +
              " stack, " + std::to_string(config.layer_count) + " layers";

  bool need_src_vdd = false;
  // Grid node -> benchmark name.  Gnd net of layer l is metal plane 2l+1,
  // Vdd net is 2l+2 ("n0" stays free so nothing collides with pkg names).
  const auto name_of = [&](std::size_t node) -> std::uint32_t {
    if (node == pdn::kFixedGround) return kGroundNode;
    if (node == pdn::kFixedSupply) {
      need_src_vdd = true;
      return out.nodes.intern("src_vdd");
    }
    if (node == network.package_vdd_node()) return out.nodes.intern("pkg_vdd");
    if (node == network.package_gnd_node()) return out.nodes.intern("pkg_gnd");
    const pdn::GridNodeLocation at = network.locate(node);
    const std::size_t plane = 2 * at.layer + (at.vdd_net ? 2 : 1);
    return out.nodes.intern(std::string("n")
                                .append(std::to_string(plane))
                                .append("_")
                                .append(std::to_string(at.cell % nx))
                                .append("_")
                                .append(std::to_string(at.cell / nx)));
  };

  for (const auto& group : network.conductors()) {
    if (group.count == 0) continue;
    const std::uint32_t a = name_of(group.node_a);
    const std::uint32_t b = name_of(group.node_b);
    // Parallel units lump into one card, matching how the network stamps.
    const double resistance =
        group.unit_resistance / static_cast<double>(group.count);
    PgElement e{a, b, 0, resistance};
    if (resistance == 0.0) {
      out.shorts.push_back(e);
    } else {
      out.resistors.push_back(e);
    }
  }
  for (const auto& load : loads) {
    out.loads.push_back(
        {name_of(load.vdd_node), name_of(load.gnd_node), 0, load.current});
  }

  std::size_t active_converters = 0;
  for (const auto& converter : network.converters()) {
    if (converter.enabled) ++active_converters;
  }
  if (active_converters > 0) {
    VS_REQUIRE(operating_point != nullptr,
               "exporting a stack with enabled converters needs a solved "
               "operating point (their PSD stamp has no passive R-card "
               "equivalent); pass the PdnSolution to linearize against");
    VS_REQUIRE(operating_point->solve_ok,
               "cannot linearize converters against a failed solve");
    VS_REQUIRE(operating_point->converter_currents.size() ==
                   network.converters().size(),
               "operating point does not match this model's converters");
    for (std::size_t k = 0; k < network.converters().size(); ++k) {
      const auto& converter = network.converters()[k];
      if (!converter.enabled) continue;
      const double current = operating_point->converter_currents[k];
      if (current == 0.0) continue;
      // Linearized DC port currents: out sources `current`, drawn half
      // from each input rail.
      const std::uint32_t top = name_of(converter.top);
      const std::uint32_t bottom = name_of(converter.bottom);
      const std::uint32_t sink = name_of(converter.out);
      out.loads.push_back({top, sink, 0, current / 2.0});
      out.loads.push_back({bottom, sink, 0, current / 2.0});
    }
  }

  // The fixed-supply sentinel is the only fixed nonzero potential; the
  // fixed-ground sentinel became the ground net directly.
  if (need_src_vdd) {
    out.pads.push_back({out.nodes.intern("src_vdd"), kGroundNode, 0,
                        network.nominal_potential(pdn::kFixedSupply)});
  }
  return out;
}

}  // namespace vstack::pgio
