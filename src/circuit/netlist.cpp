#include "circuit/netlist.h"

namespace vstack::circuit {

Netlist::Netlist() {
  node_names_.push_back("gnd");  // node 0
}

NodeId Netlist::create_node(std::string name) {
  node_names_.push_back(std::move(name));
  return node_names_.size() - 1;
}

const std::string& Netlist::node_name(NodeId node) const {
  check_node(node);
  return node_names_[node];
}

void Netlist::check_node(NodeId node) const {
  VS_REQUIRE(node < node_names_.size(), "netlist node id out of range");
}

std::size_t Netlist::add_resistor(NodeId a, NodeId b, double resistance) {
  check_node(a);
  check_node(b);
  VS_REQUIRE(a != b, "resistor terminals must differ");
  VS_REQUIRE(resistance > 0.0, "resistance must be positive");
  resistors_.push_back({a, b, resistance});
  return resistors_.size() - 1;
}

std::size_t Netlist::add_capacitor(NodeId a, NodeId b, double capacitance,
                                   double initial_voltage) {
  check_node(a);
  check_node(b);
  VS_REQUIRE(a != b, "capacitor terminals must differ");
  VS_REQUIRE(capacitance > 0.0, "capacitance must be positive");
  capacitors_.push_back({a, b, capacitance, initial_voltage});
  return capacitors_.size() - 1;
}

std::size_t Netlist::add_switch(NodeId a, NodeId b, double on_resistance,
                                double off_resistance, ClockPhase phase) {
  check_node(a);
  check_node(b);
  VS_REQUIRE(a != b, "switch terminals must differ");
  VS_REQUIRE(on_resistance > 0.0, "switch on-resistance must be positive");
  VS_REQUIRE(off_resistance > on_resistance,
             "switch off-resistance must exceed on-resistance");
  VS_REQUIRE(phase.phase_offset >= 0.0 && phase.phase_offset < 1.0,
             "phase offset must be in [0, 1)");
  VS_REQUIRE(phase.duty > 0.0 && phase.duty < 1.0,
             "switch duty must be in (0, 1)");
  switches_.push_back({a, b, on_resistance, off_resistance, phase});
  return switches_.size() - 1;
}

std::size_t Netlist::add_voltage_source(NodeId positive, NodeId negative,
                                        double voltage) {
  check_node(positive);
  check_node(negative);
  VS_REQUIRE(positive != negative, "voltage source terminals must differ");
  voltage_sources_.push_back({positive, negative, voltage});
  return voltage_sources_.size() - 1;
}

std::size_t Netlist::add_current_source(NodeId from_node, NodeId to_node,
                                        double current) {
  check_node(from_node);
  check_node(to_node);
  VS_REQUIRE(from_node != to_node, "current source terminals must differ");
  current_sources_.push_back({from_node, to_node, current});
  return current_sources_.size() - 1;
}

}  // namespace vstack::circuit
