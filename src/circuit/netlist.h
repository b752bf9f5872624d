// Circuit netlist for the switch-level simulator.
//
// This module is the repository's stand-in for the transistor-level Spectre
// simulation the paper uses to validate its switched-capacitor compact model
// (Fig. 3).  It supports exactly the element set an idealised SC converter
// needs: resistors, capacitors, independent sources, and two-phase clocked
// switches modeled as Ron/Roff resistors so the matrix pattern is constant.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/error.h"

namespace vstack::circuit {

/// Node handle.  Node 0 is always ground.
using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

/// Periodic switch-control window.  A switch is ON while
/// frac(t / period + phase_offset) < duty.
struct ClockPhase {
  double phase_offset = 0.0;  // fraction of a period, in [0, 1)
  double duty = 0.5;          // fraction of a period the switch is closed
};

struct Resistor {
  NodeId a = 0;
  NodeId b = 0;
  double resistance = 0.0;
};

struct Capacitor {
  NodeId a = 0;
  NodeId b = 0;
  double capacitance = 0.0;
  double initial_voltage = 0.0;  // v(a) - v(b) at t = 0
};

/// Ideal clocked switch realised as a two-valued resistor.
struct Switch {
  NodeId a = 0;
  NodeId b = 0;
  double on_resistance = 0.0;
  double off_resistance = 0.0;
  ClockPhase phase;
};

/// Independent voltage source; contributes a branch-current unknown.
struct VoltageSource {
  NodeId positive = 0;
  NodeId negative = 0;
  double voltage = 0.0;
};

/// Independent current source pushing `current` from `from_node` through
/// itself into `to_node` (SPICE convention: a load sink has from=supply).
struct CurrentSource {
  NodeId from_node = 0;
  NodeId to_node = 0;
  double current = 0.0;
};

/// Flat netlist container.  Build once, then hand to an analysis.
class Netlist {
 public:
  Netlist();

  /// Create a new node and return its id.  `name` is for diagnostics only.
  NodeId create_node(std::string name);

  std::size_t node_count() const { return node_names_.size(); }
  const std::string& node_name(NodeId node) const;

  std::size_t add_resistor(NodeId a, NodeId b, double resistance);
  std::size_t add_capacitor(NodeId a, NodeId b, double capacitance,
                            double initial_voltage = 0.0);
  std::size_t add_switch(NodeId a, NodeId b, double on_resistance,
                         double off_resistance, ClockPhase phase);
  std::size_t add_voltage_source(NodeId positive, NodeId negative,
                                 double voltage);
  std::size_t add_current_source(NodeId from_node, NodeId to_node,
                                 double current);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Switch>& switches() const { return switches_; }
  const std::vector<VoltageSource>& voltage_sources() const {
    return voltage_sources_;
  }
  const std::vector<CurrentSource>& current_sources() const {
    return current_sources_;
  }

 private:
  void check_node(NodeId node) const;

  std::vector<std::string> node_names_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Switch> switches_;
  std::vector<VoltageSource> voltage_sources_;
  std::vector<CurrentSource> current_sources_;
};

}  // namespace vstack::circuit
