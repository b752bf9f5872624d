#include "circuit/netlist.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack::circuit {
namespace {

TEST(NetlistTest, GroundExistsByDefault) {
  Netlist net;
  EXPECT_EQ(net.node_count(), 1u);
  EXPECT_EQ(net.node_name(kGround), "gnd");
}

TEST(NetlistTest, CreateNodeAssignsSequentialIds) {
  Netlist net;
  const NodeId a = net.create_node("a");
  const NodeId b = net.create_node("b");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(net.node_name(b), "b");
}

TEST(NetlistTest, ResistorValidation) {
  Netlist net;
  const NodeId a = net.create_node("a");
  EXPECT_NO_THROW(net.add_resistor(a, kGround, 10.0));
  EXPECT_THROW(net.add_resistor(a, a, 10.0), Error);
  EXPECT_THROW(net.add_resistor(a, kGround, 0.0), Error);
  EXPECT_THROW(net.add_resistor(a, kGround, -1.0), Error);
  EXPECT_THROW(net.add_resistor(a, 99, 1.0), Error);
}

TEST(NetlistTest, CapacitorValidation) {
  Netlist net;
  const NodeId a = net.create_node("a");
  EXPECT_NO_THROW(net.add_capacitor(a, kGround, 1e-9, 0.5));
  EXPECT_EQ(net.capacitors().back().initial_voltage, 0.5);
  EXPECT_THROW(net.add_capacitor(a, a, 1e-9), Error);
  EXPECT_THROW(net.add_capacitor(a, kGround, 0.0), Error);
}

TEST(NetlistTest, SwitchValidation) {
  Netlist net;
  const NodeId a = net.create_node("a");
  const ClockPhase good{0.25, 0.5};
  EXPECT_NO_THROW(net.add_switch(a, kGround, 1.0, 1e9, good));
  EXPECT_THROW(net.add_switch(a, kGround, 1e9, 1.0, good), Error);
  EXPECT_THROW(net.add_switch(a, kGround, 1.0, 1e9, ClockPhase{1.5, 0.5}),
               Error);
  EXPECT_THROW(net.add_switch(a, kGround, 1.0, 1e9, ClockPhase{0.0, 0.0}),
               Error);
  EXPECT_THROW(net.add_switch(a, kGround, 1.0, 1e9, ClockPhase{0.0, 1.0}),
               Error);
}

}  // namespace
}  // namespace vstack::circuit
