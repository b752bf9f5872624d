#include "pdn/config_io.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vstack::pdn {
namespace {

TEST(ConfigIoTest, ParsesFullConfig) {
  const auto cfg = parse_stackup_config(R"(
# an 8-layer stack
topology = stacked
layers = 8
vdd = 1.0
tsv = few           ; aggressive allocation
power_c4_fraction = 0.25
vdd_pads_per_core = 32
converters_per_core = 8
converter_reference = ideal
control = closed
grid = 16
)");
  EXPECT_TRUE(cfg.is_voltage_stacked());
  EXPECT_EQ(cfg.layer_count, 8u);
  EXPECT_EQ(cfg.tsv.name, "Few TSV");
  EXPECT_EQ(cfg.converters_per_core, 8u);
  EXPECT_EQ(cfg.converter.control, sc::ControlPolicy::ClosedLoop);
  EXPECT_EQ(cfg.grid_nx, 16u);
}

TEST(ConfigIoTest, DefaultsPreservedForOmittedKeys) {
  StackupConfig base;
  base.vdd_pads_per_core = 24;
  const auto cfg = parse_stackup_config("layers = 4\n", base);
  EXPECT_EQ(cfg.layer_count, 4u);
  EXPECT_EQ(cfg.vdd_pads_per_core, 24u);
}

TEST(ConfigIoTest, RoundTrip) {
  StackupConfig original;
  original.topology = PdnTopology::VoltageStacked;
  original.layer_count = 6;
  original.tsv = TsvConfig::sparse();
  original.converters_per_core = 4;
  original.converter_reference = ConverterReference::AdjacentRails;
  const auto text = write_stackup_config(original);
  const auto reparsed = parse_stackup_config(text);
  EXPECT_EQ(reparsed.layer_count, 6u);
  EXPECT_EQ(reparsed.tsv.name, "Sparse TSV");
  EXPECT_EQ(reparsed.converters_per_core, 4u);
  EXPECT_EQ(reparsed.converter_reference, ConverterReference::AdjacentRails);
}

TEST(ConfigIoTest, RejectsUnknownKey) {
  EXPECT_THROW(parse_stackup_config("frobnicate = 3\n"), Error);
}

TEST(ConfigIoTest, RejectsBadValues) {
  EXPECT_THROW(parse_stackup_config("topology = sideways\n"), Error);
  EXPECT_THROW(parse_stackup_config("tsv = plenty\n"), Error);
  EXPECT_THROW(parse_stackup_config("layers = few\n"), Error);
  EXPECT_THROW(parse_stackup_config("layers\n"), Error);
}

TEST(ConfigIoTest, RejectsOutOfRangePhysicalParameters) {
  // Every entry must fail with a line-numbered, actionable message.
  const char* corpus[] = {
      "vdd = 0\n",                      // non-positive supply
      "vdd = -1\n",                     //
      "vdd = 1e300\n",                  // absurd supply
      "vdd = nan\n",                    // non-finite
      "power_c4_fraction = 0\n",        // fraction out of (0, 1]
      "power_c4_fraction = 1.5\n",      //
      "power_c4_fraction = -0.2\n",     //
      "layers = 2.5\n",                 // fractional integer
      "layers = -3\n",                  // negative integer
      "layers = 0\n",                   // below minimum
      "vdd_pads_per_core = 0\n",        //
      "vdd_pads_per_core = 3.7\n",      //
      "converters_per_core = -1\n",     //
      "grid = 1\n",                     // below minimum (needs 2x2 cells)
      "grid = 1e6\n",                   // absurd grid -> memory bomb
      "grid = 8.5\n",                   // fractional
  };
  for (const char* text : corpus) {
    EXPECT_THROW(parse_stackup_config(text), Error)
        << "accepted bad config: " << text;
  }
}

TEST(ConfigIoTest, RejectsDuplicateKeys) {
  EXPECT_THROW(parse_stackup_config("layers = 4\nlayers = 8\n"), Error);
  EXPECT_THROW(parse_stackup_config("vdd = 1.0\nVDD = 0.9\n"), Error);
}

TEST(ConfigIoTest, ErrorsCarryLineNumbers) {
  try {
    parse_stackup_config("layers = 4\nvdd = banana\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("banana"), std::string::npos) << what;
  }
}

TEST(ConfigIoTest, ValidatesResult) {
  // Voltage stacking with a single layer must be rejected by validate().
  EXPECT_THROW(parse_stackup_config("topology = stacked\nlayers = 1\n"),
               Error);
}

TEST(ConfigIoTest, CommentsAndWhitespaceTolerated) {
  const auto cfg = parse_stackup_config(
      "   layers   =   4   # trailing\n\n; whole-line comment\n");
  EXPECT_EQ(cfg.layer_count, 4u);
}

TEST(ConfigIoTest, CountsAtOrAbove2To64AreRejected) {
  // Converting these to std::size_t is undefined; they once read as 0.
  for (const char* text : {"topology = regular\nconverters_per_core = 2e19\n",
                           "topology = regular\nconverters_per_core = 1e30\n",
                           "layers = 1e30\n", "grid = 1e300\n"}) {
    EXPECT_THROW(parse_stackup_config(text), Error) << text;
  }
}

TEST(ConfigIoTest, ValidationFailuresNameTheConfig) {
  try {
    parse_stackup_config("topology = stacked\nlayers = 1\n");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("stackup config: "),
              std::string::npos)
        << e.what();
  }
}

TEST(ConfigIoTest, RoundTripIsBitExact) {
  StackupConfig original;
  original.vdd = 1.0000001;
  original.power_c4_fraction = 1.0 / 3.0;
  const StackupConfig reparsed =
      parse_stackup_config(write_stackup_config(original));
  EXPECT_EQ(reparsed.vdd, original.vdd);
  EXPECT_EQ(reparsed.power_c4_fraction, original.power_c4_fraction);
  EXPECT_EQ(write_stackup_config(reparsed), write_stackup_config(original));
  // Values exact at six digits keep the bytes they always had.
  const std::string defaults = write_stackup_config(StackupConfig{});
  EXPECT_NE(defaults.find("vdd = 1\n"), std::string::npos) << defaults;
  EXPECT_NE(defaults.find("power_c4_fraction = 0.25\n"), std::string::npos)
      << defaults;
}

}  // namespace
}  // namespace vstack::pdn
