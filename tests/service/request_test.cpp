// Service request parsing (service/request.h): the config_io grammar with
// line-numbered strictness, id agreement, validation, and round-tripping.
#include "service/request.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"

namespace vstack::service {
namespace {

std::string error_of(const std::string& text, const std::string& id = "r1") {
  try {
    parse_request(text, id, "r1.req");
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(RequestParse, MinimalCampaign) {
  const RequestSpec spec = parse_request("kind = campaign\n", "r1", "r1.req");
  EXPECT_EQ(spec.id, "r1");
  EXPECT_EQ(spec.kind, RequestKind::Campaign);
  EXPECT_TRUE(spec.stacked);
  EXPECT_EQ(spec.layers, 4u);
  EXPECT_EQ(spec.trials, 8u);
}

TEST(RequestParse, FullRequest) {
  const std::string text =
      "# a comment\n"
      "id = job7\n"
      "kind = contingency\n"
      "topology = regular\n"
      "layers = 6\n"
      "grid = 10\n"
      "imbalance = 0.25\n"
      "trials = 12\n"
      "faults = 3\n"
      "seed = 99\n"
      "mode = n-1\n"
      "deadline_s = 30\n"
      "jobs = 2\n";
  const RequestSpec spec = parse_request(text, "job7", "job7.req");
  EXPECT_EQ(spec.kind, RequestKind::Contingency);
  EXPECT_FALSE(spec.stacked);
  EXPECT_EQ(spec.layers, 6u);
  EXPECT_EQ(spec.grid, 10u);
  EXPECT_DOUBLE_EQ(spec.imbalance, 0.25);
  EXPECT_EQ(spec.trials, 12u);
  EXPECT_EQ(spec.faults_per_trial, 3u);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_FALSE(spec.monte_carlo);
  EXPECT_DOUBLE_EQ(spec.deadline_s, 30.0);
  EXPECT_EQ(spec.jobs, 2u);
}

TEST(RequestParse, ErrorsCarrySourceAndLineNumber) {
  const std::string err = error_of("kind = campaign\nbogus = 1\n");
  EXPECT_NE(err.find("r1.req"), std::string::npos) << err;
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

TEST(RequestParse, MissingKindRejected) {
  EXPECT_NE(error_of("layers = 4\n").find("kind"), std::string::npos);
}

TEST(RequestParse, UnknownKindNamesTheLine) {
  const std::string err = error_of("kind = warp\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(RequestParse, DuplicateKeyRejected) {
  const std::string err = error_of("kind = campaign\nlayers = 4\nlayers = 6\n");
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
}

TEST(RequestParse, IdMismatchRejected) {
  const std::string err = error_of("id = other\nkind = campaign\n");
  EXPECT_NE(err.find("line 1"), std::string::npos) << err;
  EXPECT_NE(err.find("other"), std::string::npos) << err;
}

TEST(RequestParse, BadNumberNamesTheLine) {
  const std::string err = error_of("kind = campaign\nimbalance = fast\n");
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
}

TEST(RequestParse, CommentsAndBlanksIgnored) {
  const RequestSpec spec = parse_request(
      "\n# comment\n; also a comment\nkind = sweep\nfigure = 8\n", "r1",
      "r1.req");
  EXPECT_EQ(spec.kind, RequestKind::Sweep);
  EXPECT_EQ(spec.figure, "8");
}

TEST(RequestParse, RoundTrips) {
  RequestSpec spec;
  spec.id = "rt9";
  spec.kind = RequestKind::RideThrough;
  spec.stacked = true;
  spec.layers = 8;
  spec.keep = 16;
  spec.fault_level = 3;
  spec.deadline_s = 12.5;
  const RequestSpec back =
      parse_request(write_request(spec), "rt9", "rt9.req");
  EXPECT_EQ(back.kind, RequestKind::RideThrough);
  EXPECT_EQ(back.layers, 8u);
  EXPECT_EQ(back.keep, 16u);
  EXPECT_EQ(back.fault_level, 3u);
  EXPECT_DOUBLE_EQ(back.deadline_s, 12.5);
}

TEST(RequestSpecValidate, RejectsBadShapes) {
  RequestSpec spec;
  spec.id = "v";
  spec.layers = 0;
  EXPECT_THROW(spec.validate(), Error);
  spec = RequestSpec{};
  spec.id = "v";
  spec.imbalance = 1.5;
  EXPECT_THROW(spec.validate(), Error);
  spec = RequestSpec{};
  spec.id = "v";
  spec.trials = 0;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(RequestSpec, EstimatedBytesScalesWithJobs) {
  RequestSpec spec;
  spec.id = "e";
  EXPECT_GT(spec.estimated_bytes(1), 0u);
  EXPECT_EQ(spec.estimated_bytes(4), 4 * spec.estimated_bytes(1));
  RequestSpec big = spec;
  big.grid = 32;
  big.layers = 8;
  EXPECT_GT(big.estimated_bytes(1), spec.estimated_bytes(1));
}

TEST(RequestParse, CountsAtOrAbove2To64AreRejected) {
  // Converting these to std::size_t is undefined; they once read as 0.
  for (const char* line : {"seed = 1e30\n", "keep = 1e30\n", "jobs = 1e30\n",
                           "fault_level = 1e30\n", "faults = 1e25\n"}) {
    const std::string err = error_of(std::string("kind = campaign\n") + line);
    EXPECT_NE(err.find("line 2"), std::string::npos) << line << err;
  }
}

TEST(RequestParse, RoundTripIsBitExact) {
  RequestSpec spec;
  spec.id = "rt10";
  spec.imbalance = 0.123456789;
  spec.duration_s = 1.0 / 3.0 * 1e-6;
  spec.fault_time_s = 1e-7 / 3.0;
  spec.deadline_s = 12.345678901;
  const RequestSpec back =
      parse_request(write_request(spec), "rt10", "rt10.req");
  EXPECT_EQ(back.imbalance, spec.imbalance);
  EXPECT_EQ(back.duration_s, spec.duration_s);
  EXPECT_EQ(back.fault_time_s, spec.fault_time_s);
  EXPECT_EQ(back.deadline_s, spec.deadline_s);
  EXPECT_EQ(write_request(back), write_request(spec));
}

}  // namespace
}  // namespace vstack::service
