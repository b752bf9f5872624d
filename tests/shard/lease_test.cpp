// Chunk leases (shard/lease.h): single-winner claims across racing
// managers, expiry-based reclamation of dead workers' leases, heartbeat
// keep-alive, and ownership-checked release.
#include "shard/lease.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/durable_file.h"

namespace vstack::shard {
namespace {

JobPaths temp_paths(const std::string& tag) {
  const std::string dir = testing::TempDir() + "vstack_lease_" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  JobPaths paths(dir);
  paths.create_dirs();
  return paths;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

TEST(LeaseManagerTest, ExactlyOneWinnerAcrossRacingManagers) {
  const JobPaths paths = temp_paths("race");
  constexpr std::size_t kManagers = 4;
  std::vector<std::unique_ptr<LeaseManager>> managers;
  for (std::size_t i = 0; i < kManagers; ++i) {
    managers.push_back(std::make_unique<LeaseManager>(
        paths, std::string("w").append(std::to_string(i)), /*expiry_s=*/30.0,
        /*heartbeat_s=*/1.0));
  }
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  for (auto& m : managers) {
    threads.emplace_back([&] {
      if (m->try_claim(0)) winners.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(winners.load(), 1);

  // Release by the winner makes the chunk claimable again.
  for (auto& m : managers) {
    if (m->held() == 1) m->release(0);
  }
  LeaseManager late(paths, "w-late", 30.0, 1.0);
  EXPECT_TRUE(late.try_claim(0));
  late.release(0);
  std::filesystem::remove_all(paths.root);
}

TEST(LeaseManagerTest, ExpiredLeaseOfDeadWorkerIsReclaimed) {
  const JobPaths paths = temp_paths("reclaim");
  // A worker that died: its lease file exists but nothing refreshes the
  // mtime.  No LeaseManager owns it, so no heartbeat fires.
  ASSERT_TRUE(create_exclusive_file(paths.lease(0), "worker=w-dead pid=1\n"));

  LeaseManager survivor(paths, "w-live", /*expiry_s=*/0.2,
                        /*heartbeat_s=*/0.05);
  EXPECT_FALSE(survivor.try_claim(0));  // not expired yet
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_TRUE(survivor.try_claim(0));  // expired -> rename-away -> re-claim
  EXPECT_EQ(survivor.held(), 1u);
  survivor.release(0);
  EXPECT_FALSE(std::filesystem::exists(paths.lease(0)));
  std::filesystem::remove_all(paths.root);
}

TEST(LeaseManagerTest, HeartbeatKeepsALiveLeaseFromBeingStolen) {
  const JobPaths paths = temp_paths("heartbeat");
  LeaseManager holder(paths, "w-holder", /*expiry_s=*/0.5,
                      /*heartbeat_s=*/0.05);
  ASSERT_TRUE(holder.try_claim(0));

  LeaseManager thief(paths, "w-thief", /*expiry_s=*/0.5, /*heartbeat_s=*/0.05);
  // Well past expiry in wall time -- but the holder's heartbeat thread has
  // been refreshing the mtime the whole while.
  std::this_thread::sleep_for(std::chrono::milliseconds(900));
  EXPECT_FALSE(thief.try_claim(0));
  EXPECT_EQ(holder.held(), 1u);
  holder.release(0);
  std::filesystem::remove_all(paths.root);
}

TEST(LeaseManagerTest, ReleaseLeavesAReissuedLeaseAlone) {
  const JobPaths paths = temp_paths("reissue");
  LeaseManager stalled(paths, "w-stalled", /*expiry_s=*/30.0,
                       /*heartbeat_s=*/1.0);
  ASSERT_TRUE(stalled.try_claim(0));

  // Simulate reclamation while "stalled" was paused: the lease file now
  // carries another worker's claim.
  ASSERT_TRUE(remove_file(paths.lease(0)));
  ASSERT_TRUE(create_exclusive_file(paths.lease(0), "worker=w-new pid=2\n"));

  stalled.release(0);  // must NOT delete the new owner's lease
  EXPECT_TRUE(std::filesystem::exists(paths.lease(0)));
  EXPECT_EQ(slurp(paths.lease(0)), "worker=w-new pid=2");
  std::filesystem::remove_all(paths.root);
}

}  // namespace
}  // namespace vstack::shard
