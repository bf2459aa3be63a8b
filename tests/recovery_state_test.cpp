// Recovered-state pin: each crash directory of recovery_state.hpp recovers
// into exactly the state recorded in tests/golden/recovery_state.golden —
// items, LRU order, slab layout, ghosts, flash index and report counters.
// Runs under the `persist` ctest label.
#include <gtest/gtest.h>

#include "golden.hpp"
#include "recovery_state.hpp"

namespace pamakv {
namespace {

TEST(RecoveryStateTest, EveryCrashDirectoryRecoversTheRecordedState) {
  const test::Golden golden("recovery_state.golden");
  for (const std::string& part : test::RecoveryStateParts()) {
    EXPECT_EQ(test::RecordRecoveryState(part), golden.at(part)) << part;
  }
}

}  // namespace
}  // namespace pamakv
