// Paper-fidelity pin: every scheme replays the recorded ETC and APP runs of
// tests/golden/sim_decisions.golden byte for byte (see sim_decisions.hpp).
#include <gtest/gtest.h>

#include "golden.hpp"
#include "sim_decisions.hpp"

namespace pamakv {
namespace {

TEST(SimDecisionsTest, EverySchemeReplaysTheRecordedDecisions) {
  const test::Golden golden("sim_decisions.golden");
  for (const std::string& part : test::SimDecisionParts()) {
    EXPECT_EQ(test::RecordSimDecisions(part), golden.at(part)) << part;
  }
}

}  // namespace
}  // namespace pamakv
