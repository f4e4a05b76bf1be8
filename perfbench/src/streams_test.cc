// Determinism of the generated request streams: the same (workload, seed,
// seconds) must give byte-identical streams and hash, a different seed
// different ones.

#include <gtest/gtest.h>

#include "streams.h"

namespace perfbench {
namespace {

void ExpectSameStreams(const WorkloadPlan& a, const WorkloadPlan& b) {
  EXPECT_EQ(a.load, b.load);
  EXPECT_EQ(a.warm, b.warm);
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (size_t c = 0; c < a.conns.size(); ++c) {
    EXPECT_EQ(a.conns[c].lines, b.conns[c].lines) << "connection " << c;
    EXPECT_EQ(a.conns[c].open_count, b.conns[c].open_count);
    EXPECT_EQ(a.conns[c].open_rate_rps, b.conns[c].open_rate_rps);
  }
}

TEST(StreamsTest, SameSeedGivesIdenticalStreams) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const WorkloadPlan a = MakePlan(workload, 1, 2.0);
    const WorkloadPlan b = MakePlan(workload, 1, 2.0);
    ExpectSameStreams(a, b);
    EXPECT_EQ(PlanHash(a), PlanHash(b));
  }
}

TEST(StreamsTest, DifferentSeedGivesDifferentStreams) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const WorkloadPlan a = MakePlan(workload, 1, 2.0);
    const WorkloadPlan b = MakePlan(workload, 2, 2.0);
    EXPECT_NE(PlanHash(a), PlanHash(b));
    EXPECT_NE(a.load, b.load);
    for (size_t c = 0; c < a.conns.size(); ++c) {
      EXPECT_NE(a.conns[c].lines, b.conns[c].lines) << "connection " << c;
    }
  }
}

TEST(StreamsTest, UnknownWorkloadIsRejected) {
  EXPECT_THROW(MakePlan("no_such_workload", 1, 2.0), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
