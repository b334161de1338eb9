// The --jobs rule shared by the shard runner and uno_farm. WorkerPool's own
// test lives with the shard runner (shard_test.cpp).
#include <gtest/gtest.h>

#include "core/parallel.hpp"

namespace uno {
namespace {

TEST(Parallel, ResolveJobs) {
  EXPECT_GE(resolve_jobs(0), 1);   // 0 = one per core, at least one
  EXPECT_GE(resolve_jobs(-3), 1);
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(7), 7);
}

}  // namespace
}  // namespace uno
