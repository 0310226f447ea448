#include <gtest/gtest.h>

// Death tests fork(). By the time one runs, earlier tests have started
// the tensor thread pool, and a child forked while a worker holds the
// pool's or the storage pool's mutex would hang. The threadsafe style
// re-executes this binary for each death test instead of forking the
// live, threaded process.

namespace {

class ThreadsafeDeathTests : public ::testing::Environment {
 public:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

::testing::Environment* const kThreadsafeDeathTests =
    ::testing::AddGlobalTestEnvironment(new ThreadsafeDeathTests);

}  // namespace
