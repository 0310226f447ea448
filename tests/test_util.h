#ifndef LIPFORMER_TESTS_TEST_UTIL_H_
#define LIPFORMER_TESTS_TEST_UTIL_H_

#include <cmath>
#include <cstring>
#include <functional>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"

namespace lipformer {
namespace testing {

// Central finite-difference gradient check: builds loss = f(x) twice per
// coordinate and compares the numeric derivative with the autograd
// gradient. Uses double-friendly epsilons tuned for float32 tensors.
inline void CheckGradient(
    const std::function<Variable(const Variable&)>& f, Tensor x0,
    float eps = 1e-2f, float atol = 2e-2f, float rtol = 5e-2f) {
  Variable x(x0.Clone(), /*requires_grad=*/true);
  Variable loss = f(x);
  ASSERT_EQ(loss.numel(), 1) << "gradient check needs a scalar loss";
  loss.Backward();
  const Tensor grad = x.grad().Clone();

  Tensor probe = x0.Clone();
  Variable xp(probe, /*requires_grad=*/false);
  float* p = probe.data();
  for (int64_t i = 0; i < probe.numel(); ++i) {
    const float orig = p[i];
    p[i] = orig + eps;
    const float up = f(xp).value().item();
    p[i] = orig - eps;
    const float down = f(xp).value().item();
    p[i] = orig;
    const float numeric = (up - down) / (2.0f * eps);
    const float analytic = grad.data()[i];
    const float tol = atol + rtol * std::fabs(numeric);
    EXPECT_NEAR(analytic, numeric, tol)
        << "coordinate " << i << " of " << probe.numel();
  }
}

// Same shape and the same bits in every element.
inline bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<size_t>(a.numel()) * sizeof(float)) == 0);
}

// Restores the tensor thread count on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }
  ThreadCountGuard(const ThreadCountGuard&) = delete;
  ThreadCountGuard& operator=(const ThreadCountGuard&) = delete;
  int saved() const { return saved_; }

 private:
  int saved_;
};

inline Tensor RandomTensor(Shape shape, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  return Tensor::Randn(std::move(shape), rng, scale);
}

// The keys scripted clients parse from "!health", in their order: every
// serve::FormatModelStats line starts with them.
inline const std::vector<std::string> kHealthKeys = {
    "model", "breaker", "trips", "probes", "breaker_rejected", "queue",
    "est_batch_ms", "shed", "expired", "nonfinite", "executed_past_deadline",
    "retry_after_ms", "reloads", "reload_failures"};

// The key=value pairs of one serve::FormatModelStats line, in order; a
// double-quoted value comes back unescaped (std::quoted).
using StatsPairs = std::vector<std::pair<std::string, std::string>>;
inline StatsPairs ParseStatsLine(const std::string& line) {
  StatsPairs pairs;
  std::istringstream in(line);
  std::string key;
  while (in >> std::ws && std::getline(in, key, '=')) {
    std::string value;
    if (in.peek() == '"') {
      in >> std::quoted(value);
    } else {
      in >> value;
    }
    pairs.emplace_back(std::move(key), std::move(value));
  }
  return pairs;
}

}  // namespace testing
}  // namespace lipformer

#endif  // LIPFORMER_TESTS_TEST_UTIL_H_
