#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.h"
#include "common/parse.h"

namespace lipformer {

namespace {

// Set while the current thread is executing chunks of a parallel region;
// makes nested ParallelFor calls run serially instead of deadlocking.
thread_local bool t_in_parallel_region = false;

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  LIPF_CHECK_GE(num_workers, 0);
  threads_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::RunChunks(Job* job) {
  t_in_parallel_region = true;
  int64_t chunk;
  while ((chunk = job->next.fetch_add(1, std::memory_order_relaxed)) <
         job->total) {
    (*job->fn)(chunk);
    job->done.fetch_add(1, std::memory_order_acq_rel);
  }
  t_in_parallel_region = false;
}

void ThreadPool::Run(int64_t num_chunks,
                     const std::function<void(int64_t)>& fn) {
  if (num_chunks <= 0) return;
  if (threads_.empty() || num_chunks == 1 || t_in_parallel_region) {
    t_in_parallel_region = true;
    for (int64_t i = 0; i < num_chunks; ++i) fn(i);
    t_in_parallel_region = false;
    return;
  }

  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->total = num_chunks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
  }
  work_cv_.notify_all();

  RunChunks(job.get());

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return job->done.load(std::memory_order_acquire) == job->total;
  });
  if (job_ == job) job_.reset();
}

void ThreadPool::WorkerLoop() {
  std::shared_ptr<Job> last;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || (job_ && job_ != last); });
      if (shutdown_) return;
      job = job_;
    }
    last = job;
    RunChunks(job.get());
    // The caller may be waiting on done_cv_; only the thread finishing the
    // final chunk needs to wake it, but notifying on every exhaustion keeps
    // the logic simple and the pool is only entered for coarse chunks.
    {
      std::lock_guard<std::mutex> lock(mu_);
    }
    done_cv_.notify_all();
  }
}

// ---- Global pool ----

namespace {

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;            // non-null iff threads > 1
std::atomic<int> g_num_threads{0};             // 0 = not yet resolved

std::shared_ptr<ThreadPool> GetPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return g_pool;
}

void RebuildPoolLocked(int n) {
  g_pool.reset();
  if (n > 1) g_pool = std::make_shared<ThreadPool>(n - 1);
  g_num_threads.store(n, std::memory_order_release);
}

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

bool ParseNumThreads(const std::string& s, int* out) {
  int64_t n;
  if (!ParseInt64(s, &n) || n < 1 || n > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(n);
  return true;
}

int DefaultNumThreads() {
  const char* env = std::getenv("LIPF_NUM_THREADS");
  if (env != nullptr && env[0] != '\0') {
    int n;
    if (ParseNumThreads(env, &n)) return n;
    LIPF_LOG(Warning) << "ignoring invalid LIPF_NUM_THREADS='" << env << "'";
  }
  return HardwareThreads();
}

void SetNumThreads(int n) {
  LIPF_CHECK_GE(n, 1) << "thread count must be >= 1";
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_num_threads.load(std::memory_order_acquire) == n && (n == 1 || g_pool))
    return;
  RebuildPoolLocked(n);
}

int GetNumThreads() {
  int n = g_num_threads.load(std::memory_order_acquire);
  if (n == 0) {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    n = g_num_threads.load(std::memory_order_acquire);
    if (n == 0) {
      n = DefaultNumThreads();
      RebuildPoolLocked(n);
    }
  }
  return n;
}

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  const int threads = GetNumThreads();
  if (threads <= 1 || n <= grain || t_in_parallel_region) {
    body(0, n);
    return;
  }
  const int64_t max_chunks = (n + grain - 1) / grain;
  const int64_t num_chunks = std::min<int64_t>(threads, max_chunks);
  if (num_chunks <= 1) {
    body(0, n);
    return;
  }
  std::shared_ptr<ThreadPool> pool = GetPool();
  auto run_chunk = [&](int64_t c) {
    // Deterministic boundaries: functions of (n, num_chunks) only.
    const int64_t begin = n * c / num_chunks;
    const int64_t end = n * (c + 1) / num_chunks;
    if (begin < end) body(begin, end);
  };
  if (!pool) {
    for (int64_t c = 0; c < num_chunks; ++c) run_chunk(c);
    return;
  }
  pool->Run(num_chunks, run_chunk);
}

}  // namespace lipformer
