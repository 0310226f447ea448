#ifndef LIPFORMER_COMMON_THREAD_POOL_H_
#define LIPFORMER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

// Shared thread pool behind the tensor kernels (see ParallelFor below).
//
// Determinism contract: ParallelFor partitions [0, n) into contiguous
// chunks whose boundaries are pure functions of (n, grain, configured
// thread count) — never of timing. Kernels assign every output element to
// exactly one chunk and compute it with the same serial inner loop the
// single-threaded path uses, so results are bitwise identical for every
// thread count, including 1 (which bypasses the pool entirely and is
// exactly the historical serial path).

namespace lipformer {

// Fixed-size pool of persistent worker threads. A parallel region hands
// the pool `num_chunks` independent chunk indices; the calling thread
// participates, so a pool with W workers gives W+1-way parallelism.
// Concurrent Run calls from different threads are safe: every chunk of a
// job is claimed and executed by some thread (at minimum the job's own
// caller), workers just help whichever job is most recent. A nested
// ParallelFor runs inline on its thread (an in-parallel-region flag in
// thread_pool.cc), and serving relies on it: a compiled plan spreads the
// rows of a batch over the pool, and each row's kernels then run serially
// on that row's thread (serve/plan.h).
class ThreadPool {
 public:
  // Spawns `num_workers` worker threads (0 is valid: Run degenerates to a
  // serial loop on the caller).
  explicit ThreadPool(int num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(threads_.size()); }

  // Invokes fn(chunk) for every chunk in [0, num_chunks), distributing
  // chunks over the caller + workers; returns once all chunks completed.
  void Run(int64_t num_chunks, const std::function<void(int64_t)>& fn);

 private:
  // One parallel region. Heap-allocated and shared with the workers so a
  // late-waking worker from a finished region only ever touches its own
  // (exhausted) job state, never a newer region's.
  struct Job {
    const std::function<void(int64_t)>* fn = nullptr;
    int64_t total = 0;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
  };

  void WorkerLoop();
  static void RunChunks(Job* job);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // new job available (or shutdown)
  std::condition_variable done_cv_;  // a job finished its last chunk
  std::shared_ptr<Job> job_;         // guarded by mu_
  bool shutdown_ = false;            // guarded by mu_
};

// ---- Global pool configuration ----

// Threads suggested by the hardware (>= 1).
int HardwareThreads();

// Parses a thread count strictly (common/parse.h): a base-10 integer
// >= 1 that fits in int. `*out` is untouched on failure.
bool ParseNumThreads(const std::string& s, int* out);

// Default thread count: LIPF_NUM_THREADS if it parses (ParseNumThreads),
// else HardwareThreads(), with a warning when the variable is set but
// invalid.
int DefaultNumThreads();

// Sets the global thread count used by ParallelFor. 1 means fully serial
// (the pool is released). Rebuilds the pool; intended for startup / test
// configuration, not for calling concurrently with running kernels.
void SetNumThreads(int n);

// Current global thread count (resolves DefaultNumThreads on first call).
int GetNumThreads();

// Partitions [0, n) into contiguous chunks of at least `grain` iterations
// (boundaries depend only on n, grain and GetNumThreads()) and runs
// body(begin, end) for each chunk across the global pool. Runs
// body(0, n) inline when n <= grain, when only one thread is configured,
// or when already inside a parallel region (nesting runs inline).
void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body);

}  // namespace lipformer

#endif  // LIPFORMER_COMMON_THREAD_POOL_H_
