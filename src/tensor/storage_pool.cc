#include "tensor/storage_pool.h"

#include <mutex>
#include <new>

#include "common/logging.h"

namespace lipformer {
namespace {

using internal::StorageBlock;

constexpr int64_t kMinCapacity = 16;  // floats; one cache line of payload
constexpr int kMinClass = 4;          // log2(kMinCapacity)
constexpr int kNumClasses = 44;       // up to 2^(4+43) floats
constexpr int64_t kMaxCapacity = kMinCapacity << (kNumClasses - 1);
// Freelists are bounded so a transient spike (e.g. one huge eval batch)
// cannot pin memory forever: at most 64 blocks or ~64 MB parked per class,
// whichever is smaller, with at least one slot so the hot path always
// recycles.
constexpr int64_t kMaxParkedPerClass = 64;
constexpr int64_t kMaxParkedBytesPerClass = int64_t{1} << 26;

struct FreeList {
  StorageBlock* head = nullptr;
  int64_t count = 0;
};

struct Pool {
  std::mutex mu;
  FreeList lists[kNumClasses];
  std::atomic<int64_t> acquires{0};
  std::atomic<int64_t> pool_hits{0};
  std::atomic<int64_t> heap_allocs{0};
  std::atomic<int64_t> bytes_live{0};
  std::atomic<int64_t> bytes_pooled{0};
  std::atomic<bool> enabled{true};
};

// Leaked on purpose: Tensors with static storage duration may release
// after any pool destructor would have run.
Pool& ThePool() {
  static Pool* pool = new Pool;
  return *pool;
}

StorageBlock* NewBlock(int cls, int64_t capacity, bool pooled) {
  void* raw = ::operator new(
      sizeof(StorageBlock) + static_cast<size_t>(capacity) * sizeof(float),
      std::align_val_t{64});
  StorageBlock* block = static_cast<StorageBlock*>(raw);
  block->refs.store(1, std::memory_order_relaxed);
  block->capacity = capacity;
  block->size_class = cls;
  block->pooled = pooled;
  block->next = nullptr;
  return block;
}

void FreeBlock(StorageBlock* block) {
  ::operator delete(static_cast<void*>(block), std::align_val_t{64});
}

// log2 of the capacity Acquire reserves for `numel` floats. Fails loudly
// above the largest class, where doubling the capacity would overflow.
int SizeClass(int64_t numel) {
  LIPF_CHECK_LE(numel, kMaxCapacity)
      << "storage request exceeds the largest size class";
  int cls = kMinClass;
  while ((int64_t{1} << cls) < numel) ++cls;
  return cls;
}

}  // namespace

int64_t StorageCapacityForNumel(int64_t numel) {
  return int64_t{1} << SizeClass(numel);
}

Storage Storage::Acquire(int64_t numel) {
  Pool& pool = ThePool();
  pool.acquires.fetch_add(1, std::memory_order_relaxed);

  const int cls = SizeClass(numel);
  const int64_t capacity = int64_t{1} << cls;

  const bool enabled = pool.enabled.load(std::memory_order_relaxed);
  StorageBlock* block = nullptr;
  if (enabled) {
    FreeList& list = pool.lists[cls - kMinClass];
    std::lock_guard<std::mutex> lock(pool.mu);
    if (list.head != nullptr) {
      block = list.head;
      list.head = block->next;
      --list.count;
    }
  }

  const int64_t bytes = capacity * static_cast<int64_t>(sizeof(float));
  if (block != nullptr) {
    pool.pool_hits.fetch_add(1, std::memory_order_relaxed);
    pool.bytes_pooled.fetch_sub(bytes, std::memory_order_relaxed);
    block->refs.store(1, std::memory_order_relaxed);
    block->next = nullptr;
  } else {
    pool.heap_allocs.fetch_add(1, std::memory_order_relaxed);
    block = NewBlock(cls, capacity, enabled);
  }
  pool.bytes_live.fetch_add(bytes, std::memory_order_relaxed);

  Storage storage;
  storage.block_ = block;
  return storage;
}

void Storage::Release() {
  StorageBlock* block = block_;
  if (block == nullptr) return;
  block_ = nullptr;
  if (block->refs.fetch_sub(1, std::memory_order_acq_rel) != 1) return;

  Pool& pool = ThePool();
  const int64_t bytes = block->capacity * static_cast<int64_t>(sizeof(float));
  pool.bytes_live.fetch_sub(bytes, std::memory_order_relaxed);

  if (block->pooled && pool.enabled.load(std::memory_order_relaxed)) {
    FreeList& list = pool.lists[block->size_class - kMinClass];
    std::lock_guard<std::mutex> lock(pool.mu);
    if (list.count < kMaxParkedPerClass &&
        (list.count + 1) * bytes <= kMaxParkedBytesPerClass) {
      block->next = list.head;
      list.head = block;
      ++list.count;
      pool.bytes_pooled.fetch_add(bytes, std::memory_order_relaxed);
      return;
    }
  }
  FreeBlock(block);
}

StoragePoolStats GetStoragePoolStats() {
  Pool& pool = ThePool();
  StoragePoolStats stats;
  stats.acquires = pool.acquires.load(std::memory_order_relaxed);
  stats.pool_hits = pool.pool_hits.load(std::memory_order_relaxed);
  stats.heap_allocs = pool.heap_allocs.load(std::memory_order_relaxed);
  stats.bytes_live = pool.bytes_live.load(std::memory_order_relaxed);
  stats.bytes_pooled = pool.bytes_pooled.load(std::memory_order_relaxed);
  return stats;
}

void ResetStoragePoolCounters() {
  Pool& pool = ThePool();
  pool.acquires.store(0, std::memory_order_relaxed);
  pool.pool_hits.store(0, std::memory_order_relaxed);
  pool.heap_allocs.store(0, std::memory_order_relaxed);
}

bool StoragePoolEnabled() {
  return ThePool().enabled.load(std::memory_order_relaxed);
}

void SetStoragePoolEnabled(bool enabled) {
  ThePool().enabled.store(enabled, std::memory_order_relaxed);
}

void ClearStoragePool() {
  Pool& pool = ThePool();
  StorageBlock* to_free = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool.mu);
    for (FreeList& list : pool.lists) {
      while (list.head != nullptr) {
        StorageBlock* block = list.head;
        list.head = block->next;
        --list.count;
        block->next = to_free;
        to_free = block;
      }
    }
    pool.bytes_pooled.store(0, std::memory_order_relaxed);
  }
  while (to_free != nullptr) {
    StorageBlock* block = to_free;
    to_free = block->next;
    FreeBlock(block);
  }
}

}  // namespace lipformer
