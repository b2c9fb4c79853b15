#include "runtime/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "util/check.h"

namespace soi {

namespace {

std::mutex g_config_mu;
uint32_t g_threads = 0;  // 0 = unresolved, use hardware concurrency
std::unique_ptr<ThreadPool> g_pool;
bool g_pool_built = false;

uint32_t ResolvedThreadsLocked() {
  return g_threads == 0 ? ThreadPool::HardwareConcurrency() : g_threads;
}

}  // namespace

void SetGlobalThreads(uint32_t num_threads) {
  std::lock_guard<std::mutex> lock(g_config_mu);
  g_threads = num_threads;
  g_pool.reset();  // rebuilt lazily with the new budget
  g_pool_built = false;
}

uint32_t GlobalThreads() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  return ResolvedThreadsLocked();
}

ThreadPool* GlobalPool() {
  std::lock_guard<std::mutex> lock(g_config_mu);
  if (!g_pool_built) {
    const uint32_t threads = ResolvedThreadsLocked();
    // The caller of a parallel region is itself one of the `threads` lanes.
    if (threads > 1) g_pool = std::make_unique<ThreadPool>(threads - 1);
    g_pool_built = true;
  }
  return g_pool.get();
}

uint32_t PlannedChunks(uint64_t range, uint64_t grain) {
  if (range == 0) return 0;
  grain = std::max<uint64_t>(1, grain);
  const uint64_t cap =
      std::min<uint64_t>(GlobalThreads(), (range + grain - 1) / grain);
  const uint64_t chunk_size = (range + cap - 1) / cap;
  return static_cast<uint32_t>((range + chunk_size - 1) / chunk_size);
}

void ParallelForChunks(
    uint64_t begin, uint64_t end, uint64_t grain,
    const std::function<void(uint32_t, uint64_t, uint64_t)>& fn) {
  if (end <= begin) return;
  const uint64_t range = end - begin;
  const uint32_t num_chunks = PlannedChunks(range, grain);
  const uint64_t chunk_size = (range + num_chunks - 1) / num_chunks;

  ThreadPool* pool = GlobalPool();
  if (num_chunks == 1 || pool == nullptr || pool->InWorker()) {
    // Serial (or nested-inside-a-worker) execution: same chunk
    // decomposition, run in order on this thread.
    for (uint32_t c = 0; c < num_chunks; ++c) {
      const uint64_t b = begin + c * chunk_size;
      fn(c, b, std::min(end, b + chunk_size));
    }
    return;
  }

  // Static chunk boundaries; threads claim whole chunks via a shared cursor.
  // The caller waits for finished chunks, not for its helpers: it can run
  // every chunk alone, so the region completes even when no worker is free
  // (say, all of them wait on a lock the caller holds). The state is shared
  // so a helper the pool starts after the caller returned finds no chunk
  // left and touches nothing on the caller's stack.
  struct Region {
    const std::function<void(uint32_t, uint64_t, uint64_t)>* fn;
    uint64_t begin, end, chunk_size;
    uint32_t num_chunks;
    std::atomic<uint64_t> next_chunk{0};
    std::mutex mu;
    std::condition_variable cv;
    uint32_t done = 0;  // finished chunks, guarded by mu

    void RunChunks() {
      uint32_t ran = 0;
      uint64_t c;
      while ((c = next_chunk.fetch_add(1, std::memory_order_relaxed)) <
             num_chunks) {
        const uint64_t b = begin + c * chunk_size;
        (*fn)(static_cast<uint32_t>(c), b, std::min(end, b + chunk_size));
        ++ran;
      }
      if (ran == 0) return;
      std::lock_guard<std::mutex> lock(mu);
      done += ran;
      if (done == num_chunks) cv.notify_one();
    }
  };
  const auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->begin = begin;
  region->end = end;
  region->chunk_size = chunk_size;
  region->num_chunks = num_chunks;
  const uint32_t num_helpers =
      std::min<uint32_t>(pool->num_threads(), num_chunks - 1);
  for (uint32_t i = 0; i < num_helpers; ++i) {
    pool->Submit([region] { region->RunChunks(); });
  }
  region->RunChunks();  // the calling thread is a full participant
  std::unique_lock<std::mutex> lock(region->mu);
  region->cv.wait(lock, [&] { return region->done == num_chunks; });
}

}  // namespace soi
