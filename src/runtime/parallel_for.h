#ifndef SOI_RUNTIME_PARALLEL_FOR_H_
#define SOI_RUNTIME_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/thread_pool.h"

namespace soi {

/// Deterministic data-parallel loops over index ranges.
///
/// The contract every parallel algorithm in this library follows:
///
///   1. Work item i derives everything it needs (in particular its random
///      stream, via Rng::Fork(i)) from its *index*, never from the executing
///      thread or from other items.
///   2. Items write only to their own slot of a pre-sized output.
///   3. Floating-point accumulations are committed sequentially in index
///      (or chunk-index) order after the parallel region.
///
/// Under that contract results are bit-identical for every thread count,
/// including 1, so `--threads N` is a pure performance knob.

/// Sets the process-wide thread budget. 0 means "hardware concurrency";
/// 1 disables the pool entirely (all loops run inline on the caller).
/// Not safe to call while a parallel region is executing.
void SetGlobalThreads(uint32_t num_threads);

/// The resolved thread budget (always >= 1).
uint32_t GlobalThreads();

/// The shared pool backing parallel loops: GlobalThreads() - 1 workers (the
/// calling thread is the remaining one). nullptr when GlobalThreads() == 1.
/// Created lazily on first use.
ThreadPool* GlobalPool();

/// Number of chunks ParallelForChunks will split `range` items into given a
/// minimum chunk size `grain`: at most GlobalThreads() chunks, each of at
/// least min(grain, range) items. Deterministic for a fixed thread budget;
/// use it to pre-size per-chunk accumulators. Returns 0 for an empty range.
uint32_t PlannedChunks(uint64_t range, uint64_t grain);

/// Runs fn(chunk_index, chunk_begin, chunk_end) over a static partition of
/// [begin, end) into PlannedChunks(end - begin, grain) contiguous chunks.
/// Chunk boundaries are fixed up front (static chunking); idle threads pick
/// up whole chunks, never fractions. Blocks until every chunk has run, and
/// never on a busy pool: the caller runs whatever chunks no worker claims.
/// Nested calls from inside a chunk run inline on the worker.
void ParallelForChunks(
    uint64_t begin, uint64_t end, uint64_t grain,
    const std::function<void(uint32_t, uint64_t, uint64_t)>& fn);

/// Runs fn(i) for every i in [begin, end), parallelized over chunks.
template <typename Fn>
void ParallelFor(uint64_t begin, uint64_t end, uint64_t grain, Fn&& fn) {
  ParallelForChunks(begin, end, grain,
                    [&fn](uint32_t /*chunk*/, uint64_t b, uint64_t e) {
                      for (uint64_t i = b; i < e; ++i) fn(i);
                    });
}

/// Maps fn over [begin, end) into a vector ordered by index: out[i - begin]
/// = fn(i). T must be default-constructible.
template <typename T, typename Fn>
std::vector<T> ParallelMap(uint64_t begin, uint64_t end, uint64_t grain,
                           Fn&& fn) {
  std::vector<T> out(end > begin ? end - begin : 0);
  ParallelFor(begin, end, grain,
              [&out, &fn, begin](uint64_t i) { out[i - begin] = fn(i); });
  return out;
}

/// Sequential in-order fold of per-item (or per-chunk) partial results:
/// acc = op(acc, parts[0]), then parts[1], ... Index order makes
/// floating-point accumulation deterministic regardless of which threads
/// produced the parts.
template <typename U, typename T, typename Op>
U OrderedReduce(const std::vector<T>& parts, U init, Op&& op) {
  for (const T& part : parts) init = op(std::move(init), part);
  return init;
}

}  // namespace soi

#endif  // SOI_RUNTIME_PARALLEL_FOR_H_
