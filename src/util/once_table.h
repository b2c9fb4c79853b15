#ifndef SOI_UTIL_ONCE_TABLE_H_
#define SOI_UTIL_ONCE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "util/status.h"

namespace soi {

/// One run-once slot per item, for per-item state that is checked or
/// decoded on first use (a snapshot world's closure runs, its sketch runs).
/// Run(i, init) calls init() the first time any thread asks for slot i,
/// publishes the outcome, and returns that same Status to every later
/// caller: a failure stays failed. Callers racing on a pending slot wait for
/// the one running init; different slots initialize independently. The
/// fast path is one acquire load. Move-only.
class OnceTable {
 public:
  OnceTable() = default;
  /// `size` pending slots.
  explicit OnceTable(size_t size)
      : size_(size), slots_(std::make_unique<Slot[]>(size)) {}

  size_t size() const { return size_; }

  /// True once slot i's init has returned OK.
  bool ready(size_t i) const {
    return slots_[i].state.load(std::memory_order_acquire) == kReady;
  }

  template <typename Init>
  Status Run(size_t i, Init&& init) const {
    Slot& slot = slots_[i];
    uint8_t state = slot.state.load(std::memory_order_acquire);
    if (state == kPending) {
      std::lock_guard<std::mutex> lock(slot.mutex);
      state = slot.state.load(std::memory_order_relaxed);
      if (state == kPending) {
        Status status = init();
        state = status.ok() ? kReady : kFailed;
        if (!status.ok()) slot.error = std::move(status);
        slot.state.store(state, std::memory_order_release);
      }
    }
    return state == kReady ? Status::OK() : slot.error;
  }

 private:
  enum : uint8_t { kPending = 0, kReady = 1, kFailed = 2 };
  struct Slot {
    std::atomic<uint8_t> state{kPending};
    std::mutex mutex;
    Status error;  // written once, before state turns kFailed
  };
  size_t size_ = 0;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace soi

#endif  // SOI_UTIL_ONCE_TABLE_H_
