#include "core/gate.h"

namespace manirank {

void ContextGate::LockShared() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  if (exclusive_depth_ > 0 && exclusive_owner_ == self) {
    // The exclusive holder already excludes every other thread; its own
    // nested reads are trivially isolated.
    ++readers_;
    return;
  }
  cv_.wait(lock,
           [this] { return exclusive_depth_ == 0 && writers_waiting_ == 0; });
  ++readers_;
}

void ContextGate::UnlockShared() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--readers_ == 0) cv_.notify_all();
}

void ContextGate::LockExclusive() {
  std::unique_lock<std::mutex> lock(mu_);
  const std::thread::id self = std::this_thread::get_id();
  if (exclusive_depth_ > 0 && exclusive_owner_ == self) {
    ++exclusive_depth_;
    return;
  }
  ++writers_waiting_;
  cv_.wait(lock, [this] { return exclusive_depth_ == 0 && readers_ == 0; });
  --writers_waiting_;
  exclusive_owner_ = self;
  exclusive_depth_ = 1;
}

void ContextGate::UnlockExclusive() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--exclusive_depth_ == 0) {
    exclusive_owner_ = std::thread::id();
    cv_.notify_all();
  }
}

bool ContextGate::ThisThreadHoldsExclusive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exclusive_depth_ > 0 &&
         exclusive_owner_ == std::this_thread::get_id();
}

int ContextGate::readers_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return readers_;
}

}  // namespace manirank
