#ifndef MANIRANK_CORE_GATE_H_
#define MANIRANK_CORE_GATE_H_

#include <condition_variable>
#include <mutex>
#include <thread>

namespace manirank {

/// Reader/writer gate that promotes the ConsensusContext mutation-exclusion
/// contract from a debug-only check into a real synchronization layer.
///
/// Readers are method runs (RunMethod / RunAll); the writer is a profile
/// mutation (AddRanking / AddRankings / RemoveRanking) or a serving-layer
/// batch application. Semantics:
///
///  - Any number of readers may hold the gate concurrently.
///  - The exclusive side blocks until every reader drains, and while a
///    writer is waiting or active no new reader is admitted (writer
///    preference, so a serving loop's mutation waves cannot starve behind
///    a stream of queries).
///  - The exclusive side is re-entrant per thread: a ContextManager that
///    holds the gate to apply a queued batch may call the context's
///    mutation API, which re-acquires the same gate.
///  - LockShared from the thread that holds the exclusive side is admitted
///    immediately (exclusivity already guarantees isolation); releases
///    must be LIFO with respect to the exclusive hold.
///
/// A default-constructed ConsensusContext has no gate and keeps its
/// advisory throw-on-conflict behaviour; attaching a gate (one per table
/// shard in the serving layer) turns conflicts into blocking waits.
class ContextGate {
 public:
  ContextGate() = default;
  ContextGate(const ContextGate&) = delete;
  ContextGate& operator=(const ContextGate&) = delete;

  /// Reader side. Blocks while a writer is active or waiting, unless the
  /// calling thread itself holds the exclusive side.
  void LockShared();
  void UnlockShared();

  /// Writer side. Blocks until all readers drain; re-entrant per thread.
  void LockExclusive();
  void UnlockExclusive();

  /// True iff the calling thread currently holds the exclusive side.
  bool ThisThreadHoldsExclusive() const;

  /// Diagnostics (racy snapshot; exact only when externally quiesced).
  int readers_in_flight() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  int writers_waiting_ = 0;
  int exclusive_depth_ = 0;
  std::thread::id exclusive_owner_;
};

}  // namespace manirank

#endif  // MANIRANK_CORE_GATE_H_
