// Deterministic logical-time event scheduler.
//
// The paper's deposit phase requires SPs to "wait a random period of time"
// between coin deposits so that deposit timing does not betray which
// payment a coin came from. Real waiting would make experiments
// non-reproducible and slow; this scheduler realizes the same behaviour in
// logical time: actors schedule closures at PRNG-drawn future ticks and
// run_all() executes them in time order. The bank stamps ledger entries
// with the scheduler clock, so the attack analyses see realistic
// interleavings.
//
// Concurrency: scheduling is thread-safe, and run_all(ThreadPool&) drains
// the queue tick by tick, running the events of one tick in parallel on
// the pool with a barrier before the next tick — cross-tick order is
// preserved and the single-threaded run_all() (insertion-order tie-break,
// fully deterministic) remains the mode the attack analyses use. Only one
// drain runs at a time; a second caller blocks until the first finishes
// and then drains whatever is left.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>

#include "util/rng.h"

namespace ppms {

class ThreadPool;

/// Uniformly random delay in [min_delay, max_delay]. Throws MarketError
/// (kInvalidSchedule) on an inverted range (min_delay > max_delay) or one
/// whose width overflows, instead of drawing from a wrapped span.
std::uint64_t random_delay(SecureRandom& rng, std::uint64_t min_delay,
                           std::uint64_t max_delay);

class LogicalScheduler {
 public:
  using Action = std::function<void()>;

  /// Current logical time (advances only while running events).
  std::uint64_t now() const { return now_.load(std::memory_order_acquire); }

  /// Schedule `action` at now() + delay. The scheduling thread's
  /// TaskContext (accounting role + trace position) is captured and
  /// reinstated around the deferred run, so a deposit closure's op counts
  /// and trace spans attribute to the session that scheduled it. Throws
  /// MarketError (kInvalidSchedule) when now() + delay would overflow the
  /// 64-bit clock.
  void schedule_after(std::uint64_t delay, Action action);

  /// schedule_after(random_delay(rng, min_delay, max_delay), action).
  void schedule_random(SecureRandom& rng, std::uint64_t min_delay,
                       std::uint64_t max_delay, Action action);

  /// Run events in time order until the queue drains (events may schedule
  /// further events). Ties break in insertion order — fully deterministic.
  void run_all();

  /// Drain with same-tick parallelism: all events of the earliest tick are
  /// submitted to `pool` together and awaited before the next tick starts.
  /// Events of one tick may interleave arbitrarily; distinct ticks never
  /// overlap, so every ledger stamp equals the single-threaded drain's.
  void run_all(ThreadPool& pool);

  /// Run every event with time <= deadline (time order, seq tie-break) and
  /// advance now() to `deadline` — a bounded logical wait. Re-entrant: a
  /// running event may pump the clock forward while it waits for a delayed
  /// delivery (the retry loops in market/faults.h do exactly this). When
  /// another thread is mid-drain the call returns without running or
  /// advancing anything: the wait is then a pure timeout.
  void run_until(std::uint64_t deadline);

  std::size_t pending() const;

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// Pop every event sharing the earliest tick, in seq order, and advance
  /// now_ to that tick. Empty result means the queue is drained.
  std::vector<Event> pop_tick_batch();

  mutable std::mutex mu_;  ///< guards queue_ and next_seq_
  /// Serializes concurrent drains; recursive so an event may re-enter
  /// run_until on the draining thread (nested logical waits).
  std::recursive_mutex drain_mu_;
  std::atomic<std::uint64_t> now_{0};
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace ppms
