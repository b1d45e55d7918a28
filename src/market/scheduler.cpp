#include "market/scheduler.h"

#include <future>
#include <limits>
#include <vector>

#include "market/error.h"
#include "obs/metrics.h"
#include "util/task_context.h"
#include "util/thread_pool.h"

namespace ppms {

std::uint64_t random_delay(SecureRandom& rng, std::uint64_t min_delay,
                           std::uint64_t max_delay) {
  if (min_delay > max_delay) {
    throw MarketError(MarketErrc::kInvalidSchedule,
                      "random_delay: min_delay > max_delay");
  }
  if (max_delay - min_delay == std::numeric_limits<std::uint64_t>::max()) {
    throw MarketError(MarketErrc::kInvalidSchedule,
                      "random_delay: delay range width overflows");
  }
  return min_delay + rng.uniform(max_delay - min_delay + 1);
}

void LogicalScheduler::schedule_after(std::uint64_t delay, Action action) {
  if (delay > std::numeric_limits<std::uint64_t>::max() - now()) {
    throw MarketError(MarketErrc::kInvalidSchedule,
                      "schedule_after: now() + delay overflows the clock");
  }
  obs::counter("market.scheduler.scheduled").add();
  // Deferred actions run under the scheduling session's context so their
  // op counts and trace spans attribute to that session (the deposit
  // closures of both mechanisms go through here).
  Event event{now() + delay, 0,
              [ctx = capture_task_context(), action = std::move(action)] {
                ScopedTaskContext as_scheduler(ctx);
                action();
              }};
  std::lock_guard lock(mu_);
  event.seq = next_seq_++;
  queue_.push(std::move(event));
}

void LogicalScheduler::schedule_random(SecureRandom& rng,
                                       std::uint64_t min_delay,
                                       std::uint64_t max_delay,
                                       Action action) {
  schedule_after(random_delay(rng, min_delay, max_delay), std::move(action));
}

std::size_t LogicalScheduler::pending() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

void LogicalScheduler::run_until(std::uint64_t deadline) {
  static obs::Counter& executed = obs::counter("market.scheduler.executed");
  std::unique_lock<std::recursive_mutex> drain(drain_mu_, std::try_to_lock);
  // Another thread owns the drain: do not race it for events — the caller
  // experiences a plain timeout and retries.
  if (!drain.owns_lock()) return;
  for (;;) {
    Event event{0, 0, nullptr};
    {
      std::lock_guard lock(mu_);
      if (queue_.empty() || queue_.top().time > deadline) break;
      event = queue_.top();
      queue_.pop();
      now_.store(event.time, std::memory_order_release);
    }
    event.action();
    executed.add();
  }
  // Waiting advances logical time even when nothing was runnable.
  std::uint64_t observed = now_.load(std::memory_order_acquire);
  while (observed < deadline &&
         !now_.compare_exchange_weak(observed, deadline,
                                     std::memory_order_acq_rel)) {
  }
}

void LogicalScheduler::run_all() {
  static obs::Counter& executed = obs::counter("market.scheduler.executed");
  std::lock_guard drain(drain_mu_);
  for (;;) {
    Event event{0, 0, nullptr};
    {
      std::lock_guard lock(mu_);
      if (queue_.empty()) break;
      // Copy out before pop: the action may schedule more events.
      event = queue_.top();
      queue_.pop();
      now_.store(event.time, std::memory_order_release);
    }
    event.action();
    executed.add();
  }
}

std::vector<LogicalScheduler::Event> LogicalScheduler::pop_tick_batch() {
  std::vector<Event> batch;
  std::lock_guard lock(mu_);
  if (queue_.empty()) return batch;
  const std::uint64_t tick = queue_.top().time;
  while (!queue_.empty() && queue_.top().time == tick) {
    batch.push_back(queue_.top());
    queue_.pop();
  }
  now_.store(tick, std::memory_order_release);
  return batch;
}

void LogicalScheduler::run_all(ThreadPool& pool) {
  static obs::Counter& executed = obs::counter("market.scheduler.executed");
  static obs::Counter& batches =
      obs::counter("market.scheduler.parallel_batches");
  std::lock_guard drain(drain_mu_);
  for (;;) {
    std::vector<Event> batch = pop_tick_batch();
    if (batch.empty()) break;
    if (batch.size() == 1) {
      batch.front().action();
    } else {
      batches.add();
      std::vector<std::future<void>> done;
      done.reserve(batch.size());
      for (Event& event : batch) {
        done.push_back(pool.submit(std::move(event.action)));
      }
      // Barrier: the next tick must not start while this one runs. Wait
      // for every event, then surface the first failure (if any).
      std::exception_ptr first_error;
      for (auto& fut : done) {
        try {
          fut.get();
        } catch (...) {
          if (!first_error) first_error = std::current_exception();
        }
      }
      if (first_error) std::rethrow_exception(first_error);
    }
    executed.add(batch.size());
  }
}

}  // namespace ppms
