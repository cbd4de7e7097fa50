#include "runtime/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace manet::runtime {

unsigned Runner::effective_threads(std::size_t task_count) const {
  unsigned threads = config_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (task_count < threads) threads = static_cast<unsigned>(task_count);
  return std::max(threads, 1u);
}

std::vector<ReplicationResult> Runner::run(const ExperimentSpec& spec) {
  return run(spec.expand());
}

std::vector<ReplicationResult> Runner::run(
    const std::vector<ReplicationTask>& tasks_in) {
  std::vector<ReplicationResult> results(tasks_in.size());
  if (tasks_in.empty()) return results;

  // Intra- vs inter-replication split for sharded tasks: give each
  // replication floor(budget / concurrent replications) workers, but only
  // when the replications are big enough (>= kIntraNodeThreshold nodes)
  // for shard windows to amortize their barriers. Rewriting engine_threads
  // cannot change any output byte — sharded results are thread- and
  // shard-count invariant by contract (tests/psim_test.cpp).
  std::vector<ReplicationTask> tasks = tasks_in;
  {
    unsigned budget = config_.threads;
    if (budget == 0) budget = std::thread::hardware_concurrency();
    if (budget == 0) budget = 1;
    const unsigned outer =
        static_cast<unsigned>(std::min<std::size_t>(tasks.size(), budget));
    const unsigned inner = std::max(1u, budget / std::max(outer, 1u));
    for (auto& task : tasks) {
      if (task.engine != sim::EngineKind::kSharded) continue;
      task.engine_threads =
          task.point.num_nodes >= kIntraNodeThreshold ? inner : 1;
    }
  }

  // Every replication is independent and writes only its own result
  // slot, so one shared cursor hands tasks out as dynamically as any
  // scheduler could; the one-thread case runs the same worker inline.
  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards `done`, the progress calls and `first_error`
  std::size_t done = 0;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= tasks.size()) return;
      try {
        results[i] = run_replication(tasks[i]);
      } catch (...) {
        // Some replication failed: move the cursor past the end so every
        // worker stops after its current task.
        next.store(tasks.size());
        std::lock_guard lock{mutex};
        if (!first_error) first_error = std::current_exception();
        return;
      }
      if (progress_) {
        std::lock_guard lock{mutex};
        progress_(++done, tasks.size());
      }
    }
  };

  const unsigned threads = effective_threads(tasks.size());
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace manet::runtime
