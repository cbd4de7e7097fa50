#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "runtime/experiment_spec.hpp"

namespace manet::runtime {

/// Parallel replication executor over two orthogonal axes.
///
/// Inter-replication: every ReplicationTask owns a private engine stack and
/// RNG streams, and worker threads take the next task index from one
/// shared atomic cursor until the list runs out.
///
/// Intra-replication: tasks that select the psim sharded engine can spend
/// several workers *inside* one replication. Because sharded results are
/// invariant to the worker and shard counts (the psim determinism
/// contract), the Runner freely splits its thread budget: replications
/// outnumbering the budget run with one thread each (inter wins); a few
/// huge replications — the N >= kIntraNodeThreshold regime where a single
/// dense replication is the wall-clock bottleneck — get the leftover
/// workers as shard lanes instead.
///
/// Results land in slots keyed by task index, so the output order — and
/// therefore every downstream aggregate — is identical for any thread
/// count, on either axis.
class Runner {
 public:
  struct Config {
    /// 0 = std::thread::hardware_concurrency().
    unsigned threads = 0;
  };

  /// Called after each finished replication with (done, total). May be
  /// invoked from worker threads, but never concurrently.
  using ProgressFn = std::function<void(std::size_t, std::size_t)>;

  Runner() = default;
  explicit Runner(Config config) : config_{config} {}

  void set_progress(ProgressFn fn) { progress_ = std::move(fn); }

  /// Expands the spec and runs every replication. Rethrows the first
  /// exception any worker hit (after all workers have stopped).
  std::vector<ReplicationResult> run(const ExperimentSpec& spec);

  /// Same over an explicit task list (results ordered by position in
  /// `tasks`, regardless of which thread ran what).
  std::vector<ReplicationResult> run(const std::vector<ReplicationTask>& tasks);

  /// Threads a run with this config will actually use for `task_count` tasks.
  unsigned effective_threads(std::size_t task_count) const;

  /// Node count from which a sharded replication is worth worker threads of
  /// its own (below it, per-window work cannot amortize the barriers).
  static constexpr std::size_t kIntraNodeThreshold = 64;

 private:
  Config config_{};
  ProgressFn progress_;
};

}  // namespace manet::runtime
