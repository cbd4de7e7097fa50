// Runs the perf-gauge micro benchmarks — medium broadcast rounds (spatial
// grid + per-cell receiver snapshots, sparse and dense), event-queue
// churn, MPR selection and link-set scans, knowledge-graph patching and
// the routing BFS, wire
// round-trip, the flat-slab trust store at >= 10k subjects, and the psim
// sharded-engine gauges (full-stack slabs, synthetic window throughput,
// serial-fraction counters), and the fault-subsystem checkpoint codec
// (save/restore throughput at 256 and 1024 nodes), plus the audit-event
// detection pipeline (in-memory consume at 256 and 1024 peer streams,
// decode-only throughput of the recorded format, and the kForwardAudit
// frame path; the end-to-end replay and grayhole round are benchmark/
// workloads), and the observability-layer gauges (disabled and enabled
// counter record, span record, registry snapshot) — with repeated runs and
// median aggregates, and
// writes the results to BENCH_27.json: the current point of this repo's
// recorded perf trajectory (see docs/BENCHMARKING.md for the whole series
// and its comparability rules; tools/bench_diff.py prints median deltas
// between consecutive BENCH_N files).
//
// Extra --benchmark_* flags are appended after the defaults, so e.g.
//   bench_report --benchmark_min_time=0.01s --benchmark_repetitions=2
// gives a quick CI smoke run.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

int main(int argc, char** argv) {
  std::vector<std::string> args = {
      argv[0],
      "--benchmark_out=BENCH_27.json",
      "--benchmark_out_format=json",
      "--benchmark_repetitions=5",
      "--benchmark_report_aggregates_only=true",
      "--benchmark_filter=BM_MediumBroadcast|BM_EventQueueChurn|"
      "BM_MprSelection|BM_HelloSerializeParse|BM_LinkSetScan|"
      "BM_RoutingRecompute|BM_KnowledgeGraphPatch|"
      "BM_SequentialSlab|BM_ShardedSlab|"
      "BM_SequentialWindows|BM_ShardedWindows|"
      "BM_TrustUpdateLarge|BM_TrustDecayAllLarge|"
      "BM_CheckpointSave|BM_CheckpointRestore|"
      "BM_DetectConsume|BM_AuditDecode|BM_ForwardAuditConsume|"
      "BM_CounterInc|BM_SpanEnterExit|BM_SpanDisabled|BM_RegistrySnapshot",
  };
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (auto& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());

  benchmark::Initialize(&argc2, argv2.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
