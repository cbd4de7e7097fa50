// Micro-benchmarks of the OLSR substrate: MPR selection, knowledge-graph
// patching, routing-table computation, wire (de)serialization and
// audit-log parsing throughput.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "logging/format.hpp"
#include "olsr/link_set.hpp"
#include "olsr/mpr_selection.hpp"
#include "olsr/neighbor_table.hpp"
#include "olsr/routing_table.hpp"
#include "olsr/wire.hpp"
#include "sim/rng.hpp"

using namespace manet;
using olsr::NodeId;

namespace {

olsr::MprInputs random_mpr_inputs(std::size_t n1, std::size_t n2,
                                  std::uint64_t seed) {
  sim::Rng rng{seed};
  olsr::MprInputs in;
  for (std::size_t i = 1; i <= n1; ++i)
    in.neighbors.emplace_back(NodeId{static_cast<std::uint32_t>(i)},
                              olsr::Willingness::kDefault);
  in.reach.resize(n1);
  for (std::size_t i = 0; i < n1; ++i)
    in.reach[i].first = NodeId{static_cast<std::uint32_t>(i + 1)};
  for (std::size_t j = 0; j < n2; ++j) {
    const NodeId two_hop{static_cast<std::uint32_t>(1000 + j)};
    const auto providers = rng.uniform_int(1, static_cast<std::int64_t>(n1));
    for (std::int64_t k = 0; k < providers; ++k) {
      const auto via = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(n1)) - 1);
      in.reach[via].second.push_back(two_hop);
    }
  }
  for (auto& [via, ths] : in.reach) {
    std::sort(ths.begin(), ths.end());
    ths.erase(std::unique(ths.begin(), ths.end()), ths.end());
  }
  std::erase_if(in.reach, [](const auto& p) { return p.second.empty(); });
  return in;
}

olsr::KnowledgeGraph random_graph(std::size_t nodes, std::size_t degree,
                                  std::uint64_t seed) {
  sim::Rng rng{seed};
  olsr::KnowledgeGraph g;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t d = 0; d < degree; ++d) {
      const auto j = static_cast<std::uint32_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
      if (j == i) continue;
      g.add_edge(NodeId{static_cast<std::uint32_t>(i)}, NodeId{j});
    }
  }
  return g;
}

}  // namespace

static void BM_MprSelection(benchmark::State& state) {
  const auto in = random_mpr_inputs(static_cast<std::size_t>(state.range(0)),
                                    static_cast<std::size_t>(state.range(1)),
                                    42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(olsr::select_mprs(in));
  }
}
// {63, 63} is the paper's N=64 full mesh while OLSR converges: every
// other node is a via, and the 2-hop set is as large as the mesh.
BENCHMARK(BM_MprSelection)
    ->Args({8, 20})
    ->Args({16, 60})
    ->Args({32, 200})
    ->Args({63, 63});

static void BM_RoutingRecompute(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 4, 7);
  for (auto _ : state) {
    // Fresh table per iteration: recompute now short-circuits an unchanged
    // graph, so reusing one table would measure the no-op check only.
    olsr::RoutingTable rt;
    benchmark::DoNotOptimize(rt.recompute(NodeId{0}, g));
  }
}
BENCHMARK(BM_RoutingRecompute)->Arg(16)->Arg(64)->Arg(256);

// The dense-cluster regime of the scale presets: every node sees ~70+
// neighbors, so the knowledge graph is near-complete and the BFS frontier
// is maximal. This is the control-plane profiling target ROADMAP promotes
// after the medium fast paths (see micro_psim for the engine side);
// BENCH_5.json recorded the std::map baseline, BENCH_6.json the flat-slab
// CSR rebuild, BENCH_13.json the BFS over the live graph. A fresh table
// per iteration forces the BFS.
static void BM_RoutingRecomputeDense(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(1)), 7);
  for (auto _ : state) {
    olsr::RoutingTable rt;
    benchmark::DoNotOptimize(rt.recompute(NodeId{0}, g));
  }
}
BENCHMARK(BM_RoutingRecomputeDense)->Args({256, 70})->Args({1024, 78});

// The live graph's unit of work: one HELLO changes one neighbor's 2-hop
// membership in the paper's N=64 full mesh. The neighbor table reports the
// delta and the graph takes it as reference-count patches; iterations
// alternate dropping and restoring one advertised node. (Routing re-runs
// its BFS only when such a patch changes the arc set.)
static void BM_KnowledgeGraphPatch(benchmark::State& state) {
  constexpr std::uint32_t kNodes = 64;
  const NodeId self{0};
  const auto until = sim::Time::from_seconds(60.0);
  olsr::NeighborTable table;
  olsr::KnowledgeGraph g;
  olsr::EdgeDelta delta;
  auto patch = [&] {
    for (const auto& [a, b] : delta.added) g.add_edge(a, b);
    for (const auto& [a, b] : delta.removed) g.remove_edge(a, b);
    delta.clear();
  };
  std::vector<NodeId> full;
  for (std::uint32_t via = 1; via < kNodes; ++via) {
    g.add_edge(self, NodeId{via});
    full.clear();
    for (std::uint32_t n = 1; n < kNodes; ++n)
      if (n != via) full.push_back(NodeId{n});
    table.set_two_hops_via(NodeId{via}, full, until, &delta);
    patch();
  }
  const NodeId via{kNodes / 2};
  full = table.two_hops_via(via);
  auto dropped = full;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(kNodes / 4));
  bool flip = false;
  for (auto _ : state) {
    table.set_two_hops_via(via, flip ? full : dropped, until, &delta);
    patch();
    flip = !flip;
  }
  benchmark::DoNotOptimize(g.arc_count());
}
BENCHMARK(BM_KnowledgeGraphPatch);

// Link-set scans run on every HELLO build (symmetric + asymmetric
// enumeration) and on every HELLO receipt (is_symmetric); at >= 70
// neighbors per node they are the hottest OLSR table walk.
static void BM_LinkSetScan(benchmark::State& state) {
  const auto degree = static_cast<std::uint32_t>(state.range(0));
  olsr::LinkSet links;
  const auto hold = sim::Duration::from_seconds(6.0);
  for (std::uint32_t i = 0; i < degree; ++i)
    links.on_hello(sim::Time{}, NodeId{i + 1}, /*lists_us=*/true,
                   /*lost_us=*/false, hold);
  const auto now = sim::Duration::from_ms(1);
  std::vector<NodeId> sym, asym;
  for (auto _ : state) {
    links.symmetric_neighbors(now, sym);
    benchmark::DoNotOptimize(sym);
    links.asymmetric_neighbors(now, asym);
    benchmark::DoNotOptimize(asym);
    benchmark::DoNotOptimize(links.is_symmetric(now, NodeId{degree / 2}));
  }
  state.SetItemsProcessed(state.iterations() * degree);
}
BENCHMARK(BM_LinkSetScan)->Arg(16)->Arg(70)->Arg(150);

static void BM_ShortestPathAvoiding(benchmark::State& state) {
  const auto g = random_graph(static_cast<std::size_t>(state.range(0)), 4, 7);
  const std::vector<NodeId> avoid{NodeId{1}, NodeId{2}};  // sorted
  for (auto _ : state) {
    benchmark::DoNotOptimize(olsr::RoutingTable::shortest_path(
        g, NodeId{0}, NodeId{static_cast<std::uint32_t>(state.range(0) - 1)},
        avoid));
  }
}
BENCHMARK(BM_ShortestPathAvoiding)->Arg(64)->Arg(256);

static void BM_HelloSerializeParse(benchmark::State& state) {
  olsr::HelloMessage h;
  for (std::uint32_t i = 0; i < 16; ++i)
    h.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh, NodeId{i});
  olsr::Message m;
  m.header.type = olsr::MessageType::kHello;
  m.header.originator = NodeId{0};
  m.body = h;
  olsr::OlsrPacket p;
  p.messages.push_back(m);
  for (auto _ : state) {
    const auto bytes = olsr::serialize_packet(p);
    benchmark::DoNotOptimize(olsr::parse_packet(bytes));
  }
}
BENCHMARK(BM_HelloSerializeParse);

static void BM_LogParse(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 1000; ++i) {
    const std::vector<net::NodeId> sym{net::NodeId{1}, net::NodeId{2},
                                       net::NodeId{4}, net::NodeId{7}};
    const logging::LogRecord r{sim::Time::from_us(i * 1000), net::NodeId{3},
                               logging::Event::kHelloRecv, net::NodeId{5},
                               i, sym, std::vector<net::NodeId>{}, 1, 3};
    text += logging::format_record(r);
    text += '\n';
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(logging::parse_log(text));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LogParse);
