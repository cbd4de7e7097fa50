// Mobility scenario (the paper's stated future work): nodes move under
// random waypoint while a link spoofing attack runs. Shows that the
// log-based detection keeps working as the topology churns, and how the
// investigation copes with verifiers drifting out of reach.

#include <cstdio>
#include <cstdlib>

#include "attacks/link_spoofing.hpp"
#include "net/mobility.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

using namespace manet;
using scenario::Network;

int main(int argc, char** argv) {
  // argv[1] scales the simulated durations; the detection outcome is only
  // asserted at full scale, the default, which is how CTest runs it.
  double scale = 1.0;
  if (argc > 1) {
    char* rest = nullptr;
    scale = std::strtod(argv[1], &rest);
    if (rest == nullptr || *rest != '\0' || !(scale > 0.0)) {
      std::fprintf(stderr, "usage: %s [time-scale > 0]\n", argv[0]);
      return 2;
    }
  }
  const auto secs = [scale](double s) {
    return sim::Duration::from_seconds(s * scale);
  };
  Network::Config cfg;
  cfg.seed = 13;
  cfg.radio.range_m = 220.0;
  cfg.positions = net::grid_layout(12, 90.0);
  Network net{cfg};

  const net::NodeId phantom{404};
  net.set_hooks(6, std::make_unique<attacks::LinkSpoofingAttack>(
                       attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                       std::set<net::NodeId>{phantom}));

  net::RandomWaypoint::Config mc;
  mc.area_width = 3 * 90.0;
  mc.area_height = 4 * 90.0;
  mc.speed_min_mps = 0.5;
  mc.speed_max_mps = 2.0;
  for (std::size_t i = 0; i < 12; ++i)
    net.set_mobility(i, std::make_unique<net::RandomWaypoint>(
                            net.medium().position(Network::id_of(i)), mc));

  auto& detector = net.add_detector(0);
  net.start_all();
  net.run_for(secs(25.0));
  detector.start();
  net.run_for(secs(120.0));

  std::size_t intruder = 0, unrecognized = 0, timeouts = 0;
  for (const auto& r : detector.reports()) {
    timeouts += r.timeouts;
    if (r.verdict == trust::Verdict::kIntruder &&
        r.suspect == Network::id_of(6))
      ++intruder;
    if (r.verdict == trust::Verdict::kUnrecognized) ++unrecognized;
  }
  std::printf("reports: %zu (intruder verdicts against n6: %zu, "
              "unrecognized: %zu, answer timeouts: %zu)\n",
              detector.reports().size(), intruder, unrecognized, timeouts);
  std::printf("trust in the spoofer n6: %.3f\n",
              detector.trust_store().trust(Network::id_of(6)));
  std::printf("investigation retries: %llu, route failures: %llu\n",
              static_cast<unsigned long long>(
                  net.investigations(0).stats().retries),
              static_cast<unsigned long long>(
                  net.investigations(0).stats().route_failures));
  return (intruder > 0 || scale < 1.0) ? 0 : 1;
}
