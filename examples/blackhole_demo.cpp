// Blackhole (drop attack) scenario: a relay silently discards the control
// traffic it should flood. The E2 evidence path fires — the victim's scan
// sees that a TC it sent timed out with the selected MPR never heard
// retransmitting it, raises a drop trigger against that MPR, and
// investigates with a kForwarding query.

#include <cstdio>
#include <cstdlib>

#include "attacks/drop.hpp"
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
  // Chain n0-n1-n2-n3-n4: n2 is the only bridge and will blackhole.
  Network::Config cfg;
  cfg.seed = 5;
  cfg.radio.range_m = 120.0;
  cfg.positions = net::chain_layout(5, 100.0);
  Network net{cfg};

  auto drop = std::make_unique<attacks::DropAttack>(sim::Rng{1}, 1.0);
  auto* drop_ptr = drop.get();
  drop_ptr->set_active(false);  // let the network converge honestly first
  net.set_hooks(2, std::move(drop));

  auto& detector = net.add_detector(1);  // n1 selects n2 as MPR
  detector.set_report_callback([](const core::DetectionReport& r) {
    std::string tags;
    for (auto t : r.tags) tags += core::to_string(t) + " ";
    std::printf("[%7.1fs] suspect=%s detect=%+.2f verdict=%s tags=%s\n",
                r.time.seconds(), r.suspect.to_string().c_str(), r.detect,
                trust::to_string(r.verdict).c_str(), tags.c_str());
  });

  net.start_all();
  net.run_for(secs(30.0));
  std::printf("converged: %s; n1's MPRs include n2: %s\n",
              net.converged() ? "yes" : "no",
              net.agent(1).is_mpr(Network::id_of(2)) ? "yes"
                                                                 : "no");

  detector.start();
  drop_ptr->set_active(true);
  std::printf("-- n2 starts blackholing --\n");
  net.run_for(secs(60.0));

  std::printf("n2 dropped %llu control messages\n",
              static_cast<unsigned long long>(drop_ptr->dropped_control()));
  std::printf("n1's trust in n2: %.3f\n",
              detector.trust_store().trust(Network::id_of(2)));

  bool e2 = false;
  for (const auto& r : detector.reports())
    for (auto t : r.tags)
      if (t == core::EvidenceTag::kE2MprMisbehaving) e2 = true;
  std::printf("E2 (MPR misbehaving) evidence raised: %s\n", e2 ? "yes" : "no");
  return (e2 || scale < 1.0) ? 0 : 1;
}
