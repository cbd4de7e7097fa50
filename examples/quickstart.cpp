// Quickstart: build a small MANET, let OLSR converge, launch a link
// spoofing attack, and watch the trust-enabled detector confirm it.
//
// This is the 60-second tour of the library: Network wires the simulator,
// radio medium, OLSR agents and investigation endpoints together; the
// attacker gets a LinkSpoofingAttack hook; the victim gets a Detector.

#include <cstdio>
#include <cstdlib>

#include "attacks/link_spoofing.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

using namespace manet;

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
  // 9 nodes in a 3x3 grid, 100 m spacing, 160 m radio range: nodes talk to
  // their row/column/diagonal neighbors only, so MPR flooding matters.
  scenario::Network::Config cfg;
  cfg.seed = 7;
  cfg.radio.range_m = 160.0;
  cfg.positions = net::grid_layout(9, 100.0);
  scenario::Network net{cfg};

  // Node 4 (the grid center) is the attacker: it advertises a phantom node
  // n77 as a symmetric neighbor — the paper's Expression 1 variant, which
  // guarantees the attacker gets picked as an MPR.
  const net::NodeId phantom{77};
  auto spoof = std::make_unique<attacks::LinkSpoofingAttack>(
      attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
      std::set<net::NodeId>{phantom});
  auto* spoof_ptr = spoof.get();
  net.set_hooks(4, std::move(spoof));

  // Node 0 (a corner) runs the IDS.
  auto& detector = net.add_detector(0);
  detector.set_report_callback([](const core::DetectionReport& r) {
    std::printf("[%8s] report: suspect=%s subject=%s detect=%+.3f (%s)\n",
                r.time.to_string().c_str(), r.suspect.to_string().c_str(),
                r.subject.to_string().c_str(), r.detect,
                trust::to_string(r.verdict).c_str());
  });

  net.start_all();
  net.run_for(secs(20.0));
  std::printf("converged after 20 s: %s\n", net.converged() ? "yes" : "no");
  std::printf("attacker forged %llu HELLOs so far\n",
              static_cast<unsigned long long>(spoof_ptr->forged_count()));

  // The detector scans its audit log autonomously.
  detector.start();
  net.run_for(secs(60.0));

  // Summarize what the IDS concluded.
  std::size_t intruder_verdicts = 0;
  for (const auto& r : detector.reports())
    if (r.verdict == trust::Verdict::kIntruder &&
        r.suspect == scenario::Network::id_of(4))
      ++intruder_verdicts;

  std::printf("reports: %zu, intruder verdicts against n4: %zu\n",
              detector.reports().size(), intruder_verdicts);
  std::printf("trust in attacker n4 is now %.3f (default %.3f)\n",
              detector.trust_store().trust(scenario::Network::id_of(4)),
              detector.trust_store().params().default_trust);
  return (intruder_verdicts > 0 || scale < 1.0) ? 0 : 1;
}
