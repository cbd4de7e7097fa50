// Trust dynamics walkthrough: the §V experiment driven round by round,
// printing the investigator's view — Eq. 8 aggregate, Eq. 9 margin, Eq. 10
// verdict and the trust table — so you can watch liars lose influence.

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "scenario/trust_experiment.hpp"

using namespace manet;

int main(int argc, char** argv) {
  // argv[1] scales the number of rounds (CTest runs the full count).
  double scale = 1.0;
  if (argc > 1) {
    char* rest = nullptr;
    scale = std::strtod(argv[1], &rest);
    if (rest == nullptr || *rest != '\0' || !(scale > 0.0)) {
      std::fprintf(stderr, "usage: %s [time-scale > 0]\n", argv[0]);
      return 2;
    }
  }
  const int attack_rounds = std::max(1, static_cast<int>(12 * scale));
  const int idle_rounds = std::max(1, static_cast<int>(10 * scale));
  scenario::TrustExperiment::Config cfg;
  cfg.seed = 17;
  cfg.num_nodes = 16;
  cfg.num_liars = 4;
  scenario::TrustExperiment exp{cfg};
  exp.setup();

  std::printf("attacker: %s, phantom neighbor: %s\n",
              exp.attacker().to_string().c_str(),
              exp.phantom().to_string().c_str());
  std::printf("liars: ");
  for (auto l : exp.liars()) std::printf("%s ", l.to_string().c_str());
  std::printf("\n\n");

  for (int round = 1; round <= attack_rounds; ++round) {
    const auto snap = exp.run_round();
    double liar_avg = 0.0, honest_avg = 0.0;
    for (auto l : exp.liars()) liar_avg += snap.trust.at(l);
    for (auto h : exp.honest()) honest_avg += snap.trust.at(h);
    liar_avg /= static_cast<double>(exp.liars().size());
    honest_avg /= static_cast<double>(exp.honest().size());
    std::printf(
        "round %2d: detect=%+.3f margin=%.3f verdict=%-13s "
        "avg_trust honest=%.3f liars=%.3f\n",
        round, snap.detect, snap.margin,
        trust::to_string(snap.verdict).c_str(), honest_avg, liar_avg);
  }

  std::printf("\nattack ceases; forgetting factor takes over:\n");
  exp.cease_attack();
  for (int round = 1; round <= idle_rounds; ++round) {
    const auto snap = exp.run_idle_round();
    double liar_avg = 0.0;
    for (auto l : exp.liars()) liar_avg += snap.trust.at(l);
    liar_avg /= static_cast<double>(exp.liars().size());
    std::printf("idle %2d: former-liar avg trust=%.3f (default %.1f)\n", round,
                liar_avg, 0.4);
  }
  return 0;
}
