// Figure 1 — "Trustworthiness": trust values as seen by the attacked node
// over 25 investigation rounds. 16 nodes, 1 link-spoofing attacker, 4
// colluding liars, random initial trust. The paper's shape: liar trust
// decays steeply regardless of its initial value; honest nodes gain a
// little; ordering honest > liar holds from early rounds on.

#include <cstdio>

#include "scenario/trust_experiment.hpp"
#include "stats/time_series.hpp"

using namespace manet;

int main() {
  scenario::TrustExperiment::Config cfg;
  cfg.seed = 3;
  cfg.num_nodes = 16;
  cfg.num_liars = 4;  // the paper's 26.3%
  scenario::TrustExperiment exp{cfg};
  exp.setup();

  stats::TimeSeries series;
  auto label = [&](net::NodeId id, double initial) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s(%s,T0=%.2f)", id.to_string().c_str(),
                  exp.is_liar(id) ? "liar" : "honest", initial);
    return std::string{buf};
  };

  // Track two liars and two honest nodes with contrasting initial trust.
  std::map<net::NodeId, std::string> tracked;
  {
    auto& store = exp.detector().trust_store();
    net::NodeId liar_hi, liar_lo, honest_hi, honest_lo;
    double lh = -1, ll = 2, hh = -1, hl = 2;
    for (auto l : exp.liars()) {
      const double t = store.trust(l);
      if (t > lh) lh = t, liar_hi = l;
      if (t < ll) ll = t, liar_lo = l;
    }
    for (auto h : exp.honest()) {
      const double t = store.trust(h);
      if (t > hh) hh = t, honest_hi = h;
      if (t < hl) hl = t, honest_lo = h;
    }
    tracked[liar_hi] = label(liar_hi, lh);
    tracked[liar_lo] = label(liar_lo, ll);
    tracked[honest_hi] = label(honest_hi, hh);
    tracked[honest_lo] = label(honest_lo, hl);
    for (const auto& [id, name] : tracked)
      series.add(name, 0, store.trust(id));
  }

  const int rounds = 25;
  for (int round = 1; round <= rounds; ++round) {
    const auto snap = exp.run_round();
    for (const auto& [id, name] : tracked)
      series.add(name, round, snap.trust.at(id));
  }

  std::printf(
      "Figure 1 — Trustworthiness seen by the attacked node (16 nodes, 1 "
      "attacker, 4 liars=26.3%%, 25 rounds)\n\n%s\n",
      series.to_table("round").c_str());

  std::printf(
      "paper shape: liars decay steeply regardless of initial trust; honest "
      "nodes with low\ninitial trust gain a little over the 25 rounds.\n");
  return 0;
}
