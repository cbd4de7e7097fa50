#pragma once

#include <span>
#include <utility>
#include <vector>

#include "trust/evidence.hpp"

namespace manet::trust {

/// Tunable constants of the trust system. The paper gives the structure
/// (Eq. 5, forgetting factor, gravity weighting) but not numeric values;
/// the defaults here are the calibration recorded in DESIGN.md §5 that
/// reproduces the shapes of Figures 1-3.
struct TrustParams {
  double default_trust = 0.4;  ///< initial/neutral value (Figs. 1-2)
  double min_trust = 0.0;
  double max_trust = 1.0;
  /// beta of Eq. 5: how much of the previous slot's trust survives.
  double forgetting = 0.9;
  /// alpha for harmful "lied during investigation" evidence (Property 2:
  /// lying about an ongoing intrusion is grave, so it outweighs rewards).
  double gravity_lie = 0.30;
  /// alpha for beneficial "answered honestly" evidence — small on purpose:
  /// the paper's honest nodes "gain a little" over 25 rounds.
  double reward_honest = 0.05;
  /// Idle relaxation rates toward default_trust when a slot produced no
  /// evidence (Fig. 2): recovery from below is slower than decay from
  /// above — the defensive asymmetry ("demands a long misconduct-less
  /// duration before trusting a former liar").
  double idle_rate_from_above = 0.20;
  double idle_rate_from_below = 0.05;
};

/// Per-observer trust state over all subjects: T^{A,I} maintained per
/// Eq. 5, plus the interaction counters feeding the entropy-based
/// recommendation trust R^{A,S} of Eqs. 6-7.
///
/// Both tables are flat slabs sorted by subject id (same layout as the
/// OLSR tables): binary-search point lookups, and the whole-store sweeps
/// (decay_all_idle, subjects) walk contiguous memory in ascending order —
/// identical iteration order to the former std::map storage.
class TrustStore {
 public:
  explicit TrustStore(TrustParams params = {});

  const TrustParams& params() const { return params_; }

  /// Current trust in a subject; unknown subjects get default_trust.
  double trust(NodeId subject) const;
  void set_trust(NodeId subject, double value);
  bool known(NodeId subject) const;

  /// Eq. 5 for one slot: T <- sum_j alpha_j e_j + beta T_prev, clamped to
  /// [min_trust, max_trust]; returns the new T (one slab lookup).
  double apply_evidence(NodeId subject, std::span<const Evidence> evidences);
  double apply_evidence(NodeId subject, const Evidence& evidence) {
    return apply_evidence(subject, std::span<const Evidence>{&evidence, 1});
  }

  /// Slot with no evidence: relax toward default_trust (Fig. 2 semantics),
  /// asymmetric per TrustParams.
  double decay_idle(NodeId subject);
  void decay_all_idle();

  /// Interaction history for the recommendation trust: a "positive"
  /// interaction is one where the subject's recommendation later proved
  /// consistent with the accepted outcome.
  void record_interaction(NodeId subject, bool positive);

  /// Entropy-based recommendation trust R^{A,S} in [-1, 1]: the subjective
  /// probability p of a correct recommendation (Laplace-smoothed from the
  /// interaction counters) mapped through the Sun et al. entropy function.
  double recommendation_trust(NodeId subject) const;

  /// All subjects with explicit state (tests and figure benches).
  std::vector<NodeId> subjects() const;

  /// One persisted interaction counter (sorted by subject in storage).
  struct Counter {
    NodeId subject;
    int positive = 0;
    int total = 0;
  };

  /// Checkpoint surface: both slabs verbatim (params are reproduced from
  /// the experiment config, not persisted). Restore takes them verbatim
  /// too; a decoder first checks them with unordered_slab.
  const std::vector<std::pair<NodeId, double>>& trust_rows() const {
    return trust_;
  }
  const std::vector<Counter>& interaction_rows() const {
    return interactions_;
  }
  void restore(std::vector<std::pair<NodeId, double>> trust,
               std::vector<Counter> interactions) {
    trust_ = std::move(trust);
    interactions_ = std::move(interactions);
  }
  /// Restore's precondition: a lookup binary-searches both slabs, so each
  /// must ascend strictly by subject. Names the first slab that does not
  /// ("trust rows" or "interaction rows"); nullptr when both do.
  static const char* unordered_slab(
      const std::vector<std::pair<NodeId, double>>& trust,
      const std::vector<Counter>& interactions);

 private:
  /// The subject's entry, inserted at default_trust when unknown.
  double& slot(NodeId subject);
  /// One idle slot's relaxation of `value` toward default_trust, clamped.
  double relaxed(double value) const;

  TrustParams params_;
  std::vector<std::pair<NodeId, double>> trust_;  // sorted by subject
  std::vector<Counter> interactions_;  // sorted by subject
};

/// The one binary layout of a trust snapshot (both slabs of a TrustStore),
/// shared by the audit-log header's initial trust and the checkpoint's
/// trust section. A transfer function over logging::BinaryWriter/Reader.
template <typename IO, typename Rows, typename Counters>
void transfer_trust_snapshot(IO& io, Rows& trust_rows,
                             Counters& interaction_rows) {
  io.list(trust_rows, [&io](auto& row) {
    io.node(row.first);
    io.f64(row.second);
  });
  io.list(interaction_rows, [&io](auto& c) {
    io.node(c.subject);
    io.i64(c.positive);
    io.i64(c.total);
  });
}

}  // namespace manet::trust
