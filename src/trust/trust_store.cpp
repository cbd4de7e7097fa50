#include "trust/trust_store.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/slab.hpp"
#include "stats/entropy.hpp"

namespace manet::trust {

TrustStore::TrustStore(TrustParams params) : params_{params} {
  if (params_.min_trust >= params_.max_trust)
    throw std::invalid_argument{"min_trust must be < max_trust"};
  if (params_.forgetting < 0.0 || params_.forgetting > 1.0)
    throw std::invalid_argument{"forgetting factor outside [0,1]"};
}

double TrustStore::trust(NodeId subject) const {
  const auto* value = sim::slab_get(trust_, subject);
  return value ? *value : params_.default_trust;
}

void TrustStore::set_trust(NodeId subject, double value) {
  slot(subject) = std::clamp(value, params_.min_trust, params_.max_trust);
}

bool TrustStore::known(NodeId subject) const {
  return sim::slab_get(trust_, subject) != nullptr;
}

double TrustStore::apply_evidence(NodeId subject,
                                  std::span<const Evidence> evidences) {
  // Eq. 5: T_t = sum_j alpha_j e_j + beta T_{t-1}.
  double sum = 0.0;
  for (const auto& e : evidences) sum += e.weight * e.value;
  double& value = slot(subject);
  value = std::clamp(sum + params_.forgetting * value, params_.min_trust,
                     params_.max_trust);
  return value;
}

double TrustStore::decay_idle(NodeId subject) {
  double& value = slot(subject);
  value = relaxed(value);
  return value;
}

void TrustStore::decay_all_idle() {
  // In-place sweep: every entry already exists, so decay never inserts and
  // the slab stays sorted while we mutate values only.
  for (auto& [subject, value] : trust_) value = relaxed(value);
}

double& TrustStore::slot(NodeId subject) {
  auto it = sim::slab_find(trust_, subject);
  if (it == trust_.end() || it->first != subject)
    it = trust_.insert(it, {subject, params_.default_trust});
  return it->second;
}

double TrustStore::relaxed(double value) const {
  const double target = params_.default_trust;
  const bool above = value > target;
  const double rate =
      above ? params_.idle_rate_from_above : params_.idle_rate_from_below;
  // With a rate near 1 the rounded step can overshoot the default by an
  // ulp; an idle slot moves toward it and never across.
  const double step = value + rate * (target - value);
  return std::clamp(above ? std::max(step, target) : std::min(step, target),
                    params_.min_trust, params_.max_trust);
}

void TrustStore::record_interaction(NodeId subject, bool positive) {
  auto it = std::lower_bound(
      interactions_.begin(), interactions_.end(), subject,
      [](const Counter& c, NodeId s) { return c.subject < s; });
  if (it == interactions_.end() || it->subject != subject)
    it = interactions_.insert(it, Counter{subject, 0, 0});
  ++it->total;
  if (positive) ++it->positive;
}

double TrustStore::recommendation_trust(NodeId subject) const {
  auto it = std::lower_bound(
      interactions_.begin(), interactions_.end(), subject,
      [](const Counter& c, NodeId s) { return c.subject < s; });
  // Laplace smoothing keeps p off the 0/1 poles and yields the maximally
  // uncertain p=0.5 (trust 0) for never-seen recommenders.
  const bool found = it != interactions_.end() && it->subject == subject;
  const int positive = found ? it->positive : 0;
  const int total = found ? it->total : 0;
  const double p =
      (static_cast<double>(positive) + 1.0) / (static_cast<double>(total) + 2.0);
  return stats::entropy_trust(p);
}

const char* TrustStore::unordered_slab(
    const std::vector<std::pair<NodeId, double>>& trust,
    const std::vector<Counter>& interactions) {
  const auto strictly_ascending = [](const auto& rows, auto subject) {
    return std::ranges::adjacent_find(rows, std::ranges::greater_equal{},
                                      subject) == rows.end();
  };
  if (!strictly_ascending(trust, &std::pair<NodeId, double>::first))
    return "trust rows";
  if (!strictly_ascending(interactions, &Counter::subject))
    return "interaction rows";
  return nullptr;
}

std::vector<NodeId> TrustStore::subjects() const {
  std::vector<NodeId> out;
  out.reserve(trust_.size());
  for (const auto& [id, _] : trust_) out.push_back(id);
  return out;
}

}  // namespace manet::trust
