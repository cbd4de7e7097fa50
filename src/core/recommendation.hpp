#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "olsr/agent.hpp"
#include "sim/timer.hpp"
#include "trust/trust_store.hpp"

namespace manet::core {

/// DATA-message protocol id for recommendation exchange.
inline constexpr std::uint16_t kRecommendationProtocol = 43;

/// A recommender's reply: its direct trust T^{S,I} for each queried subject.
struct RecommendationReply {
  std::uint32_t request_id = 0;
  net::NodeId recommender;
  std::vector<std::pair<net::NodeId, double>> trusts;
};

std::vector<std::uint8_t> encode_recommendation_request(
    std::uint32_t request_id, const std::vector<net::NodeId>& subjects);
std::vector<std::uint8_t> encode_recommendation_reply(
    const RecommendationReply& reply);
std::optional<std::vector<net::NodeId>> decode_recommendation_request(
    const std::vector<std::uint8_t>& bytes, std::uint32_t& request_id);
std::optional<RecommendationReply> decode_recommendation_reply(
    const std::vector<std::uint8_t>& bytes);
bool is_recommendation_request(const std::vector<std::uint8_t>& bytes);

/// Implements the paper's trust propagation (§IV-A): when A has no history
/// about subjects, it asks recommenders S1..Sm for their direct trust
/// T^{Si,I} and merges the answers via multipath propagation (Eq. 7), each
/// path weighted by A's entropy-based recommendation trust R^{A,Si}. A
/// single recommender degenerates to concatenated propagation (Eq. 6).
///
/// Both sides of the exchange; shares the agent's DATA handler with the
/// investigation manager through a dispatcher callback, so construct it
/// with the InvestigationManager's handler chained (see Network).
class RecommendationExchange {
 public:
  /// `store` is the local trust store (answers are served from it, and
  /// merged bootstraps are written into it).
  RecommendationExchange(sim::Engine& sim, olsr::Agent& agent,
                         trust::TrustStore& store);

  using Done = std::function<void(const std::map<net::NodeId, double>&)>;

  /// Asks `recommenders` for their trust in `subjects`; after the timeout,
  /// merges everything received via Eq. 7 and (a) writes the merged values
  /// into the local store for subjects with no prior state, (b) reports the
  /// merged map through `done`.
  void bootstrap(const std::vector<net::NodeId>& subjects,
                 const std::vector<net::NodeId>& recommenders,
                 sim::Duration timeout, Done done);

  /// Handles one DATA message; returns true if it consumed it. Chain this
  /// from the agent's data handler before/after other protocols.
  bool on_data(const olsr::DataMessage& message);

  std::size_t outstanding() const { return outstanding_.size(); }

 private:
  struct Pending {
    std::vector<net::NodeId> subjects;
    std::vector<RecommendationReply> replies;
    Done done;
    std::unique_ptr<sim::OneShotTimer> timer;
  };

  void finalize(std::uint32_t id);

  sim::Engine& sim_;
  olsr::Agent& agent_;
  trust::TrustStore& store_;
  std::uint32_t next_id_ = 1;
  /// Ascending by id.
  std::vector<std::pair<std::uint32_t, Pending>> outstanding_;
};

}  // namespace manet::core
