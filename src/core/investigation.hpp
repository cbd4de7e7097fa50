#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "core/log_index.hpp"
#include "olsr/agent.hpp"
#include "sim/rng.hpp"
#include "sim/timer.hpp"

namespace manet::core {

using net::NodeId;

/// DATA-message protocol id carrying the investigation exchange.
inline constexpr std::uint16_t kInvestigationProtocol = 42;

/// What the verifier is asked about (§III-B/C).
enum class QueryKind : std::uint8_t {
  /// "Is the link suspect-subject up, as the suspect advertises?"
  /// Confirms/refutes E4 (suspect does not cover an adjacent neighbor) and
  /// E5 (suspect advertises a distant/non-existing node).
  kLinkStatus = 1,
  /// "Does the suspect forward your traffic?" (E2, drop attacks.)
  kForwarding = 2,
};

/// A requester's question to one verifier, carried as a DATA payload
/// (encode_query).
struct LinkQuery {
  std::uint32_t investigation_id = 0;
  QueryKind kind = QueryKind::kLinkStatus;
  NodeId suspect;
  NodeId subject;    ///< far end of the disputed link (kLinkStatus)
  bool claimed_up = true;  ///< the suspect's advertised claim
};

/// A verifier's answer to a LinkQuery, carried back the same way
/// (encode_answer).
struct LinkAnswer {
  std::uint32_t investigation_id = 0;
  NodeId responder;
  NodeId suspect;
  NodeId subject;
  /// +1: responder's observation agrees with the suspect's claim,
  /// -1: contradicts it, 0: cannot tell.
  double evidence = 0.0;
};

std::vector<std::uint8_t> encode_query(const LinkQuery& q);
std::vector<std::uint8_t> encode_answer(const LinkAnswer& a);
/// Return nullopt on malformed payloads (dropped like any corrupt packet).
std::optional<LinkQuery> decode_query(const std::vector<std::uint8_t>& bytes);
std::optional<LinkAnswer> decode_answer(const std::vector<std::uint8_t>& bytes);
bool is_query(const std::vector<std::uint8_t>& bytes);

/// How this node answers investigations it receives.
enum class AnswerPolicy : std::uint8_t {
  kHonest,  ///< report the true observation
  kLiar,    ///< the paper's colluding misbehaving node: invert the truth
  kSilent,  ///< never answer (starves the requester into e=0)
  kRandom,  ///< answer +/-1 uniformly (noise, for robustness tests)
};

/// How long a requester waits for each verifier's answer.
inline constexpr sim::Duration kAnswerTimeout =
    sim::Duration::from_seconds(2.0);
/// Additional attempts through alternative paths after a timeout
/// (Algorithm 1: try the other covering MPRs, then any alternate route).
inline constexpr int kMaxRetries = 2;
/// How fresh a HELLO must be for an honest observation.
inline constexpr sim::Duration kHelloFreshness =
    sim::Duration::from_seconds(6.0);

/// One verifier's part in a completed round.
struct RoundAnswer {
  NodeId responder;
  double evidence = 0.0;  ///< 0 when unanswered
  bool answered = false;
};

/// A completed investigation round: the query and every verifier's
/// answer or timeout.
struct RoundResult {
  std::uint32_t id = 0;
  LinkQuery query;
  std::vector<RoundAnswer> answers;
  std::size_t timeouts = 0;
};

/// Traffic/robustness counters (Table B overhead bench).
struct InvestigationStats {
  std::uint64_t queries_sent = 0;
  std::uint64_t answers_sent = 0;
  std::uint64_t answers_received = 0;
  std::uint64_t retries = 0;
  std::uint64_t route_failures = 0;
};

/// Both sides of the cooperative investigation (Algorithm 1): as requester
/// it sends LinkQuery to each verifier, source-routed AROUND the suspect,
/// with timeout-driven retries over alternative paths; as responder it
/// answers queries per its AnswerPolicy using only its own protocol
/// state/audit log. Installs itself as the agent's DATA handler.
class InvestigationManager {
 public:
  InvestigationManager(sim::Engine& sim, olsr::Agent& agent,
                       AnswerPolicy policy = AnswerPolicy::kHonest);

  void set_policy(AnswerPolicy policy) { policy_ = policy; }
  AnswerPolicy policy() const { return policy_; }

  using RoundCallback = std::function<void(const RoundResult&)>;

  /// Queries `verifiers` about the suspect's claim; `done` fires once every
  /// verifier answered or exhausted its retries.
  void investigate(const LinkQuery& query, std::vector<NodeId> verifiers,
                   RoundCallback done);

  /// The honest observation this node would give for a query (exposed for
  /// tests; the responder path uses it). Read from the log index.
  double honest_observation(const LinkQuery& query);

  /// This node's audit-log index, caught up with the log (the detector's
  /// neighborhood queries read it too).
  const LogIndex& log_index() {
    index_.sync();
    return index_;
  }

  const InvestigationStats& stats() const { return stats_; }
  std::size_t outstanding() const { return outstanding_.size(); }

  /// Messages of other protocols are forwarded here (protocol chaining on
  /// the single agent DATA handler); return value ignored.
  using Fallback = std::function<bool(const olsr::DataMessage&)>;
  void set_fallback(Fallback fallback) { fallback_ = std::move(fallback); }

  /// Checkpoint surface: investigation ids are monotonic, so a restored run
  /// must keep issuing the exact id sequence; stats ride along. Only valid
  /// between rounds (no outstanding investigations — the harness
  /// checkpoints after every round callback has fired). The log index is
  /// not part of it: it is rebuilt from the restored log.
  std::uint32_t next_id() const { return next_id_; }
  void restore_ids(std::uint32_t next_id, const InvestigationStats& stats) {
    if (!outstanding_.empty())
      throw std::logic_error{
          "cannot restore with outstanding investigations"};
    next_id_ = next_id;
    stats_ = stats;
    index_.reset();
  }

 private:
  struct PendingVerifier {
    int retries_left = 0;
    std::vector<NodeId> avoid;  ///< grows with each failed path; sorted
    bool done = false;
  };
  struct Outstanding {
    LinkQuery query;
    /// Ascending by verifier, never this node or the suspect.
    std::vector<std::pair<NodeId, PendingVerifier>> pending;
    RoundResult result;
    RoundCallback done;
    std::unique_ptr<sim::OneShotTimer> timer;
  };

  void on_data(const olsr::DataMessage& message);
  void handle_query(NodeId requester, const LinkQuery& query,
                    const std::vector<NodeId>& trace);
  void handle_answer(const LinkAnswer& answer);
  void send_query_to(Outstanding& inv, NodeId verifier);
  void on_timeout(std::uint32_t id);
  void finalize(std::uint32_t id);

  sim::Engine& sim_;
  olsr::Agent& agent_;
  AnswerPolicy policy_;
  std::uint32_t next_id_ = 1;
  /// Ascending by id.
  std::vector<std::pair<std::uint32_t, Outstanding>> outstanding_;
  InvestigationStats stats_;
  Fallback fallback_;
  LogIndex index_;
};

}  // namespace manet::core
