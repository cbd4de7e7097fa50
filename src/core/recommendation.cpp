#include "core/recommendation.hpp"

#include <cmath>

#include "olsr/wire.hpp"
#include "sim/slab.hpp"
#include "trust/propagation.hpp"

namespace manet::core {
namespace {

constexpr std::uint8_t kReqTag = 3;
constexpr std::uint8_t kReplyTag = 4;

/// tag, request id, subject count; then a u32 per subject.
constexpr std::size_t kRequestHeaderSize = 6;
/// tag, request id, recommender, count; then (u32 subject, u8 trust) pairs.
constexpr std::size_t kReplyHeaderSize = 10;

// Trust in [0,1] encoded in a byte (256 levels — plenty for a judgment).
std::uint8_t encode_trust(double t) {
  return static_cast<std::uint8_t>(std::lround(std::clamp(t, 0.0, 1.0) * 255));
}
double decode_trust(std::uint8_t b) { return static_cast<double>(b) / 255.0; }

}  // namespace

std::vector<std::uint8_t> encode_recommendation_request(
    std::uint32_t request_id, const std::vector<net::NodeId>& subjects) {
  olsr::WireWriter w{kRequestHeaderSize + 4 * subjects.size()};
  w.u8(kReqTag);
  w.u32(request_id);
  w.u8(subjects.size());
  w.nodes(subjects);
  return w.take();
}

std::optional<std::vector<net::NodeId>> decode_recommendation_request(
    const std::vector<std::uint8_t>& bytes, std::uint32_t& request_id) {
  if (bytes.size() < kRequestHeaderSize) return std::nullopt;
  olsr::WireReader r{bytes};
  if (r.u8() != kReqTag) return std::nullopt;
  r.u32(request_id);
  const std::size_t count = r.u8();
  if (r.remaining() != 4 * count) return std::nullopt;
  std::vector<net::NodeId> subjects(count);
  r.nodes(subjects);
  return subjects;
}

std::vector<std::uint8_t> encode_recommendation_reply(
    const RecommendationReply& reply) {
  olsr::WireWriter w{kReplyHeaderSize + 5 * reply.trusts.size()};
  w.u8(kReplyTag);
  w.u32(reply.request_id);
  w.node(reply.recommender);
  w.u8(reply.trusts.size());
  for (const auto& [subject, trust] : reply.trusts) {
    w.node(subject);
    w.u8(encode_trust(trust));
  }
  return w.take();
}

std::optional<RecommendationReply> decode_recommendation_reply(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kReplyHeaderSize) return std::nullopt;
  olsr::WireReader r{bytes};
  RecommendationReply reply;
  if (r.u8() != kReplyTag) return std::nullopt;
  r.u32(reply.request_id);
  r.node(reply.recommender);
  const std::size_t count = r.u8();
  if (r.remaining() != 5 * count) return std::nullopt;
  for (std::size_t i = 0; i < count; ++i) {
    const auto subject = r.node();
    reply.trusts.emplace_back(subject, decode_trust(r.u8()));
  }
  return reply;
}

bool is_recommendation_request(const std::vector<std::uint8_t>& bytes) {
  return !bytes.empty() && bytes[0] == kReqTag;
}

RecommendationExchange::RecommendationExchange(sim::Engine& sim,
                                               olsr::Agent& agent,
                                               trust::TrustStore& store)
    : sim_{sim}, agent_{agent}, store_{store} {}

void RecommendationExchange::bootstrap(
    const std::vector<net::NodeId>& subjects,
    const std::vector<net::NodeId>& recommenders, sim::Duration timeout,
    Done done) {
  const auto id = next_id_++;
  auto& pending = sim::slab_entry(outstanding_, id);
  pending.subjects = subjects;
  pending.done = std::move(done);
  pending.timer = std::make_unique<sim::OneShotTimer>(sim_);

  const auto payload = encode_recommendation_request(id, subjects);
  for (auto r : recommenders) {
    if (r == agent_.id()) continue;
    agent_.send_data(r, kRecommendationProtocol, payload);
  }
  pending.timer->arm(timeout, [this, id] { finalize(id); });
}

bool RecommendationExchange::on_data(const olsr::DataMessage& message) {
  if (message.protocol != kRecommendationProtocol) return false;

  if (is_recommendation_request(message.payload)) {
    std::uint32_t request_id = 0;
    const auto subjects =
        decode_recommendation_request(message.payload, request_id);
    if (!subjects) return true;
    RecommendationReply reply;
    reply.request_id = request_id;
    reply.recommender = agent_.id();
    for (auto s : *subjects) reply.trusts.emplace_back(s, store_.trust(s));
    agent_.send_data(message.source, kRecommendationProtocol,
                     encode_recommendation_reply(reply));
    return true;
  }

  const auto reply = decode_recommendation_reply(message.payload);
  if (!reply) return true;
  if (auto* pending = sim::slab_get(outstanding_, reply->request_id))
    pending->replies.push_back(*reply);
  return true;
}

void RecommendationExchange::finalize(std::uint32_t id) {
  auto* found = sim::slab_get(outstanding_, id);
  if (!found) return;
  auto pending = std::move(*found);
  sim::slab_erase(outstanding_, id);

  // Eq. 7: Tm^{A,I} = sum_i w_i R^{A,Si} T^{Si,I}, w_i = 1 / sum_j R^{A,Sj},
  // with R from the entropy-based recommendation history. Results land in
  // [-1,1]; map to the store's [0,1] scale around the default anchor.
  std::map<net::NodeId, double> merged;
  for (auto subject : pending.subjects) {
    std::vector<trust::RecommendationPath> paths;
    for (const auto& reply : pending.replies) {
      for (const auto& [s, t] : reply.trusts) {
        if (s != subject) continue;
        // The recommender reported store-scale trust [0,1]; recenter to
        // [-1,1] around the neutral default for propagation.
        const double centered =
            (t - store_.params().default_trust) /
            std::max(store_.params().max_trust - store_.params().default_trust,
                     store_.params().default_trust - store_.params().min_trust);
        paths.push_back(trust::RecommendationPath{
            reply.recommender, store_.recommendation_trust(reply.recommender),
            centered});
      }
    }
    if (paths.empty()) continue;
    const double tm = trust::multipath_trust(paths);
    const double store_scale =
        store_.params().default_trust +
        tm * (tm >= 0 ? store_.params().max_trust - store_.params().default_trust
                      : store_.params().default_trust - store_.params().min_trust);
    merged[subject] = store_scale;
    if (!store_.known(subject)) store_.set_trust(subject, store_scale);
  }
  if (pending.done) pending.done(merged);
}

}  // namespace manet::core
