// Tests for the recommendation exchange — the paper's trust propagation
// (Eqs. 6-7) exercised over the real data plane: codec round-trips, the
// request/reply protocol, Eq. 7 merging with entropy-based recommendation
// weights, and bootstrap semantics.

#include <gtest/gtest.h>

#include <stdexcept>

#include "byte_digest.hpp"
#include "core/recommendation.hpp"
#include "net/topology.hpp"
#include "scenario/network.hpp"

namespace manet::core {
namespace {

using scenario::Network;

TEST(RecommendationCodec, RequestRoundTrip) {
  const std::vector<net::NodeId> subjects{net::NodeId{3}, net::NodeId{7}};
  const auto bytes = encode_recommendation_request(42, subjects);
  EXPECT_TRUE(is_recommendation_request(bytes));
  std::uint32_t id = 0;
  const auto decoded = decode_recommendation_request(bytes, id);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(id, 42u);
  EXPECT_EQ(*decoded, subjects);
  // tag, request id, count, subjects; big-endian like the OLSR wire.
  EXPECT_EQ(test_digest::hex(bytes),
            "03" "0000002a" "02" "00000003" "00000007");

  // The count is one byte: 255 subjects round-trip, 256 are refused.
  std::vector<net::NodeId> many;
  for (std::uint32_t i = 0; i < 255; ++i) many.push_back(net::NodeId{i});
  const auto full = decode_recommendation_request(
      encode_recommendation_request(1, many), id);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, many);
  many.push_back(net::NodeId{255});
  EXPECT_THROW(encode_recommendation_request(1, many), std::length_error);
}

TEST(RecommendationCodec, ReplyRoundTrip) {
  RecommendationReply reply;
  reply.request_id = 7;
  reply.recommender = net::NodeId{2};
  reply.trusts = {{net::NodeId{3}, 0.75}, {net::NodeId{9}, 0.0}};
  const auto decoded = decode_recommendation_reply(
      encode_recommendation_reply(reply));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->recommender, net::NodeId{2});
  ASSERT_EQ(decoded->trusts.size(), 2u);
  EXPECT_NEAR(decoded->trusts[0].second, 0.75, 1.0 / 255.0);
  EXPECT_NEAR(decoded->trusts[1].second, 0.0, 1.0 / 255.0);
  // tag, request id, recommender, count, then (subject, trust * 255) pairs.
  EXPECT_EQ(test_digest::hex(encode_recommendation_reply(reply)),
            "04" "00000007" "00000002" "02" "00000003" "bf" "00000009" "00");

  // The count is one byte: 255 entries round-trip, 256 are refused.
  reply.trusts.clear();
  for (std::uint32_t i = 0; i < 255; ++i)
    reply.trusts.emplace_back(net::NodeId{i}, 1.0);
  const auto full = decode_recommendation_reply(
      encode_recommendation_reply(reply));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->trusts, reply.trusts);
  reply.trusts.emplace_back(net::NodeId{255}, 1.0);
  EXPECT_THROW(encode_recommendation_reply(reply), std::length_error);
}

TEST(RecommendationCodec, MalformedRejected) {
  std::uint32_t id = 0;
  EXPECT_FALSE(decode_recommendation_request({}, id).has_value());
  EXPECT_FALSE(decode_recommendation_reply({}).has_value());
  auto bytes = encode_recommendation_request(1, {net::NodeId{1}});
  bytes.pop_back();
  EXPECT_FALSE(decode_recommendation_request(bytes, id).has_value());

  const auto decode_request = [&id](const std::vector<std::uint8_t>& b) {
    return decode_recommendation_request(b, id);
  };
  const auto decode_reply = [](const std::vector<std::uint8_t>& b) {
    return decode_recommendation_reply(b);
  };
  const auto request =
      encode_recommendation_request(0x01020304, {net::NodeId{3}, net::NodeId{7}});
  RecommendationReply reply;
  reply.request_id = 0x01020304;
  reply.recommender = net::NodeId{2};
  reply.trusts = {{net::NodeId{3}, 0.75}, {net::NodeId{9}, 0.0}};
  const auto replied = encode_recommendation_reply(reply);
  const auto rejected = [](std::vector<std::uint8_t> valid,
                           std::size_t count_at, const auto& decode) {
    ASSERT_TRUE(decode(valid).has_value());
    // Every strict prefix and a one-byte extension.
    for (std::size_t n = 0; n < valid.size(); ++n)
      EXPECT_FALSE(decode({valid.begin(), valid.begin() +
                                              static_cast<std::ptrdiff_t>(n)})
                       .has_value())
          << "prefix of " << n << " bytes";
    auto longer = valid;
    longer.push_back(0);
    EXPECT_FALSE(decode(longer).has_value()) << "one byte extra";
    // A count byte that disagrees with the entries behind it.
    for (const int delta : {-1, +1}) {
      auto miscounted = valid;
      miscounted[count_at] = static_cast<std::uint8_t>(valid[count_at] + delta);
      EXPECT_FALSE(decode(miscounted).has_value()) << "count " << delta;
    }
  };
  rejected(request, 5, decode_request);
  rejected(replied, 9, decode_reply);
}

Network::Config cluster(std::size_t n) {
  Network::Config c;
  c.seed = 9;
  c.radio.range_m = 400.0;
  c.positions = net::grid_layout(n, 50.0);
  return c;
}

TEST(RecommendationExchange, BootstrapMergesViaEquation7) {
  Network net{cluster(5)};
  auto& d0 = net.add_detector(0);
  auto& d1 = net.add_detector(1);
  auto& d2 = net.add_detector(2);
  auto& ex0 = net.add_recommendations(0);
  net.add_recommendations(1);
  net.add_recommendations(2);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  // Recommenders hold strong direct opinions about the unknown subject n4.
  const auto subject = Network::id_of(4);
  d1.trust_store().set_trust(subject, 0.9);
  d2.trust_store().set_trust(subject, 0.8);

  // The investigator has a long positive history with both recommenders,
  // so its entropy-based R is high.
  for (int i = 0; i < 20; ++i) {
    d0.trust_store().record_interaction(Network::id_of(1), true);
    d0.trust_store().record_interaction(Network::id_of(2), true);
  }

  std::map<net::NodeId, double> merged;
  ex0.bootstrap({subject}, {Network::id_of(1), Network::id_of(2)},
                sim::Duration::from_seconds(3.0),
                [&](const std::map<net::NodeId, double>& m) { merged = m; });
  net.run_for(sim::Duration::from_seconds(5.0));

  ASSERT_TRUE(merged.contains(subject));
  // Both recommenders vouch above the default -> merged lands above it,
  // and the previously-unknown subject is now seeded in the store.
  EXPECT_GT(merged[subject], d0.trust_store().params().default_trust);
  EXPECT_TRUE(d0.trust_store().known(subject));
  EXPECT_NEAR(d0.trust_store().trust(subject), merged[subject], 1e-9);
}

TEST(RecommendationExchange, UntrustedRecommendersCarryNoWeight) {
  Network net{cluster(4)};
  auto& d0 = net.add_detector(0);
  auto& d1 = net.add_detector(1);
  auto& ex0 = net.add_recommendations(0);
  net.add_recommendations(1);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  const auto subject = Network::id_of(3);
  d1.trust_store().set_trust(subject, 1.0);
  // The investigator's history with the recommender is consistently BAD:
  // entropy-based R is negative, so Eq. 7's denominator is non-positive and
  // the recommendation must be discarded (no usable information).
  for (int i = 0; i < 20; ++i)
    d0.trust_store().record_interaction(Network::id_of(1), false);

  std::map<net::NodeId, double> merged;
  ex0.bootstrap({subject}, {Network::id_of(1)},
                sim::Duration::from_seconds(3.0),
                [&](const std::map<net::NodeId, double>& m) { merged = m; });
  net.run_for(sim::Duration::from_seconds(5.0));

  ASSERT_TRUE(merged.contains(subject));
  EXPECT_NEAR(merged[subject], d0.trust_store().params().default_trust, 1e-9);
}

TEST(RecommendationExchange, BootstrapDoesNotOverwriteDirectExperience) {
  Network net{cluster(4)};
  auto& d0 = net.add_detector(0);
  auto& d1 = net.add_detector(1);
  auto& ex0 = net.add_recommendations(0);
  net.add_recommendations(1);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(12.0));

  const auto subject = Network::id_of(3);
  d0.trust_store().set_trust(subject, 0.05);  // first-hand: distrusted
  d1.trust_store().set_trust(subject, 0.95);  // recommender disagrees
  for (int i = 0; i < 20; ++i)
    d0.trust_store().record_interaction(Network::id_of(1), true);

  ex0.bootstrap({subject}, {Network::id_of(1)},
                sim::Duration::from_seconds(3.0), {});
  net.run_for(sim::Duration::from_seconds(5.0));

  // Property 5: first-hand knowledge is privileged — second-hand
  // recommendations never clobber existing direct state.
  EXPECT_NEAR(d0.trust_store().trust(subject), 0.05, 1e-9);
}

TEST(RecommendationExchange, TimeoutWithNoRepliesYieldsNothing) {
  Network net{cluster(3)};
  auto& d0 = net.add_detector(0);
  (void)d0;
  auto& ex0 = net.add_recommendations(0);
  net.start_all();
  net.run_for(sim::Duration::from_seconds(10.0));

  // Node 1 has no detector/exchange: requests land in its investigation
  // manager's fallback (none) and vanish.
  bool called = false;
  std::map<net::NodeId, double> merged;
  ex0.bootstrap({Network::id_of(2)}, {Network::id_of(1)},
                sim::Duration::from_seconds(2.0),
                [&](const std::map<net::NodeId, double>& m) {
                  called = true;
                  merged = m;
                });
  net.run_for(sim::Duration::from_seconds(4.0));
  EXPECT_TRUE(called);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(ex0.outstanding(), 0u);
}

TEST(RecommendationExchange, RefusedRequestLeavesNothingBehind) {
  Network net{cluster(3)};
  net.add_detector(0);
  auto& ex0 = net.add_recommendations(0);
  net.start_all();

  std::vector<net::NodeId> subjects;
  for (std::uint32_t i = 0; i < 256; ++i) subjects.push_back(net::NodeId{i});
  bool called = false;
  EXPECT_THROW(ex0.bootstrap(subjects, {Network::id_of(1)},
                             sim::Duration::from_seconds(1.0),
                             [&](const auto&) { called = true; }),
               std::length_error);
  EXPECT_EQ(ex0.outstanding(), 0u);
  net.run_for(sim::Duration::from_seconds(3.0));
  EXPECT_FALSE(called);
}

}  // namespace
}  // namespace manet::core
