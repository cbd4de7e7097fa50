// Unit tests for the audit-log substrate: record fields, text format
// round-trip (including the format <-> parse identity property), log store
// retention and queries.

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "logging/format.hpp"
#include "logging/log_store.hpp"
#include "logging/record.hpp"
#include "runtime/experiment_spec.hpp"
#include "scenario/trust_experiment.hpp"
#include "sim/rng.hpp"

namespace manet::logging {
namespace {

using net::NodeId;

LogRecord sample_record() {
  LogRecord r;
  r.time = sim::Time::from_us(1'234'567);
  r.node = NodeId{3};
  r.event = "hello_recv";
  r.with("from", NodeId{5})
      .with("sym", join_node_list({NodeId{1}, NodeId{2}}))
      .with("seq", std::int64_t{42});
  return r;
}

TEST(Record, FieldAccessors) {
  const auto r = sample_record();
  EXPECT_EQ(r.field("from"), "n5");
  EXPECT_FALSE(r.field("missing").has_value());
  EXPECT_EQ(r.node_field("from"), NodeId{5});
  EXPECT_EQ(r.int_field("seq"), 42);
  EXPECT_EQ(r.node_list_field("sym"),
            (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
}

TEST(Record, MissingFieldThrows) {
  const auto r = sample_record();
  EXPECT_THROW(r.field_or_throw("nope"), std::invalid_argument);
  EXPECT_THROW(r.node_field("nope"), std::invalid_argument);
  EXPECT_THROW(r.int_field("from"), std::invalid_argument);
}

TEST(Record, JoinAndSplitNodeList) {
  EXPECT_EQ(join_node_list({}), "");
  EXPECT_EQ(join_node_list({NodeId{7}}), "n7");
  EXPECT_EQ(join_node_list({NodeId{1}, NodeId{2}}), "n1|n2");
  const auto split = [](std::string_view list) {
    std::vector<NodeId> out;
    for_each_listed(list, [&out](NodeId id) {
      out.push_back(id);
      return true;
    });
    return out;
  };
  EXPECT_EQ(split(""), (std::vector<NodeId>{}));
  EXPECT_EQ(split("n1|n2|n3"),
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
  EXPECT_EQ(split("n7"), (std::vector<NodeId>{NodeId{7}}));
  EXPECT_THROW(split("n1|"), std::invalid_argument);  // empty last entry
  EXPECT_THROW(split("n1|x|n3"), std::invalid_argument);
  int visited = 0;
  EXPECT_FALSE(for_each_listed("n1|n2|n3", [&visited](NodeId) {
    return ++visited < 2;
  }));
  EXPECT_EQ(visited, 2);
}

TEST(Format, FormatsCanonicalLine) {
  const auto line = format_record(sample_record());
  EXPECT_EQ(line, "t=1.234567s node=n3 event=hello_recv from=n5 sym=n1|n2 seq=42");
}

TEST(Format, EmptyValueUsesDashPlaceholder) {
  LogRecord r;
  r.time = sim::Time{};
  r.node = NodeId{0};
  r.event = "mpr_changed";
  r.with("added", "");
  const auto line = format_record(r);
  EXPECT_NE(line.find("added=-"), std::string::npos);
  const auto back = parse_record(line);
  EXPECT_EQ(back.field("added"), "");
}

TEST(Format, RoundTripPreservesEverything) {
  const auto original = sample_record();
  const auto back = parse_record(format_record(original));
  EXPECT_EQ(back.time, original.time);
  EXPECT_EQ(back.node, original.node);
  EXPECT_EQ(back.event, original.event);
  EXPECT_EQ(back.fields, original.fields);
}

TEST(Format, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_record(""), std::invalid_argument);
  EXPECT_THROW(parse_record("node=n1 event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=bogus node=n1 event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.0s node=n1 event=x"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1 event=x ="),
               std::invalid_argument);
}

TEST(Format, ParseLogSkipsBlankLines) {
  const auto text = format_record(sample_record()) + "\n\n" +
                    format_record(sample_record()) + "\n";
  const auto records = parse_log(text);
  EXPECT_EQ(records.size(), 2u);
}

TEST(Format, ForwardingAuditRecordsRoundTrip) {
  // The forwarding-audit records introduced with audit-log version 2:
  // fwd_echo (agent overhears an MPR re-broadcast) and fwd_audit_fail
  // (synthesized by the auditor's sweep). Both must survive the canonical
  // text format, since manet_parse replays logs through it.
  LogRecord echo;
  echo.time = sim::Time::from_seconds(21.5);
  echo.node = NodeId{0};
  echo.event = "fwd_echo";
  echo.with("by", NodeId{1}).with("orig", NodeId{5}).with("seq",
                                                          std::int64_t{1040});
  auto back = parse_record(format_record(echo));
  EXPECT_EQ(back.node_field("by"), NodeId{1});
  EXPECT_EQ(back.node_field("orig"), NodeId{5});
  EXPECT_EQ(back.int_field("seq"), 1040);

  LogRecord fail;
  fail.time = sim::Time::from_seconds(25.0);
  fail.node = NodeId{0};
  fail.event = "fwd_audit_fail";
  fail.with("mpr", NodeId{1})
      .with("expected", std::int64_t{6})
      .with("forwarded", std::int64_t{0});
  back = parse_record(format_record(fail));
  EXPECT_EQ(back.event, "fwd_audit_fail");
  EXPECT_EQ(back.node_field("mpr"), NodeId{1});
  EXPECT_EQ(back.int_field("expected"), 6);
  EXPECT_EQ(back.int_field("forwarded"), 0);
}

TEST(Format, NegativeTimeRejected) {
  // Times are since simulation start; "-1.000000s" must not parse.
  EXPECT_THROW(parse_record("t=-1.000000s node=n1 event=x"),
               std::invalid_argument);
}

TEST(LogStore, AppendsInOrderAndQueries) {
  LogStore store;
  for (int i = 0; i < 5; ++i) {
    LogRecord r;
    r.time = sim::Time::from_seconds(i);
    r.node = NodeId{0};
    r.event = i % 2 ? "odd" : "even";
    store.append(std::move(r));
  }
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(store.records_since(sim::Time::from_seconds(3)).size(), 2u);
  EXPECT_EQ(std::ranges::count_if(
                store.records(),
                [](const LogRecord& r) { return r.event == "even"; }),
            3);
  EXPECT_EQ(store.total_appended(), 5u);
}

TEST(LogStore, BoundedRetentionDropsOldest) {
  LogStore store{3};
  for (int i = 0; i < 10; ++i) {
    LogRecord r;
    r.time = sim::Time::from_seconds(i);
    r.node = NodeId{0};
    r.event = "e";  // += dodges GCC 12's -Wrestrict false positive
    r.event += std::to_string(i);
    store.append(std::move(r));
  }
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.dropped(), 7u);
  EXPECT_EQ(store.at(0).event, "e7");
}

TEST(LogStore, TextSinceIsParseable) {
  LogStore store;
  for (int i = 0; i < 4; ++i) {
    auto r = sample_record();
    r.time = sim::Time::from_seconds(i);
    store.append(std::move(r));
  }
  const auto text = store.text_since(sim::Time::from_seconds(2));
  const auto parsed = parse_log(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].time, sim::Time::from_seconds(2));
}

// Property: format/parse round-trip over a variety of field shapes.
class FormatRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTrip, Holds) {
  LogRecord r;
  r.time = sim::Time::from_us(GetParam() * 997);
  r.node = NodeId{static_cast<std::uint32_t>(GetParam())};
  r.event = "event_" + std::to_string(GetParam());
  for (int f = 0; f < GetParam() % 7; ++f)
    r.with("k" + std::to_string(f), std::int64_t{f * 13});
  const auto back = parse_record(format_record(r));
  EXPECT_EQ(back.time, r.time);
  EXPECT_EQ(back.node, r.node);
  EXPECT_EQ(back.event, r.event);
  EXPECT_EQ(back.fields, r.fields);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FormatRoundTrip,
                         ::testing::Values(0, 1, 2, 5, 13, 100, 12345));

// --- format <-> parse identity --------------------------------------------
// parse_record(format_record(r)) == r for every record inside the format's
// domain: a valid node, no spaces anywhere, keys free of '=' and not one of
// the header keys t/node/event. Two shapes fall outside it and are pinned
// below: a value that is literally "-" (the empty-value placeholder) and an
// invalid node id.

std::string random_token(sim::Rng& rng, std::string_view alphabet,
                         std::int64_t min_len, std::int64_t max_len) {
  std::string out(static_cast<std::size_t>(rng.uniform_int(min_len, max_len)),
                  ' ');
  for (auto& c : out)
    c = alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
  return out;
}

LogRecord random_record(sim::Rng& rng) {
  constexpr std::string_view kKeyChars = "abcdefghijklmnopqrstuvwxyz_0123456789";
  constexpr std::string_view kValueChars =
      "abcdefghijklmnopqrstuvwxyz_0123456789|.-=?";
  LogRecord r;
  r.time = sim::Time::from_us(rng.uniform_int(0, 1'000'000'000'000));
  r.node = NodeId{static_cast<std::uint32_t>(
      rng.uniform_int(0, NodeId::kInvalid - 1))};
  do {
    r.event = random_token(rng, kValueChars, 0, 16);
  } while (r.event == "-");
  const auto fields = rng.uniform_int(0, 8);
  for (std::int64_t f = 0; f < fields; ++f) {
    std::string key;
    do {
      key = random_token(rng, kKeyChars, 1, 12);
    } while (key == "t" || key == "node" || key == "event");
    std::string value;
    do {
      value = random_token(rng, kValueChars, 0, 24);
    } while (value == "-");
    r.with(std::move(key), std::move(value));
  }
  return r;
}

TEST(FormatIdentity, HoldsOnRandomRecords) {
  sim::Rng rng{2024};
  for (int i = 0; i < 5000; ++i) {
    const auto r = random_record(rng);
    const auto line = format_record(r);
    ASSERT_EQ(parse_record(line), r) << line;
  }
}

TEST(FormatIdentity, HoldsOnEveryRecordOfAGoldenRun) {
  // One replication of the golden sweep (tests/fixtures/README.md): 16
  // nodes, 29% liars, seed 2024, 6 attack rounds.
  runtime::ExperimentSpec spec;
  spec.seeds = {2024};
  spec.node_counts = {16};
  spec.attacker_fractions = {0.29};
  spec.rounds = 6;
  const auto tasks = spec.expand();
  ASSERT_EQ(tasks.size(), 1u);
  scenario::TrustExperiment experiment{tasks[0].to_config()};
  experiment.setup();
  experiment.run_attack_rounds(tasks[0].rounds);

  std::size_t checked = 0;
  auto& network = experiment.network();
  for (std::size_t i = 0; i < network.size(); ++i) {
    const auto& log = network.agent(i).log();
    for (std::size_t k = 0; k < log.size(); ++k) {
      const auto line = format_record(log.at(k));
      ASSERT_EQ(parse_record(line), log.at(k)) << line;
      ++checked;
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(FormatIdentity, OutsideTheDomainIsNotIdentity) {
  LogRecord dash = sample_record();
  dash.with("note", "-");  // reads back as the empty value
  auto back = parse_record(format_record(dash));
  EXPECT_NE(back, dash);
  EXPECT_EQ(back.field("note"), "");

  LogRecord invalid = sample_record();
  invalid.node = net::kInvalidNode;  // formats as "n?"
  EXPECT_THROW(parse_record(format_record(invalid)), std::invalid_argument);
}

}  // namespace
}  // namespace manet::logging
