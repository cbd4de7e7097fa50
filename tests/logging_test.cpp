// Unit tests for the audit-log substrate: typed records and their schema,
// the text format at the I/O edge (including the format <-> parse identity
// property), log store retention and queries, and the logging work
// counters.

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <ranges>
#include <string_view>

#include "byte_digest.hpp"
#include "logging/format.hpp"
#include "logging/log_store.hpp"
#include "logging/record.hpp"
#include "obs/obs.hpp"
#include "runtime/experiment_spec.hpp"
#include "scenario/trust_experiment.hpp"
#include "sim/rng.hpp"

namespace manet::logging {
namespace {

using net::NodeId;
using Ids = std::vector<NodeId>;

LogRecord sample_record() {
  return {sim::Time::from_us(1'234'567), NodeId{3}, Event::kHelloRecv,
          NodeId{5}, std::int64_t{42}, Ids{NodeId{1}, NodeId{2}}, Ids{},
          true, 3};
}

TEST(Record, FieldAccessors) {
  const auto r = sample_record();
  EXPECT_EQ(r.event(), Event::kHelloRecv);
  EXPECT_EQ(r.id(Key::kFrom), NodeId{5});
  EXPECT_EQ(r.integer(Key::kSeq), 42);
  EXPECT_TRUE(std::ranges::equal(r.ids(Key::kSym), Ids{NodeId{1}, NodeId{2}}));
  EXPECT_TRUE(r.ids(Key::kAsym).empty());
  EXPECT_EQ(r.integer(Key::kListsUs), 1);
  EXPECT_EQ(r.integer(Key::kWill), 3);
  EXPECT_EQ(schema(Event::kHelloRecv).name, "hello_recv");
  EXPECT_EQ(key_name(Key::kListsUs), "lists_us");
}

TEST(Record, MissingFieldThrows) {
  const auto r = sample_record();
  // A key the schema lacks, or holds as another kind, is a programming
  // error.
  EXPECT_THROW(r.id(Key::kMpr), std::invalid_argument);
  EXPECT_THROW(r.integer(Key::kFrom), std::invalid_argument);
  EXPECT_THROW(r.ids(Key::kSeq), std::invalid_argument);
  // So are values that do not fill the schema.
  EXPECT_THROW(
      (LogRecord{sim::Time{}, NodeId{0}, Event::kHelloRecv, NodeId{1}}),
      std::invalid_argument);
  EXPECT_THROW((LogRecord{sim::Time{}, NodeId{0}, Event::kLinkSym, 7}),
               std::invalid_argument);
  EXPECT_THROW(
      (LogRecord{sim::Time{}, NodeId{0}, Event::kLinkSym, NodeId{1}, 7}),
      std::invalid_argument);
}

TEST(Record, JoinAndSplitNodeList) {
  // The text form of an id list: '|'-joined, "-" when empty.
  const auto line = [](Ids mprs) {
    return format_record(LogRecord{sim::Time{}, NodeId{0}, Event::kMprChanged,
                                   mprs, Ids{}, Ids{}});
  };
  EXPECT_NE(line({}).find(" mprs=- "), std::string::npos);
  EXPECT_NE(line({NodeId{7}}).find(" mprs=n7 "), std::string::npos);
  EXPECT_NE(line({NodeId{1}, NodeId{2}}).find(" mprs=n1|n2 "),
            std::string::npos);
  const auto split = [](std::string_view list) {
    std::string text = "t=0.000000s node=n0 event=two_hop_update via=n1 nodes=";
    text += list;
    const auto record = parse_record(text);
    const auto ids = record.ids(Key::kNodes);
    return Ids(ids.begin(), ids.end());
  };
  EXPECT_EQ(split("-"), Ids{});
  EXPECT_EQ(split("n1|n2|n3"), (Ids{NodeId{1}, NodeId{2}, NodeId{3}}));
  EXPECT_EQ(split("n7"), Ids{NodeId{7}});
  EXPECT_THROW(split("n1|"), std::invalid_argument);  // empty last entry
  EXPECT_THROW(split("n1|x|n3"), std::invalid_argument);
  EXPECT_THROW(split(""), std::invalid_argument);  // the empty list is "-"
}

TEST(Format, FormatsCanonicalLine) {
  const auto line = format_record(sample_record());
  EXPECT_EQ(line,
            "t=1.234567s node=n3 event=hello_recv from=n5 seq=42 sym=n1|n2 "
            "asym=- lists_us=1 will=3");
  EXPECT_EQ(format_record(LogRecord{sim::Time::from_us(5), NodeId{2},
                                    Event::kDataDrop, NodeId{9}}),
            "t=0.000005s node=n2 event=data_drop src=n9 "
            "reason=route_exhausted");
}

TEST(Format, EmptyValueUsesDashPlaceholder) {
  const LogRecord r{sim::Time{}, NodeId{0}, Event::kMprChanged,
                    Ids{NodeId{1}}, Ids{}, Ids{}};
  const auto line = format_record(r);
  EXPECT_NE(line.find("added=-"), std::string::npos);
  const auto back = parse_record(line);
  EXPECT_TRUE(back.ids(Key::kAdded).empty());
  EXPECT_EQ(back, r);
}

TEST(Format, RoundTripPreservesEverything) {
  const auto original = sample_record();
  const auto back = parse_record(format_record(original));
  EXPECT_EQ(back.time, original.time);
  EXPECT_EQ(back.node, original.node);
  EXPECT_EQ(back.event(), original.event());
  EXPECT_EQ(back, original);
}

TEST(Format, ParseRejectsMalformedLines) {
  EXPECT_THROW(parse_record(""), std::invalid_argument);
  EXPECT_THROW(parse_record("node=n1 event=daemon_start"),
               std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s event=daemon_start"),
               std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1"), std::invalid_argument);
  EXPECT_THROW(parse_record("t=bogus node=n1 event=daemon_start"),
               std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.0s node=n1 event=daemon_start"),
               std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1 event=daemon_start ="),
               std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1 event=link_sym nbr=5"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_record("t=1.000000s node=n1 event=hna_recv orig=n2 count=x"),
      std::invalid_argument);
  EXPECT_THROW(parse_record("t=1.000000s node=n1 event=data_drop src=n2 "
                            "reason=no_route"),
               std::invalid_argument);
  EXPECT_NO_THROW(parse_record("t=1.000000s node=n1 event=daemon_start"));
}

TEST(Format, ParseLogSkipsBlankLines) {
  const auto text = format_record(sample_record()) + "\n\n" +
                    format_record(sample_record()) + "\n";
  const auto records = parse_log(text);
  EXPECT_EQ(records.size(), 2u);
}

TEST(Format, ForwardingAuditRecordsRoundTrip) {
  // The forwarding-audit records introduced with audit-log version 2:
  // fwd_echo (agent overhears an MPR re-broadcast) and fwd_audit_fail (a
  // schema code no current path writes, which recorded logs may carry).
  // Both must survive the canonical text format, the form tools and dumps
  // read.
  const LogRecord echo{sim::Time::from_seconds(21.5), NodeId{0},
                       Event::kFwdEcho, NodeId{1}, NodeId{5},
                       std::int64_t{1040}};
  auto back = parse_record(format_record(echo));
  EXPECT_EQ(back.id(Key::kBy), NodeId{1});
  EXPECT_EQ(back.id(Key::kOrig), NodeId{5});
  EXPECT_EQ(back.integer(Key::kSeq), 1040);

  const LogRecord fail{sim::Time::from_seconds(25.0), NodeId{0},
                       Event::kFwdAuditFail, NodeId{1}, std::int64_t{6},
                       std::int64_t{0}};
  back = parse_record(format_record(fail));
  EXPECT_EQ(back.event(), Event::kFwdAuditFail);
  EXPECT_EQ(back.id(Key::kMpr), NodeId{1});
  EXPECT_EQ(back.integer(Key::kExpected), 6);
  EXPECT_EQ(back.integer(Key::kForwarded), 0);
}

TEST(Format, NegativeTimeRejected) {
  // Times are since simulation start; "-1.000000s" must not parse.
  EXPECT_THROW(parse_record("t=-1.000000s node=n1 event=daemon_start"),
               std::invalid_argument);
}

TEST(LogStore, AppendsInOrderAndQueries) {
  LogStore store;
  for (int i = 0; i < 5; ++i)
    store.append(sim::Time::from_seconds(i), NodeId{0},
                 i % 2 ? Event::kDaemonStop : Event::kDaemonStart);
  EXPECT_EQ(store.size(), 5u);
  EXPECT_EQ(std::ranges::count_if(store.records(),
                                  [](const RecordView& r) {
                                    return r.event() == Event::kDaemonStart;
                                  }),
            3);
  EXPECT_EQ(store.total_appended(), 5u);
}

TEST(LogStore, BoundedRetentionDropsOldest) {
  LogStore store{3};
  for (std::uint32_t i = 0; i < 10; ++i)
    store.append(sim::Time::from_seconds(i), NodeId{0}, Event::kLinkSym,
                 NodeId{i});
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.dropped(), 7u);
  EXPECT_EQ(store.at(0).id(Key::kNbr), NodeId{7});
}

TEST(LogStore, TextSinceIsParseable) {
  LogStore store;
  for (int i = 0; i < 4; ++i) {
    auto r = sample_record();
    r.time = sim::Time::from_seconds(i);
    store.append(r);
  }
  std::string text;
  for (const auto& r : store.records_from(2)) {
    text += format_record(r);
    text += '\n';
  }
  const auto parsed = parse_log(text);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].time, sim::Time::from_seconds(2));
}

// A record of `event` whose values are drawn by `id`, `integer` and
// `list_size`, built through the decoder surface.
template <typename Id, typename Int, typename Size>
LogRecord typed_record(sim::Time time, NodeId node, Event event, Id&& id,
                       Int&& integer, Size&& list_size) {
  LogRecord r;
  r.time = time;
  r.node = node;
  r.reset();
  for (const auto& field : schema(event).fields) {
    switch (field.kind) {
      case FieldKind::kId:
        r.push_id(id());
        break;
      case FieldKind::kInt:
        r.push_int(integer());
        break;
      case FieldKind::kIdList: {
        const auto n = list_size();
        r.push_count(n);
        for (std::uint32_t i = 0; i < n; ++i) r.push_id(id());
        break;
      }
      case FieldKind::kRouteExhausted:
        break;
    }
  }
  r.finish(event);
  return r;
}

// Property: format/parse round-trip over a variety of record shapes.
class FormatRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(FormatRoundTrip, Holds) {
  const auto p = static_cast<std::uint32_t>(GetParam());
  std::uint32_t next = p;
  std::int64_t f = 0;
  const auto r = typed_record(
      sim::Time::from_us(GetParam() * 997), NodeId{p},
      static_cast<Event>(p % kEventCount), [&] { return NodeId{next++}; },
      [&] { return 13 * f++; }, [&] { return p % 7; });
  const auto back = parse_record(format_record(r));
  EXPECT_EQ(back.time, r.time);
  EXPECT_EQ(back.node, r.node);
  EXPECT_EQ(back.event(), r.event());
  EXPECT_EQ(back, r);
}

INSTANTIATE_TEST_SUITE_P(Shapes, FormatRoundTrip,
                         ::testing::Values(0, 1, 2, 5, 13, 100, 12345));

// --- format <-> parse identity --------------------------------------------
// parse_record(format_record(r)) == r for every record inside the format's
// domain: every id valid (not NodeId::kInvalid). Outside it, an invalid id
// renders as "n?", which does not parse (pinned below).

LogRecord random_record(sim::Rng& rng) {
  constexpr std::int64_t kInts[] = {std::numeric_limits<std::int64_t>::min(),
                                    std::numeric_limits<std::int64_t>::max(),
                                    -1, 0, 1};
  const auto id = [&rng] {
    const auto pick = rng.uniform_int(0, 3);
    return NodeId{static_cast<std::uint32_t>(
        pick == 0   ? 0
        : pick == 1 ? NodeId::kInvalid - 1
                    : rng.uniform_int(0, NodeId::kInvalid - 1))};
  };
  const auto integer = [&rng, &kInts] {
    const auto pick = rng.uniform_int(0, 6);
    return pick < 5 ? kInts[pick] : static_cast<std::int64_t>(rng.next_u64());
  };
  const auto time = sim::Time::from_us(rng.uniform_int(0, 1'000'000'000'000));
  const auto node = id();
  const auto event = static_cast<Event>(
      rng.uniform_int(0, static_cast<std::int64_t>(kEventCount) - 1));
  return typed_record(time, node, event, id, integer, [&rng] {
    return static_cast<std::uint32_t>(rng.uniform_int(0, 5));
  });
}

TEST(FormatIdentity, HoldsOnRandomRecords) {
  sim::Rng rng{2024};
  std::array<int, kEventCount> kinds{};
  int empty_lists = 0, top_ids = 0, int_extremes = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto r = random_record(rng);
    ++kinds[static_cast<std::size_t>(r.event())];
    r.for_each_value([&](const FieldSpec&, const auto& value) {
      using Value = std::decay_t<decltype(value)>;
      if constexpr (std::is_same_v<Value, NodeId>) {
        top_ids += value.value() == NodeId::kInvalid - 1;
      } else if constexpr (std::is_same_v<Value, std::int64_t>) {
        int_extremes += value == std::numeric_limits<std::int64_t>::min() ||
                        value == std::numeric_limits<std::int64_t>::max();
      } else if constexpr (std::is_same_v<Value, std::span<const NodeId>>) {
        empty_lists += value.empty();
      }
    });
    const auto line = format_record(r);
    ASSERT_EQ(parse_record(line), r) << line;
  }
  for (std::size_t k = 0; k < kEventCount; ++k)
    EXPECT_GT(kinds[k], 0) << schema(static_cast<Event>(k)).name;
  EXPECT_GT(empty_lists, 0);
  EXPECT_GT(top_ids, 0);
  EXPECT_GT(int_extremes, 0);
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

// The text every record of two pristine runs renders to, pinned as one
// FNV-1a digest: the golden 16-node spoof replication above and a 36-node
// grayhole grid (seed 1, 6 rounds). A change to how records are held in
// memory must leave this text byte for byte as it is.
std::uint64_t text_digest(const runtime::ReplicationTask& task) {
  scenario::TrustExperiment experiment{task.to_config()};
  experiment.setup();
  experiment.run_attack_rounds(task.rounds);
  std::vector<std::uint8_t> text;
  auto& network = experiment.network();
  for (std::size_t i = 0; i < network.size(); ++i)
    for (const auto& record : network.agent(i).log().records()) {
      const auto line = format_record(record);
      text.insert(text.end(), line.begin(), line.end());
      text.push_back('\n');
    }
  return test_digest::fnv1a64(text);
}

TEST(FormatIdentity, TextMatchesParentDigest) {
  runtime::ReplicationTask spoof;
  spoof.point.num_nodes = 16;
  spoof.point.attacker_fraction = 0.29;
  spoof.seed = 2024;
  spoof.rounds = 6;
  EXPECT_EQ(text_digest(spoof), 0x07c102f8e843fff3ull);

  runtime::ReplicationTask grayhole;
  grayhole.point.num_nodes = 36;
  grayhole.point.attacker_fraction = 0.0;
  grayhole.seed = 1;
  grayhole.rounds = 6;
  grayhole.attack = scenario::TrustExperiment::AttackKind::kGrayhole;
  EXPECT_EQ(text_digest(grayhole), 0x987920acc8a72c00ull);
}

TEST(FormatIdentity, OutsideTheDomainIsNotIdentity) {
  // "-" is the empty list's text, not a value of its own: where an id or
  // an integer belongs it does not parse.
  EXPECT_THROW(parse_record("t=0.000000s node=n0 event=link_sym nbr=-"),
               std::invalid_argument);
  EXPECT_THROW(parse_record("t=0.000000s node=n0 event=hna_recv orig=n1 "
                            "count=-"),
               std::invalid_argument);

  LogRecord invalid = sample_record();
  invalid.node = net::kInvalidNode;  // formats as "n?"
  EXPECT_THROW(parse_record(format_record(invalid)), std::invalid_argument);
  const LogRecord listed{sim::Time{}, NodeId{0}, Event::kTwoHopUpdate,
                         NodeId{1}, Ids{NodeId{2}, net::kInvalidNode}};
  EXPECT_THROW(parse_record(format_record(listed)), std::invalid_argument);

  // Text no record renders to: an unknown event, an unknown key, a missing
  // field and an extra field.
  const std::string good = format_record(sample_record());
  ASSERT_EQ(parse_record(good), sample_record());
  const auto bent = [&good](std::string_view from, std::string_view to) {
    auto text = good;
    text.replace(text.find(from), from.size(), to);
    return text;
  };
  EXPECT_THROW(parse_record(bent("event=hello_recv", "event=hello_lost")),
               std::invalid_argument);
  EXPECT_THROW(parse_record(bent("lists_us=1", "listed_us=1")),
               std::invalid_argument);
  EXPECT_THROW(parse_record(bent(" lists_us=1", "")), std::invalid_argument);
  EXPECT_THROW(parse_record(good + " via=n4"), std::invalid_argument);
}

// ------------------------------------------------------- work counters

std::uint64_t hot(const obs::Context& ctx, obs::Hot h) {
  return ctx.snapshot().counter_value(obs::hot_name(h));
}

TEST(LogCounters, PristineRunsAppendEveryRecordAndRenderNone) {
  // The live path appends typed records and never touches their text; the
  // text counter moves only at the I/O edge.
  for (const auto attack : {scenario::TrustExperiment::AttackKind::kSpoof,
                            scenario::TrustExperiment::AttackKind::kGrayhole}) {
    runtime::ReplicationTask task;
    task.point.num_nodes = 16;
    task.point.attacker_fraction =
        attack == scenario::TrustExperiment::AttackKind::kSpoof ? 0.25 : 0.0;
    task.seed = 3;
    task.attack = attack;
    obs::Context ctx;
    obs::Scope scope{&ctx};
    scenario::TrustExperiment exp{task.to_config()};
    exp.setup();
    for (int r = 0; r < 3; ++r) exp.run_round();
    std::uint64_t held = 0;
    for (std::size_t i = 0; i < exp.network().size(); ++i) {
      const auto& log = exp.network().agent(i).log();
      ASSERT_EQ(log.dropped(), 0u);
      held += log.size();
    }
    ASSERT_GT(held, 0u);
    EXPECT_EQ(hot(ctx, obs::Hot::kLogRecords), held);
    EXPECT_EQ(hot(ctx, obs::Hot::kLogTextRecords), 0u);

    const auto& first = exp.network().agent(0).log().at(0);
    EXPECT_EQ(parse_record(format_record(first)), first);
    EXPECT_EQ(hot(ctx, obs::Hot::kLogTextRecords), 2u);
    EXPECT_EQ(hot(ctx, obs::Hot::kLogRecords), held);
  }
}

// --- records read in place ----------------------------------------------

/// Every reading `view` offers, as tokens: header, each key under each
/// accessor (its value, or a marker when the accessor throws) and the
/// for_each_value walk.
template <typename Record>
std::vector<std::int64_t> readings(const Record& record) {
  std::vector<std::int64_t> out{record.time.us(), record.node.value(),
                                static_cast<std::int64_t>(record.event())};
  constexpr std::int64_t kThrew = -7'777;
  for (std::size_t k = 0; k <= static_cast<std::size_t>(Key::kWill); ++k) {
    const auto key = static_cast<Key>(k);
    try {
      out.push_back(record.id(key).value());
    } catch (const std::invalid_argument&) {
      out.push_back(kThrew);
    }
    try {
      out.push_back(record.integer(key));
    } catch (const std::invalid_argument&) {
      out.push_back(kThrew);
    }
    try {
      const auto ids = record.ids(key);
      out.push_back(static_cast<std::int64_t>(ids.size()));
      for (const auto id : ids) out.push_back(id.value());
    } catch (const std::invalid_argument&) {
      out.push_back(kThrew);
    }
  }
  record.for_each_value([&out](const FieldSpec& field, const auto& value) {
    using Value = std::decay_t<decltype(value)>;
    out.push_back(static_cast<std::int64_t>(field.key));
    if constexpr (std::is_same_v<Value, NodeId>) {
      out.push_back(value.value());
    } else if constexpr (std::is_same_v<Value, std::int64_t>) {
      out.push_back(value);
    } else if constexpr (!std::is_same_v<Value, std::nullopt_t>) {
      for (const auto id : value) out.push_back(id.value());
    }
  });
  return out;
}

TEST(RecordView, MatchesLogRecordOnEveryAccessor) {
  // Random records of every schema, each read as the owning record and as
  // the view of its copy in a store.
  sim::Rng rng{23};
  LogStore store;
  std::vector<LogRecord> records;
  std::array<int, kEventCount> kinds{};
  for (int i = 0; i < 600; ++i) {
    records.push_back(random_record(rng));
    ++kinds[static_cast<std::size_t>(records.back().event())];
    store.append(records.back());
  }
  for (std::size_t k = 0; k < kEventCount; ++k)
    EXPECT_GT(kinds[k], 0) << schema(static_cast<Event>(k)).name;
  ASSERT_EQ(store.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& record = records[i];
    const RecordView stored = store.at(i);
    EXPECT_EQ(readings(stored), readings(record)) << i;
    EXPECT_TRUE(std::ranges::equal(stored.words(), record.view().words()));
    EXPECT_EQ(stored, record);
    EXPECT_EQ(LogRecord{stored}, record);
  }
}

TEST(LogStore, RetainedWindowAcrossPagesMatchesNaiveScan) {
  // A store holding a page and a bit, filled past several page boundaries:
  // at, records() and records_from answer as a plain copy of the last
  // `kCapacity` records does.
  constexpr std::size_t kCapacity = LogStore::kPageRows + 300;
  LogStore store{kCapacity};
  std::deque<LogRecord> naive;
  sim::Rng rng{7};
  sim::Time t{};
  std::uint64_t total = 0;
  const auto check = [&] {
    ASSERT_EQ(store.size(), naive.size());
    ASSERT_EQ(store.total_appended(), total);
    ASSERT_EQ(store.base_index(), total - naive.size());
    ASSERT_EQ(store.dropped(), total - naive.size());
    for (std::size_t i = 0; i < naive.size(); ++i)
      ASSERT_EQ(store.at(i), naive[i]) << i;
    EXPECT_THROW(store.at(naive.size()), std::out_of_range);
    ASSERT_TRUE(std::ranges::equal(store.records(), naive));
    const auto pick = static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(naive.size()) - 1));
    const auto base = store.base_index();
    for (const std::uint64_t index : {std::uint64_t{0}, base, base + pick,
                                      base + naive.size() / 2, total,
                                      total + 5}) {
      const auto skip = std::min<std::uint64_t>(
          index > base ? index - base : 0, naive.size());
      ASSERT_TRUE(std::ranges::equal(
          store.records_from(index),
          naive | std::views::drop(static_cast<std::ptrdiff_t>(skip))));
    }
  };
  for (std::size_t step = 0; step < 6 * LogStore::kPageRows; ++step) {
    auto record = random_record(rng);
    t = t + sim::Time::from_us(rng.uniform_int(0, 2));  // ties included
    record.time = t;
    store.append(record);
    naive.push_back(record);
    if (naive.size() > kCapacity) naive.pop_front();
    ++total;
    if (step % 211 == 0 || step % LogStore::kPageRows < 2) check();
  }
  check();
}

TEST(LogStore, HeapIsRowsAndWordsPlusOnePage) {
  // A record costs one 16-byte row and its value words: no container
  // element or heap block of its own. The store's heap is bounded by that
  // plus one page (the open page's rows and reserved words) and a few
  // malloc headers a page.
  constexpr std::size_t kRecords = 20'000;
  constexpr std::size_t kMaxWords = 1 + 2 + (1 + 6) + (1 + 2) + 2 + 2;
  std::vector<Ids> lists;
  for (std::uint32_t n = 0; n <= 6; ++n) lists.emplace_back(n, NodeId{n});
  const Ids asym{NodeId{9}};
  std::size_t words = 0;
  const auto before = mallinfo2().uordblks;
  LogStore store;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const auto& sym = lists[i % lists.size()];
    const auto& heard = i % 3 ? asym : lists[0];
    store.append(sim::Time::from_us(static_cast<std::int64_t>(i)), NodeId{0},
                 Event::kHelloRecv, NodeId{1}, i, sym, heard, 1, 3);
    words += 1 + 2 + (1 + sym.size()) + (1 + heard.size()) + 2 + 2;
  }
  const auto heap = mallinfo2().uordblks - before;
  if (heap == 0) GTEST_SKIP() << "the allocator does not report mallinfo2";
  const std::size_t pages = kRecords / LogStore::kPageRows + 1;
  const std::size_t bound = 16 * kRecords + 4 * words +
                            LogStore::kPageRows * (16 + 4 * kMaxWords) +
                            128 * pages + 4096;
  EXPECT_LE(heap, bound);
  EXPECT_LT(static_cast<double>(heap) / kRecords,
            16.0 + 4.0 * static_cast<double>(words) / kRecords + 8.0);
}

}  // namespace
}  // namespace manet::logging
