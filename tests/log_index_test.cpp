// Equivalence tests for core::LogIndex, the per-node index that the IDS's
// log queries answer from (InvestigationManager::honest_observation,
// Detector::believed_neighbors_of, Detector::find_disputed_links). The
// reference below is the naive reading of those queries: copy the retained
// records of each event out of the log and re-parse every list it scans. A
// checker hook on every node compares the two whenever an investigation
// message reaches the node (the exact log state its answer is computed
// from), and each round ends with a sweep over every suspect/subject pair.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "attacks/link_spoofing.hpp"
#include "core/detector.hpp"
#include "core/investigation.hpp"
#include "core/log_index.hpp"
#include "logging/format.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "scenario/network.hpp"
#include "scenario/trust_experiment.hpp"
#include "sim/rng.hpp"

namespace manet::core {
namespace {

using logging::Event;
using logging::Key;
using logging::LogRecord;
using logging::RecordView;
using Ids = std::vector<NodeId>;
using logging::LogStore;
using scenario::Network;
using scenario::TrustExperiment;

// ---------------------------------------------------------------- reference

template <typename Ids>
bool has(const Ids& ids, NodeId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

/// Copies of a log's retained records, oldest first, split by event; the
/// reference queries below scan them. One copy serves every query asked at
/// one instant.
struct LogCopy {
  explicit LogCopy(const LogStore& log) {
    for (const auto& r : log.records()) {
      if (r.event() == Event::kHelloRecv) hellos.emplace_back(r);
      if (r.event() == Event::kTcRecv) tcs.emplace_back(r);
      if (r.event() == Event::kOwnFwdHeard) echoes.emplace_back(r);
    }
    for (const auto& rec : hellos) {
      const auto sym = rec.ids(Key::kSym);
      latest_sym[rec.id(Key::kFrom)].assign(sym.begin(), sym.end());
    }
  }

  std::vector<LogRecord> hellos;
  std::vector<LogRecord> tcs;
  std::vector<LogRecord> echoes;
  /// Each originator's newest HELLO list.
  std::map<NodeId, std::vector<NodeId>> latest_sym;
};

/// The protocol state an observation reads besides the log.
struct LiveState {
  NodeId self;
  bool suspect_is_mpr = false;
  bool suspect_is_symmetric = false;
};

double reference_observation(const LogCopy& log, const LiveState& live,
                             sim::Time now, sim::Duration freshness,
                             const LinkQuery& query) {
  if (query.kind == QueryKind::kForwarding) {
    if (!live.suspect_is_mpr) return 0.0;
    for (const auto& rec : log.echoes) {
      if (now - rec.time > freshness) continue;
      if (rec.id(Key::kBy) == query.suspect) return +1.0;
    }
    return -1.0;
  }
  if (query.subject == live.self) return live.suspect_is_symmetric ? +1.0 : -1.0;
  if (!query.claimed_up) return 0.0;

  const auto& hellos = log.hellos;
  for (auto it = hellos.rbegin(); it != hellos.rend(); ++it) {
    if (now - it->time > freshness) break;
    if (it->id(Key::kFrom) != query.subject) continue;
    if (!has(it->ids(Key::kSym), query.suspect)) return -1.0;
    for (auto jt = hellos.rbegin(); jt != hellos.rend(); ++jt) {
      if (now - jt->time > freshness) break;
      if (jt->id(Key::kFrom) != query.suspect) continue;
      return has(jt->ids(Key::kSym), query.subject) ? +1.0 : -1.0;
    }
    return +1.0;
  }
  for (const auto& rec : log.tcs) {
    if (rec.id(Key::kOrig) == query.subject) return 0.0;
    if (rec.id(Key::kOrig) != query.suspect &&
        has(rec.ids(Key::kAdv), query.subject))
      return 0.0;
  }
  for (auto it = hellos.rbegin(); it != hellos.rend(); ++it) {
    const auto from = it->id(Key::kFrom);
    if (from == query.suspect || from == query.subject) continue;
    if (has(it->ids(Key::kSym), query.subject)) return 0.0;
  }
  return -1.0;
}

std::vector<NodeId> reference_believed_neighbors(const LogCopy& log,
                                                 NodeId self, NodeId suspect) {
  std::set<NodeId> out;
  if (auto it = log.latest_sym.find(suspect); it != log.latest_sym.end())
    out.insert(it->second.begin(), it->second.end());
  for (const auto& [from, sym] : log.latest_sym)
    if (from != suspect && has(sym, suspect)) out.insert(from);
  out.erase(self);
  out.erase(suspect);
  return {out.begin(), out.end()};
}

std::vector<NodeId> reference_disputed_links(const LogCopy& log, NodeId self,
                                             NodeId suspect,
                                             std::size_t max_links) {
  const auto& latest = log.latest_sym;
  const auto claim = latest.find(suspect);
  if (claim == latest.end()) return {};
  std::set<NodeId> independent;
  for (const auto& [from, sym] : latest) {
    independent.insert(from);
    if (from != suspect) independent.insert(sym.begin(), sym.end());
  }
  for (const auto& rec : log.tcs) {
    const auto orig = rec.id(Key::kOrig);
    independent.insert(orig);
    if (orig == suspect) continue;
    const auto adv = rec.ids(Key::kAdv);
    independent.insert(adv.begin(), adv.end());
  }
  std::vector<NodeId> disputed;
  for (auto x : claim->second) {
    if (disputed.size() >= max_links) break;
    if (x == self) continue;
    if (!independent.contains(x)) {
      disputed.push_back(x);
      continue;
    }
    const auto own = latest.find(x);
    if (own != latest.end() && !has(own->second, suspect)) disputed.push_back(x);
  }
  return disputed;
}

// ------------------------------------------------------------------ checker

std::string describe(const std::vector<NodeId>& ids) {
  std::string out = "[";
  for (auto id : ids) {
    out += ' ';
    out += id.to_string();
  }
  return out + " ]";
}
std::string describe(double v) { return std::to_string(v); }

/// Compares one node's index-backed answers with the reference. Runs in the
/// node's own context (a sharded engine's worker lane included) and
/// forwards every hook call to the node's attack hooks, if any. Nodes
/// without a detector get a passive one (never started: no scans, no
/// draws) so the detector queries can be asked of every log.
class Checker final : public olsr::AgentHooks {
 public:
  Checker(Network& net, std::size_t index, sim::Duration freshness)
      : self_{Network::id_of(index)},
        engine_{net.sharded() ? net.sharded()->shard_engine(self_)
                              : static_cast<sim::Engine&>(net.sim())},
        agent_{net.agent(index)},
        investigations_{net.investigations(index)},
        detector_{net.detector(index) ? *net.detector(index)
                                      : net.add_detector(index)},
        inner_{net.hooks(index)},
        freshness_{freshness} {
    agent_.set_hooks(this);
  }

  void on_build_hello(olsr::HelloMessage& hello) override {
    if (inner_) inner_->on_build_hello(hello);
  }
  void on_build_tc(olsr::TcMessage& tc) override {
    if (inner_) inner_->on_build_tc(tc);
  }
  bool should_forward(const olsr::Message& message) override {
    return !inner_ || inner_->should_forward(message);
  }
  void on_forward(olsr::Message& message) override {
    if (inner_) inner_->on_forward(message);
  }
  bool should_relay_data(const olsr::DataMessage& data) override {
    return !inner_ || inner_->should_relay_data(data);
  }
  void on_tick() override {
    if (inner_) inner_->on_tick();
  }
  void on_receive(const olsr::Message& message) override {
    if (inner_) inner_->on_receive(message);
    const auto* data = message.as_data();
    if (!data || data->destination != self_ ||
        data->protocol != kInvestigationProtocol)
      return;
    const LogCopy log{agent_.log()};
    if (is_query(data->payload)) {
      if (const auto q = decode_query(data->payload)) {
        if (q->kind == QueryKind::kForwarding) ++forwarding_queries_;
        ++queries_;
        check_observation(log, *q);
        check_suspect(log, q->suspect);
      }
    } else if (const auto a = decode_answer(data->payload)) {
      check_suspect(log, a->suspect);
    }
  }

  void check_observation(const LogCopy& log, const LinkQuery& q) {
    const LiveState live{self_, agent_.is_mpr(q.suspect),
                         agent_.is_symmetric_neighbor(q.suspect)};
    expect_same("honest_observation", q.suspect, q.subject,
                investigations_.honest_observation(q),
                reference_observation(log, live, engine_.now(), freshness_, q));
  }

  void check_suspect(const LogCopy& log, NodeId suspect) {
    expect_same("believed_neighbors_of", suspect, suspect,
                detector_.believed_neighbors_of(suspect),
                reference_believed_neighbors(log, self_, suspect));
    for (const std::size_t max_links : {std::size_t{3}, std::size_t{1000}})
      expect_same("find_disputed_links", suspect, suspect,
                  detector_.find_disputed_links(suspect, max_links),
                  reference_disputed_links(log, self_, suspect, max_links));
  }

  /// Every query about every pair of `ids`, as a suspect and a subject.
  void sweep(const std::vector<NodeId>& ids) {
    const LogCopy log{agent_.log()};
    for (const auto suspect : ids) {
      check_suspect(log, suspect);
      LinkQuery forwarding;
      forwarding.kind = QueryKind::kForwarding;
      forwarding.suspect = suspect;
      forwarding.subject = self_;
      check_observation(log, forwarding);
      for (const auto subject : ids) {
        LinkQuery link;
        link.suspect = suspect;
        link.subject = subject;
        check_observation(log, link);
      }
    }
  }

  std::size_t comparisons() const { return comparisons_; }
  std::size_t queries() const { return queries_; }
  std::size_t forwarding_queries() const { return forwarding_queries_; }
  const std::string& mismatch() const { return mismatch_; }

 private:
  template <typename T>
  void expect_same(const char* query, NodeId suspect, NodeId subject,
                   const T& index, const T& reference) {
    ++comparisons_;
    if (index == reference || !mismatch_.empty()) return;
    mismatch_ = self_.to_string() + " at " + engine_.now().to_string() + ": " +
                query + "(" + suspect.to_string() + ", " +
                subject.to_string() + ") index " + describe(index) +
                " reference " + describe(reference);
  }

  NodeId self_;
  sim::Engine& engine_;
  olsr::Agent& agent_;
  InvestigationManager& investigations_;
  Detector& detector_;
  olsr::AgentHooks* inner_;
  sim::Duration freshness_;
  std::size_t comparisons_ = 0;
  std::size_t queries_ = 0;
  std::size_t forwarding_queries_ = 0;
  std::string mismatch_;
};

/// Checkers on every node of a network, plus the round-end sweep.
class Fleet {
 public:
  Fleet(Network& net, sim::Duration freshness, std::vector<NodeId> ids)
      : ids_{std::move(ids)} {
    for (std::size_t i = 0; i < net.size(); ++i)
      checkers_.push_back(std::make_unique<Checker>(net, i, freshness));
  }

  /// Asks the first `nodes` nodes (the investigator, then the attacker)
  /// every query about every pair of ids.
  void sweep(std::size_t nodes) {
    for (std::size_t i = 0; i < std::min(nodes, checkers_.size()); ++i)
      checkers_[i]->sweep(ids_);
  }
  std::size_t size() const { return checkers_.size(); }

  /// Adds this fleet's tallies to the totals and fails on a mismatch.
  void expect_clean(std::uint64_t seed, std::size_t& queries,
                    std::size_t& forwarding_queries) const {
    for (const auto& c : checkers_) {
      EXPECT_EQ(c->mismatch(), "") << "seed " << seed;
      queries += c->queries();
      forwarding_queries += c->forwarding_queries();
    }
    EXPECT_GT(checkers_[0]->comparisons(), 0u) << "seed " << seed;
  }

 private:
  std::vector<NodeId> ids_;
  std::vector<std::unique_ptr<Checker>> checkers_;
};

/// Every node id of an experiment plus its phantom.
std::vector<NodeId> ids_of(TrustExperiment& exp) {
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < exp.network().size(); ++i)
    ids.push_back(Network::id_of(i));
  ids.push_back(exp.phantom());
  return ids;
}

/// Runs `rounds` rounds under a checker fleet; returns the real queries
/// checked (all kinds, then kForwarding only).
std::pair<std::size_t, std::size_t> run_checked(TrustExperiment& exp,
                                                int rounds,
                                                std::uint64_t seed) {
  Fleet fleet{exp.network(), kHelloFreshness, ids_of(exp)};
  // Between rounds the logs holding the claims are swept; after the last
  // round every log is.
  for (int r = 0; r < rounds; ++r) {
    exp.run_round();
    fleet.sweep(r + 1 < rounds ? 2 : fleet.size());
  }
  std::pair<std::size_t, std::size_t> queries{0, 0};
  fleet.expect_clean(seed, queries.first, queries.second);
  return queries;
}

TrustExperiment::Config spoof_mesh(std::uint64_t seed) {
  TrustExperiment::Config config;
  config.seed = seed;
  config.num_nodes = 16;
  config.num_liars = 4;
  return config;
}

// ------------------------------------------------------- scenario equivalence

TEST(LogIndexEquivalence, SpoofMeshWithLiars) {
  std::size_t queries = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TrustExperiment exp{spoof_mesh(seed)};
    exp.setup();
    queries += run_checked(exp, 4, seed).first;
  }
  EXPECT_GT(queries, 20u * 4u * 10u);  // every bystander, every round
}

TEST(LogIndexEquivalence, GrayholeGridForwardingQueriesAndScans) {
  std::size_t queries = 0;
  std::size_t forwarding = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TrustExperiment::Config config;
    config.attack = TrustExperiment::AttackKind::kGrayhole;
    config.seed = seed;
    config.num_nodes = 16;
    config.num_liars = 2;
    TrustExperiment exp{config};
    exp.setup();
    const auto [all, fwd] = run_checked(exp, 4, seed);
    queries += all;
    forwarding += fwd;
  }
  EXPECT_GT(queries, 0u);
  EXPECT_GT(forwarding, 0u);
}

TEST(LogIndexEquivalence, CheckpointRestoreRebuildsTheIndex) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const auto config = spoof_mesh(seed);
    TrustExperiment exp{config};
    exp.setup();
    run_checked(exp, 2, seed);
    const auto restored =
        TrustExperiment::restore_checkpoint(config, exp.save_checkpoint());
    EXPECT_GT(run_checked(*restored, 2, seed).first, 0u);
  }
}

TEST(LogIndexEquivalence, ShardedEngine) {
  auto config = spoof_mesh(5);
  config.engine = sim::EngineKind::kSharded;
  config.engine_threads = 2;
  config.shards = 2;
  TrustExperiment exp{config};
  exp.setup();
  EXPECT_GT(run_checked(exp, 3, config.seed).first, 0u);
}

TEST(LogIndexEquivalence, RetentionRestartsFollowTheRetainedWindow) {
  // A 200-record log turns over within seconds, so nearly every sync
  // finds an indexed record dropped. The detector runs on its own here
  // (scan timer, signature-driven investigations, default verifiers).
  obs::Context ctx;
  obs::Scope scope{&ctx};
  std::size_t queries = 0;
  std::size_t unused = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Network::Config c;
    c.seed = seed;
    c.radio.range_m = 250.0;
    c.positions = net::grid_layout(12, 50.0);
    c.agent.log_capacity = 200;
    Network net{c};
    const NodeId phantom{99};
    net.set_hooks(1, std::make_unique<attacks::LinkSpoofingAttack>(
                         attacks::LinkSpoofingAttack::Mode::kAddNonExistent,
                         std::set<NodeId>{phantom}));
    for (std::size_t i = 2; i < 5; ++i)
      net.set_answer_policy(i, AnswerPolicy::kLiar);
    auto& detector = net.add_detector(0);
    std::vector<NodeId> ids{phantom};
    for (std::size_t i = 0; i < net.size(); ++i)
      ids.push_back(Network::id_of(i));
    Fleet fleet{net, kHelloFreshness, ids};
    net.start_all();
    detector.start();
    for (int step = 0; step < 8; ++step) {
      net.run_for(sim::Duration::from_seconds(5.0));
      fleet.sweep(step + 1 < 8 ? 2 : fleet.size());
    }
    EXPECT_GT(net.agent(0).log().dropped(), 0u);
    fleet.expect_clean(seed, queries, unused);
  }
  EXPECT_GT(queries, 0u);
  const auto snap = ctx.snapshot();
  EXPECT_GT(snap.counter_value(obs::hot_name(obs::Hot::kLogIndexRestarts)),
            0u);
}

// ---------------------------------------------------------- work counters

TEST(LogIndexCounters, PristineRunParsesEachRecordOnce) {
  // Nothing is dropped, so no record may be parsed twice: the parses stay
  // within the records of the indexed kinds ever appended.
  obs::Context ctx;
  std::uint64_t indexable = 0;
  {
    obs::Scope scope{&ctx};
    TrustExperiment exp{spoof_mesh(3)};
    exp.setup();
    for (int r = 0; r < 3; ++r) exp.run_round();
    for (std::size_t i = 0; i < exp.network().size(); ++i) {
      const auto& log = exp.network().agent(i).log();
      ASSERT_EQ(log.dropped(), 0u);
      indexable += static_cast<std::uint64_t>(
          std::ranges::count_if(log.records(), [](const RecordView& r) {
            return r.event() == Event::kHelloRecv ||
                   r.event() == Event::kTcRecv ||
                   r.event() == Event::kOwnFwdHeard;
          }));
    }
  }
  const auto snap = ctx.snapshot();
  const auto indexed =
      snap.counter_value(obs::hot_name(obs::Hot::kLogRecordsIndexed));
  EXPECT_GT(indexed, indexable / 2);
  EXPECT_LE(indexed, indexable);
  EXPECT_EQ(snap.counter_value(obs::hot_name(obs::Hot::kLogIndexRestarts)),
            0u);
}

// ------------------------------------------------------ hand-built logs

/// One idle node whose log the test writes by hand. Time stands at 20 s,
/// so with the default 6 s freshness a HELLO before 14 s is stale.
class LogIndexHandBuilt : public ::testing::Test {
 protected:
  LogIndexHandBuilt() : net_{config()} {
    net_.run_for(sim::Duration::from_seconds(20.0));
  }

  static Network::Config config() {
    Network::Config c;
    c.positions = {{0.0, 0.0}};
    return c;
  }

  void hello(double at_s, NodeId from, Ids sym) {
    net_.agent(0).log().append(sim::Time::from_seconds(at_s), kSelf,
                               Event::kHelloRecv, from, 0, sym, Ids{}, 1, 3);
  }
  void tc(double at_s, NodeId orig, Ids adv) {
    net_.agent(0).log().append(sim::Time::from_seconds(at_s), kSelf,
                               Event::kTcRecv, orig, orig, 0, 0, adv, 1);
  }

  double observe(NodeId suspect, NodeId subject) {
    LinkQuery q;
    q.suspect = suspect;
    q.subject = subject;
    const double index = net_.investigations(0).honest_observation(q);
    EXPECT_EQ(index, reference_observation(LogCopy{net_.agent(0).log()},
                                           {kSelf}, net_.now(),
                                           sim::Duration::from_seconds(6.0), q));
    return index;
  }

  static constexpr NodeId kSelf{0};
  static constexpr NodeId kSuspect{1};
  static constexpr NodeId kSubject{2};
  static constexpr NodeId kThird{3};
  static constexpr NodeId kOther{4};
  Network net_;
};

TEST_F(LogIndexHandBuilt, NodeListedBySuspectSubjectAndOneThirdParty) {
  // The subject lists itself, so the suspect and the subject take two of
  // the index's three witness slots; the third party must still count.
  hello(1.0, kSubject, {kSubject});
  hello(2.0, kSuspect, {kSubject});
  EXPECT_EQ(observe(kSuspect, kSubject), -1.0);  // nobody independent
  hello(3.0, kThird, {kSubject});
  EXPECT_EQ(observe(kSuspect, kSubject), 0.0);  // the third party vouches
}

TEST_F(LogIndexHandBuilt, FreshnessIsReadOffEachNewestHello) {
  hello(5.0, kSuspect, {kThird});
  hello(16.0, kSubject, {kSuspect});
  EXPECT_EQ(observe(kSuspect, kSubject), +1.0);  // the suspect's is stale
  hello(17.0, kSuspect, {kThird});
  EXPECT_EQ(observe(kSuspect, kSubject), -1.0);  // a fresh one omits n2
  hello(18.0, kSubject, {kThird});
  EXPECT_EQ(observe(kSuspect, kSubject), -1.0);  // n2 no longer lists n1
}

TEST_F(LogIndexHandBuilt, TcOnlyTheSuspectOriginated) {
  tc(1.0, kSuspect, {kSubject});
  tc(2.0, kSuspect, {kSubject, kThird});
  EXPECT_EQ(observe(kSuspect, kSubject), -1.0);  // the claim vouches for itself
  EXPECT_EQ(observe(kThird, kSubject), 0.0);     // n1 is independent of n3
  tc(3.0, kOther, {kSubject});
  EXPECT_EQ(observe(kSuspect, kSubject), 0.0);
  EXPECT_EQ(observe(kSuspect, kOther), 0.0);  // n4 originated a TC
}

TEST_F(LogIndexHandBuilt, MalformedSymEntryNeverReachesTheIndex) {
  // A log holds typed ids only: a sym entry that is not an id is refused
  // where text becomes a record, so no query can meet it.
  EXPECT_THROW(logging::parse_record("t=1.000000s node=n0 event=hello_recv "
                                     "from=n1 seq=0 sym=n2|bogus asym=- "
                                     "lists_us=1 will=3"),
               std::invalid_argument);
  hello(1.0, kSuspect, {kSubject});
  auto& detector = net_.add_detector(0);
  LinkQuery q;
  q.suspect = kSuspect;
  q.subject = kSubject;
  EXPECT_EQ(observe(kSuspect, kSubject), -1.0);
  EXPECT_EQ(detector.believed_neighbors_of(kSuspect), Ids{kSubject});
  EXPECT_EQ(detector.find_disputed_links(kSuspect), Ids{kSubject});
}

TEST(LogIndex, RetentionDropRestartsFromTheRetainedWindow) {
  LogStore log{3};
  LogIndex index{log};
  const NodeId listed{7};
  const auto append = [&log, listed](std::uint32_t from) {
    log.append(sim::Time{}, NodeId{0}, Event::kHelloRecv, NodeId{from}, 0,
               Ids{listed}, Ids{}, 1, 3);
  };
  append(3);
  index.sync();
  EXPECT_TRUE(index.hello_listed_by_other(listed, NodeId{1}, NodeId{2}));
  append(1);
  append(2);
  append(1);  // drops n3's HELLO, the only third-party listing
  index.sync();
  EXPECT_FALSE(index.hello_listed_by_other(listed, NodeId{1}, NodeId{2}));
  ASSERT_TRUE(index.newest_hello(NodeId{1}).has_value());
  EXPECT_FALSE(index.newest_hello(NodeId{3}).has_value());
}

TEST(LogIndex, SmallStoreAcrossPagesMatchesNaiveScan) {
  // A store of a page and a bit, filled past many page boundaries with
  // HELLOs, TCs, forward echoes and filler over a few ids: after every
  // sync, each query answers as a scan of the retained window does.
  constexpr std::uint32_t kIds = 7;
  LogStore log{LogStore::kPageRows + 100};
  LogIndex index{log};
  sim::Rng rng{11};
  const auto id = [&rng] {
    return NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, kIds - 1))};
  };
  const auto ids = [&] {
    Ids out;
    for (std::uint32_t n = 0; n < kIds; ++n)
      if (rng.uniform_int(0, 2) == 0) out.push_back(NodeId{n});
    return out;
  };
  const auto check = [&] {
    index.sync();
    std::vector<LogRecord> window;
    for (const auto& r : log.records()) window.emplace_back(r);
    const auto newest = [&](Event event, Key key, NodeId who) {
      const LogRecord* found = nullptr;
      for (const auto& r : window)
        if (r.event() == event && r.id(key) == who) found = &r;
      return found;
    };
    const auto lists = [](std::span<const NodeId> list, NodeId node) {
      return std::ranges::find(list, node) != list.end();
    };
    std::vector<std::pair<NodeId, LogRecord>> newest_hellos;
    for (std::uint32_t n = 0; n < kIds; ++n) {
      const NodeId node{n};
      const auto* hello = newest(Event::kHelloRecv, Key::kFrom, node);
      const auto got = index.newest_hello(node);
      ASSERT_EQ(got.has_value(), hello != nullptr) << n;
      if (hello) {
        EXPECT_EQ(*got, *hello);
        newest_hellos.emplace_back(node, *hello);
      }
      const auto* echo = newest(Event::kOwnFwdHeard, Key::kBy, node);
      EXPECT_EQ(index.newest_fwd_echo(node),
                echo ? std::optional{echo->time} : std::nullopt);
      EXPECT_EQ(index.tc_originated(node),
                newest(Event::kTcRecv, Key::kOrig, node) != nullptr);
      for (std::uint32_t a = 0; a < kIds; ++a) {
        const NodeId other{a};
        EXPECT_EQ(index.tc_advertised_by_other(node, other),
                  std::ranges::any_of(window, [&](const LogRecord& r) {
                    return r.event() == Event::kTcRecv &&
                           r.id(Key::kOrig) != other &&
                           lists(r.ids(Key::kAdv), node);
                  }));
        for (std::uint32_t b = 0; b < kIds; ++b)
          EXPECT_EQ(index.hello_listed_by_other(node, other, NodeId{b}),
                    std::ranges::any_of(window, [&](const LogRecord& r) {
                      return r.event() == Event::kHelloRecv &&
                             r.id(Key::kFrom) != other &&
                             r.id(Key::kFrom) != NodeId{b} &&
                             lists(r.ids(Key::kSym), node);
                    }));
      }
    }
    std::vector<std::pair<NodeId, LogRecord>> visited;
    index.for_each_newest_hello([&](NodeId from, const RecordView& hello) {
      visited.emplace_back(from, LogRecord{hello});
      return true;
    });
    EXPECT_EQ(visited, newest_hellos);
  };
  sim::Time t{};
  for (std::size_t step = 0; step < 6 * LogStore::kPageRows; ++step) {
    t = t + sim::Time::from_us(rng.uniform_int(0, 2));
    switch (rng.uniform_int(0, 4)) {
      case 0:
      case 1:
        log.append(t, NodeId{99}, Event::kHelloRecv, id(), 0, ids(), ids(), 1,
                   3);
        break;
      case 2:
        log.append(t, NodeId{99}, Event::kTcRecv, id(), id(), 0, 0, ids(), 1);
        break;
      case 3:
        log.append(t, NodeId{99}, Event::kOwnFwdHeard, id(), 0, 2);
        break;
      default:
        log.append(t, NodeId{99}, Event::kDataRecv, id(), 0, id());
        break;
    }
    if (step % 37 == 0) check();
  }
  ASSERT_GT(log.dropped(), 3 * LogStore::kPageRows);
  check();
}

}  // namespace
}  // namespace manet::core
