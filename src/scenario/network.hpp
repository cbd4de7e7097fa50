#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/detector.hpp"
#include "core/recommendation.hpp"
#include "net/medium.hpp"
#include "net/mobility.hpp"
#include "olsr/agent.hpp"
#include "psim/engine.hpp"

namespace manet::scenario {

using net::NodeId;

/// A complete simulated MANET: the simulator, the shared medium, one OLSR
/// agent per node (optionally wrapped by attacker hooks), one investigation
/// endpoint per node, and detectors where requested. Owns everything;
/// examples, tests and benches build on this.
class Network {
 public:
  struct Config {
    std::uint64_t seed = 1;
    net::RadioConfig radio;
    std::vector<net::Position> positions;
    olsr::Agent::Config agent;
    /// Per-node overrides of `agent` (keyed by node index): grayhole
    /// scenarios give the attacker WILL_ALWAYS and the investigator
    /// log_fwd_echo without perturbing the rest of the fleet.
    std::map<std::size_t, olsr::Agent::Config> agent_overrides;
    /// Discrete-event engine driving the network: the sequential Simulator
    /// (default; byte-stable legacy traces) or the psim sharded parallel
    /// engine (its own determinism contract — see psim::Engine). The
    /// sharded engine rejects mobility and the collision model (v1 scope).
    sim::EngineKind engine = sim::EngineKind::kSequential;
    /// Sharded-engine worker threads; 0 = hardware concurrency.
    unsigned engine_threads = 0;
    /// Sharded-engine spatial shards; 0 = auto from the node count. Any
    /// value produces identical results.
    unsigned shards = 0;
  };

  explicit Network(Config config);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  std::size_t size() const { return agents_.size(); }
  static NodeId id_of(std::size_t index) {
    return NodeId{static_cast<std::uint32_t>(index)};
  }

  /// The sequential simulator — only meaningful under the sequential
  /// engine; scenario code that must work on both engines uses now(),
  /// run_for() and run_as() instead.
  sim::Simulator& sim() { return sim_; }
  /// The sharded engine, or nullptr under the sequential one.
  psim::Engine* sharded() { return psim_.get(); }
  /// Current virtual time, whichever engine drives the network.
  sim::Time now() const { return psim_ ? psim_->now() : sim_.now(); }
  net::Medium& medium() { return medium_; }
  olsr::Agent& agent(std::size_t index) { return *agents_.at(index); }
  core::InvestigationManager& investigations(std::size_t index) {
    return *investigations_.at(index);
  }

  /// Installs attacker hooks for a node. Must be called before start();
  /// the caller keeps ownership of concrete attack objects when it needs to
  /// toggle them later, or transfers it here.
  void set_hooks(std::size_t index, std::unique_ptr<olsr::AgentHooks> hooks);
  olsr::AgentHooks* hooks(std::size_t index) { return hooks_.at(index).get(); }

  /// Sets how the node answers investigations (liars, silent nodes).
  void set_answer_policy(std::size_t index, core::AnswerPolicy policy) {
    investigations_.at(index)->set_policy(policy);
  }

  /// Attaches a detector to a node (the investigator side of the IDS).
  core::Detector& add_detector(std::size_t index,
                               core::DetectorConfig config = {});
  core::Detector* detector(std::size_t index) {
    return detectors_.at(index).get();
  }

  /// Attaches a recommendation-exchange endpoint (Eq. 6-7 trust
  /// propagation) to a node that already has a detector; serves and merges
  /// recommendations against the detector's trust store.
  core::RecommendationExchange& add_recommendations(std::size_t index);

  /// Assigns a mobility model to a node (random waypoint etc.).
  void set_mobility(std::size_t index,
                    std::unique_ptr<net::MobilityModel> model);

  /// Starts all agents (and mobility if any models were installed).
  void start_all();
  void stop_all();

  /// Convenience: runs the simulation for `d` of simulated time.
  void run_for(sim::Duration d) {
    if (psim_) {
      psim_->run_until(psim_->now() + d);
    } else {
      sim_.run_until(sim_.now() + d);
    }
  }

  /// Executes `fn` in node `index`'s context. A plain call sequentially;
  /// under the sharded engine it binds the node's shard lane and RNG
  /// stream, which any out-of-event interaction that draws or schedules
  /// (detector kicks, manual agent pokes) must run inside.
  void run_as(std::size_t index, const std::function<void()>& fn) {
    if (psim_) {
      psim_->run_as(id_of(index), fn);
    } else {
      fn();
    }
  }

  /// True when every pair of attached nodes has a route to each other in
  /// both routing tables (control-plane convergence). Up-aware: pairs where
  /// either host is down, or that a netsplit separates, are exempt — the
  /// criterion measures convergence among the nodes that can communicate,
  /// which is what the fault-injection re-convergence metric needs.
  bool converged() const;

 private:
  sim::Engine& engine_for(std::size_t index);

  sim::Simulator sim_;
  /// Sharded engine (engine == kSharded); declared before the medium and
  /// the agents so every lane outlives its schedulers.
  std::unique_ptr<psim::Engine> psim_;
  net::Medium medium_;
  Config config_;
  std::vector<std::unique_ptr<olsr::AgentHooks>> hooks_;
  std::vector<std::unique_ptr<olsr::Agent>> agents_;
  std::vector<std::unique_ptr<core::InvestigationManager>> investigations_;
  std::vector<std::unique_ptr<core::Detector>> detectors_;
  std::vector<std::unique_ptr<core::RecommendationExchange>> recommendations_;
  net::MobilityManager mobility_;
  bool mobility_used_ = false;
  bool built_ = false;
};

}  // namespace manet::scenario
