#include "scenario/network.hpp"

#include <stdexcept>

namespace manet::scenario {

sim::Engine& Network::engine_for(std::size_t index) {
  if (psim_) return psim_->shard_engine(id_of(index));
  return sim_;
}

Network::Network(Config config)
    : sim_{config.seed},
      medium_{sim_, config.radio},
      config_{std::move(config)},
      mobility_{sim_, medium_} {
  if (config_.positions.empty())
    throw std::invalid_argument{"Network needs at least one position"};

  if (config_.engine == sim::EngineKind::kSharded) {
    // v1 scope of the sharded engine: the collision model mutates receiver
    // state at transmit time (Medium::set_shard_router also rejects it) and
    // a zero base delay leaves no conservative lookahead.
    psim::Engine::Config pc;
    pc.seed = config_.seed;
    pc.threads = config_.engine_threads;
    pc.shards = config_.shards;
    pc.lookahead = config_.radio.base_delay;
    pc.cell_size = config_.radio.range_m;
    psim_ = std::make_unique<psim::Engine>(pc, config_.positions);
    medium_.set_shard_router(psim_.get());
  }

  const auto n = config_.positions.size();
  hooks_.resize(n);
  detectors_.resize(n);
  recommendations_.resize(n);
  agents_.reserve(n);
  investigations_.reserve(n);

  for (std::size_t i = 0; i < n; ++i) {
    const auto id = id_of(i);
    medium_.attach(id, config_.positions[i]);
    const auto override_it = config_.agent_overrides.find(i);
    const auto& agent_config = override_it != config_.agent_overrides.end()
                                   ? override_it->second
                                   : config_.agent;
    agents_.push_back(std::make_unique<olsr::Agent>(engine_for(i), medium_,
                                                    id, agent_config));
    investigations_.push_back(std::make_unique<core::InvestigationManager>(
        engine_for(i), *agents_.back()));
  }
  built_ = true;
}

Network::~Network() { stop_all(); }

void Network::set_hooks(std::size_t index,
                        std::unique_ptr<olsr::AgentHooks> hooks) {
  hooks_.at(index) = std::move(hooks);
  agents_.at(index)->set_hooks(hooks_.at(index).get());
}

core::Detector& Network::add_detector(std::size_t index,
                                      core::DetectorConfig config) {
  auto& slot = detectors_.at(index);
  if (slot) throw std::logic_error{"node already has a detector"};
  slot = std::make_unique<core::Detector>(
      engine_for(index), *agents_.at(index), *investigations_.at(index),
      config);
  return *slot;
}

core::RecommendationExchange& Network::add_recommendations(
    std::size_t index) {
  auto& slot = recommendations_.at(index);
  if (slot) return *slot;
  auto* det = detectors_.at(index).get();
  if (det == nullptr)
    throw std::logic_error{"add_recommendations requires a detector"};
  slot = std::make_unique<core::RecommendationExchange>(
      engine_for(index), *agents_.at(index), det->trust_store());
  investigations_.at(index)->set_fallback(
      [ex = slot.get()](const olsr::DataMessage& m) { return ex->on_data(m); });
  return *slot;
}

void Network::set_mobility(std::size_t index,
                           std::unique_ptr<net::MobilityModel> model) {
  if (psim_)
    throw std::invalid_argument{
        "sharded engine does not support mobility yet: position updates "
        "mid-window would race across shard lanes"};
  mobility_.set_model(id_of(index), std::move(model));
  mobility_used_ = true;
}

void Network::start_all() {
  // Starting an agent arms its jittered timers (RNG draws): under the
  // sharded engine that must happen in the node's own stream context.
  for (std::size_t i = 0; i < agents_.size(); ++i)
    run_as(i, [&] { agents_[i]->start(); });
  if (mobility_used_) mobility_.start();
}

void Network::stop_all() {
  if (!built_) return;
  for (auto& d : detectors_)
    if (d) d->stop();
  for (auto& agent : agents_) agent->stop();
  mobility_.stop();
}

bool Network::converged() const {
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    const auto a = id_of(i);
    if (!medium_.is_up(a)) continue;
    for (std::size_t j = 0; j < agents_.size(); ++j) {
      if (i == j) continue;
      const auto b = id_of(j);
      // Down or partitioned-away peers are unreachable by construction, so
      // demanding a route to them would make convergence unobservable for
      // the whole churn window; the up-aware criterion asks only for full
      // routes among the nodes that *can* talk.
      if (!medium_.is_up(b) || medium_.partition(a) != medium_.partition(b))
        continue;
      if (!agents_[i]->routes().reaches(b)) return false;
    }
  }
  return true;
}

}  // namespace manet::scenario
