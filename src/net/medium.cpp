#include "net/medium.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "obs/obs.hpp"

namespace manet::net {

Medium::Medium(sim::Engine& sim, RadioConfig config)
    : sim_{sim},
      // The window fast path needs the concrete sequential simulator (psim
      // shard lanes schedule per-receiver through the router instead).
      seq_sim_{dynamic_cast<sim::Simulator*>(&sim)},
      config_{config},
      // The 3x3 neighborhood guarantee needs cell size >= range; degenerate
      // ranges still need a positive cell to index coincident hosts.
      grid_{std::max(config.range_m, 1e-6)},
      stats_shards_(1),
      snapshots_(1),
      batch_stats_shards_(1) {}

void Medium::set_shard_router(ShardRouter* router) {
  if (router == nullptr) {
    router_ = nullptr;
    return;
  }
  if (config_.collision_window > sim::Duration{})
    throw std::invalid_argument{
        "sharded engine does not support the collision model: collision "
        "bookkeeping mutates receiver state at transmit time, which would "
        "race across shards"};
  router_ = router;
  const unsigned n = std::max(1u, router->shard_count());
  stats_shards_.assign(n, MediumStats{});
  snapshots_.assign(n, {});
  batch_stats_shards_.assign(n, BatchStats{});
}

const MediumStats& Medium::stats() const {
  if (stats_shards_.size() == 1) return stats_shards_[0];
  stats_fold_ = MediumStats{};
  for (const auto& s : stats_shards_) {
    stats_fold_.frames_sent += s.frames_sent;
    stats_fold_.deliveries += s.deliveries;
    stats_fold_.losses += s.losses;
    stats_fold_.collisions += s.collisions;
    stats_fold_.bytes_sent += s.bytes_sent;
  }
  return stats_fold_;
}

const BatchStats& Medium::batch_stats() const {
  if (batch_stats_shards_.size() == 1) return batch_stats_shards_[0];
  batch_stats_fold_ = BatchStats{};
  for (const auto& s : batch_stats_shards_) {
    batch_stats_fold_.snapshot_builds += s.snapshot_builds;
    batch_stats_fold_.snapshot_hits += s.snapshot_hits;
  }
  return batch_stats_fold_;
}

void Medium::reset_stats() {
  std::fill(stats_shards_.begin(), stats_shards_.end(), MediumStats{});
  std::fill(batch_stats_shards_.begin(), batch_stats_shards_.end(),
            BatchStats{});
}

void Medium::attach(NodeId id, Position pos, ReceiveHandler handler) {
  if (index_.contains(id))
    throw std::logic_error{"host already attached: " + id.to_string()};
  const auto slot = static_cast<std::uint32_t>(hosts_.size());
  hosts_.push_back(Host{id, pos, std::move(handler), true, -1.0, 0, {}});
  index_.emplace(id, slot);
  grid_.insert(slot, pos);
  bump_generation();
}

void Medium::detach(NodeId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return;
  const std::uint32_t slot = it->second;
  grid_.erase(slot, hosts_[slot].pos);
  index_.erase(it);
  // Keep storage dense: move the last host into the freed slot.
  const auto last = static_cast<std::uint32_t>(hosts_.size() - 1);
  if (slot != last) {
    grid_.replace(last, slot, hosts_[last].pos);
    hosts_[slot] = std::move(hosts_[last]);
    index_[hosts_[slot].id] = slot;
  }
  hosts_.pop_back();
  bump_generation();
}

void Medium::set_handler(NodeId id, ReceiveHandler handler) {
  host(id).handler = std::move(handler);
}

bool Medium::attached(NodeId id) const { return index_.contains(id); }

std::vector<NodeId> Medium::attached_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(hosts_.size());
  for (const auto& h : hosts_) ids.push_back(h.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Medium::set_position(NodeId id, Position pos) {
  const auto it = index_.find(id);
  if (it == index_.end())
    throw std::out_of_range{"unknown host: " + id.to_string()};
  Host& h = hosts_[it->second];
  grid_.relocate(it->second, h.pos, pos);
  h.pos = pos;
  bump_generation();
}

Position Medium::position(NodeId id) const { return host(id).pos; }

void Medium::set_up(NodeId id, bool up) {
  Host& h = host(id);
  if (h.up == up) return;
  h.up = up;
  bump_generation();
}

bool Medium::is_up(NodeId id) const { return host(id).up; }

void Medium::set_loss_override(NodeId id, double loss) {
  // No generation bump: overrides never change receiver candidacy, only the
  // probability fed into the (unchanged) single loss draw.
  host(id).loss_override = loss < 0.0 ? -1.0 : loss;
}

double Medium::loss_override(NodeId id) const {
  return host(id).loss_override;
}

void Medium::set_partition(NodeId id, std::uint32_t partition) {
  // No generation bump either: snapshots carry no partition state, the
  // cross-partition check always reads the live host entries.
  host(id).partition = partition;
}

std::uint32_t Medium::partition(NodeId id) const {
  return host(id).partition;
}

void Medium::set_track_in_flight(bool on) {
  if (on && router_ != nullptr)
    throw std::logic_error{
        "in-flight tracking requires the sequential engine"};
  if (on && config_.collision_window > sim::Duration{})
    throw std::logic_error{
        "in-flight tracking does not support the collision model"};
  track_in_flight_ = on;
  if (!on) flights_.clear();
}

std::vector<InFlightFrame> Medium::in_flight() const {
  std::vector<InFlightFrame> out;
  out.reserve(flights_.size());
  for (const auto& [token, frame] : flights_) out.push_back(frame);
  std::sort(out.begin(), out.end(),
            [](const InFlightFrame& a, const InFlightFrame& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.seq < b.seq;
            });
  return out;
}

void Medium::restore_in_flight(const InFlightFrame& frame) {
  if (!track_in_flight_)
    throw std::logic_error{"restore_in_flight without tracking enabled"};
  Packet packet{frame.transmitter, frame.link_dest,
                make_payload(Bytes{frame.payload}), frame.sent_at};
  const std::uint64_t token = next_flight_token_++;
  auto on_arrival = [this, token, receiver = frame.receiver,
                     packet = std::move(packet)] {
    flights_.erase(token);
    arrive(receiver, packet);
  };
  const sim::EventId ev = sim_.schedule_at(frame.arrival, std::move(on_arrival));
  InFlightFrame tracked = frame;
  tracked.seq = ev.raw();
  flights_.emplace(token, std::move(tracked));
}

void Medium::arrive(NodeId receiver, const Packet& packet) {
  const auto it = index_.find(receiver);
  if (it == index_.end()) return;
  Host& h = hosts_[it->second];
  if (!h.up) {
    ++stats_slot().dropped_down;
    return;
  }
  ++stats_slot().deliveries;
  if (h.handler) h.handler(packet);
}

void Medium::restore_stats(const MediumStats& stats) {
  if (stats_shards_.size() != 1)
    throw std::logic_error{"restore_stats under the sharded engine"};
  stats_shards_[0] = stats;
}

Medium::Host& Medium::host(NodeId id) {
  const auto it = index_.find(id);
  if (it == index_.end())
    throw std::out_of_range{"unknown host: " + id.to_string()};
  return hosts_[it->second];
}

const Medium::Host& Medium::host(NodeId id) const {
  const auto it = index_.find(id);
  if (it == index_.end())
    throw std::out_of_range{"unknown host: " + id.to_string()};
  return hosts_[it->second];
}

void Medium::broadcast(NodeId sender, Bytes payload) {
  broadcast(sender, make_payload(std::move(payload)));
}

void Medium::unicast(NodeId sender, NodeId next_hop, Bytes payload) {
  unicast(sender, next_hop, make_payload(std::move(payload)));
}

Medium::CellSnapshot& Medium::snapshot_for(SpatialGrid::CellKey cell) {
  CellSnapshot& snap = snapshots_[shard_index()][cell];
  if (snap.generation == topo_generation_) {
    ++batch_stats_slot().snapshot_hits;
    return snap;
  }
  // One gather + one ascending-NodeId sort per occupied cell per topology
  // generation, shared by every sender in the cell. Down hosts are
  // filtered here (set_up bumps the generation, so the snapshot can never
  // be stale about radio state).
  snap.generation = topo_generation_;
  snap.candidates.clear();
  grid_.for_each_in_neighborhood(cell, [&](std::uint32_t slot) {
    const Host& h = hosts_[slot];
    if (!h.up) return;
    snap.candidates.push_back(CellSnapshot::Candidate{h.id, slot, h.pos});
  });
  std::sort(snap.candidates.begin(), snap.candidates.end(),
            [](const CellSnapshot::Candidate& a,
               const CellSnapshot::Candidate& b) { return a.id < b.id; });
  ++batch_stats_slot().snapshot_builds;
  return snap;
}

void Medium::broadcast(NodeId sender, PayloadPtr payload) {
  const Host& tx = host(sender);
  if (!tx.up) return;
  sim::Engine& eng = engine();
  {
    MediumStats& st = stats_slot();
    ++st.frames_sent;
    st.bytes_sent += payload->size();
  }
  obs::hit(obs::Hot::kMediumBatchedBroadcasts);

  const Packet packet{sender, kInvalidNode, std::move(payload), eng.now()};
  const Position origin = tx.pos;
  const CellSnapshot& snap = snapshot_for(grid_.cell_of(origin));

  // Conservative squared-distance bounds around the exact
  // `distance(a,b) > range` predicate (the unit-disk rule). dx*dx+dy*dy
  // carries ~2^-51 relative rounding error and std::hypot is within a few
  // ulps of the true distance, so with a 2^-40 relative safety band (orders
  // of magnitude wider than any of those errors) a candidate outside the
  // band is decided without the libm hypot call — provably the same way the
  // exact test would decide it — and only candidates *inside* the sliver
  // band around the range circle fall back to the byte-identical predicate.
  constexpr double kBand = 0x1p-40;
  const double range_sq = config_.range_m * config_.range_m;
  const double rr_out = range_sq * (1.0 + kBand);  // beyond: certainly out
  const double rr_in = range_sq * (1.0 - kBand);   // inside: certainly in

  // The snapshot is already ascending-NodeId and up-filtered; the exact
  // distance test and the sender exclusion preserve that order, so the RNG
  // draws and delivery order match a fresh full scan exactly.
  // Cross-partition receivers are skipped before any RNG draw, like
  // out-of-range ones. Sequentially the deliveries are added through one
  // coalesced-insertion window (each event built in place in the queue's
  // heap storage, sifted on close). A shard router schedules per receiver
  // instead, because the receivers of one broadcast may live in different
  // shards' queues; so does in-flight tracking, which needs each event's
  // id and cannot schedule while a window is open.
  const double tx_loss = sender_loss(tx);
  std::optional<DeliveryWindow> window;
  if (seq_sim_ != nullptr && router_ == nullptr && !track_in_flight_)
    window.emplace(seq_sim_->open_window());
  for (const auto& c : snap.candidates) {
    if (c.id == sender) continue;
    Host& rx = hosts_[c.slot];
    if (rx.partition != tx.partition) continue;
    const double dx = c.pos.x - origin.x;
    const double dy = c.pos.y - origin.y;
    const double dd = dx * dx + dy * dy;
    if (dd > rr_out) continue;
    if (dd >= rr_in && distance(origin, c.pos) > config_.range_m) continue;
    deliver_to(rx, packet, eng, merged_loss(tx_loss, rx),
               window ? &*window : nullptr);
  }
  if (window) window->close();
}

void Medium::unicast(NodeId sender, NodeId next_hop, PayloadPtr payload) {
  // kInvalidNode is the broadcast link address (Packet::link_dest), so a
  // frame addressed to it (e.g. a forged DATA route) goes out as one.
  if (!next_hop.valid()) {
    broadcast(sender, std::move(payload));
    return;
  }
  const Host& tx = host(sender);
  if (!tx.up) return;
  sim::Engine& eng = engine();
  {
    MediumStats& st = stats_slot();
    ++st.frames_sent;
    st.bytes_sent += payload->size();
  }
  // At most one receiver, no scan at all.
  obs::hit(obs::Hot::kMediumUnicasts);
  if (next_hop == sender) return;
  const auto it = index_.find(next_hop);
  if (it == index_.end()) return;
  Host& rx = hosts_[it->second];
  if (!rx.up || rx.partition != tx.partition) return;
  if (distance(tx.pos, rx.pos) > config_.range_m) return;
  const Packet packet{sender, next_hop, std::move(payload), eng.now()};
  deliver_to(rx, packet, eng, merged_loss(sender_loss(tx), rx));
}

void Medium::deliver_to(Host& rx, const Packet& packet, sim::Engine& eng,
                        double loss, DeliveryWindow* window) {
  // Independent per-delivery loss. Under psim, eng.rng() is the sending
  // node's private stream, so the draw sequence is invariant to shard and
  // worker-thread counts.
  if (eng.rng().bernoulli(loss)) {
    ++stats_slot().losses;
    return;
  }

  sim::Duration delay = config_.base_delay;
  if (config_.delay_jitter > sim::Duration{}) {
    delay += sim::Duration::from_us(
        eng.rng().uniform_int(0, config_.delay_jitter.us()));
  }
  const sim::Time arrival = eng.now() + delay;

  // The corruption flag is shared with later overlapping arrivals; only
  // allocated when the collision model is on (set_shard_router rejects the
  // collision model, so this whole branch is sequential-only).
  std::shared_ptr<bool> corrupted;
  if (config_.collision_window > sim::Duration{}) {
    corrupted = std::make_shared<bool>(false);
    // Purge stale entries, then collide with any overlapping arrival.
    std::erase_if(rx.arrivals, [&](const auto& a) {
      return a.first + config_.collision_window < eng.now();
    });
    for (auto& [at, flag] : rx.arrivals) {
      const auto gap = arrival >= at ? arrival - at : at - arrival;
      if (gap < config_.collision_window) {
        *flag = true;
        *corrupted = true;
      }
    }
    rx.arrivals.emplace_back(arrival, corrupted);
  }

  if (config_.collision_window > sim::Duration{}) {
    auto on_arrival = [this, receiver = rx.id, corrupted, packet, arrival] {
      const auto it = index_.find(receiver);
      if (it == index_.end()) return;
      Host& h = hosts_[it->second];
      if (!h.up) {
        ++stats_slot().dropped_down;
        return;
      }
      std::erase_if(h.arrivals,
                    [&](const auto& a) { return a.first <= arrival; });
      if (*corrupted) {
        ++stats_slot().collisions;
        return;
      }
      ++stats_slot().deliveries;
      if (h.handler) h.handler(packet);
    };
    if (window != nullptr) {
      window->add(arrival, std::move(on_arrival));
    } else {
      eng.schedule_at(arrival, std::move(on_arrival));
    }
    return;
  }

  // A cross-shard arrival carries its own deep copy of the payload: the
  // intrusive PayloadPtr refcount is non-atomic (thread-confined by
  // design), so a frame handed to another shard's mailbox must not share
  // the sender-side refcount. Local and sequential deliveries keep the
  // zero-copy sharing.
  Packet to_deliver = packet;
  if (router_ != nullptr && !router_->is_local(rx.id))
    to_deliver.data = make_payload(Bytes{packet.payload()});

  // Tracked (checkpointable) mode: same delivery semantics, plus the
  // flight-registry bookkeeping. Split out so the hot untracked path below
  // keeps its minimal capture.
  if (track_in_flight_) {
    const std::uint64_t token = next_flight_token_++;
    InFlightFrame frame{rx.id,          packet.transmitter, packet.link_dest,
                        Bytes{packet.payload()}, packet.sent_at, arrival, 0};
    auto on_arrival = [this, token, receiver = rx.id,
                       packet = std::move(to_deliver)] {
      flights_.erase(token);
      arrive(receiver, packet);
    };
    const sim::EventId ev = eng.schedule_at(arrival, std::move(on_arrival));
    frame.seq = ev.raw();
    flights_.emplace(token, std::move(frame));
    return;
  }

  // No collision model: `arrivals` stays empty and `corrupted` stays null,
  // so the callback needs neither — a smaller capture makes every queue
  // move of the entry cheaper on the hottest path.
  auto on_arrival = [this, receiver = rx.id, packet = std::move(to_deliver)] {
    arrive(receiver, packet);
  };
  if (window != nullptr) {
    window->add(arrival, std::move(on_arrival));
  } else if (router_ != nullptr) {
    router_->schedule_delivery(rx.id, arrival, std::move(on_arrival));
  } else {
    eng.schedule_at(arrival, std::move(on_arrival));
  }
}

std::vector<NodeId> Medium::neighbors_in_range(NodeId id) const {
  const Host& me = host(id);
  std::vector<NodeId> out;
  grid_.for_each_candidate(me.pos, [&](std::uint32_t slot) {
    const Host& h = hosts_[slot];
    if (h.id == id || !h.up) return;
    if (distance(me.pos, h.pos) <= config_.range_m) out.push_back(h.id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace manet::net
