#include "net/medium.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

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
    stats_fold_.dropped_down += s.dropped_down;
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
  if (attached(id))
    throw std::logic_error{"host already attached: " + id.to_string()};
  const auto slot = static_cast<std::uint32_t>(hosts_.size());
  hosts_.push_back(Host{id, pos, std::move(handler), true, -1.0, 0, {}});
  slots_[id] = slot;
  grid_.insert(slot, pos);
  bump_generation();
}

void Medium::detach(NodeId id) {
  const std::uint32_t slot = slots_.get(id);
  if (slot == kNoSlot) return;
  grid_.erase(slot, hosts_[slot].pos);
  slots_.erase(id);
  // Keep storage dense: move the last host into the freed slot.
  const auto last = static_cast<std::uint32_t>(hosts_.size() - 1);
  if (slot != last) {
    grid_.replace(last, slot, hosts_[last].pos);
    hosts_[slot] = std::move(hosts_[last]);
    slots_[hosts_[slot].id] = slot;
  }
  hosts_.pop_back();
  bump_generation();
}

void Medium::set_handler(NodeId id, ReceiveHandler handler) {
  host(id).handler = std::move(handler);
}

bool Medium::attached(NodeId id) const { return slots_.get(id) != kNoSlot; }

std::vector<NodeId> Medium::attached_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(hosts_.size());
  for (const auto& h : hosts_) ids.push_back(h.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void Medium::set_position(NodeId id, Position pos) {
  const std::uint32_t slot = slots_.get(id);
  if (slot == kNoSlot)
    throw std::out_of_range{"unknown host: " + id.to_string()};
  Host& h = hosts_[slot];
  grid_.relocate(slot, h.pos, pos);
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

void Medium::require_flight_slots() const {
  if (router_ != nullptr || config_.collision_window > sim::Duration{})
    throw std::logic_error{
        "in-flight frames are kept only by the sequential engine without "
        "the collision model"};
}

std::vector<InFlightFrame> Medium::in_flight() const {
  require_flight_slots();
  std::vector<InFlightFrame> out;
  for (const auto& f : flights_) {
    if (!f.live) continue;
    out.push_back(InFlightFrame{f.receiver, f.packet.transmitter,
                                f.packet.link_dest, f.packet.payload(),
                                f.packet.sent_at, f.arrival, f.seq});
  }
  std::sort(out.begin(), out.end(),
            [](const InFlightFrame& a, const InFlightFrame& b) {
              if (a.arrival != b.arrival) return a.arrival < b.arrival;
              return a.seq < b.seq;
            });
  return out;
}

void Medium::restore_in_flight(const InFlightFrame& frame) {
  require_flight_slots();
  // The frames of one transmission share one payload again, as they did on
  // the air, so its receivers read one decode of it. Restored frames stay
  // live until the run resumes, so an earlier one of the same
  // transmission is in a slot.
  PayloadPtr payload;
  for (const auto& f : flights_) {
    if (f.live && f.packet.sent_at == frame.sent_at &&
        f.packet.transmitter == frame.transmitter &&
        f.packet.link_dest == frame.link_dest &&
        f.packet.payload() == frame.payload) {
      payload = f.packet.data;
      break;
    }
  }
  if (!payload) payload = make_payload(Bytes{frame.payload});
  const auto slot = park(frame.receiver,
                         Packet{frame.transmitter, frame.link_dest,
                                std::move(payload), frame.sent_at},
                         frame.arrival);
  flights_[slot].seq =
      sim_.schedule_at(frame.arrival, [this, slot] { land(slot); }).raw();
}

std::uint32_t Medium::park(NodeId receiver, Packet packet,
                           sim::Time arrival) {
  auto slot = static_cast<std::uint32_t>(flights_.size());
  if (free_flights_.empty()) {
    flights_.emplace_back();
  } else {
    slot = free_flights_.back();
    free_flights_.pop_back();
  }
  auto& f = flights_[slot];
  f.receiver = receiver;
  f.packet = std::move(packet);
  f.arrival = arrival;
  f.live = true;
  return slot;
}

void Medium::land(std::uint32_t slot) {
  auto& f = flights_[slot];
  f.live = false;
  free_flights_.push_back(slot);
  // Out of the slot first: the handler may transmit, and a new delivery
  // can take this very slot or grow the table.
  const NodeId receiver = f.receiver;
  const Packet packet = std::move(f.packet);
  arrive(receiver, packet);
}

void Medium::arrive(NodeId receiver, const Packet& packet) {
  const std::uint32_t slot = slots_.get(receiver);
  if (slot == kNoSlot) return;
  Host& h = hosts_[slot];
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
  return const_cast<Host&>(std::as_const(*this).host(id));
}

const Medium::Host& Medium::host(NodeId id) const {
  const std::uint32_t slot = slots_.get(id);
  if (slot == kNoSlot)
    throw std::out_of_range{"unknown host: " + id.to_string()};
  return hosts_[slot];
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
  // shards' queues.
  const double tx_loss = sender_loss(tx);
  std::optional<DeliveryWindow> window;
  if (seq_sim_ != nullptr && router_ == nullptr)
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
  const std::uint32_t rx_slot = slots_.get(next_hop);
  if (rx_slot == kNoSlot) return;
  Host& rx = hosts_[rx_slot];
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

  if (config_.collision_window > sim::Duration{}) {
    // The corruption flag is shared with later overlapping arrivals
    // (set_shard_router rejects the collision model, so this whole branch
    // is sequential-only). It keeps its closure: an `arrivals` entry can
    // outlive a landing dropped at a down host, so a flight slot named
    // there could be reused by another frame.
    auto corrupted = std::make_shared<bool>(false);
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

    auto on_arrival = [this, receiver = rx.id, corrupted, packet, arrival] {
      const std::uint32_t slot = slots_.get(receiver);
      if (slot == kNoSlot) return;
      Host& h = hosts_[slot];
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

  if (router_ != nullptr) {
    // A cross-shard arrival carries its own deep copy of the payload: the
    // intrusive PayloadPtr refcount is non-atomic (thread-confined by
    // design), so a frame handed to another shard's mailbox must not share
    // the sender-side refcount. Local deliveries keep the zero-copy
    // sharing.
    Packet to_deliver = packet;
    if (!router_->is_local(rx.id))
      to_deliver.data = make_payload(Bytes{packet.payload()});
    router_->schedule_delivery(
        rx.id, arrival,
        [this, receiver = rx.id, packet = std::move(to_deliver)] {
          arrive(receiver, packet);
        });
    return;
  }

  // No collision model, no router: the delivery waits in a flight slot
  // (sharing the payload), and its event names only the slot, which keeps
  // the callback small on the hottest path.
  const auto slot = park(rx.id, packet, arrival);
  const auto on_arrival = [this, slot] { land(slot); };
  const sim::EventId ev = window != nullptr
                              ? window->add(arrival, on_arrival)
                              : eng.schedule_at(arrival, on_arrival);
  flights_[slot].seq = ev.raw();
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
