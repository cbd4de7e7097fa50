#include "attacks/wormhole.hpp"

namespace manet::attacks {

void WormholeEndpoint::on_receive(const olsr::Message& message) {
  if (!active_ || role_ != Role::kCapture) return;
  // Tunnel topology-bearing traffic; the replaying end keeps every
  // identification field unchanged so the wormhole stays invisible.
  if (message.header.type != olsr::MessageType::kTc &&
      message.header.type != olsr::MessageType::kHello)
    return;
  channel_->push(message);
  ++captured_;
}

void WormholeEndpoint::on_tick() {
  if (!active_ || role_ != Role::kReplay || agent_ == nullptr) return;
  while (!channel_->empty()) {
    auto m = channel_->pop();
    sim_.schedule(channel_->tunnel_delay(), [this, m = std::move(m)]() mutable {
      if (agent_ != nullptr && agent_->running()) {
        agent_->broadcast_message(std::move(m));
        ++replayed_;
      }
    });
  }
}

}  // namespace manet::attacks
