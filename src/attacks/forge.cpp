#include "attacks/forge.hpp"

namespace manet::attacks {

void StormAttack::on_tick() {
  if (!active_ || agent_ == nullptr) return;
  for (std::size_t i = 0; i < config_.messages_per_tick; ++i) {
    olsr::Message m;
    m.header.type = olsr::MessageType::kTc;
    m.header.vtime = olsr::kTopHoldTime;
    m.header.originator = config_.spoofed_originator.valid()
                              ? config_.spoofed_originator
                              : agent_->id();
    m.header.ttl = olsr::kDefaultTtl;
    m.header.seq_num = fake_seq_++;
    olsr::TcMessage tc;
    tc.ansn = fake_ansn_++;
    tc.advertised = config_.advertised;
    m.body = tc;
    agent_->broadcast_message(std::move(m));
    ++forged_;
  }
}

void IdentitySpoofingAttack::on_tick() {
  if (!active_ || agent_ == nullptr) return;
  olsr::Message m;
  m.header.type = olsr::MessageType::kHello;
  m.header.vtime = olsr::kNeighbHoldTime;
  m.header.originator = victim_;  // the masquerade
  m.header.ttl = 1;
  m.header.seq_num = fake_seq_++;
  olsr::HelloMessage hello;
  for (auto n : advertised_)
    hello.add(olsr::LinkType::kSym, olsr::NeighborType::kSymNeigh, n);
  m.body = hello;
  agent_->broadcast_message(std::move(m));
  ++forged_;
}

void SequenceInflationAttack::on_forward(olsr::Message& message) {
  if (!active_) return;
  if (message.header.type != olsr::MessageType::kTc) return;
  message.header.seq_num =
      static_cast<std::uint16_t>(message.header.seq_num + inflation_);
  if (auto* tc = std::get_if<olsr::TcMessage>(&message.body))
    tc->ansn = static_cast<std::uint16_t>(tc->ansn + inflation_);
  ++tampered_;
}

void WillingnessAttack::on_build_hello(olsr::HelloMessage& hello) {
  if (!active_) return;
  hello.willingness = forced_;
}

}  // namespace manet::attacks
