#include "tcp/tcp_sink.h"

#include <cassert>

namespace mpcc {

TcpSink::TcpSink(Network& net, std::string name, const Route* reverse_route)
    : net_(net),
      name_(std::move(name)),
      reverse_route_(reverse_route),
      pending_(PendingMap::allocator_type(&net.context().pool())) {
  assert(reverse_route_ != nullptr && !reverse_route_->empty());
}

void TcpSink::enable_delayed_acks(SimTime timeout) {
  delayed_ack_enabled_ = true;
  delack_timer_ = std::make_unique<Timer>(net_.events(), name_ + ":delack", [this] {
    if (ack_pending_) {
      ack_pending_ = false;
      ++delayed_acks_;
      send_ack(pending_ts_, pending_ce_, pending_ect_);
    }
  });
  delack_timeout_ = timeout;
}

void TcpSink::send_ack(SimTime ts_echo, bool ecn_ce, bool ecn_capable) {
  Packet* ack = make_ack_packet(net_.packets(), last_flow_id_, cum_ack_, net_.now(), ts_echo);
  ack->ecn_echo = ecn_ce;
  ack->ecn_capable = ecn_capable;
  reverse_route_->inject(ack);
}

void TcpSink::receive(Packet* p) {
  const PacketRelease done{net_.packets(), p};
  const Packet& pkt = *p;
  assert(pkt.type == PacketType::kData);
  if (pkt.corrupted) {
    // Checksum failure: discard without acknowledging, so recovery rides
    // the sender's normal loss machinery (dupacks from later segments, or
    // the RTO). Not counted as received — the segment never validly arrived.
    ++corrupt_discards_;
    return;
  }
  if (rx_tap_ != nullptr) rx_tap_->on_sink_rx(pkt);
  ++packets_received_;
  bytes_received_ += pkt.payload;
  last_flow_id_ = pkt.flow_id;
  const bool in_order = pkt.seq == cum_ack_;

  if (pkt.seq == cum_ack_) {
    // In-order: advance past this segment and any contiguous buffered ones.
    cum_ack_ += pkt.payload;
    const bool mutation_fires = mutation_armed_ && !pending_.empty();
    if (mutation_fires) {
      // Deliberate one-shot bug (arm_mutation_skip_retransmit): swallow the
      // hole-filling retransmission instead of handing it up.
      mutation_armed_ = false;
    } else if (consumer_ != nullptr) {
      consumer_->on_in_order_data(pkt.data_seq, pkt.payload);
    }
    auto it = pending_.begin();
    while (it != pending_.end() && it->first == cum_ack_) {
      cum_ack_ += it->second.len;
      if (consumer_ != nullptr)
        consumer_->on_in_order_data(it->second.data_seq, it->second.len);
      it = pending_.erase(it);
    }
  } else if (pkt.seq > cum_ack_) {
    // Hole: buffer (idempotent for duplicated out-of-order arrivals).
    ++out_of_order_;
    pending_.emplace(pkt.seq, PendingSegment{pkt.payload, pkt.data_seq});
  }
  // else: duplicate of already-acked data; just re-ACK.

  if (delayed_ack_enabled_ && in_order) {
    if (ack_pending_) {
      // Second in-order segment: ACK now (covers both).
      ack_pending_ = false;
      delack_timer_->cancel();
      send_ack(pkt.ts, pkt.ecn_ce || pending_ce_, pkt.ecn_capable);
    } else {
      ack_pending_ = true;
      pending_ts_ = pkt.ts;
      pending_ce_ = pkt.ecn_ce;
      pending_ect_ = pkt.ecn_capable;
      delack_timer_->arm(delack_timeout_);
    }
    return;
  }
  // Immediate ACK (default, and always for out-of-order arrivals). Flush
  // any pending delayed ACK into this one.
  if (ack_pending_) {
    ack_pending_ = false;
    delack_timer_->cancel();
  }
  send_ack(pkt.ts, pkt.ecn_ce, pkt.ecn_capable);
}

}  // namespace mpcc
