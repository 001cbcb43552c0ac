#include "chaos/oracle.h"

#include <algorithm>

#include "tcp/tcp_src.h"

namespace mpcc::chaos {

void IntervalSet::add(std::int64_t begin, std::int64_t end) {
  if (end <= begin) return;
  auto it = runs_.upper_bound(begin);  // first run starting after begin
  if (it != runs_.begin() && std::prev(it)->second >= begin) {
    // A run starting at or before begin touches the range (the in-order
    // case): grow it in place and absorb the runs it now reaches, so the
    // common path never reallocates a node.
    auto run = std::prev(it);
    run->second = std::max(run->second, end);
    while (it != runs_.end() && it->first <= run->second) {
      run->second = std::max(run->second, it->second);
      it = runs_.erase(it);
    }
    return;
  }
  // Disjoint from everything before it: absorb the runs the range reaches,
  // then insert the merged result.
  while (it != runs_.end() && it->first <= end) {
    end = std::max(end, it->second);
    it = runs_.erase(it);
  }
  runs_.emplace(begin, end);
}

std::int64_t IntervalSet::contiguous_prefix() const {
  if (runs_.empty() || runs_.begin()->first > 0) return 0;
  return runs_.begin()->second;
}

void StreamOracle::SinkTap::on_in_order_data(std::int64_t data_seq, Bytes len) {
  handed_bytes += len;
  if (data_seq >= 0) oracle->handed_.add(data_seq, data_seq + len);
  if (next != nullptr) next->on_in_order_data(data_seq, len);
}

void StreamOracle::SinkTap::on_sink_rx(const Packet& pkt) {
  ++oracle->segments_seen_;
  if (pkt.data_seq >= 0) {
    oracle->wire_.add(pkt.data_seq, pkt.data_seq + pkt.payload);
  }
}

StreamOracle::StreamOracle(MptcpConnection& conn) : conn_(conn) {
  for (std::size_t i = 0; i < conn.num_subflows(); ++i) {
    TcpSink& sink = conn.sink(i);
    auto tap = std::make_unique<SinkTap>();
    tap->oracle = this;
    tap->sink = &sink;
    tap->next = sink.consumer();
    sink.set_consumer(tap.get());
    sink.set_rx_tap(tap.get());
    taps_.push_back(std::move(tap));
  }
}

StreamOracle::~StreamOracle() {
  for (auto& tap : taps_) {
    if (tap->sink->consumer() == tap.get()) tap->sink->set_consumer(tap->next);
    tap->sink->set_rx_tap(nullptr);
  }
}

void StreamOracle::verify() const {
  ++checks_;

  // 1. Per-sink conservation: every byte a sink cumulatively acknowledged
  //    must have been handed to the reassembly layer, exactly once. This is
  //    the subflow contract the CI mutation deliberately breaks.
  for (const auto& tap : taps_) {
    const std::int64_t acked = tap->sink->cumulative_ack();
    if (acked != static_cast<std::int64_t>(tap->handed_bytes)) {
      throw OracleViolation(
          "stream", tap->sink->name() + " acknowledged " + std::to_string(acked) +
                        " bytes but handed up " + std::to_string(tap->handed_bytes) +
                        " (sink swallowed or fabricated data)");
    }
  }

  // 2. Reassembly contract: the connection delivers exactly the contiguous
  //    data-sequence prefix of what the subflows handed up — loss-free,
  //    duplicate-free, in-order. Holds at every instant (the receive buffer
  //    never drops), so no quiescence is needed.
  const std::int64_t handed_prefix = handed_.contiguous_prefix();
  const auto delivered = static_cast<std::int64_t>(conn_.bytes_delivered());
  if (delivered != handed_prefix) {
    throw OracleViolation(
        "stream", conn_.name() + " delivered " + std::to_string(delivered) +
                      " bytes but the contiguous handed-up prefix is " +
                      std::to_string(handed_prefix));
  }

  // 3. Wire grounding: nothing can be delivered that never validly arrived.
  const std::int64_t wire_prefix = wire_.contiguous_prefix();
  if (delivered > wire_prefix) {
    throw OracleViolation(
        "stream", conn_.name() + " delivered " + std::to_string(delivered) +
                      " bytes but only " + std::to_string(wire_prefix) +
                      " contiguous bytes ever arrived at the sinks");
  }
}

LivenessOracle::LivenessOracle(EventList& events, MptcpConnection& conn,
                               SimTime stall_window)
    : EventSource(conn.name() + ":liveness"),
      events_(events),
      conn_(conn),
      stall_window_(stall_window) {}

void LivenessOracle::start() {
  last_progress_at_ = events_.now();
  last_delivered_ = conn_.bytes_delivered();
  events_.schedule_in(this, stall_window_ / 4);
}

void LivenessOracle::do_next_event() {
  if (stopped_) return;
  ++checks_;
  if (conn_.complete()) {
    stopped_ = true;  // terminal: completed
    return;
  }
  bool all_dead = true;
  for (const Subflow* sf : conn_.subflows()) {
    if (!sf->dead()) {
      all_dead = false;
      break;
    }
  }
  if (all_dead) {
    declared_dead_ = true;
    stopped_ = true;  // terminal: honestly declared dead via consecutive RTOs
    return;
  }
  const Bytes delivered = conn_.bytes_delivered();
  if (delivered != last_delivered_) {
    last_delivered_ = delivered;
    last_progress_at_ = events_.now();
  } else if (events_.now() - last_progress_at_ >= stall_window_) {
    throw OracleViolation(
        "liveness", conn_.name() + " incomplete, not dead, and no byte delivered for " +
                        std::to_string(to_seconds(events_.now() - last_progress_at_)) +
                        "s (delivered=" + std::to_string(delivered) + ")");
  }
  events_.schedule_in(this, stall_window_ / 4);
}

}  // namespace mpcc::chaos
