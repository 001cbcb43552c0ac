// TcpSink: the receiving endpoint of one (sub)flow.
//
// Acknowledges every arriving data segment with a cumulative ACK (htsim
// style, no delayed ACKs), echoes the sender timestamp for RTT measurement
// and the CE bit for DCTCP. Out-of-order segments are buffered; when the
// cumulative point advances, the in-order data (with its MPTCP data-level
// sequence, if any) is handed to an optional DataConsumer — the hook the
// MPTCP connection-level receive buffer plugs into.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "net/network.h"
#include "net/route.h"
#include "sim/pool.h"
#include "sim/timer.h"

namespace mpcc {

/// Receives in-order (sub)flow payload. `data_seq` is the MPTCP data-level
/// sequence of the chunk, or -1 for plain TCP.
class DataConsumer {
 public:
  virtual ~DataConsumer() = default;
  virtual void on_in_order_data(std::int64_t data_seq, Bytes len) = 0;
};

/// Wire-side observation seam: sees every data segment that survives the
/// checksum (corruption) check, *before* any sink processing. The chaos
/// StreamOracle taps here so it can audit the sink itself — a consumer-side
/// tap would inherit whatever bug the sink has.
class SinkRxTap {
 public:
  virtual ~SinkRxTap() = default;
  virtual void on_sink_rx(const Packet& pkt) = 0;
};

class TcpSink final : public PacketHandler {
 public:
  /// `reverse_route` carries the ACKs back to the source.
  TcpSink(Network& net, std::string name, const Route* reverse_route);

  void receive(Packet* pkt) override;

  void set_consumer(DataConsumer* consumer) { consumer_ = consumer; }
  DataConsumer* consumer() const { return consumer_; }

  /// Installs (or clears) the wire-side observation tap (chaos oracles).
  void set_rx_tap(SinkRxTap* tap) { rx_tap_ = tap; }

  /// Arms a deliberate, one-shot receiver bug for the CI mutation check:
  /// the next in-order segment that fills a reassembly hole (i.e. a
  /// retransmission whose loss left later segments buffered) advances the
  /// cumulative ACK but is *not* handed to the consumer. The chaos
  /// StreamOracle must catch the resulting ack/delivery divergence.
  void arm_mutation_skip_retransmit() { mutation_armed_ = true; }

  /// Enables RFC 1122 delayed ACKs: every second in-order segment is ACKed
  /// immediately, a lone segment after `timeout`. Out-of-order arrivals are
  /// always ACKed at once (dupacks must flow for fast retransmit). Off by
  /// default — per-packet ACKs are the htsim convention and what DCTCP's
  /// exact CE echo assumes.
  void enable_delayed_acks(SimTime timeout = 40 * kMillisecond);

  std::uint64_t delayed_acks() const { return delayed_acks_; }

  std::int64_t cumulative_ack() const { return cum_ack_; }
  Bytes bytes_received() const { return bytes_received_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t out_of_order() const { return out_of_order_; }
  /// Segments discarded for failing the checksum model (Packet::corrupted).
  std::uint64_t corrupt_discards() const { return corrupt_discards_; }

  const std::string& name() const { return name_; }

 private:
  struct PendingSegment {
    Bytes len;
    std::int64_t data_seq;
  };

  void send_ack(SimTime ts_echo, bool ecn_ce, bool ecn_capable);

  Network& net_;
  std::string name_;
  const Route* reverse_route_;
  DataConsumer* consumer_ = nullptr;
  SinkRxTap* rx_tap_ = nullptr;
  bool mutation_armed_ = false;  // see arm_mutation_skip_retransmit()

  // Delayed-ACK state.
  bool delayed_ack_enabled_ = false;
  bool ack_pending_ = false;
  SimTime pending_ts_ = 0;
  bool pending_ce_ = false;
  bool pending_ect_ = false;
  std::unique_ptr<Timer> delack_timer_;
  SimTime delack_timeout_ = 40 * kMillisecond;
  std::uint64_t last_flow_id_ = 0;
  std::uint64_t delayed_acks_ = 0;

  std::int64_t cum_ack_ = 0;  // next expected byte
  /// Out-of-order reassembly map; nodes recycle through the run's pool so
  /// loss-recovery episodes stop churning the global heap.
  using PendingMap =
      std::map<std::int64_t, PendingSegment, std::less<std::int64_t>,
               PoolAllocator<std::pair<const std::int64_t, PendingSegment>>>;
  PendingMap pending_;  // seq -> segment, above cum_ack_
  Bytes bytes_received_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t out_of_order_ = 0;
  std::uint64_t corrupt_discards_ = 0;
};

}  // namespace mpcc
