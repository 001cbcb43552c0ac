// Packet: the unit that flows through queues and pipes.
//
// Packets are value types moved hop-to-hop (no shared ownership, no pool):
// a hop either forwards the packet or drops it on the floor, so lifetime is
// trivially correct. A packet carries its source route (htsim-style) as a
// hop cursor: a pointer into the route's contiguous hop array, aimed at the
// hop that receives the packet next. Forwarding is one load and one
// increment, with no Route object or index in between. The layout is kept
// to one 64-byte cache line (static_assert below), so a packet moved
// through a queue ring or a pipe's in-flight ring touches one line.
#pragma once

#include <cstdint>

#include "util/units.h"

namespace mpcc {

class PacketHandler;

enum class PacketType : std::uint8_t { kData, kAck };

/// Bytes of L3/L4 header accounted on the wire for every segment.
inline constexpr Bytes kHeaderBytes = 40;
/// Default maximum segment (payload) size.
inline constexpr Bytes kDefaultMss = 1460;

struct Packet {
  PacketType type = PacketType::kData;

  /// ECN: sender marks capability; queues set CE; sinks echo ECE on ACKs.
  bool ecn_capable = false;
  bool ecn_ce = false;
  bool ecn_echo = false;

  /// Payload/header corruption (chaos fault injection). Models a checksum
  /// failure: endpoints discard corrupted segments without acknowledging
  /// them, so recovery rides the normal loss machinery. There is no payload
  /// content to flip — the flag IS the corruption.
  bool corrupted = false;

  /// Identifies the sending TcpSrc/subflow; the sink echoes it on ACKs.
  std::uint64_t flow_id = 0;

  /// Payload bytes (0 for pure ACKs).
  Bytes payload = 0;

  /// DATA: sequence number of the first payload byte.
  /// ACK: cumulative acknowledgement (next expected byte).
  std::int64_t seq = 0;

  /// MPTCP data-level sequence carried by the segment (DSS mapping); -1 for
  /// single-path flows.
  std::int64_t data_seq = -1;

  /// Timestamp option: set by the sender, echoed by the sink, used for RTT.
  SimTime ts = 0;
  SimTime ts_echo = 0;

  /// Hop cursor: the next hop to receive this packet, inside the hop array
  /// of the route it was injected on (Route::inject sets it, every hop
  /// advances it). The array ends in a null entry.
  PacketHandler* const* hop = nullptr;

  /// Total bytes this packet occupies on the wire.
  Bytes wire_size() const { return payload + kHeaderBytes; }
};

static_assert(sizeof(Packet) == 64, "Packet must stay one cache line");

/// Creates a data segment for `flow`; Route::inject aims it at a route.
Packet make_data_packet(std::uint64_t flow_id, std::int64_t seq, Bytes payload,
                        SimTime now);

/// Creates the ACK acknowledging through `cum_ack`, echoing `ts`.
Packet make_ack_packet(std::uint64_t flow_id, std::int64_t cum_ack, SimTime now,
                       SimTime ts_echo);

}  // namespace mpcc
