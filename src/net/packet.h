// Packet: the unit that flows through queues and pipes.
//
// Packets live in the run's PacketPool (sim/pool.h) and travel by pointer:
// make_data_packet/make_ack_packet take a slot, and each hop hands the
// Packet* on. Exactly one component owns a packet at a time. It forwards
// it, holds it (a queue's FIFO, a pipe's in-flight ring), or releases it
// to the pool (every drop, and every endpoint once it has read the
// packet); see net/route.h. A packet carries its source route
// (htsim-style) as a hop cursor: a pointer into the route's contiguous hop
// array, aimed at the hop that receives the packet next. Forwarding is one
// load and one increment, with no Route object or index in between. The
// layout is one 64-byte cache line, the pool's slot size (static_assert
// below), so a hop that reads a packet touches one line.
#pragma once

#include <cstdint>
#include <type_traits>

#include "sim/pool.h"
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

static_assert(sizeof(Packet) == PacketPool::kSlotBytes,
              "Packet must stay one cache line: one pool slot");
static_assert(std::is_trivially_destructible_v<Packet>,
              "releasing a packet frees its slot without running a destructor");

/// Creates a data segment for `flow` in `pool`; Route::inject aims it at a
/// route.
Packet* make_data_packet(PacketPool& pool, std::uint64_t flow_id, std::int64_t seq,
                         Bytes payload, SimTime now);

/// Creates the ACK acknowledging through `cum_ack`, echoing `ts`.
Packet* make_ack_packet(PacketPool& pool, std::uint64_t flow_id, std::int64_t cum_ack,
                        SimTime now, SimTime ts_echo);

/// Copies `pkt` into a fresh slot (a duplicated frame), hop cursor included.
inline Packet* clone_packet(PacketPool& pool, const Packet& pkt) {
  return new (pool.allocate()) Packet(pkt);
}

/// Releases an endpoint's packet when the endpoint is done reading it,
/// early returns and exceptions included:
///   const PacketRelease done{pool, pkt};
struct PacketRelease {
  PacketPool& pool;
  Packet* pkt;
  ~PacketRelease() { pool.deallocate(pkt); }
};

}  // namespace mpcc
