// DropTail output queue with a finite buffer and a serialisation rate.
//
// The queue models a switch/NIC output port: arriving packets wait in FIFO
// order, the head packet is serialised at `rate` bits/s, and arrivals that
// would overflow the buffer are dropped (tail drop). Buffer capacity can be
// expressed in bytes or packets (the paper's ns-2 wireless setup uses a
// 50-*packet* DropTail queue).
//
// The queue holds pooled packet handles (net/packet.h): the FIFO is a ring
// of Packet*, and the packet on the wire is one more pointer. Every drop —
// tail drop, background drop, an on_enqueue refusal, a down flush, a frame
// lost mid-serialisation — releases the packet to the run's PacketPool.
//
// A service completion forwards the packet on the wire to the hop under its
// hop cursor (net/route.h). The packet's line is the queue's EventSource
// prefetch hint, so the event loop pulls it into cache one dispatch ahead
// instead of the completion stalling on it; the completion in turn starts
// loading the next hop's object before its own bookkeeping.
#pragma once

#include <limits>

#include "net/route.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event_list.h"
#include "util/ring_buffer.h"
#include "util/units.h"

namespace mpcc {

class Queue : public PacketHandler, public EventSource, public PerfFlushable {
 public:
  /// Buffer limit: `capacity_bytes` caps queued bytes; `capacity_packets`
  /// (if non-zero) caps queued packet count instead.
  Queue(EventList& events, std::string name, Rate rate, Bytes capacity_bytes,
        std::size_t capacity_packets = 0);
  ~Queue() override;

  void receive(Packet* pkt) override;
  void do_next_event() override;
  /// Batched perf-ledger update: adds the enqueue/forward/drop deltas since
  /// the last flush (driven per run_until/run_all by the EventList).
  void flush_perf() override;

  Rate rate() const { return rate_; }
  Bytes queued_bytes() const { return queued_bytes_; }
  std::size_t queued_packets() const { return fifo_.size() + (busy() ? 1 : 0); }
  Bytes capacity_bytes() const { return capacity_bytes_; }

  /// Changes the serialisation rate for packets whose service starts from
  /// now on; the packet currently on the wire finishes at the old rate
  /// (its completion event is already scheduled). Used by dyn SetRate for
  /// mobility-style bandwidth drift.
  void set_rate(Rate rate);

  /// Administrative link state. While down, arrivals are dropped; the
  /// packet in service (if any) is discarded at service completion instead
  /// of being forwarded. Going down flushes the waiting FIFO.
  void set_down(bool down);
  bool down() const { return down_; }

  /// Background loss pressure for hybrid fluid/packet fidelity
  /// (fleet/fluid_background.h): when `every_n` > 0, every n-th arriving
  /// packet is dropped at the door, modelling buffer occupancy by fluid
  /// background traffic this queue never sees packet-by-packet. Counter-
  /// based rather than probabilistic, so runs stay bit-identical. 0 (the
  /// default) disables the pressure.
  void set_background_drop_every(std::uint32_t every_n) { bg_drop_every_ = every_n; }
  std::uint32_t background_drop_every() const { return bg_drop_every_; }

  std::uint64_t drops() const { return drops_; }
  std::uint64_t forwarded() const { return forwarded_; }
  Bytes bytes_forwarded() const { return bytes_forwarded_; }

  /// Packets dropped because the queue was administratively down.
  std::uint64_t down_drops() const { return down_drops_; }

  /// Byte-conservation ledger: every byte accepted into the buffer is
  /// eventually forwarded, dropped while down, or still queued. Checked as
  /// an invariant at each service completion (sim/invariants.h).
  Bytes bytes_accepted() const { return bytes_accepted_; }
  Bytes bytes_down_dropped() const { return bytes_down_dropped_; }

  /// Mean utilisation since creation: busy time / elapsed time.
  double utilization(SimTime now) const;

 protected:
  /// Hook for subclasses (ECN/RED) to examine/modify a packet at enqueue
  /// time. Returning false drops the packet.
  virtual bool on_enqueue(Packet& pkt);

  EventList& events_;
  obs::SourceId trace_src_;  // interned name, for MPCC_TRACE call sites
  // Metric handles resolved lazily against the run's registry. Per-instance
  // (not function-local statics): each SimContext owns its own registry, so
  // a cached process-wide address would alias runs and dangle once the
  // first run's context dies.
  obs::Counter* drops_metric_ = nullptr;
  obs::Histogram* occupancy_metric_ = nullptr;
  // Cached perf ledger (obs::bound_perf), same lazy per-instance pattern.
  obs::PerfCounters* perf_ctrs_ = nullptr;

 private:
  bool busy() const { return in_service_ != nullptr; }
  void start_service(Packet* pkt);
  void release(Packet* pkt) { events_.packets().deallocate(pkt); }

  /// transmission_time(size, rate_) with a one-entry memo. Traffic is
  /// dominated by a single MSS (plus a single ACK size on reverse paths),
  /// so this hits almost always and skips the fp divide. Exact: a hit
  /// returns the very value the formula produced for that size.
  SimTime service_time(Bytes size) {
    if (size != tx_cached_size_) {
      tx_cached_size_ = size;
      tx_cached_time_ = transmission_time(size, rate_);
    }
    return tx_cached_time_;
  }

  Rate rate_;
  Bytes capacity_bytes_;
  std::size_t capacity_packets_;

  RingBuffer<Packet*> fifo_;
  Bytes queued_bytes_ = 0;  // includes the packet in service
  Packet* in_service_ = nullptr;  // the packet on the wire; null when idle
  bool down_ = false;

  std::uint32_t bg_drop_every_ = 0;    // 0 = no background loss pressure
  std::uint32_t bg_drop_counter_ = 0;  // arrivals since the last forced drop

  std::uint64_t down_drops_ = 0;
  std::uint64_t drops_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t accepted_packets_ = 0;  // drives the 1-in-32 depth sampling
  // flush_perf() bookmarks: ledger contributions already made.
  std::uint64_t perf_enq_flushed_ = 0;
  std::uint64_t perf_fwd_flushed_ = 0;
  std::uint64_t perf_drop_flushed_ = 0;
  std::uint64_t perf_down_flushed_ = 0;
  Bytes bytes_forwarded_ = 0;
  Bytes bytes_accepted_ = 0;      // bytes that entered the buffer
  Bytes bytes_down_dropped_ = 0;  // accepted bytes lost to link-down
  SimTime busy_time_ = 0;
  SimTime service_started_ = 0;
  Bytes tx_cached_size_ = -1;  // service_time memo (invalidated by set_rate)
  SimTime tx_cached_time_ = 0;
};

}  // namespace mpcc
