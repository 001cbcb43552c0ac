// Pipe: fixed propagation delay.
//
// A pipe delays every packet by `delay` and forwards it. Deliveries are kept
// monotone (a packet never overtakes the one before it) by clamping each
// release time to the last scheduled egress, so a simple deque suffices and
// the pipe keeps at most one pending event (for its earliest delivery).
//
// For the dynamics subsystem (src/dyn/) a pipe is runtime-mutable: its delay
// can change mid-run (mobility-style RTT drift; the monotone clamp prevents
// reordering when the delay shrinks) and it can be taken administratively
// down, which drops arrivals at ingress and optionally flushes the packets
// already in flight (a radio that loses association loses its airframes).
//
// The pipe holds pooled packet handles (net/packet.h). Every drop — down at
// ingress, lossy-subclass loss, a fault kDrop, drop_in_flight — releases
// the packet to the run's PacketPool; a fault kDuplicate clones the packet
// into a fresh slot.
//
// Cache layout of the hot path: at ingress the pipe reads its packet's next
// hop from the route's hop array (net/route.h) — the line the previous hop
// just read — and stores the handler beside the packet pointer in the
// in-flight ring, 24 bytes a slot. Delivery then calls that handler
// directly, without touching the route. The ring front doubles as the
// pipe's EventSource prefetch hint, so the event loop pulls it into cache
// one dispatch ahead.
#pragma once

#include "net/route.h"
#include "sim/event_list.h"
#include "util/ring_buffer.h"

namespace mpcc {

/// What a fault hook decided for one packet at pipe ingress. The hook may
/// additionally mutate the packet in place (e.g. set Packet::corrupted).
enum class FaultVerdict : std::uint8_t {
  kPass,       // forward normally
  kDrop,       // discard at ingress (blackhole / burst-drop)
  kDuplicate,  // deliver the packet twice
  kReorder,    // swap with the packet admitted just before it
};

/// Ingress seam for the chaos subsystem (src/chaos/): a pipe with a hook
/// installed consults it for every packet that survived the down check and
/// the lossy-subclass ingress. Null hook (the default) costs one branch.
class FaultHook {
 public:
  virtual ~FaultHook() = default;
  virtual FaultVerdict on_packet(Packet& pkt) = 0;
};

class Pipe : public PacketHandler, public EventSource, public PerfFlushable {
 public:
  Pipe(EventList& events, std::string name, SimTime delay);
  ~Pipe() override;

  void receive(Packet* pkt) override;
  void do_next_event() override;
  /// Batched perf-ledger update: adds the drop delta since the last flush
  /// (driven per run_until/run_all by the EventList). Pipes contribute only
  /// drops; forwards are counted at queues alone so a queue+pipe hop is not
  /// double-counted.
  void flush_perf() override;

  SimTime delay() const { return delay_; }
  std::uint64_t forwarded() const { return forwarded_; }

  /// Changes the propagation delay for packets received from now on.
  /// Packets already in flight keep their original delivery time; the
  /// monotone-release clamp keeps ordering intact when the delay decreases.
  /// Negative delays are an invariant violation.
  void set_delay(SimTime delay);

  /// Administrative link state. While down, every arriving packet is
  /// dropped at ingress (counted in down_drops()).
  void set_down(bool down) { down_ = down; }
  bool down() const { return down_; }

  /// Drops every packet currently in flight (used by dyn LinkDown so a
  /// failed link loses its airframes instead of delivering them later).
  /// Returns the number of packets dropped.
  std::size_t drop_in_flight();

  /// Packets dropped because the pipe was administratively down.
  std::uint64_t down_drops() const { return down_drops_; }

  /// Installs (or clears, with nullptr) the chaos fault hook consulted at
  /// ingress. The hook must outlive the pipe or be cleared first.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  /// Packet-conservation ledger: every packet admitted into flight is
  /// eventually forwarded, flushed by drop_in_flight(), or still airborne.
  /// Checked as an invariant at each delivery (sim/invariants.h).
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t flight_drops() const { return flight_drops_; }

 protected:
  /// Subclass hook: return false to drop the packet at ingress (loss), and
  /// optionally perturb `extra_delay` (jitter).
  virtual bool on_ingress(Packet& pkt, SimTime& extra_delay);

  EventList& events_;

 private:
  struct InFlight {
    SimTime deliver_at;
    PacketHandler* next;  // pkt's next hop, read at ingress
    Packet* pkt;
  };
  static_assert(sizeof(InFlight) == 24);

  void release(Packet* pkt) { events_.packets().deallocate(pkt); }

  SimTime delay_;
  RingBuffer<InFlight> in_flight_;
  bool event_pending_ = false;
  bool down_ = false;
  SimTime last_delivery_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t down_drops_ = 0;
  std::uint64_t accepted_ = 0;      // packets admitted into flight
  std::uint64_t flight_drops_ = 0;  // admitted packets flushed mid-flight
  std::uint64_t perf_drops_ = 0;    // all drop kinds, for flush_perf()
  std::uint64_t perf_drops_flushed_ = 0;
  // flush_perf() bookmarks for the dedicated fault-activity ledger fields.
  std::uint64_t perf_down_flushed_ = 0;
  std::uint64_t perf_flight_flushed_ = 0;
  FaultHook* fault_hook_ = nullptr;
  // Cached perf ledger (obs::bound_perf), lazy per-instance binding.
  obs::PerfCounters* perf_ctrs_ = nullptr;
};

}  // namespace mpcc
