#include "net/pipe.h"

#include <utility>

#include "obs/perf.h"
#include "sim/invariants.h"

namespace mpcc {

Pipe::Pipe(EventList& events, std::string name, SimTime delay)
    : EventSource(std::move(name)), events_(events), delay_(delay) {
  MPCC_CHECK_INVARIANT(delay_ >= 0, "net.pipe.delay",
                       this->name() << ": delay=" << delay_);
  events_.register_perf_flush(this);
}

Pipe::~Pipe() { events_.unregister_perf_flush(this); }

void Pipe::flush_perf() {
  if (obs::perf_enabled()) {
    obs::PerfCounters& pc = obs::bound_perf(perf_ctrs_);
    pc.packets_dropped += perf_drops_ - perf_drops_flushed_;
    pc.down_drops += down_drops_ - perf_down_flushed_;
    pc.flight_drops += flight_drops_ - perf_flight_flushed_;
  }
  perf_drops_flushed_ = perf_drops_;
  perf_down_flushed_ = down_drops_;
  perf_flight_flushed_ = flight_drops_;
}

bool Pipe::on_ingress(Packet&, SimTime&) { return true; }

void Pipe::set_delay(SimTime delay) {
  MPCC_CHECK_INVARIANT(delay >= 0, "net.pipe.delay",
                       name() << ": set_delay(" << delay << ")");
  delay_ = delay;
}

void Pipe::receive(Packet* pkt) {
  if (down_) {
    ++down_drops_;
    ++perf_drops_;
    release(pkt);
    return;
  }
  SimTime extra = 0;
  if (!on_ingress(*pkt, extra)) {  // dropped (lossy subclass)
    ++perf_drops_;
    release(pkt);
    return;
  }
  FaultVerdict verdict = FaultVerdict::kPass;
  if (fault_hook_ != nullptr) [[unlikely]] {
    verdict = fault_hook_->on_packet(*pkt);
    if (verdict == FaultVerdict::kDrop) {
      ++perf_drops_;
      release(pkt);
      return;
    }
  }
  // Keep deliveries monotone even with jitter so the deque stays sorted.
  SimTime deliver_at = events_.now() + delay_ + extra;
  if (deliver_at < last_delivery_) deliver_at = last_delivery_;
  last_delivery_ = deliver_at;
  PacketHandler* const next = Route::next_hop(*pkt);
  if (verdict == FaultVerdict::kDuplicate) {
    ++accepted_;
    // The twin rides first, in its own slot.
    in_flight_.push_back(InFlight{deliver_at, next, clone_packet(events_.packets(), *pkt)});
  }
  ++accepted_;
  in_flight_.push_back(InFlight{deliver_at, next, pkt});
  if (verdict == FaultVerdict::kReorder && in_flight_.size() >= 2) {
    // Swap the packet (and with it its next hop: the predecessor may belong
    // to another route) with the predecessor. The delivery schedule — and
    // with it the monotone clamp and the conservation ledger — is
    // untouched, but the bytes leave the pipe out of send order.
    InFlight& last = in_flight_[in_flight_.size() - 1];
    InFlight& prev = in_flight_[in_flight_.size() - 2];
    std::swap(last.pkt, prev.pkt);
    std::swap(last.next, prev.next);
  }
  set_prefetch_hint(&in_flight_.front());  // the push may have grown the ring
  if (!event_pending_) {
    event_pending_ = true;
    events_.schedule_at(this, deliver_at);
  }
}

void Pipe::do_next_event() {
  event_pending_ = false;
  // drop_in_flight() may have emptied the deque after this event was
  // scheduled; the stale wakeup is a no-op.
  if (in_flight_.empty()) return;
  // Deliver everything due now (simultaneous arrivals collapse into one
  // event when they share a timestamp).
  while (!in_flight_.empty() && in_flight_.front().deliver_at <= events_.now()) {
    const InFlight due = in_flight_.front();
    in_flight_.pop_front();
    ++forwarded_;
    due.next->receive(due.pkt);
  }
  if (!in_flight_.empty()) {
    event_pending_ = true;
    events_.schedule_at(this, in_flight_.front().deliver_at);
    set_prefetch_hint(&in_flight_.front());
  }
  // Packet conservation across delivery + dyn flushes: admitted = forwarded
  // + flushed + still in flight.
  MPCC_CHECK_INVARIANT(
      accepted_ == forwarded_ + flight_drops_ + in_flight_.size(),
      "net.pipe.conservation",
      name() << ": accepted=" << accepted_ << " forwarded=" << forwarded_
             << " flight_drops=" << flight_drops_ << " in_flight=" << in_flight_.size());
}

std::size_t Pipe::drop_in_flight() {
  const std::size_t dropped = in_flight_.size();
  down_drops_ += dropped;
  flight_drops_ += dropped;
  perf_drops_ += dropped;
  for (std::size_t i = 0; i < dropped; ++i) release(in_flight_[i].pkt);
  in_flight_.clear();
  return dropped;
}

}  // namespace mpcc
