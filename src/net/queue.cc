#include "net/queue.h"

#include "obs/perf.h"
#include "sim/invariants.h"
#include "util/logging.h"

namespace mpcc {

Queue::Queue(EventList& events, std::string name, Rate rate, Bytes capacity_bytes,
             std::size_t capacity_packets)
    : EventSource(std::move(name)),
      events_(events),
      trace_src_(obs::tracer().intern(this->name())),
      rate_(rate),
      capacity_bytes_(capacity_bytes),
      capacity_packets_(capacity_packets) {
  MPCC_CHECK_INVARIANT(rate_ > 0, "net.queue.rate", this->name() << ": rate=" << rate_);
  events_.register_perf_flush(this);
}

Queue::~Queue() { events_.unregister_perf_flush(this); }

void Queue::flush_perf() {
  if (obs::perf_enabled()) {
    obs::PerfCounters& pc = obs::bound_perf(perf_ctrs_);
    pc.packets_enqueued += accepted_packets_ - perf_enq_flushed_;
    pc.packets_forwarded += forwarded_ - perf_fwd_flushed_;
    pc.packets_dropped += (drops_ + down_drops_) - perf_drop_flushed_;
    pc.down_drops += down_drops_ - perf_down_flushed_;
  }
  perf_enq_flushed_ = accepted_packets_;
  perf_fwd_flushed_ = forwarded_;
  perf_drop_flushed_ = drops_ + down_drops_;
  perf_down_flushed_ = down_drops_;
}

bool Queue::on_enqueue(Packet&) { return true; }

void Queue::set_rate(Rate rate) {
  MPCC_CHECK_INVARIANT(rate > 0, "net.queue.rate", name() << ": set_rate(" << rate << ")");
  rate_ = rate;
  tx_cached_size_ = -1;
}

void Queue::set_down(bool down) {
  down_ = down;
  if (!down) return;
  // Flush everything waiting behind the (doomed) packet in service.
  for (std::size_t i = 0; i < fifo_.size(); ++i) {
    Packet* pkt = fifo_[i];
    queued_bytes_ -= pkt->wire_size();
    bytes_down_dropped_ += pkt->wire_size();
    ++down_drops_;
    release(pkt);
  }
  fifo_.clear();
}

void Queue::receive(Packet* pkt) {
  // Drops and enqueues feed the perf ledger in batches (flush_perf), not
  // per packet: the member counters below already carry the totals.
  if (down_) {
    ++down_drops_;
    release(pkt);
    return;
  }
  if (bg_drop_every_ > 0 && ++bg_drop_counter_ >= bg_drop_every_) {
    // Fluid background pressure: the buffer space this packet would have
    // used is (statistically) occupied by background traffic.
    bg_drop_counter_ = 0;
    ++drops_;
    MPCC_TRACE(obs::TraceCategory::kQueue, obs::TraceEvent::kDrop, trace_src_,
               events_.now(), static_cast<double>(queued_bytes_), 0,
               static_cast<std::int64_t>(pkt->flow_id), pkt->seq);
    release(pkt);
    return;
  }
  const bool over_bytes = queued_bytes_ + pkt->wire_size() > capacity_bytes_;
  const bool over_packets =
      capacity_packets_ != 0 && queued_packets() + 1 > capacity_packets_;
  if (over_bytes || over_packets) {
    ++drops_;
    MPCC_DEBUG << name() << " drop flow=" << pkt->flow_id << " seq=" << pkt->seq;
    MPCC_TRACE(obs::TraceCategory::kQueue, obs::TraceEvent::kDrop, trace_src_,
               events_.now(), static_cast<double>(queued_bytes_), 0,
               static_cast<std::int64_t>(pkt->flow_id), pkt->seq);
    if (drops_metric_ == nullptr) {
      drops_metric_ = &obs::metrics().counter("net.queue.drops");
    }
    drops_metric_->inc();
    release(pkt);
    return;  // tail drop
  }
  if (!on_enqueue(*pkt)) {
    ++drops_;
    release(pkt);
    return;
  }
  queued_bytes_ += pkt->wire_size();
  bytes_accepted_ += pkt->wire_size();
  if (obs::Tracer& tr = obs::tracer(); tr.enabled(obs::TraceCategory::kQueue)) [[unlikely]] {
    tr.record(obs::TraceCategory::kQueue, obs::TraceEvent::kEnqueue,
              trace_src_, events_.now(),
              static_cast<double>(queued_bytes_), 0,
              static_cast<std::int64_t>(pkt->flow_id), pkt->seq);
    // Hot-path histogram rides the queue trace bit: free when tracing is off.
    if (occupancy_metric_ == nullptr) {
      occupancy_metric_ = &obs::metrics().histogram(
          "net.queue.occupancy_bytes",
          {/*min_value=*/1500.0, /*growth=*/2.0, /*num_buckets=*/24});
    }
    occupancy_metric_->record(static_cast<double>(queued_bytes_));
  }
  if (!busy()) {
    start_service(pkt);
  } else {
    fifo_.push_back(pkt);
  }
  // Post-enqueue depth in packets (service slot included), sampled 1-in-32
  // on this queue's accept count — both the sample set and the depths are
  // sim-determined, so the histogram stays bit-identical across --jobs.
  if ((++accepted_packets_ & 31) == 0) [[unlikely]] {
    MPCC_PERF_RECORD_AT(perf_ctrs_, queue_depth_pkts, queued_packets());
  }
}

void Queue::start_service(Packet* pkt) {
  in_service_ = pkt;
  service_started_ = events_.now();
  events_.schedule_in(this, service_time(pkt->wire_size()));
  set_prefetch_hint(pkt);
}

void Queue::do_next_event() {
  MPCC_CHECK(busy(), "net.queue.service");
  Packet* const done = in_service_;
  // Start loading the next hop's object (vptr line and first member line)
  // now, so the bookkeeping below overlaps the miss that forwarding would
  // otherwise stall on. The packet itself is this queue's prefetch hint.
  {
    const auto next = reinterpret_cast<std::uintptr_t>(*done->hop);
    __builtin_prefetch(reinterpret_cast<const void*>(next));
    __builtin_prefetch(reinterpret_cast<const void*>(next + 64));
  }
  busy_time_ += events_.now() - service_started_;
  queued_bytes_ -= done->wire_size();
  // A link that went down mid-serialisation loses the frame on the wire.
  const bool deliver = !down_;
  if (deliver) {
    ++forwarded_;
    bytes_forwarded_ += done->wire_size();
  } else {
    ++down_drops_;
    bytes_down_dropped_ += done->wire_size();
  }
  // Eq.-style byte conservation: accepted = forwarded + down-dropped +
  // still queued. Catches double-counted wire sizes and negative occupancy
  // from any future mutator (dyn set_down/set_rate paths included).
  MPCC_CHECK_INVARIANT(
      queued_bytes_ >= 0 &&
          bytes_accepted_ == bytes_forwarded_ + bytes_down_dropped_ + queued_bytes_,
      "net.queue.conservation",
      name() << ": accepted=" << bytes_accepted_ << " forwarded=" << bytes_forwarded_
             << " down_dropped=" << bytes_down_dropped_ << " queued=" << queued_bytes_);
  if (!fifo_.empty()) {
    start_service(fifo_.front());
    fifo_.pop_front();
  } else {
    in_service_ = nullptr;
  }
  if (deliver) {
    Route::forward(done);
  } else {
    release(done);
  }
}

double Queue::utilization(SimTime now) const {
  SimTime busy_for = busy_time_;
  if (busy()) busy_for += now - service_started_;
  return now > 0 ? static_cast<double>(busy_for) / static_cast<double>(now) : 0.0;
}

}  // namespace mpcc
