#include "traffic/pareto_burst.h"

#include <cassert>

namespace mpcc {

CbrSource::CbrSource(Network& net, std::string name, Rate rate, const Route* route,
                     Bytes packet_payload)
    : EventSource(std::move(name)),
      net_(net),
      rate_(rate),
      route_(route),
      payload_(packet_payload),
      flow_id_(net.next_flow_id()) {
  assert(rate_ > 0 && route_ != nullptr);
}

void CbrSource::start(SimTime at) {
  if (running_) return;
  running_ = true;
  pending_ = net_.events().schedule_at(this, std::max(at, net_.now()));
}

void CbrSource::stop() {
  running_ = false;
  if (pending_ != kInvalidEventToken) {
    net_.events().cancel(pending_);
    pending_ = kInvalidEventToken;
  }
}

void CbrSource::do_next_event() {
  pending_ = kInvalidEventToken;
  if (!running_) return;
  route_->inject(make_data_packet(net_.packets(), flow_id_,
                                  static_cast<std::int64_t>(packets_sent_) * payload_,
                                  payload_, net_.now()));
  ++packets_sent_;
  const SimTime interval = transmission_time(payload_ + kHeaderBytes, rate_);
  pending_ = net_.events().schedule_in(this, interval);
}

ParetoBurstSource::ParetoBurstSource(Network& net, std::string name,
                                     ParetoBurstConfig config, const Route* route,
                                     std::uint64_t seed)
    : net_(net),
      config_(config),
      cbr_(net, name + ":cbr", config.burst_rate, route),
      transition_(net.events(), name + ":onoff", [this] {
        if (cbr_.running()) {
          leave_burst();
        } else {
          enter_burst();
        }
      }),
      rng_(seed) {}

void ParetoBurstSource::start(SimTime at) {
  const SimTime gap = static_cast<SimTime>(
      next_stream().exponential(static_cast<double>(config_.mean_gap)));
  transition_.arm_at(std::max(at + gap, net_.now()));
}

void ParetoBurstSource::enter_burst() {
  ++bursts_;
  burst_started_ = net_.now();
  cbr_.start(net_.now());
  const SimTime duration = static_cast<SimTime>(next_stream().pareto(
      config_.pareto_shape, static_cast<double>(config_.mean_burst)));
  transition_.arm(duration);
}

void ParetoBurstSource::leave_burst() {
  cbr_.stop();
  total_on_ += net_.now() - burst_started_;
  const SimTime gap = static_cast<SimTime>(
      next_stream().exponential(static_cast<double>(config_.mean_gap)));
  transition_.arm(gap);
}

}  // namespace mpcc
