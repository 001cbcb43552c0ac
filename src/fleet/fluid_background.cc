#include "fleet/fluid_background.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mpcc::fleet {

namespace {
constexpr double kMssBytes = 1460.0;
/// Never throttle a fabric queue below this fraction of its base rate: the
/// foreground must always make progress.
constexpr double kMinRateFraction = 0.05;
}  // namespace

FluidBackgroundDriver::FluidBackgroundDriver(Network& net, std::vector<Queue*> queues,
                                             FluidBackgroundConfig config)
    : net_(net),
      queues_(std::move(queues)),
      config_(config),
      timer_(net.events(), "fleet:fluid_bg", config.cadence, [this] { tick(); }) {
  assert(!queues_.empty() && "hybrid fidelity needs fabric queues");
  assert(config_.share >= 0.0 && config_.share < 1.0);
  assert(config_.users_per_link >= 1);

  base_rate_.reserve(queues_.size());
  cap_fluid_.reserve(queues_.size());
  saturation_.assign(queues_.size(), 0.0);

  // One fluid link per fabric queue, with the background's capacity share
  // expressed in MSS/s (the fluid model's rate unit); users_per_link
  // synthetic users each run a single-link path over their home link.
  for (const Queue* q : queues_) {
    base_rate_.push_back(q->rate());
    const double cap = config_.share * q->rate() / 8.0 / kMssBytes;
    cap_fluid_.push_back(std::max(cap, 1.0));
    fluid_net_.links.push_back(core::FluidLink{cap_fluid_.back()});
  }
  for (std::size_t l = 0; l < queues_.size(); ++l) {
    for (int u = 0; u < config_.users_per_link; ++u) {
      core::FluidUser user;
      user.paths.push_back(core::FluidPath{{l}, config_.rtt_s});
      fluid_net_.users.push_back(std::move(user));
    }
  }
  model_ = std::make_unique<core::FluidModel>(fluid_net_, config_.algorithm);
  state_ = model_->initial_state(1.0);
}

void FluidBackgroundDriver::start() { timer_.start(); }

void FluidBackgroundDriver::stop() {
  timer_.stop();
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    queues_[i]->set_rate(base_rate_[i]);
    queues_[i]->set_background_drop_every(0);
  }
}

void FluidBackgroundDriver::tick() {
  ++ticks_;
  const double cadence_s = to_seconds(config_.cadence);
  // Advance the background ODE by one cadence (RK4, 8 steps per cadence —
  // plenty for these smooth single-link dynamics).
  model_->integrate(state_, cadence_s / 8.0, cadence_s, ws_);
  model_->link_loads(state_, loads_);

  for (std::size_t i = 0; i < queues_.size(); ++i) {
    Queue* q = queues_[i];
    const double sat = std::clamp(loads_[i] / cap_fluid_[i], 0.0, 1.0);
    saturation_[i] = sat;
    // Service-rate pressure: the background occupies share*sat of the link.
    const double fraction =
        std::max(1.0 - config_.share * sat, kMinRateFraction);
    q->set_rate(base_rate_[i] * fraction);
    // Loss pressure: the fluid loss price (DropTail stand-in, see
    // FluidNetwork) becomes a per-arrival drop probability, realised as a
    // deterministic every-Nth drop so runs stay bit-identical.
    const double price =
        fluid_net_.loss_scale * std::pow(sat, fluid_net_.loss_exponent);
    const double p = price * config_.loss_to_drop_scale;
    if (p > 1e-9) {
      const double period = std::clamp(1.0 / p, 2.0, 1e9);
      q->set_background_drop_every(static_cast<std::uint32_t>(period));
    } else {
      q->set_background_drop_every(0);
    }
  }
}

}  // namespace mpcc::fleet
