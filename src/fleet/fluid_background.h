// FluidBackgroundDriver: hybrid fluid/packet fidelity for fleet fabrics.
//
// At fleet scale (FatTree k=16 has 1024 hosts), simulating *every* byte
// packet-by-packet is wasteful: most fabric load is long-running background
// traffic whose aggregate behaviour the paper's fluid model (core/
// fluid_model.h) already captures. The driver integrates a FluidModel on a
// fixed cadence and imposes the resulting background utilisation on the
// packet-level fabric queues that the foreground (packet-level) fleet flows
// share:
//
//   * reduced effective service rate — each fabric queue's rate drops by
//     the share the fluid background occupies on its link, and
//   * matching loss pressure — the fluid loss price maps to a counter-based
//     every-Nth-arrival drop at the queue door (Queue::
//     set_background_drop_every), so foreground flows see the congestion
//     signal the background would have caused. ECN fabrics need no special
//     handling: the reduced service rate raises real occupancy, which the
//     marking threshold converts into marks organically.
//
// Everything here is pure double arithmetic on a deterministic cadence plus
// counter-based drops — no randomness — so hybrid runs stay bit-identical
// across --jobs and --resume.
#pragma once

#include <memory>
#include <vector>

#include "core/fluid_model.h"
#include "core/psi.h"
#include "net/network.h"
#include "net/queue.h"
#include "sim/timer.h"

namespace mpcc::fleet {

struct FluidBackgroundConfig {
  /// Fraction of each fabric link's capacity handed to the fluid
  /// background, in [0, 1). The fluid users then compete for that share
  /// under the configured algorithm; the *achieved* load (<= share) is what
  /// the packet layer sees imposed.
  double share = 0.5;
  /// Integration/imposition cadence.
  SimTime cadence = 50 * kMillisecond;
  /// Propagation RTT of the synthetic background users, seconds.
  double rtt_s = 0.02;
  /// Background users per fabric link (each runs one single-link path).
  int users_per_link = 1;
  /// Scales the fluid loss price into the every-Nth drop period: drop
  /// period n = 1 / (price * scale) arrivals. Larger = more loss pressure.
  double loss_to_drop_scale = 1.0;
  /// Congestion-control algorithm the background users run.
  core::Algorithm algorithm = core::Algorithm::kLia;
};

class FluidBackgroundDriver {
 public:
  /// `queues` are the fabric queues to impose background load on (e.g.
  /// FatTree::fabric_queues()). The driver snapshots their configured rates
  /// as the 100% baseline.
  FluidBackgroundDriver(Network& net, std::vector<Queue*> queues,
                       FluidBackgroundConfig config);

  void start();
  void stop();

  /// Fluid background load on queue `i`'s link, as a fraction of the share
  /// handed to the background (diagnostics/tests).
  double saturation(std::size_t i) const { return saturation_[i]; }
  std::size_t num_links() const { return queues_.size(); }
  std::uint64_t ticks() const { return ticks_; }

 private:
  void tick();

  Network& net_;
  std::vector<Queue*> queues_;
  FluidBackgroundConfig config_;

  core::FluidNetwork fluid_net_;
  std::unique_ptr<core::FluidModel> model_;
  core::FluidState state_;
  core::FluidModel::Workspace ws_;  ///< integrator buffers, reused every tick
  std::vector<double> loads_;       ///< per-link fluid load, reused every tick

  std::vector<Rate> base_rate_;      ///< configured queue rates (100%)
  std::vector<double> cap_fluid_;    ///< background capacity per link, MSS/s
  std::vector<double> saturation_;   ///< last tick's load/capacity per link
  PeriodicTimer timer_;
  std::uint64_t ticks_ = 0;
};

}  // namespace mpcc::fleet
