// Fluid (differential-equation) form of the paper's congestion-control
// model, Eq. 3:
//
//   dx_r/dt = psi_r(x_s) x_r^2 / (RTT_r^2 (sum_k x_k)^2)
//             - beta_r(x_s) lambda_r x_r^2 - phi_r(x_s)
//
// over a network of shared links. Loss (lambda) and queueing delay on each
// link are smooth increasing functions of utilisation, the standard fluid
// abstraction. The model is used to (a) compute equilibria for the
// Condition 1/2 checkers, and (b) cross-validate the packet-level CC
// implementations (tests + ablation bench): the packet simulator and the
// ODE must agree on equilibrium rate *ratios*.
#pragma once

#include <functional>
#include <vector>

#include "core/psi.h"

namespace mpcc::core {

struct FluidLink {
  double capacity = 0;  ///< MSS per second
};

struct FluidPath {
  std::vector<std::size_t> links;  ///< link indices along the path
  double prop_rtt = 0;             ///< propagation RTT (seconds)
};

struct FluidUser {
  std::vector<FluidPath> paths;
};

struct FluidNetwork {
  std::vector<FluidLink> links;
  std::vector<FluidUser> users;

  /// Link price p_l(y) = loss_scale * (y / c_l)^loss_exponent — a smooth
  /// stand-in for DropTail loss probability.
  double loss_exponent = 4.0;
  double loss_scale = 1e-2;

  /// Queueing delay d_l(y) = delay_scale * prop_rtt_ref * (y/c_l)^loss_exponent,
  /// so RTT_r = prop_rtt + sum_l d_l grows with congestion (what the DTS and
  /// wVegas ratios react to).
  double delay_scale = 0.5;
};

/// Rates x[user][path] in MSS/s.
using FluidState = std::vector<std::vector<double>>;

class FluidModel {
 public:
  /// `phi` (optional) is the compensative term phi_r(x): called with
  /// (user, path, state); return value is subtracted from dx/dt.
  FluidModel(FluidNetwork net, Algorithm alg, double dts_c = 1.0,
             std::function<double(std::size_t, std::size_t, const FluidState&)> phi = {});

  const FluidNetwork& network() const { return net_; }

  /// Reusable buffers for the integrator. The first step sizes them to the
  /// state's shape; later steps and calls recycle them, so integrating
  /// through a long-lived Workspace allocates nothing.
  struct Workspace {
    std::vector<double> loads;
    std::vector<PathState> states;
    FluidState k1, k2, k3, k4, stage;
  };

  /// Aggregate load y_l on every link.
  std::vector<double> link_loads(const FluidState& x) const;
  /// Same, into `loads` (resized to the link count).
  void link_loads(const FluidState& x, std::vector<double>& loads) const;

  /// Loss price lambda_r for one path of one user.
  double path_loss(std::size_t user, std::size_t path,
                   const std::vector<double>& loads) const;

  /// Effective RTT (propagation + queueing) for one path.
  double path_rtt(std::size_t user, std::size_t path,
                  const std::vector<double>& loads) const;

  /// dx/dt at state `x` (Eq. 3 with beta = 1/2).
  FluidState derivative(const FluidState& x) const;

  /// Fourth-order Runge-Kutta integration for `t_end` seconds with step `dt`.
  FluidState integrate(FluidState x, double dt, double t_end) const;
  /// Same, advancing `x` in place with `ws`'s buffers; bit-identical to the
  /// value form (same operations in the same order).
  void integrate(FluidState& x, double dt, double t_end, Workspace& ws) const;

  /// Integrates from a small uniform start until the relative derivative
  /// norm falls below `tol` (or max_time is hit). Returns the equilibrium.
  FluidState equilibrium(double tol = 1e-4, double max_time = 2000.0) const;

  /// Default initial state: a small equal rate on every path.
  FluidState initial_state(double x0 = 1.0) const;

  /// Per-user total rate at `x`.
  std::vector<double> user_rates(const FluidState& x) const;

 private:
  void derivative(const FluidState& x, FluidState& dx, Workspace& ws) const;
  void rk4_step(FluidState& x, double dt, Workspace& ws) const;
  static void clamp_nonnegative(FluidState& x, double floor);

  FluidNetwork net_;
  Algorithm alg_;
  double dts_c_;
  std::function<double(std::size_t, std::size_t, const FluidState&)> phi_;
};

}  // namespace mpcc::core
