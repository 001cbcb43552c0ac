#include "core/fluid_model.h"

#include <cassert>
#include <cmath>

namespace mpcc::core {

namespace {
constexpr double kRateFloor = 1e-3;  // MSS/s; keeps x_r^2 terms alive
}

FluidModel::FluidModel(
    FluidNetwork net, Algorithm alg, double dts_c,
    std::function<double(std::size_t, std::size_t, const FluidState&)> phi)
    : net_(std::move(net)), alg_(alg), dts_c_(dts_c), phi_(std::move(phi)) {}

std::vector<double> FluidModel::link_loads(const FluidState& x) const {
  std::vector<double> loads;
  link_loads(x, loads);
  return loads;
}

void FluidModel::link_loads(const FluidState& x, std::vector<double>& loads) const {
  loads.assign(net_.links.size(), 0.0);
  for (std::size_t u = 0; u < net_.users.size(); ++u) {
    for (std::size_t p = 0; p < net_.users[u].paths.size(); ++p) {
      for (std::size_t l : net_.users[u].paths[p].links) loads[l] += x[u][p];
    }
  }
}

double FluidModel::path_loss(std::size_t user, std::size_t path,
                             const std::vector<double>& loads) const {
  double loss = 0.0;
  for (std::size_t l : net_.users[user].paths[path].links) {
    const double util = loads[l] / net_.links[l].capacity;
    loss += net_.loss_scale * std::pow(util, net_.loss_exponent);
  }
  return loss;
}

double FluidModel::path_rtt(std::size_t user, std::size_t path,
                            const std::vector<double>& loads) const {
  const FluidPath& fp = net_.users[user].paths[path];
  double rtt = fp.prop_rtt;
  for (std::size_t l : fp.links) {
    const double util = loads[l] / net_.links[l].capacity;
    rtt += net_.delay_scale * fp.prop_rtt * std::pow(util, net_.loss_exponent);
  }
  return rtt;
}

FluidState FluidModel::derivative(const FluidState& x) const {
  Workspace ws;
  FluidState dx;
  derivative(x, dx, ws);
  return dx;
}

void FluidModel::derivative(const FluidState& x, FluidState& dx, Workspace& ws) const {
  link_loads(x, ws.loads);
  const std::vector<double>& loads = ws.loads;
  dx.resize(x.size());
  for (std::size_t u = 0; u < net_.users.size(); ++u) {
    const std::size_t np = net_.users[u].paths.size();
    dx[u].assign(np, 0.0);

    // Build the PathState vector for psi evaluation: windows w = x * rtt.
    std::vector<PathState>& states = ws.states;
    states.assign(np, PathState{});
    for (std::size_t p = 0; p < np; ++p) {
      const double rtt = path_rtt(u, p, loads);
      states[p].rtt = rtt;
      states[p].base_rtt = net_.users[u].paths[p].prop_rtt;
      states[p].w = x[u][p] * rtt;
    }
    const double total = sum_rates(states);  // == sum of x by construction

    for (std::size_t p = 0; p < np; ++p) {
      const double xr = x[u][p];
      const double rtt = states[p].rtt;
      const double psi_r = psi(alg_, states, p, dts_c_);
      const double increase =
          psi_r * xr * xr / (rtt * rtt * std::max(total * total, 1e-12));
      const double lambda = path_loss(u, p, loads);
      const double decrease = 0.5 * lambda * xr * xr;  // beta = 1/2
      double phi_term = 0.0;
      if (phi_) phi_term = phi_(u, p, x);
      dx[u][p] = increase - decrease - phi_term;
    }
  }
}

void FluidModel::clamp_nonnegative(FluidState& x, double floor) {
  for (auto& user : x) {
    for (double& v : user) {
      if (v < floor) v = floor;
    }
  }
}

void FluidModel::rk4_step(FluidState& x, double dt, Workspace& ws) const {
  // stage = x + s * k, the RK4 probe point.
  const auto probe = [&x, &ws](const FluidState& k, double s) -> const FluidState& {
    ws.stage.resize(x.size());
    for (std::size_t u = 0; u < x.size(); ++u) {
      ws.stage[u].resize(x[u].size());
      for (std::size_t p = 0; p < x[u].size(); ++p) ws.stage[u][p] = x[u][p] + s * k[u][p];
    }
    return ws.stage;
  };
  derivative(x, ws.k1, ws);
  derivative(probe(ws.k1, dt / 2), ws.k2, ws);
  derivative(probe(ws.k2, dt / 2), ws.k3, ws);
  derivative(probe(ws.k3, dt), ws.k4, ws);
  const FluidState& k1 = ws.k1;
  const FluidState& k2 = ws.k2;
  const FluidState& k3 = ws.k3;
  const FluidState& k4 = ws.k4;
  for (std::size_t u = 0; u < x.size(); ++u) {
    for (std::size_t p = 0; p < x[u].size(); ++p) {
      x[u][p] += dt / 6.0 * (k1[u][p] + 2 * k2[u][p] + 2 * k3[u][p] + k4[u][p]);
    }
  }
  clamp_nonnegative(x, kRateFloor);
}

FluidState FluidModel::integrate(FluidState x, double dt, double t_end) const {
  Workspace ws;
  integrate(x, dt, t_end, ws);
  return x;
}

void FluidModel::integrate(FluidState& x, double dt, double t_end, Workspace& ws) const {
  assert(dt > 0);
  for (double t = 0; t < t_end; t += dt) rk4_step(x, dt, ws);
}

FluidState FluidModel::initial_state(double x0) const {
  FluidState x(net_.users.size());
  for (std::size_t u = 0; u < net_.users.size(); ++u) {
    x[u].assign(net_.users[u].paths.size(), x0);
  }
  return x;
}

FluidState FluidModel::equilibrium(double tol, double max_time) const {
  FluidState x = initial_state();
  const double dt = 0.01;
  const double check_every = 1.0;
  for (double t = 0; t < max_time; t += check_every) {
    x = integrate(std::move(x), dt, check_every);
    const FluidState dx = derivative(x);
    double worst = 0.0;
    for (std::size_t u = 0; u < x.size(); ++u) {
      for (std::size_t p = 0; p < x[u].size(); ++p) {
        const double rel = std::fabs(dx[u][p]) / std::max(x[u][p], 1.0);
        worst = std::max(worst, rel);
      }
    }
    if (worst < tol) break;
  }
  return x;
}

std::vector<double> FluidModel::user_rates(const FluidState& x) const {
  std::vector<double> rates(x.size(), 0.0);
  for (std::size_t u = 0; u < x.size(); ++u) {
    for (double v : x[u]) rates[u] += v;
  }
  return rates;
}

}  // namespace mpcc::core
