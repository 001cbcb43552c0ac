#include "topo/two_path.h"

namespace mpcc {

TwoPath::TwoPath(Network& net, TwoPathConfig config) : Topology(net), config_(config) {
  for (std::size_t p = 0; p < 2; ++p) {
    const std::string name = "path" + std::to_string(p);
    fwd_[p] = net_.make_link(name + ":f", config_.rate[p], config_.delay[p],
                             config_.buffer[p]);
    rev_[p] = net_.make_link(name + ":r", config_.rate[p], config_.delay[p],
                             config_.buffer[p]);
    if (config_.cross_traffic) {
      cross_sinks_[p] = net_.emplace<CountingSink>(net_.packets());
      Route* cross_route = net_.make_route();
      cross_route->push_back(fwd_[p].queue);
      cross_route->push_back(fwd_[p].pipe);
      cross_route->push_back(cross_sinks_[p]);
      bursts_[p] = net_.emplace<ParetoBurstSource>(
          net_, name + ":burst", config_.burst, cross_route,
          net_.rng().fork(p + 101).engine()());
    }
  }
}

std::vector<PathSpec> TwoPath::paths(std::size_t, std::size_t) const {
  std::vector<PathSpec> out;
  for (std::size_t p = 0; p < 2; ++p) {
    PathSpec spec;
    spec.name = "path" + std::to_string(p);
    add_link(spec.forward, fwd_[p]);
    add_link(spec.reverse, rev_[p]);
    spec.inter_switch_hops = 1;
    spec.queues = {fwd_[p].queue};
    out.push_back(std::move(spec));
  }
  return out;
}

void TwoPath::start_cross_traffic(SimTime at) {
  for (auto* burst : bursts_) {
    if (burst != nullptr) burst->start(at);
  }
}

}  // namespace mpcc
