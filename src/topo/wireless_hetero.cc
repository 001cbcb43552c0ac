#include "topo/wireless_hetero.h"

namespace mpcc {

WirelessHetero::WirelessHetero(Network& net, WirelessHeteroConfig config)
    : Topology(net), config_(config) {
  build_path(0, "wifi", config_.wifi, config_.wifi_burst);
  build_path(1, "cell", config_.cellular, config_.cellular_burst);
}

void WirelessHetero::build_path(std::size_t index, const std::string& name,
                                const WirelessPathConfig& cfg,
                                const ParetoBurstConfig& burst) {
  // Packet-count-limited DropTail queue (the byte cap is set permissive).
  fwd_queue_[index] = net_.make_queue(name + ":fq", cfg.rate,
                                      static_cast<Bytes>(cfg.queue_packets) *
                                          (kDefaultMss + kHeaderBytes),
                                      cfg.queue_packets);
  fwd_pipe_[index] = net_.make_lossy_pipe(name + ":fp", cfg.delay, cfg.loss_rate,
                                          cfg.jitter);
  rev_queue_[index] = net_.make_queue(name + ":rq", cfg.rate,
                                      static_cast<Bytes>(cfg.queue_packets) *
                                          (kDefaultMss + kHeaderBytes),
                                      cfg.queue_packets);
  rev_pipe_[index] = net_.make_lossy_pipe(name + ":rp", cfg.delay, cfg.loss_rate,
                                          cfg.jitter);
  if (config_.cross_traffic) {
    cross_sinks_[index] = net_.emplace<CountingSink>(net_.packets());
    Route* cross = net_.make_route();
    cross->push_back(fwd_queue_[index]);
    cross->push_back(fwd_pipe_[index]);
    cross->push_back(cross_sinks_[index]);
    bursts_[index] = net_.emplace<ParetoBurstSource>(
        net_, name + ":burst", burst, cross, net_.rng().fork(index + 577).engine()());
  }
}

std::vector<PathSpec> WirelessHetero::paths(std::size_t, std::size_t) const {
  std::vector<PathSpec> out;
  const char* names[2] = {"wifi", "cellular"};
  for (std::size_t p = 0; p < 2; ++p) {
    PathSpec spec;
    spec.name = names[p];
    spec.forward.push_back(fwd_queue_[p]);
    spec.forward.push_back(fwd_pipe_[p]);
    spec.reverse.push_back(rev_queue_[p]);
    spec.reverse.push_back(rev_pipe_[p]);
    spec.inter_switch_hops = 1;  // the radio access link is the priced hop
    // LTE costs ~3x WiFi per byte (Huang et al. profiles); rho scales this.
    spec.energy_cost = p == 0 ? 1.0 : 3.0;
    spec.queues = {fwd_queue_[p]};
    out.push_back(std::move(spec));
  }
  return out;
}

void WirelessHetero::start_cross_traffic(SimTime at) {
  for (auto* burst : bursts_) {
    if (burst != nullptr) burst->start(at);
  }
}

}  // namespace mpcc
