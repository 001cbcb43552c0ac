// Network: the component factory for one simulation run.
//
// Topology builders and experiments create queues/pipes/routes/endpoints
// through a Network so lifetime is centralised: components hold raw
// non-owning pointers to each other (routes reference queues, packets
// reference routes) and everything dies together when the Network does.
//
// Simulated time and randomness live in a SimContext (sim/context.h). A
// Network either borrows an explicit per-run context (the sweep engine and
// the scenario runners do this) or, for the legacy one-run-per-process
// style, creates and owns a private one from a seed.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/ecn_queue.h"
#include "net/lossy_pipe.h"
#include "net/pipe.h"
#include "net/queue.h"
#include "net/red_queue.h"
#include "net/route.h"
#include "sim/context.h"
#include "sim/event_list.h"
#include "util/logging.h"
#include "util/rng.h"

namespace mpcc {

/// A unidirectional link: output queue followed by a propagation pipe.
struct Link {
  Queue* queue = nullptr;
  Pipe* pipe = nullptr;

  /// Appends this link's hops to a route under construction.
  void append_to(Route& route) const {
    route.push_back(queue);
    route.push_back(pipe);
  }
};

class Network {
 public:
  /// Creates and owns a private SimContext seeded with `seed`. Also
  /// installs the context's event list as this thread's log clock, so
  /// MPCC_LOG lines carry simulated time for the network's lifetime.
  explicit Network(std::uint64_t seed = 1);
  /// Borrows an explicit per-run context (must outlive the Network).
  explicit Network(SimContext& ctx);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  SimContext& context() { return *ctx_; }
  const SimContext& context() const { return *ctx_; }
  EventList& events() { return ctx_->events(); }
  const EventList& events() const { return ctx_->events(); }
  SimTime now() const { return ctx_->now(); }
  Rng& rng() { return ctx_->rng(); }
  /// The run's packet pool: make_data_packet/make_ack_packet allocate from
  /// it, and whoever holds a packet last releases it there.
  PacketPool& packets() { return ctx_->packets(); }

  /// Creates and owns an arbitrary component, forwarding constructor args.
  /// Type-erased shared_ptr<void> keeps heterogeneous ownership in one
  /// container while still running the right destructor.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto obj = std::make_shared<T>(std::forward<Args>(args)...);
    T* raw = obj.get();
    owned_.push_back(std::move(obj));
    return raw;
  }

  Queue* make_queue(std::string name, Rate rate, Bytes capacity,
                    std::size_t capacity_packets = 0) {
    return emplace<Queue>(events(), std::move(name), rate, capacity, capacity_packets);
  }

  EcnQueue* make_ecn_queue(std::string name, Rate rate, Bytes capacity,
                           Bytes mark_threshold) {
    return emplace<EcnQueue>(events(), std::move(name), rate, capacity, mark_threshold);
  }

  Pipe* make_pipe(std::string name, SimTime delay) {
    Pipe* pipe = emplace<Pipe>(events(), std::move(name), delay);
    pipes_.push_back(pipe);
    return pipe;
  }

  LossyPipe* make_lossy_pipe(std::string name, SimTime delay, double loss_rate,
                             SimTime max_jitter = 0) {
    LossyPipe* pipe =
        emplace<LossyPipe>(events(), std::move(name), delay, loss_rate, max_jitter,
                           rng().fork(owned_.size()).engine()());
    pipes_.push_back(pipe);
    return pipe;
  }

  /// Builds queue+pipe for one direction of a link.
  Link make_link(const std::string& name, Rate rate, SimTime delay, Bytes buffer,
                 std::size_t buffer_packets = 0);

  /// Same but with an ECN-marking queue (for DCTCP fabrics).
  Link make_ecn_link(const std::string& name, Rate rate, SimTime delay, Bytes buffer,
                     Bytes mark_threshold);

  Route* make_route() { return emplace<Route>(); }
  Route* make_route(std::vector<PacketHandler*> hops) {
    return emplace<Route>(std::move(hops));
  }

  std::uint64_t next_flow_id() { return next_flow_id_++; }

  /// All queues created through make_queue/make_link, for fabric-wide stats.
  const std::vector<Queue*>& queues() const { return queues_; }

  /// All pipes created through make_pipe/make_lossy_pipe/make_link, for
  /// network-wide fault injection (chaos/plan.h).
  const std::vector<Pipe*>& pipes() const { return pipes_; }

 private:
  std::unique_ptr<SimContext> owned_ctx_;  // null when borrowing
  SimContext* ctx_;
  LogClock log_clock_;
  std::vector<std::shared_ptr<void>> owned_;
  std::vector<Queue*> queues_;
  std::vector<Pipe*> pipes_;
  std::uint64_t next_flow_id_ = 1;
};

}  // namespace mpcc
