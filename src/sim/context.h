// SimContext: the per-run root of the simulator.
//
// One SimContext owns everything that used to be process-global state for a
// single simulation run: the EventList (simulated time), the root Rng, the
// structured Tracer, the MetricsRegistry, and the simulated-clock log
// prefix. Threading a SimContext through a run makes runs fully isolated
// from each other, which is what lets the sweep engine (harness/sweep.h)
// execute many runs concurrently on a thread pool with bit-identical
// results regardless of scheduling order.
//
// Instrumented call sites do NOT take a SimContext parameter: MPCC_TRACE /
// MPCC_LOG and the obs::tracer()/obs::metrics() accessors resolve through a
// thread-local "current context" pointer installed by SimContext::Scope, so
// the hot-path cost is unchanged (one thread-local load) and the hundreds
// of existing call sites keep their signatures.
//
// Observability ownership has two modes:
//   - shared (default): the context resolves tracer()/metrics() to whatever
//     is ambient on the constructing thread — the enclosing context's
//     instances if a scope is active, else the thread-default instances.
//     This preserves the legacy behaviour where a bench's ObsSession sees
//     records from every run it performs.
//   - isolated (Options::isolate_obs): the context owns a fresh Tracer and
//     MetricsRegistry, so concurrent runs never share observability state.
//     The sweep engine uses this for every worker run.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "obs/metrics.h"
#include "obs/perf.h"
#include "obs/trace.h"
#include "sim/event_list.h"
#include "sim/pool.h"
#include "util/logging.h"
#include "util/rng.h"

namespace mpcc {

class SimContext {
 public:
  struct Options {
    std::uint64_t seed = 1;
    /// Own a fresh Tracer + MetricsRegistry instead of sharing the ambient
    /// ones (see the header comment).
    bool isolate_obs = false;
    /// Enable event-loop self-profiling while this context's scope is
    /// active (obs::sim_profiling()).
    bool profile_sim = false;
  };

  explicit SimContext(std::uint64_t seed = 1) : SimContext(Options{seed}) {}
  explicit SimContext(const Options& options);
  ~SimContext();

  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  EventList& events() { return events_; }
  const EventList& events() const { return events_; }
  SimTime now() const { return events_.now(); }
  Rng& rng() { return rng_; }
  std::uint64_t seed() const { return seed_; }

  obs::Tracer& tracer() { return *tracer_; }
  obs::MetricsRegistry& metrics() { return *metrics_; }
  /// Per-run performance ledger; always owned (cheap, fixed-size). The
  /// active Scope installs it as obs::perf_counters() on the thread, so a
  /// sweep worker's counts attribute to its own run.
  obs::PerfCounters& perf() { return perf_; }
  const obs::PerfCounters& perf() const { return perf_; }
  /// Per-run node pool for hot-path containers (reassembly maps, the MPTCP
  /// outstanding-chunk map). Owned by the context so pooled memory is never
  /// shared across runs; components holding pooled containers must not
  /// outlive their context (Network guarantees this by declaring its owned
  /// context before its components).
  PoolArena& pool() { return pool_; }
  /// Per-run packet pool (sim/pool.h): every packet of the run lives in
  /// one of its slots. Reached through events().packets() or
  /// Network::packets(); never shared with another context, nested ones
  /// (the chaos twin) included.
  PacketPool& packets() { return packets_; }
  /// True when this context owns its observability instances (isolate_obs).
  bool owns_obs() const { return owned_tracer_ != nullptr; }
  bool profile_sim() const { return profile_sim_; }

  /// The context whose Scope is active on the calling thread (innermost),
  /// or nullptr outside any scope.
  static SimContext* current();

  /// RAII activation: while alive, this thread's obs::tracer(),
  /// obs::metrics(), obs::sim_profiling(), the MPCC_LOG sim-time prefix,
  /// and SimContext::current() all resolve to this context. Scopes nest;
  /// destruction restores the previous activation (strictly LIFO per
  /// thread, enforced in debug builds).
  class Scope {
   public:
    explicit Scope(SimContext& ctx);
    ~Scope();

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SimContext* ctx_;
    SimContext* prev_current_;
    obs::Tracer* prev_tracer_;
    obs::MetricsRegistry* prev_metrics_;
    obs::PerfCounters* prev_perf_;
    bool prev_profiling_;
    std::optional<LogClock> log_clock_;
  };

 private:
  std::uint64_t seed_;
  // The pools precede (and therefore outlive) everything else in the
  // context, since any member could in principle hold pooled memory.
  PoolArena pool_;
  PacketPool packets_;
  EventList events_;
  Rng rng_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Tracer* tracer_;
  obs::MetricsRegistry* metrics_;
  obs::PerfCounters perf_;
  bool profile_sim_;
};

}  // namespace mpcc
