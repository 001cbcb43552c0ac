#include "sim/context.h"

#include <cassert>

namespace mpcc {

namespace {
thread_local SimContext* t_current_context = nullptr;
}  // namespace

SimContext::SimContext(const Options& options)
    : seed_(options.seed),
      events_(&packets_),
      rng_(options.seed), profile_sim_(options.profile_sim) {
  if (options.isolate_obs) {
    owned_tracer_ = std::make_unique<obs::Tracer>();
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    tracer_ = owned_tracer_.get();
    metrics_ = owned_metrics_.get();
  } else {
    // Share whatever is ambient on the constructing thread: an enclosing
    // context's instances, or the thread defaults.
    tracer_ = &obs::tracer();
    metrics_ = &obs::metrics();
  }
}

SimContext::~SimContext() {
  assert(t_current_context != this &&
         "SimContext destroyed while its Scope is still active");
  // Flush the event loop's self-profile into THIS context's registry while
  // it is still alive; ~EventList would otherwise flush into whatever
  // registry is ambient at destruction time.
  events_.flush_profile(*metrics_);
  // Same for the perf ledger: perf.* counters/percentiles land in this
  // run's registry (no-op when nothing was counted).
  perf_.flush_to_metrics(*metrics_);
}

SimContext* SimContext::current() { return t_current_context; }

SimContext::Scope::Scope(SimContext& ctx)
    : ctx_(&ctx),
      prev_current_(t_current_context),
      prev_tracer_(obs::detail::exchange_thread_tracer(&ctx.tracer())),
      prev_metrics_(obs::detail::exchange_thread_metrics(&ctx.metrics())),
      prev_perf_(obs::detail::exchange_thread_perf(&ctx.perf())),
      prev_profiling_(obs::sim_profiling()) {
  t_current_context = ctx_;
  if (ctx.profile_sim()) obs::set_sim_profiling(true);
  log_clock_.emplace([c = ctx_] { return c->now(); });
}

SimContext::Scope::~Scope() {
  assert(t_current_context == ctx_ && "SimContext scopes must nest (LIFO)");
  log_clock_.reset();
  obs::set_sim_profiling(prev_profiling_);
  obs::detail::exchange_thread_perf(prev_perf_);
  obs::detail::exchange_thread_metrics(prev_metrics_);
  obs::detail::exchange_thread_tracer(prev_tracer_);
  t_current_context = prev_current_;
}

}  // namespace mpcc
