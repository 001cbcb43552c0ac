// The discrete-event core.
//
// A single EventList owns simulated time for one experiment. Events are
// (time, sequence) ordered; the sequence number makes simultaneous events
// fire in schedule order, so runs are bit-reproducible.
//
// The pending set is a calendar queue: a power-of-two wheel of buckets,
// each one tick (1 << shift_ ns) wide, covering the near future
// [now, now + kNumBuckets * tick). Scheduling into the wheel is an O(1)
// bucket append; dispatch drains one bucket at a time through a small
// sorted staging vector. Events beyond the wheel horizon (mostly RTO
// timers) fall back to a binary min-heap and are popped from it directly —
// the wheel candidate and the heap top are compared at dispatch, so order
// is exact, not approximate. If a workload's inter-event gaps outgrow the
// horizon, the bucket width doubles (deterministically, from sim-side
// counters only) and the queue rebuilds.
//
// Cancellation is slot-based: each pending event owns a slot in a reusable
// side array, and its EventToken packs (generation, slot index). cancel()
// validates the generation and clears a live bit — O(1), allocation-free,
// and stale tokens (fired, cancelled, or garbage) are harmless no-ops.
// Cancelled entries are skipped lazily on pop, like the htsim approach,
// but without the per-cancel hash-set insert the old implementation paid.
#pragma once

#include <array>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_source.h"
#include "util/units.h"

namespace mpcc {

namespace obs {
class Histogram;
class MetricsRegistry;
struct PerfCounters;
}  // namespace obs

class PacketPool;

/// Identifies one pending scheduled event, for cancellation. Packs
/// (slot generation << 32 | slot index + 1); opaque to callers.
using EventToken = std::uint64_t;
inline constexpr EventToken kInvalidEventToken = 0;

/// Components that defer perf-ledger updates register one of these with
/// the EventList; flush_perf() is invoked once per run_until()/run_all()
/// (and on unregister), turning per-packet ledger increments into one
/// delta add per batch — the same trick BatchedEventCount plays for
/// events_dispatched.
class PerfFlushable {
 public:
  virtual ~PerfFlushable() = default;
  virtual void flush_perf() = 0;
};

class EventList {
 public:
  /// `packets` is the run's packet pool, owned by the SimContext that owns
  /// this list. A bare EventList (sim-only tests and benches) has none.
  explicit EventList(PacketPool* packets = nullptr);
  /// Flushes any collected self-profiling data into the metrics registry.
  ~EventList();

  /// The run's packet pool, for the queues and pipes scheduled on this
  /// list. Only a SimContext's list has one.
  PacketPool& packets() {
    assert(packets_ != nullptr && "EventList has no packet pool");
    return *packets_;
  }

  /// Current simulated time. Starts at 0.
  SimTime now() const { return now_; }

  /// Schedules `src` to fire at absolute time `t` (must be >= now()).
  EventToken schedule_at(EventSource* src, SimTime t);

  /// Schedules `src` to fire `dt` after now().
  EventToken schedule_in(EventSource* src, SimTime dt) { return schedule_at(src, now_ + dt); }

  /// Cancels a pending event. Cancelling an already-fired or invalid token
  /// is a no-op.
  void cancel(EventToken token);

  /// Pops and dispatches the earliest pending event. Returns false when the
  /// queue is empty.
  bool run_next() { return run_next_impl(/*count_into_ledger=*/true); }

  /// Runs every event with time <= `t`, then sets now() = t.
  void run_until(SimTime t);

  /// Runs until the queue drains (finite workloads only).
  void run_all();

  /// Number of pending (non-fired) entries; includes lazily cancelled ones
  /// still parked in the wheel or the overflow heap.
  std::size_t pending() const { return wheel_count_ + cur_.size() + overflow_.size(); }

  /// Total events dispatched so far (for perf reporting).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Watchdog: caps total dispatched events at `max_dispatched` (0 clears
  /// the cap). run_next() throws RunTimeout once the cap is reached — a
  /// backstop against runaway runs that schedule forever. Cooperative, so
  /// teardown unwinds normally and sweep workers are never leaked.
  void set_event_budget(std::uint64_t max_dispatched) { event_budget_ = max_dispatched; }
  std::uint64_t event_budget() const { return event_budget_; }

  /// Watchdog: wall-clock deadline for this run. Checked every
  /// kDeadlineStride dispatches (steady_clock::now() is too dear per
  /// event); run_next() throws RunTimeout once passed.
  void set_wall_deadline(std::chrono::steady_clock::time_point deadline) {
    wall_deadline_ = deadline;
    wall_deadline_armed_ = true;
  }
  void clear_wall_deadline() { wall_deadline_armed_ = false; }

  /// Dispatches between wall-deadline checks. A hanging run is detected at
  /// worst this many (cheap) events late; a run wedged *inside* one event
  /// handler cannot be caught cooperatively.
  static constexpr std::uint64_t kDeadlineStride = 4096;

  /// Registers a deferred perf-ledger flusher (see PerfFlushable).
  /// Unregistering flushes first, so a component's final deltas land even
  /// if it dies between batches. Components must unregister before the
  /// EventList is destroyed.
  void register_perf_flush(PerfFlushable* c);
  void unregister_perf_flush(PerfFlushable* c);

  /// Per-EventSource wall-clock self-profile, collected while
  /// obs::sim_profiling() is on. Sorted by wall_ns descending. Only valid
  /// while the profiled sources are alive (names are copied at first
  /// dispatch, so reading after teardown is safe but adds nothing new).
  struct SourceProfile {
    std::string name;
    std::uint64_t dispatches = 0;
    std::uint64_t wall_ns = 0;
  };
  std::vector<SourceProfile> profile() const;

  /// Aggregates the collected self-profile into `registry`
  /// (sim.profiled_events, sim.profile_wall_ns, sim.events_per_wall_sec).
  /// Idempotent; the destructor calls it with the ambient obs::metrics() if
  /// nobody (e.g. the owning SimContext) flushed explicitly first.
  void flush_profile(obs::MetricsRegistry& registry);

 private:
  struct ProfileEntry {
    std::string name;  // copied: sources may die before the EventList
    std::uint64_t dispatches = 0;
    std::uint64_t wall_ns = 0;
  };

  struct Entry {
    SimTime time;
    std::uint64_t seq;   // schedule order: the total tie-break
    std::uint32_t slot;  // cancellation slot index
    EventSource* source;
  };
  /// The dispatch order: (time, seq) ascending — identical to the old
  /// binary heap's earlier-scheduled-fires-first rule.
  static bool entry_less(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// entry_less reversed, as a function object rather than a function
  /// pointer, so std::sort/upper_bound and the heap algorithms inline it.
  struct EntryGreater {
    bool operator()(const Entry& a, const Entry& b) const { return entry_less(b, a); }
  };

  /// One pending event's home: cancellation state (gen/live) plus the event
  /// payload and an intrusive chain link. Wheel buckets are singly linked
  /// lists threaded through this array, so scheduling never allocates —
  /// the array grows only when the peak pending count does.
  struct Slot {
    SimTime time = 0;
    std::uint64_t seq = 0;
    EventSource* source = nullptr;
    std::uint32_t next = kNilSlot;  // next slot in the same bucket chain
    std::uint32_t gen = 1;
    bool live = false;
    /// Whether the entry currently lives in the overflow heap — lets
    /// cancel() count dead heap entries so compaction can run amortised
    /// instead of every stale RTO paying a full sift-down at its deadline.
    bool in_overflow = false;
  };
  static constexpr std::uint32_t kNilSlot = 0xffffffffu;

  static constexpr std::uint32_t kBucketBits = 12;
  static constexpr std::uint64_t kNumBuckets = 1u << kBucketBits;
  static constexpr std::uint64_t kBucketMask = kNumBuckets - 1;
  /// Initial bucket width: 8.2 us (horizon ~33.6 ms with 4096 buckets) —
  /// sized so queue-service (~us..100us) *and* propagation-delay (~ms..30ms)
  /// events both start in the wheel; RTO-scale events land in the overflow
  /// heap by design. The occupancy bitmap keeps the larger ring free to
  /// scan, and 4096 mostly-empty vectors cost ~100 KB per EventList.
  static constexpr std::uint32_t kInitialShift = 13;
  /// Widest bucket: ~67 ms (horizon ~275 s).
  static constexpr std::uint32_t kMaxShift = 26;
  /// Schedules between width-adaptation decisions: small enough that a
  /// mis-sized wheel corrects within the first few simulated milliseconds
  /// of a run (short sweep points included), large enough that the decision
  /// sees a representative insert mix.
  static constexpr std::uint64_t kAdaptWindow = 8192;

  void profiled_dispatch(EventSource* src);

  /// The dispatch body behind run_next(). With count_into_ledger false the
  /// per-event events_dispatched increment is skipped — the batching loops
  /// (run_until / run_all) count via BatchedEventCount instead, turning
  /// ~N ledger increments into one add of the dispatched_ delta.
  bool run_next_impl(bool count_into_ledger);

  /// RAII delta-counter for the batching loops: snapshots dispatched_ and,
  /// on destruction (normal exit or unwind through RunTimeout/invariant
  /// throws), adds the delta to the bound ledger in one shot; also drives
  /// the registered PerfFlushable components.
  struct BatchedEventCount {
    explicit BatchedEventCount(EventList& el)
        : list(el), before(el.dispatched_) {}
    ~BatchedEventCount();
    EventList& list;
    std::uint64_t before;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void insert_entry(const Entry& e);
  void mark_occupied(std::uint64_t tick) {
    occupied_[(tick & kBucketMask) >> 6] |= std::uint64_t{1} << (tick & 63);
  }
  void clear_occupied(std::uint64_t tick) {
    occupied_[(tick & kBucketMask) >> 6] &= ~(std::uint64_t{1} << (tick & 63));
  }
  /// First tick in [from, limit) whose bucket is non-empty, or `limit`.
  std::uint64_t next_occupied(std::uint64_t from, std::uint64_t limit) const;
  /// Ensures cur_ stages the minimal-tick non-empty wheel bucket and that
  /// neither cur_.back() nor the overflow top is a cancelled entry; returns
  /// the minimal live entry (nullptr if the queue is empty). The returned
  /// pointer aims into cur_ or overflow_ and is invalidated by any mutation.
  const Entry* find_live_min();
  /// Removes the entry find_live_min() returned (must be called with no
  /// intervening mutation) and releases its slot.
  void pop_found_min(const Entry* e);
  /// Erases cancelled entries from the overflow heap and re-heapifies.
  /// Called when more than half the heap is dead, so the O(n) sweep is
  /// amortised O(1) per cancel.
  void compact_overflow();
  /// Advances time to `e.time` and runs the event (watchdogs, invariant
  /// check, profiling / sampled-latency probes included).
  void dispatch_entry(const Entry& e, bool count_into_ledger);
  void maybe_widen_buckets();
  void rebuild(std::uint32_t new_shift);
  void check_watchdog();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t event_budget_ = 0;  // 0 = unlimited
  bool wall_deadline_armed_ = false;
  std::chrono::steady_clock::time_point wall_deadline_{};
  bool profile_flushed_ = false;
  // Resolved against the run's registry on first profiled dispatch; a
  // per-instance handle (not a function-local static) because each
  // SimContext owns its own registry.
  obs::Histogram* wall_hist_ = nullptr;
  // Cached perf ledger (lazy obs::bound_perf, resolved against the
  // thread-current ledger at the first counted dispatch — same convention
  // as every other counting component): one member load per dispatch
  // instead of a thread-local resolution. A privately-owned context's loop
  // (Network(seed)) therefore still attributes to the enclosing Scope.
  obs::PerfCounters* perf_ctrs_ = nullptr;

  // --- calendar queue state ---
  std::uint32_t shift_ = kInitialShift;
  /// kNumBuckets ring of ticks; each element is the head slot index of an
  /// intrusive chain through slots_ (kNilSlot = empty bucket).
  std::vector<std::uint32_t> buckets_;
  /// One bit per bucket (1 = non-empty), so the minimal-tick scan is a
  /// find-first-set over at most kNumBuckets/64 words instead of a walk
  /// over thousands of empty bucket vectors.
  std::array<std::uint64_t, kNumBuckets / 64> occupied_{};
  std::size_t wheel_count_ = 0;              // entries across buckets_ (not cur_)
  std::uint64_t scan_tick_ = 0;              // no bucket entry has tick < this
  /// Staging area for the tick being drained: the adopted bucket, filtered
  /// of cancelled entries and sorted DESCENDING so the minimum pops from
  /// the back. Same-tick schedules during the drain insert here in order.
  std::vector<Entry> cur_;
  std::uint64_t cur_tick_ = 0;  // meaningful iff !cur_.empty()
  /// Min-heap (std::*_heap, front = minimum) of entries past the wheel
  /// horizon. Popped directly — never migrated — so far-future timers that
  /// get cancelled (the common case for RTOs) cost one lazy pop.
  std::vector<Entry> overflow_;
  std::size_t overflow_dead_ = 0;  // cancelled entries still parked in overflow_
  // Deterministic width adaptation: schedules until the next decision, and
  // how many inserts of the current window missed the wheel horizon.
  std::uint64_t adapt_countdown_ = kAdaptWindow;
  std::uint64_t overflow_inserts_ = 0;

  // --- cancellation slots ---
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;

  PacketPool* packets_;
  std::vector<PerfFlushable*> flushables_;
  std::unordered_map<EventSource*, ProfileEntry> prof_;
};

}  // namespace mpcc
