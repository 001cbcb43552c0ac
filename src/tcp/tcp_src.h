// TcpSrc: the sending endpoint of one (sub)flow.
//
// Implements the full Reno loss-recovery machinery the MPTCP Linux kernel
// subflows run: slow start, congestion avoidance, fast retransmit on three
// duplicate ACKs, NewReno fast recovery with partial-ACK retransmission,
// and RTO with exponential backoff and go-back-N resend.
//
// The *congestion avoidance* window law is pluggable through TcpCcHooks:
// plain Reno is the default, DCTCP overrides it with ECN-fraction scaling,
// and MPTCP subflows forward the hooks to the connection's coupled
// MultipathCc algorithm (LIA/OLIA/Balia/DTS/...). This mirrors how the
// kernel splits tcp_input.c (machinery) from tcp_cong.c (algorithm).
//
// Data to send comes from a SegmentProvider, so a subflow can pull
// connection-level chunks on demand (the MPTCP data-sequence mapping).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "net/network.h"
#include "net/route.h"
#include "obs/trace.h"
#include "sim/timer.h"
#include "tcp/rtt_estimator.h"
#include "tcp/tcp_sink.h"
#include "util/ring_buffer.h"

namespace mpcc {

class TcpSrc;

struct TcpConfig {
  Bytes mss = kDefaultMss;
  /// Initial window in segments (Linux 3.x default IW10).
  int initial_window_segments = 10;
  /// Hard cap on cwnd in bytes (emulates the receive window); 0 = unlimited.
  Bytes max_cwnd = 0;
  SimTime min_rto = 200 * kMillisecond;
  SimTime max_rto = 60 * kSecond;
  /// Sets ECT on data packets (DCTCP and ECN-enabled flows).
  bool ecn_capable = false;
  /// HyStart-style delay-based slow-start exit (Linux default since 2.6.29
  /// via CUBIC): leave slow start when the RTT has grown noticeably above
  /// baseRTT, instead of ramming the buffer at exponential rate. Prevents
  /// pathological multi-thousand-hole loss episodes.
  bool hystart = true;
  /// Don't exit below this many segments of cwnd (HyStart's low window).
  int hystart_min_segments = 16;
  /// RFC 2861 congestion-window validation: after an idle period longer
  /// than the RTO, restart from the initial window instead of blasting a
  /// stale cwnd into an unknown network state.
  bool cwnd_restart_after_idle = true;
  /// Dead-path detection for the dynamics subsystem (src/dyn/): after this
  /// many *consecutive* RTOs the flow is flagged dead() so schedulers and
  /// reactive path managers stop allocating fresh data to it. The flow
  /// keeps probing via the normal RTO-backoff go-back-N retransmissions
  /// and revives on the first new ACK. 0 = never flag (the default; plain
  /// TCP behaviour is unchanged).
  int dead_after_timeouts = 0;
};

/// Supplies payload for new segments. `len` (<= mss) and `data_seq` are
/// outputs; returning false means no data is available right now (the
/// caller may be re-kicked later via TcpSrc::notify_data_available()).
class SegmentProvider {
 public:
  virtual ~SegmentProvider() = default;
  virtual bool next_segment(Bytes mss, Bytes& len, std::int64_t& data_seq) = 0;
};

/// Serves a fixed number of bytes (or infinity), data_seq == subflow seq.
/// The default provider for plain single-path TCP flows.
class FixedFlowProvider final : public SegmentProvider {
 public:
  /// `total` < 0 means unbounded (long-lived flow).
  explicit FixedFlowProvider(Bytes total) : remaining_(total) {}

  bool next_segment(Bytes mss, Bytes& len, std::int64_t& data_seq) override;

  Bytes remaining() const { return remaining_; }
  bool unbounded() const { return remaining_ < 0; }

 private:
  Bytes remaining_;
  std::int64_t next_seq_ = 0;
};

/// The pluggable congestion-avoidance law. Defaults implement Reno.
class TcpCcHooks {
 public:
  virtual ~TcpCcHooks() = default;

  /// Every ACK that advances the cumulative point, before state handling.
  virtual void on_ack(TcpSrc& src, Bytes newly_acked, bool ecn_echo, SimTime rtt_sample);

  /// Window increase while in congestion avoidance (not slow start, not
  /// recovery). Reno: cwnd += mss * newly_acked / cwnd.
  virtual void on_ca_increase(TcpSrc& src, Bytes newly_acked);

  /// Loss inferred from 3 dupacks: set ssthresh and the recovery cwnd.
  /// Reno: ssthresh = max(inflight/2, 2 mss); cwnd = ssthresh + 3 mss.
  virtual void on_fast_retransmit(TcpSrc& src);

  /// RTO fired: set ssthresh (TcpSrc itself resets cwnd to 1 mss).
  virtual void on_timeout(TcpSrc& src);

  /// Human-readable algorithm name for reports.
  virtual const char* name() const { return "reno"; }
};

class TcpSrc : public PacketHandler, public EventSource {
 public:
  TcpSrc(Network& net, std::string name, TcpConfig config);
  ~TcpSrc() override = default;

  /// Wires the endpoints: `forward` must terminate at this flow's TcpSink
  /// and `reverse` (owned by the sink) must terminate at this TcpSrc.
  void connect(const Route* forward, TcpSink* sink);

  /// Replaces the Reno hooks (DCTCP, MPTCP subflow coupling, ...).
  void set_hooks(std::unique_ptr<TcpCcHooks> hooks) { hooks_ = std::move(hooks); }
  TcpCcHooks& hooks() { return *hooks_; }

  /// Replaces the data source. Default: unbounded FixedFlowProvider.
  void set_provider(SegmentProvider* provider) { provider_ = provider; }

  /// Convenience: send exactly `total` bytes, then report completion.
  void set_flow_size(Bytes total);

  void set_on_complete(std::function<void(TcpSrc&)> cb) { on_complete_ = std::move(cb); }

  /// Starts transmission at absolute simulated time `at`.
  void start(SimTime at);

  /// The provider gained data (MPTCP window opened): try to send.
  void notify_data_available() { send_available(); }

  /// Re-arms this source for a fresh transfer over the same endpoints
  /// (fleet flow recycling, fleet/flow_factory.h). Sequence numbers are NOT
  /// reset: the (sub)flow sequence space keeps growing monotonically across
  /// reuses, so stragglers from the previous transfer — late ACKs, duplicate
  /// data copies still in the fabric — arrive as ordinary old ACKs and
  /// below-window duplicates and fall into the standard Reno paths instead
  /// of corrupting state. Congestion control restarts like a fresh
  /// connection: initial window, default ssthresh, clean recovery/RTO
  /// state. `reset_rtt` additionally forgets the RTT estimate (use when the
  /// flow is being rebound to a different path).
  void restart_flow_state(bool reset_rtt);

  /// Administrative quiesce (dyn handover / reactive path management).
  /// While down, the flow neither transmits nor processes ACKs and its RTO
  /// timer is parked. Bringing it back up restarts from a one-segment
  /// window and go-back-N resends from the cumulative ACK point, the same
  /// re-establishment an RTO performs.
  void set_admin_down(bool down);
  bool admin_down() const { return admin_down_; }

  /// True once `dead_after_timeouts` consecutive RTOs fired with no
  /// intervening new ACK (see TcpConfig). Cleared by the next new ACK.
  bool dead() const { return dead_; }
  int consecutive_timeouts() const { return consecutive_timeouts_; }

  // --- PacketHandler (ACK arrival) & EventSource (start event) ---
  void receive(Packet* pkt) override;
  void do_next_event() override;

  // --- state accessors for CC algorithms ---
  Network& net() { return net_; }
  const TcpConfig& config() const { return config_; }
  Bytes mss() const { return config_.mss; }
  double cwnd() const { return cwnd_; }
  /// Clamped to [1 mss, max_cwnd].
  void set_cwnd(double cwnd);
  /// Adjusts the cwnd cap at runtime (0 = unlimited). Used by path
  /// selectors to quiesce a subflow without tearing it down.
  void set_max_cwnd(Bytes cap) {
    config_.max_cwnd = cap;
    set_cwnd(cwnd_);  // re-clamp
  }
  Bytes ssthresh() const { return ssthresh_; }
  void set_ssthresh(Bytes t) { ssthresh_ = std::max<Bytes>(t, 2 * config_.mss); }
  Bytes inflight() const { return static_cast<Bytes>(next_send_ - last_acked_); }
  std::int64_t highest_sent() const { return highest_sent_; }
  std::int64_t last_acked() const { return last_acked_; }
  bool in_recovery() const { return in_recovery_; }
  bool in_slow_start() const { return !in_recovery_ && cwnd_ < static_cast<double>(ssthresh_); }
  const RttEstimator& rtt() const { return rtt_; }
  std::uint64_t flow_id() const { return flow_id_; }
  /// Interned tracer id for this flow, for MPCC_TRACE call sites in CC
  /// algorithms (see cc/dts.cc).
  obs::SourceId trace_source() const { return trace_src_; }

  // --- statistics ---
  Bytes bytes_acked_total() const { return last_acked_; }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  Bytes bytes_retransmitted() const { return bytes_retransmitted_; }
  std::uint64_t fast_retransmit_events() const { return fast_retransmit_events_; }
  std::uint64_t timeout_events() const { return timeout_events_; }
  bool complete() const { return completed_; }
  SimTime start_time() const { return start_time_; }
  SimTime completion_time() const { return completion_time_; }

 protected:
  /// Subflow subclass hook: a cumulative-ACK advance happened (after Reno
  /// state handling, before re-sending).
  virtual void after_ack_processing() {}

 private:
  struct SegmentMeta {
    Bytes len;
    std::int64_t data_seq;
  };
  /// One sent-but-not-cumulatively-acked segment. The window is kept in a
  /// ring: sends append at strictly increasing `seq`, cumulative ACKs pop
  /// the acked prefix, and point lookups binary-search on `seq` — the exact
  /// access pattern of the std::map this replaces, minus the per-node heap
  /// allocation.
  struct SentSegment {
    std::int64_t seq;
    SegmentMeta meta;
  };

  /// Binary search by sequence number; nullptr when `seq` is not a segment
  /// boundary in the window (e.g. already acked by a racing ACK).
  const SentSegment* find_segment(std::int64_t seq) const;

  Bytes effective_cwnd() const;
  void send_available();
  void send_segment(std::int64_t seq, const SegmentMeta& meta, bool retransmit);
  void retransmit_one(std::int64_t seq);
  void handle_new_ack(const Packet& ack);
  void handle_dup_ack();
  void on_rto();
  void arm_rto();
  void check_complete();

  Network& net_;
  TcpConfig config_;
  std::uint64_t flow_id_;
  obs::SourceId trace_src_;
  obs::Histogram* rtt_metric_ = nullptr;  // lazily bound to the run's registry
  obs::PerfCounters* perf_ctrs_ = nullptr;  // cached perf ledger (obs::bound_perf)
  std::uint64_t new_acks_ = 0;  // drives the 1-in-8 perf RTT sampling
  const Route* forward_ = nullptr;

  std::unique_ptr<TcpCcHooks> hooks_;
  std::unique_ptr<FixedFlowProvider> owned_provider_;
  SegmentProvider* provider_ = nullptr;

  // Window state (bytes).
  double cwnd_ = 0;
  Bytes ssthresh_;
  std::int64_t highest_sent_ = 0;  // next new byte
  std::int64_t next_send_ = 0;     // next byte to (re)send; < highest_sent_ in go-back-N
  std::int64_t last_acked_ = 0;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  bool rto_rearmed_in_recovery_ = false;  // RFC 6582 "impatient" variant
  std::int64_t recover_ = 0;

  RingBuffer<SentSegment> segments_;  // sent, not yet cumulatively acked; seq ascending

  RttEstimator rtt_;
  Timer rto_timer_;
  int rto_backoff_ = 1;
  int consecutive_timeouts_ = 0;
  bool dead_ = false;
  bool admin_down_ = false;

  std::function<void(TcpSrc&)> on_complete_;
  SimTime last_send_time_ = 0;
  bool started_ = false;
  bool completed_ = false;
  SimTime start_time_ = 0;
  SimTime completion_time_ = 0;

  std::uint64_t packets_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  Bytes bytes_retransmitted_ = 0;
  std::uint64_t fast_retransmit_events_ = 0;
  std::uint64_t timeout_events_ = 0;
};

}  // namespace mpcc
