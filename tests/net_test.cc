#include <gtest/gtest.h>

#include "net/network.h"
#include "traffic/bulk_flow.h"

namespace mpcc {
namespace {

class NetTest : public ::testing::Test {
 protected:
  Network net{1};
};

TEST_F(NetTest, QueueSerialisesAtLinkRate) {
  // 100 Mbps; a 1460+40 = 1500 B packet takes 120 us on the wire.
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});

  route->inject(make_data_packet(1, 0, 1460, 0));
  net.events().run_until(119 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 0u);
  net.events().run_until(121 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, QueueBacklogSerialisesSequentially) {
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 5; ++i) route->inject(make_data_packet(1, i * 1460, 1460, 0));
  // 5 packets x 120 us.
  net.events().run_until(599 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 4u);
  net.events().run_until(601 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 5u);
  EXPECT_EQ(q->drops(), 0u);
  EXPECT_EQ(q->forwarded(), 5u);
}

TEST_F(NetTest, QueueTailDropsWhenBufferFull) {
  // Buffer fits exactly two full packets (3000 B).
  Queue* q = net.make_queue("q", mbps(10), 3'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 5; ++i) route->inject(make_data_packet(1, i * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 2u);
  EXPECT_EQ(q->drops(), 3u);
}

TEST_F(NetTest, QueuePacketCapacityLimit) {
  // Byte budget is huge but packet cap is 3.
  Queue* q = net.make_queue("q", mbps(10), 10'000'000, 3);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 6; ++i) route->inject(make_data_packet(1, i * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 3u);
  EXPECT_EQ(q->drops(), 3u);
}

TEST_F(NetTest, QueueUtilization) {
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  route->inject(make_data_packet(1, 0, 1460, 0));
  net.events().run_until(240 * kMicrosecond);  // busy 120 of 240 us
  EXPECT_NEAR(q->utilization(net.now()), 0.5, 0.01);
}

TEST_F(NetTest, PipeDelaysPackets) {
  Pipe* p = net.make_pipe("p", 10 * kMillisecond);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(1, 0, 100, 0));
  net.events().run_until(10 * kMillisecond - 1);
  EXPECT_EQ(sink->packets(), 0u);
  net.events().run_until(10 * kMillisecond);
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, PipePreservesFifoOrder) {
  Pipe* p = net.make_pipe("p", 5 * kMillisecond);

  class SeqSink final : public PacketHandler {
   public:
    void receive(Packet&& pkt) override { seqs.push_back(pkt.seq); }
    std::vector<std::int64_t> seqs;
  };
  auto* sink = net.emplace<SeqSink>();
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(1, 1, 10, 0));
  net.events().run_until(kMillisecond);
  route->inject(make_data_packet(1, 2, 10, 0));
  net.events().run_all();
  ASSERT_EQ(sink->seqs.size(), 2u);
  EXPECT_EQ(sink->seqs[0], 1);
  EXPECT_EQ(sink->seqs[1], 2);
}

TEST_F(NetTest, EcnQueueMarksAboveThreshold) {
  // Threshold of one packet: the second concurrent packet gets marked.
  EcnQueue* q = net.make_ecn_queue("q", mbps(10), 1'000'000, 1'500);

  class EcnSink final : public PacketHandler {
   public:
    void receive(Packet&& pkt) override {
      if (pkt.ecn_ce) ++marked;
      ++total;
    }
    int marked = 0;
    int total = 0;
  };
  auto* sink = net.emplace<EcnSink>();
  Route* route = net.make_route({q, sink});

  Packet a = make_data_packet(1, 0, 1460, 0);
  a.ecn_capable = true;
  Packet b = make_data_packet(1, 1460, 1460, 0);
  b.ecn_capable = true;
  route->inject(std::move(a));
  route->inject(std::move(b));  // queue already holds packet a
  net.events().run_all();
  EXPECT_EQ(sink->total, 2);
  EXPECT_EQ(sink->marked, 1);
  EXPECT_EQ(q->marks(), 1u);
}

TEST_F(NetTest, EcnQueueIgnoresNonCapablePackets) {
  EcnQueue* q = net.make_ecn_queue("q", mbps(10), 1'000'000, 0);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  route->inject(make_data_packet(1, 0, 1460, 0));  // not ECN-capable
  net.events().run_all();
  EXPECT_EQ(q->marks(), 0u);
}

TEST_F(NetTest, LossyPipeDropsAtConfiguredRate) {
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.3);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({p, sink});
  const int n = 10000;
  for (int i = 0; i < n; ++i) route->inject(make_data_packet(1, i, 100, 0));
  net.events().run_all();
  const double loss =
      static_cast<double>(p->losses()) / static_cast<double>(n);
  EXPECT_NEAR(loss, 0.3, 0.03);
  EXPECT_EQ(sink->packets() + p->losses(), static_cast<std::uint64_t>(n));
}

TEST_F(NetTest, LossyPipeZeroLossDeliversEverything) {
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.0);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({p, sink});
  for (int i = 0; i < 100; ++i) route->inject(make_data_packet(1, i, 100, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 100u);
}

TEST_F(NetTest, LossyPipeJitterKeepsFifo) {
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.0, 500 * kMicrosecond);

  class SeqSink final : public PacketHandler {
   public:
    void receive(Packet&& pkt) override {
      EXPECT_GE(pkt.seq, last);
      last = pkt.seq;
      ++count;
    }
    std::int64_t last = -1;
    int count = 0;
  };
  auto* sink = net.emplace<SeqSink>();
  Route* route = net.make_route({p, sink});
  for (int i = 0; i < 200; ++i) {
    route->inject(make_data_packet(1, i, 100, 0));
    net.events().run_until(net.now() + 100 * kMicrosecond);
  }
  net.events().run_all();
  EXPECT_EQ(sink->count, 200);
}

TEST_F(NetTest, LossyPipeJitterBurstNeverReorders) {
  // Regression for the monotone release clamp: back-to-back packets whose
  // jitter draws would individually reorder them (jitter >> inter-arrival
  // gap) must still come out FIFO, with non-decreasing delivery times.
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.0, 5 * kMillisecond);

  class OrderSink final : public PacketHandler {
   public:
    void receive(Packet&& pkt) override {
      EXPECT_EQ(pkt.seq, next++);
      ++count;
    }
    std::int64_t next = 0;
    int count = 0;
  };
  auto* sink = net.emplace<OrderSink>();
  Route* route = net.make_route({p, sink});
  // Bursts of simultaneous packets interleaved with tiny gaps.
  std::int64_t seq = 0;
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 8; ++i) route->inject(make_data_packet(1, seq++, 100, 0));
    net.events().run_until(net.now() + 10 * kMicrosecond);
  }
  net.events().run_all();
  EXPECT_EQ(sink->count, 400);
}

TEST_F(NetTest, PipeSetDelayDecreaseDoesNotReorder) {
  Pipe* p = net.make_pipe("p", 10 * kMillisecond);

  class StampSink final : public PacketHandler {
   public:
    explicit StampSink(Network& n) : net(n) {}
    void receive(Packet&& pkt) override {
      EXPECT_GE(net.now(), last);
      EXPECT_EQ(pkt.seq, next++);
      last = net.now();
    }
    Network& net;
    SimTime last = 0;
    std::int64_t next = 0;
  };
  auto* sink = net.emplace<StampSink>(net);
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(1, 0, 100, 0));  // due at 10 ms
  net.events().run_until(kMillisecond);
  p->set_delay(kMillisecond);  // would be due at 2 ms — before packet 0
  route->inject(make_data_packet(1, 1, 100, 0));
  net.events().run_all();
  EXPECT_EQ(sink->next, 2);
  // The clamp holds packet 1 until packet 0's delivery instant.
  EXPECT_EQ(sink->last, 10 * kMillisecond);
}

TEST_F(NetTest, PipeDownDropsArrivalsAndInFlight) {
  Pipe* p = net.make_pipe("p", 10 * kMillisecond);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(1, 0, 100, 0));
  route->inject(make_data_packet(1, 1, 100, 0));
  net.events().run_until(kMillisecond);
  p->set_down(true);
  EXPECT_EQ(p->drop_in_flight(), 2u);
  route->inject(make_data_packet(1, 2, 100, 0));  // dropped at ingress
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 0u);
  EXPECT_EQ(p->down_drops(), 3u);

  p->set_down(false);
  route->inject(make_data_packet(1, 3, 100, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, QueueDownFlushesBacklogAndDropsArrivals) {
  Queue* q = net.make_queue("q", mbps(10), 1'000'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 4; ++i) route->inject(make_data_packet(1, i * 1460, 1460, 0));
  net.events().run_until(100 * kMicrosecond);  // first packet mid-serialisation
  q->set_down(true);
  route->inject(make_data_packet(1, 4 * 1460, 1460, 0));  // dropped at ingress
  net.events().run_all();
  // Nothing may come out: the fifo was flushed and the in-service packet is
  // discarded at its serialisation instant.
  EXPECT_EQ(sink->packets(), 0u);
  EXPECT_EQ(q->queued_bytes(), 0);
  EXPECT_GE(q->down_drops(), 5u);

  q->set_down(false);
  route->inject(make_data_packet(1, 5 * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, QueueSetRateChangesServiceTime) {
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  q->set_rate(mbps(10));  // 1500 B now takes 1.2 ms, not 120 us
  route->inject(make_data_packet(1, 0, 1460, 0));
  net.events().run_until(200 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 0u);
  net.events().run_until(1300 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, RedQueueDropsProbabilisticallyBetweenThresholds) {
  RedConfig red;
  red.min_threshold = 3'000;
  red.max_threshold = 30'000;
  red.max_probability = 0.5;
  red.weight = 1.0;  // instantaneous average for a deterministic-ish test
  auto* q = net.emplace<RedQueue>(net.events(), "red", mbps(1), Bytes{1'000'000}, red,
                                  std::uint64_t{42});
  auto* sink = net.emplace<CountingSink>();
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 200; ++i) route->inject(make_data_packet(1, i * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_GT(q->early_drops(), 0u);
  EXPECT_GT(sink->packets(), 0u);
}

// One pipe shared by two routes that split after it. The pipe reads each
// packet's next hop at ingress and keeps it beside the packet, so a reorder
// fault must swap the handler together with the packet, and a duplicate's
// twin must follow the original's route.
TEST_F(NetTest, SharedPipeFaultsKeepEachPacketOnItsRoute) {
  class ScriptedHook final : public FaultHook {
   public:
    FaultVerdict on_packet(Packet&) override {
      return next < verdicts.size() ? verdicts[next++] : FaultVerdict::kPass;
    }
    std::vector<FaultVerdict> verdicts;
    std::size_t next = 0;
  };
  // The first hop after the split: checks the packet belongs to its route,
  // then forwards it along the packet's own hop cursor.
  class FlowTap final : public PacketHandler {
   public:
    explicit FlowTap(std::uint64_t f) : flow(f) {}
    void receive(Packet&& pkt) override {
      EXPECT_EQ(pkt.flow_id, flow);
      ++count;
      Route::forward(std::move(pkt));
    }
    std::uint64_t flow;
    int count = 0;
  };
  class FlowSink final : public PacketHandler {
   public:
    explicit FlowSink(std::uint64_t f) : flow(f) {}
    void receive(Packet&& pkt) override {
      EXPECT_EQ(pkt.flow_id, flow);
      seqs.push_back(pkt.seq);
    }
    std::uint64_t flow;
    std::vector<std::int64_t> seqs;
  };
  Pipe* p = net.make_pipe("shared", kMillisecond);
  auto* tap_a = net.emplace<FlowTap>(1);
  auto* tap_b = net.emplace<FlowTap>(2);
  auto* a = net.emplace<FlowSink>(1);
  auto* b = net.emplace<FlowSink>(2);
  Route* ra = net.make_route({p, tap_a, a});
  Route* rb = net.make_route({p, tap_b, b});
  ScriptedHook hook;
  hook.verdicts = {FaultVerdict::kPass, FaultVerdict::kReorder, FaultVerdict::kPass,
                   FaultVerdict::kDuplicate};
  p->set_fault_hook(&hook);
  ra->inject(make_data_packet(1, 0, 100, 0));
  rb->inject(make_data_packet(2, 0, 100, 0));  // swaps places with flow 1's seq 0
  ra->inject(make_data_packet(1, 1, 100, 0));
  rb->inject(make_data_packet(2, 1, 100, 0));  // delivered twice
  net.events().run_all();
  p->set_fault_hook(nullptr);

  EXPECT_EQ(tap_a->count, 2);
  EXPECT_EQ(tap_b->count, 3);
  EXPECT_EQ(a->seqs, (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(b->seqs, (std::vector<std::int64_t>{0, 1, 1}));
  // Conservation ledger: all five admitted packets left the pipe.
  EXPECT_EQ(p->accepted(), 5u);
  EXPECT_EQ(p->forwarded(), 5u);
  EXPECT_EQ(p->flight_drops(), 0u);
}

TEST_F(NetTest, RouteAppendSplicesHops) {
  Queue* q1 = net.make_queue("q1", mbps(10), 100'000);
  Queue* q2 = net.make_queue("q2", mbps(10), 100'000);
  Route head({q1});
  Route tail({q2});
  head.append(tail);
  EXPECT_EQ(head.size(), 2u);
  EXPECT_EQ(head.hop(0), q1);
  EXPECT_EQ(head.hop(1), q2);
}

}  // namespace
}  // namespace mpcc
