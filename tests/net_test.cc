#include <gtest/gtest.h>

#include "net/network.h"
#include "traffic/bulk_flow.h"

namespace mpcc {
namespace {

class NetTest : public ::testing::Test {
 protected:
  Network net{1};
};

// Hands out a scripted verdict per pipe ingress, then passes everything.
class ScriptedHook final : public FaultHook {
 public:
  FaultVerdict on_packet(Packet&) override {
    return next < verdicts.size() ? verdicts[next++] : FaultVerdict::kPass;
  }
  std::vector<FaultVerdict> verdicts;
  std::size_t next = 0;
};

// A test endpoint: reads each packet in on_packet(), then releases it to the
// run's pool, as every endpoint must.
class ReadingSink : public PacketHandler {
 public:
  explicit ReadingSink(Network& n) : net(n) {}
  void receive(Packet* pkt) override {
    on_packet(*pkt);
    net.packets().deallocate(pkt);
  }
  virtual void on_packet(const Packet& pkt) = 0;
  Network& net;
};

TEST_F(NetTest, QueueSerialisesAtLinkRate) {
  // 100 Mbps; a 1460+40 = 1500 B packet takes 120 us on the wire.
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});

  route->inject(make_data_packet(net.packets(), 1, 0, 1460, 0));
  net.events().run_until(119 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 0u);
  net.events().run_until(121 * kMicrosecond);
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, QueueBacklogSerialisesSequentially) {
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 5; ++i) route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, 0));
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
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 5; ++i) route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 2u);
  EXPECT_EQ(q->drops(), 3u);
}

TEST_F(NetTest, QueuePacketCapacityLimit) {
  // Byte budget is huge but packet cap is 3.
  Queue* q = net.make_queue("q", mbps(10), 10'000'000, 3);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 6; ++i) route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 3u);
  EXPECT_EQ(q->drops(), 3u);
}

TEST_F(NetTest, QueueUtilization) {
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  route->inject(make_data_packet(net.packets(), 1, 0, 1460, 0));
  net.events().run_until(240 * kMicrosecond);  // busy 120 of 240 us
  EXPECT_NEAR(q->utilization(net.now()), 0.5, 0.01);
}

TEST_F(NetTest, PipeDelaysPackets) {
  Pipe* p = net.make_pipe("p", 10 * kMillisecond);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(net.packets(), 1, 0, 100, 0));
  net.events().run_until(10 * kMillisecond - 1);
  EXPECT_EQ(sink->packets(), 0u);
  net.events().run_until(10 * kMillisecond);
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, PipePreservesFifoOrder) {
  Pipe* p = net.make_pipe("p", 5 * kMillisecond);

  class SeqSink final : public ReadingSink {
   public:
    using ReadingSink::ReadingSink;
    void on_packet(const Packet& pkt) override { seqs.push_back(pkt.seq); }
    std::vector<std::int64_t> seqs;
  };
  auto* sink = net.emplace<SeqSink>(net);
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(net.packets(), 1, 1, 10, 0));
  net.events().run_until(kMillisecond);
  route->inject(make_data_packet(net.packets(), 1, 2, 10, 0));
  net.events().run_all();
  ASSERT_EQ(sink->seqs.size(), 2u);
  EXPECT_EQ(sink->seqs[0], 1);
  EXPECT_EQ(sink->seqs[1], 2);
}

TEST_F(NetTest, EcnQueueMarksAboveThreshold) {
  // Threshold of one packet: the second concurrent packet gets marked.
  EcnQueue* q = net.make_ecn_queue("q", mbps(10), 1'000'000, 1'500);

  class EcnSink final : public ReadingSink {
   public:
    using ReadingSink::ReadingSink;
    void on_packet(const Packet& pkt) override {
      if (pkt.ecn_ce) ++marked;
      ++total;
    }
    int marked = 0;
    int total = 0;
  };
  auto* sink = net.emplace<EcnSink>(net);
  Route* route = net.make_route({q, sink});

  Packet* a = make_data_packet(net.packets(), 1, 0, 1460, 0);
  a->ecn_capable = true;
  Packet* b = make_data_packet(net.packets(), 1, 1460, 1460, 0);
  b->ecn_capable = true;
  route->inject(a);
  route->inject(b);  // queue already holds packet a
  net.events().run_all();
  EXPECT_EQ(sink->total, 2);
  EXPECT_EQ(sink->marked, 1);
  EXPECT_EQ(q->marks(), 1u);
}

TEST_F(NetTest, EcnQueueIgnoresNonCapablePackets) {
  EcnQueue* q = net.make_ecn_queue("q", mbps(10), 1'000'000, 0);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  route->inject(make_data_packet(net.packets(), 1, 0, 1460, 0));  // not ECN-capable
  net.events().run_all();
  EXPECT_EQ(q->marks(), 0u);
}

TEST_F(NetTest, LossyPipeDropsAtConfiguredRate) {
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.3);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({p, sink});
  const int n = 10000;
  for (int i = 0; i < n; ++i) route->inject(make_data_packet(net.packets(), 1, i, 100, 0));
  net.events().run_all();
  const double loss =
      static_cast<double>(p->losses()) / static_cast<double>(n);
  EXPECT_NEAR(loss, 0.3, 0.03);
  EXPECT_EQ(sink->packets() + p->losses(), static_cast<std::uint64_t>(n));
}

TEST_F(NetTest, LossyPipeZeroLossDeliversEverything) {
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.0);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({p, sink});
  for (int i = 0; i < 100; ++i) route->inject(make_data_packet(net.packets(), 1, i, 100, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 100u);
}

TEST_F(NetTest, LossyPipeJitterKeepsFifo) {
  LossyPipe* p = net.make_lossy_pipe("p", kMillisecond, 0.0, 500 * kMicrosecond);

  class SeqSink final : public ReadingSink {
   public:
    using ReadingSink::ReadingSink;
    void on_packet(const Packet& pkt) override {
      EXPECT_GE(pkt.seq, last);
      last = pkt.seq;
      ++count;
    }
    std::int64_t last = -1;
    int count = 0;
  };
  auto* sink = net.emplace<SeqSink>(net);
  Route* route = net.make_route({p, sink});
  for (int i = 0; i < 200; ++i) {
    route->inject(make_data_packet(net.packets(), 1, i, 100, 0));
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

  class OrderSink final : public ReadingSink {
   public:
    using ReadingSink::ReadingSink;
    void on_packet(const Packet& pkt) override {
      EXPECT_EQ(pkt.seq, next++);
      ++count;
    }
    std::int64_t next = 0;
    int count = 0;
  };
  auto* sink = net.emplace<OrderSink>(net);
  Route* route = net.make_route({p, sink});
  // Bursts of simultaneous packets interleaved with tiny gaps.
  std::int64_t seq = 0;
  for (int burst = 0; burst < 50; ++burst) {
    for (int i = 0; i < 8; ++i) route->inject(make_data_packet(net.packets(), 1, seq++, 100, 0));
    net.events().run_until(net.now() + 10 * kMicrosecond);
  }
  net.events().run_all();
  EXPECT_EQ(sink->count, 400);
}

TEST_F(NetTest, PipeSetDelayDecreaseDoesNotReorder) {
  Pipe* p = net.make_pipe("p", 10 * kMillisecond);

  class StampSink final : public ReadingSink {
   public:
    using ReadingSink::ReadingSink;
    void on_packet(const Packet& pkt) override {
      EXPECT_GE(net.now(), last);
      EXPECT_EQ(pkt.seq, next++);
      last = net.now();
    }
    SimTime last = 0;
    std::int64_t next = 0;
  };
  auto* sink = net.emplace<StampSink>(net);
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(net.packets(), 1, 0, 100, 0));  // due at 10 ms
  net.events().run_until(kMillisecond);
  p->set_delay(kMillisecond);  // would be due at 2 ms — before packet 0
  route->inject(make_data_packet(net.packets(), 1, 1, 100, 0));
  net.events().run_all();
  EXPECT_EQ(sink->next, 2);
  // The clamp holds packet 1 until packet 0's delivery instant.
  EXPECT_EQ(sink->last, 10 * kMillisecond);
}

TEST_F(NetTest, PipeDownDropsArrivalsAndInFlight) {
  Pipe* p = net.make_pipe("p", 10 * kMillisecond);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({p, sink});
  route->inject(make_data_packet(net.packets(), 1, 0, 100, 0));
  route->inject(make_data_packet(net.packets(), 1, 1, 100, 0));
  net.events().run_until(kMillisecond);
  p->set_down(true);
  EXPECT_EQ(p->drop_in_flight(), 2u);
  route->inject(make_data_packet(net.packets(), 1, 2, 100, 0));  // dropped at ingress
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 0u);
  EXPECT_EQ(p->down_drops(), 3u);

  p->set_down(false);
  route->inject(make_data_packet(net.packets(), 1, 3, 100, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, QueueDownFlushesBacklogAndDropsArrivals) {
  Queue* q = net.make_queue("q", mbps(10), 1'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 4; ++i) route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, 0));
  net.events().run_until(100 * kMicrosecond);  // first packet mid-serialisation
  q->set_down(true);
  route->inject(make_data_packet(net.packets(), 1, 4 * 1460, 1460, 0));  // dropped at ingress
  net.events().run_all();
  // Nothing may come out: the fifo was flushed and the in-service packet is
  // discarded at its serialisation instant.
  EXPECT_EQ(sink->packets(), 0u);
  EXPECT_EQ(q->queued_bytes(), 0);
  EXPECT_GE(q->down_drops(), 5u);

  q->set_down(false);
  route->inject(make_data_packet(net.packets(), 1, 5 * 1460, 1460, 0));
  net.events().run_all();
  EXPECT_EQ(sink->packets(), 1u);
}

TEST_F(NetTest, QueueSetRateChangesServiceTime) {
  Queue* q = net.make_queue("q", mbps(100), 1'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  q->set_rate(mbps(10));  // 1500 B now takes 1.2 ms, not 120 us
  route->inject(make_data_packet(net.packets(), 1, 0, 1460, 0));
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
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route({q, sink});
  for (int i = 0; i < 200; ++i) {
    route->inject(make_data_packet(net.packets(), 1, i * 1460, 1460, 0));
  }
  net.events().run_all();
  EXPECT_GT(q->early_drops(), 0u);
  EXPECT_GT(sink->packets(), 0u);
}

// One pipe shared by two routes that split after it. The pipe reads each
// packet's next hop at ingress and keeps it beside the packet, so a reorder
// fault must swap the handler together with the packet, and a duplicate's
// twin must follow the original's route.
TEST_F(NetTest, SharedPipeFaultsKeepEachPacketOnItsRoute) {
  // The first hop after the split: checks the packet belongs to its route,
  // then forwards it along the packet's own hop cursor.
  class FlowTap final : public PacketHandler {
   public:
    explicit FlowTap(std::uint64_t f) : flow(f) {}
    void receive(Packet* pkt) override {
      EXPECT_EQ(pkt->flow_id, flow);
      ++count;
      Route::forward(pkt);
    }
    std::uint64_t flow;
    int count = 0;
  };
  class FlowSink final : public ReadingSink {
   public:
    FlowSink(Network& n, std::uint64_t f) : ReadingSink(n), flow(f) {}
    void on_packet(const Packet& pkt) override {
      EXPECT_EQ(pkt.flow_id, flow);
      seqs.push_back(pkt.seq);
    }
    std::uint64_t flow;
    std::vector<std::int64_t> seqs;
  };
  Pipe* p = net.make_pipe("shared", kMillisecond);
  auto* tap_a = net.emplace<FlowTap>(1);
  auto* tap_b = net.emplace<FlowTap>(2);
  auto* a = net.emplace<FlowSink>(net, 1);
  auto* b = net.emplace<FlowSink>(net, 2);
  Route* ra = net.make_route({p, tap_a, a});
  Route* rb = net.make_route({p, tap_b, b});
  ScriptedHook hook;
  hook.verdicts = {FaultVerdict::kPass, FaultVerdict::kReorder, FaultVerdict::kPass,
                   FaultVerdict::kDuplicate};
  p->set_fault_hook(&hook);
  ra->inject(make_data_packet(net.packets(), 1, 0, 100, 0));
  rb->inject(make_data_packet(net.packets(), 2, 0, 100, 0));  // swaps places with flow 1's seq 0
  ra->inject(make_data_packet(net.packets(), 1, 1, 100, 0));
  rb->inject(make_data_packet(net.packets(), 2, 1, 100, 0));  // delivered twice
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

// Every pooled packet is held by exactly one component, so after each step
// the pool's outstanding count equals what the queue and the pipe still
// hold, and a drained run owes the pool nothing. AddressSanitizer cannot
// see a slot that is never released; this test guards every drop path.
TEST_F(NetTest, PacketPoolConservesSlotsAcrossEveryDropPath) {
  // 1500 B take 12 ms at 1 Mbps; the pipe holds a packet for 30 ms.
  Queue* q = net.make_queue("q", mbps(1), 1'000'000, /*capacity_packets=*/4);
  Pipe* p = net.make_pipe("p", 30 * kMillisecond);
  class AlignedSink final : public ReadingSink {
   public:
    using ReadingSink::ReadingSink;
    void on_packet(const Packet& pkt) override {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&pkt) % 64, 0u);
      ++count;
    }
    int count = 0;
  };
  auto* sink = net.emplace<AlignedSink>(net);
  Route* route = net.make_route({q, p, sink});
  ScriptedHook hook;
  p->set_fault_hook(&hook);
  PacketPool& pool = net.packets();
  std::int64_t seq = 0;
  const auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      Packet* pkt = make_data_packet(pool, 1, seq++ * 1460, 1460, net.now());
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(pkt) % 64, 0u);
      route->inject(pkt);
    }
  };
  const auto check = [&](const char* step) {
    const std::uint64_t in_flight = p->accepted() - p->forwarded() - p->flight_drops();
    EXPECT_EQ(pool.outstanding(), q->queued_packets() + in_flight) << step;
  };
  const auto run_to = [&](SimTime t) { net.events().run_until(t); };

  send(6);  // one in service, three waiting, two tail drops
  EXPECT_EQ(q->drops(), 2u);
  check("tail drop");

  run_to(13 * kMillisecond);
  q->set_background_drop_every(2);
  send(2);  // the second arrival is the background drop
  q->set_background_drop_every(0);
  EXPECT_EQ(q->drops(), 3u);
  check("background drop");

  // Pipe ingress at 24, 36 and 48 ms: dropped, duplicated, reordered.
  hook.verdicts = {FaultVerdict::kDrop, FaultVerdict::kDuplicate, FaultVerdict::kReorder};
  run_to(25 * kMillisecond);
  check("fault drop");
  run_to(37 * kMillisecond);
  check("fault duplicate");
  run_to(49 * kMillisecond);
  EXPECT_EQ(p->accepted(), 4u);  // the twin counts as admitted
  check("fault reorder");

  EXPECT_EQ(p->drop_in_flight(), 3u);
  check("drop_in_flight");

  p->set_down(true);
  run_to(61 * kMillisecond);  // the packet serialised at 60 ms hits a down pipe
  p->set_down(false);
  EXPECT_EQ(p->down_drops(), 4u);
  check("pipe down at ingress");

  send(3);
  run_to(62 * kMillisecond);  // one mid-serialisation, two waiting
  q->set_down(true);
  EXPECT_EQ(q->down_drops(), 2u);
  check("queue down flush");
  send(1);
  EXPECT_EQ(q->down_drops(), 3u);
  check("queue down at ingress");
  run_to(80 * kMillisecond);  // the frame on the wire is lost
  EXPECT_EQ(q->down_drops(), 4u);
  check("queue down mid-serialisation");
  q->set_down(false);

  send(2);
  net.events().run_all();
  check("drain");
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(sink->count, 3);  // the first packet and the last two
  p->set_fault_hook(nullptr);
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
