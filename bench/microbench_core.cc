// Microbenchmarks of the simulator hot paths: event scheduling, the
// queue+pipe packet path, psi evaluation, and a full end-to-end TCP second.
#include <benchmark/benchmark.h>

#include "cc/registry.h"
#include "core/psi.h"
#include "mptcp/path_manager.h"
#include "net/network.h"
#include "topo/two_path.h"
#include "traffic/bulk_flow.h"

namespace {

using namespace mpcc;

class Noop final : public EventSource {
 public:
  Noop() : EventSource("noop") {}
  void do_next_event() override {}
};

void BM_EventListScheduleDispatch(benchmark::State& state) {
  EventList events;
  Noop noop;
  SimTime t = 0;
  for (auto _ : state) {
    events.schedule_at(&noop, t += 10);
    events.run_next();
  }
}
BENCHMARK(BM_EventListScheduleDispatch);

void BM_EventListDeepHeap(benchmark::State& state) {
  EventList events;
  Noop noop;
  // Keep a heap of 10k pending events while churning.
  for (int i = 0; i < 10'000; ++i) events.schedule_in(&noop, 1'000'000 + i);
  SimTime t = 0;
  for (auto _ : state) {
    events.schedule_at(&noop, t += 1);
    events.run_next();
  }
}
BENCHMARK(BM_EventListDeepHeap);

void BM_QueuePipePacketPath(benchmark::State& state) {
  Network net(1);
  Link link = net.make_link("l", gbps(10), 10 * kMicrosecond, 10'000'000);
  auto* sink = net.emplace<CountingSink>(net.packets());
  Route* route = net.make_route();
  link.append_to(*route);
  route->push_back(sink);
  std::int64_t seq = 0;
  for (auto _ : state) {
    route->inject(make_data_packet(net.packets(), 1, seq, 1460, net.now()));
    seq += 1460;
    net.events().run_all();
  }
}
BENCHMARK(BM_QueuePipePacketPath);

void BM_PsiEvaluation(benchmark::State& state) {
  const auto alg = static_cast<core::Algorithm>(state.range(0));
  std::vector<core::PathState> paths = {
      {10, 0.01, 0.008}, {25, 0.04, 0.03}, {8, 0.1, 0.09}, {40, 0.02, 0.02}};
  std::size_t r = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::psi(alg, paths, r));
    r = (r + 1) % paths.size();
  }
}
BENCHMARK(BM_PsiEvaluation)
    ->DenseRange(0, 7)
    ->ArgNames({"alg"});

void BM_SimulatedTcpSecond(benchmark::State& state) {
  // Cost of simulating one second of a saturated 100 Mbps TCP flow.
  for (auto _ : state) {
    Network net(1);
    Link fwd = net.make_link("f", mbps(100), 5 * kMillisecond, 150'000);
    Link rev = net.make_link("r", mbps(100), 5 * kMillisecond, 150'000);
    TcpFlowHandles flow = make_tcp_flow(net, "f", {fwd.queue, fwd.pipe},
                                        {rev.queue, rev.pipe});
    flow.src->start(0);
    net.events().run_until(seconds(1));
    benchmark::DoNotOptimize(flow.src->bytes_acked_total());
  }
}
BENCHMARK(BM_SimulatedTcpSecond)->Unit(benchmark::kMillisecond);

void BM_SimulatedMptcpSecond(benchmark::State& state) {
  const std::string cc = state.range(0) == 0 ? "lia" : "dts";
  for (auto _ : state) {
    Network net(1);
    TwoPathConfig cfg;
    cfg.cross_traffic = false;
    TwoPath topo(net, cfg);
    MptcpConfig mcfg;
    auto* conn = net.emplace<MptcpConnection>(net, "c", mcfg, make_multipath_cc(cc));
    PathManager::fullmesh(*conn, topo.paths());
    conn->start(0);
    net.events().run_until(seconds(1));
    benchmark::DoNotOptimize(conn->bytes_delivered());
  }
}
BENCHMARK(BM_SimulatedMptcpSecond)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
