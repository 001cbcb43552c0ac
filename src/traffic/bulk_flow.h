// Convenience factories for plain single-path TCP flows and the packet
// sinks cross-traffic terminates into.
#pragma once

#include <memory>
#include <vector>

#include "net/network.h"
#include "tcp/tcp_sink.h"
#include "tcp/tcp_src.h"

namespace mpcc {

/// Terminal handler that counts and discards (cross-traffic receiver).
class CountingSink final : public PacketHandler {
 public:
  explicit CountingSink(PacketPool& pool) : pool_(pool) {}

  void receive(Packet* pkt) override {
    ++packets_;
    bytes_ += pkt->payload;
    pool_.deallocate(pkt);
  }
  std::uint64_t packets() const { return packets_; }
  Bytes bytes() const { return bytes_; }

 private:
  PacketPool& pool_;
  std::uint64_t packets_ = 0;
  Bytes bytes_ = 0;
};

struct TcpFlowHandles {
  TcpSrc* src = nullptr;
  TcpSink* sink = nullptr;
};

/// Builds a single-path TCP flow: source, sink, and both routes over the
/// given hop lists (queues/pipes, excluding endpoints). `flow_size` < 0
/// means long-lived. The Network owns everything.
TcpFlowHandles make_tcp_flow(Network& net, const std::string& name,
                             const std::vector<PacketHandler*>& forward_hops,
                             const std::vector<PacketHandler*>& reverse_hops,
                             TcpConfig config = {}, Bytes flow_size = -1);

}  // namespace mpcc
