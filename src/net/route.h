// Source routing, htsim-style.
//
// A Route is an ordered, contiguous array of PacketHandlers (queues, pipes,
// and finally an endpoint), kept with a null entry after the last hop.
// Route::inject aims the packet's hop cursor (Packet::hop) at the first
// entry; each hop calls Route::forward, which loads the handler under the
// cursor and advances it. A packet in flight therefore never touches the
// Route object itself — only the hop array line, which the previous hop
// just read. A cursor that reaches the null entry ran off the end of its
// route (asserted in debug builds). Pipes read their packet's next hop at
// ingress, while that line is hot, and keep it beside the packet
// (net/pipe.h).
//
// Packets move as pooled Packet* handles (net/packet.h). receive() hands
// the handler ownership: it forwards the packet, holds it, or releases it
// to the run's PacketPool. Nothing else may keep the pointer, since a
// released slot is reused by the next packet the run creates.
//
// Routes are owned by the Network and stable while any packet points into
// them, so raw cursors on packets are safe. The one sanctioned mutation
// after wiring is MptcpConnection::rebind_paths, which rewrites a drained
// rig's routes in place (fleet flow recycling) — legal precisely because a
// drained and cooled-down rig has no packets in flight holding a cursor
// into the old hop array.
#pragma once

#include <cassert>
#include <vector>

#include "net/packet.h"

namespace mpcc {

/// Anything a packet can be delivered to.
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  /// Takes ownership of `pkt`: the handler forwards it, holds it, or
  /// releases it to the run's PacketPool.
  virtual void receive(Packet* pkt) = 0;
};

class Route {
 public:
  Route() = default;
  explicit Route(std::vector<PacketHandler*> hops) : hops_(std::move(hops)) {
    hops_.push_back(nullptr);
  }

  void push_back(PacketHandler* hop) {
    hops_.back() = hop;
    hops_.push_back(nullptr);
  }

  /// Drops all hops so the route can be rebuilt for a new path (capacity is
  /// retained). Only legal when no packet in flight points into this route.
  void clear() {
    hops_.resize(1);
    hops_.front() = nullptr;
  }

  /// Appends all hops of `tail` (used to splice access + core segments).
  void append(const Route& tail) {
    hops_.pop_back();
    hops_.insert(hops_.end(), tail.hops_.begin(), tail.hops_.end());
  }

  std::size_t size() const { return hops_.size() - 1; }
  bool empty() const { return size() == 0; }
  PacketHandler* hop(std::size_t i) const { return hops_[i]; }

  /// Takes the hop under `pkt`'s cursor and advances the cursor past it.
  /// The packet must still have hops remaining.
  static PacketHandler* next_hop(Packet& pkt) {
    PacketHandler* next = *pkt.hop++;
    assert(next != nullptr && "packet ran off the end of its route");
    return next;
  }

  /// Delivers `pkt` to its next hop, advancing the hop cursor.
  static void forward(Packet* pkt) { next_hop(*pkt)->receive(pkt); }

  /// Injects `pkt` at the first hop of this route.
  void inject(Packet* pkt) const {
    assert(!empty());
    pkt->hop = hops_.data();
    forward(pkt);
  }

 private:
  std::vector<PacketHandler*> hops_{nullptr};  // hops, then the null end
};

}  // namespace mpcc
