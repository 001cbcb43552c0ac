#include "net/packet.h"

namespace mpcc {

Packet* make_data_packet(PacketPool& pool, std::uint64_t flow_id, std::int64_t seq,
                         Bytes payload, SimTime now) {
  Packet* p = new (pool.allocate()) Packet();
  p->type = PacketType::kData;
  p->flow_id = flow_id;
  p->seq = seq;
  p->payload = payload;
  p->ts = now;
  return p;
}

Packet* make_ack_packet(PacketPool& pool, std::uint64_t flow_id, std::int64_t cum_ack,
                        SimTime now, SimTime ts_echo) {
  Packet* p = new (pool.allocate()) Packet();
  p->type = PacketType::kAck;
  p->flow_id = flow_id;
  p->seq = cum_ack;
  p->payload = 0;
  p->ts = now;
  p->ts_echo = ts_echo;
  return p;
}

}  // namespace mpcc
