// LCI device: the three primitive network operations over one endpoint.
//
// "To implement Queue, we make use of some abstractions for interacting with
// the underlying network APIs": lc_send (eager), lc_put (RDMA write) and
// lc_progress (drain the NIC, peek for an incoming packet). On psm2 these map
// to tag-matching sends; on ibverbs RC they map to ibv_post_send with
// IBV_WR_SEND / IBV_WR_RDMA_WRITE. Here they map to the simulated fabric's
// post_send / post_put / poll_cq.
#pragma once

#include <cstddef>
#include <optional>

#include "fabric/fabric.hpp"
#include "fabric/reliable.hpp"
#include "lci/packet.hpp"

namespace lcr::lci {

struct DeviceConfig {
  /// Packets reserved for transmit-side staging.
  std::size_t tx_packets = 64;
  /// Packets pre-posted as receive buffers (the fixed receive window).
  std::size_t rx_packets = 256;
  /// Locality caches in the packet pool (0 = plain global pool).
  std::size_t pool_caches = 8;
};

/// An event surfaced by lc_progress.
struct ProgressEvent {
  PacketType type;
  /// Pool packet holding the payload for EGR / RTS / RTR; nullptr for RDMA
  /// (put-completion) events, which carry only immediates.
  Packet* packet = nullptr;
  fabric::MsgMeta meta;
};

class Device {
 public:
  Device(fabric::Fabric& fabric, fabric::Rank rank, DeviceConfig cfg);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  fabric::Rank rank() const noexcept { return rank_; }

  /// Largest payload an eager packet can carry.
  std::size_t eager_limit() const noexcept { return eager_limit_; }

  /// Transmit-side packet staging (flow control): nullptr = exhausted, retry.
  Packet* tx_alloc() { return tx_pool_.alloc(); }
  /// Same, but refuses to drop the pool below `floor` free packets; used by
  /// buffer leases, which hold packets longer than an inline send does.
  Packet* tx_alloc_reserve(std::size_t floor) { return tx_pool_.alloc(floor); }
  void tx_free(Packet* p) { tx_pool_.free(p); }

  /// Eager send; payload must be <= eager_limit(). Non-blocking; a soft
  /// failure (receiver out of buffers / throttled / CQ full) means retry.
  fabric::PostResult lc_send(fabric::Rank dst, const void* payload,
                             fabric::MsgMeta meta);

  /// RDMA write with completion notification (imm) at the target.
  fabric::PostResult lc_put(fabric::Rank dst, fabric::RKey rkey,
                            const void* payload, std::size_t size,
                            std::uint64_t imm);

  /// General RDMA write: arbitrary offset, optional notification, caller
  /// supplied metadata (used by the direct-write put, DESIGN.md §15).
  fabric::PostResult lc_put_ex(fabric::Rank dst, fabric::RKey rkey,
                               std::size_t offset, const void* payload,
                               std::size_t size, bool notify,
                               fabric::MsgMeta meta);

  /// Drain one completion from the NIC, if any.
  std::optional<ProgressEvent> lc_progress();

  /// Return a received packet's slab to the NIC receive window.
  void repost_rx(Packet* p);

  /// Register / deregister memory for rendezvous targets.
  fabric::RKey register_memory(void* base, std::size_t size) {
    return endpoint_.register_memory(base, size);
  }
  void deregister_memory(fabric::RKey key) { endpoint_.deregister_memory(key); }

  fabric::Endpoint& endpoint() noexcept { return endpoint_; }
  fabric::Fabric& fabric() noexcept { return fabric_; }
  std::size_t rx_packets() const noexcept { return rx_count_; }

  /// The reliability channel all wire traffic is routed through. A
  /// passthrough on reliable fabrics; runs seq/CRC/retransmit on lossy ones.
  fabric::ReliableChannel& reliable() noexcept { return channel_; }

 private:
  /// Channel tuning derived from the device shape (hold window bounded well
  /// below the rx window so reordering cannot starve receive buffers).
  static fabric::ReliabilityConfig channel_config(const DeviceConfig& cfg);

  fabric::Fabric& fabric_;
  fabric::Rank rank_;
  fabric::Endpoint& endpoint_;
  std::size_t eager_limit_;
  std::size_t rx_count_;
  PacketPool tx_pool_;
  PacketPool rx_pool_;  // slabs live on the endpoint rx queue or in flight
  fabric::ReliableChannel channel_;
};

}  // namespace lcr::lci
