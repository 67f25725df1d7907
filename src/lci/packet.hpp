// LCI packets and the locality-aware concurrent packet pool.
//
// Packets are the unit of flow control in LCI (paper Section III-D): each
// host owns a fixed-size pool P; the payload slab of every pool packet is
// pre-posted to the fabric endpoint as a receive buffer, so "the host has to
// maintain a fixed number of buffers for receiving these packets" and the
// pool size bounds the injection rate. packetAlloc failing is the non-fatal
// resource-exhaustion signal that send_enq surfaces to the caller as "retry
// later".
//
// The pool is locality-aware (paper ref [16]): freed packets go to a small
// per-thread cache first so a thread that frees a packet tends to reuse the
// same (cache-warm) slab; overflow/underflow falls back to a global
// fetch-and-add MPMC free list (paper ref [26]).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fabric/packet.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::lci {

/// LCI wire packet types (paper Algorithms 1-3).
enum class PacketType : std::uint8_t {
  EGR = 1,     ///< eager packet carrying the data
  RTS = 2,     ///< ready-to-send (rendezvous request)
  RTR = 3,     ///< ready-to-receive (rendezvous reply with target address)
  RDMA = 4,    ///< completion notification of an lc_put
  SIGNAL = 5,  ///< one-sided put-with-signal notification (direct write)
};

struct Request;

/// A pool packet: fixed control block + pointer into the payload slab.
struct Packet {
  fabric::MsgMeta meta;       // filled from the Cqe on receive
  std::byte* data = nullptr;  // payload slab (pool-owned, capacity bytes)
  std::size_t capacity = 0;
  std::uint32_t index = 0;    // index in the pool (stable identity)
};

/// Payload of an RTS control packet.
struct RtsPayload {
  std::uint64_t msg_size;   // full rendezvous message size
  std::uint64_t send_req;   // sender's Request*, echoed back in the RTR
};

/// Payload of an RTR control packet.
struct RtrPayload {
  std::uint64_t send_req;   // echo of RtsPayload::send_req
  std::uint64_t recv_req;   // receiver's Request*, echoed in the RDMA imm
  std::uint32_t rkey;       // registered target region
  std::uint64_t msg_size;
};

/// Locality-aware bounded packet pool.
class PacketPool {
 public:
  /// `count` packets with `payload_size`-byte slabs. `num_caches` per-thread
  /// caches (0 disables locality awareness -> pure global MPMC, used by the
  /// ablation bench).
  PacketPool(std::size_t count, std::size_t payload_size,
             std::size_t num_caches = 8);

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  /// Non-blocking allocation; nullptr when the pool is exhausted, or when
  /// taking a packet would leave fewer than `keep_free` in the pool. Callers
  /// holding packets for long (buffer leases) pass a floor so short-lived
  /// control traffic (RTS/RTR) can always allocate. The floor check reads an
  /// approximate counter; racy over-admission by a packet or two is fine -
  /// it is a starvation heuristic, not an invariant.
  Packet* alloc(std::size_t keep_free = 0);

  /// Return a packet to the pool. Does NOT re-post its slab to any endpoint;
  /// the Queue layer does that, because the pool does not know the endpoint.
  void free(Packet* p);

  std::size_t count() const noexcept { return packets_.size(); }
  std::size_t payload_size() const noexcept { return payload_size_; }
  Packet* packet_at(std::size_t i) { return &packets_[i]; }

  /// Approximate number of free packets (diagnostics only).
  std::size_t approx_free() const;

 private:
  struct Cache {
    rt::Spinlock lock;
    std::vector<Packet*> items;
  };
  static constexpr std::size_t kCacheCap = 8;

  Cache* my_cache();

  std::size_t payload_size_;
  std::unique_ptr<std::byte[]> slab_;
  std::vector<Packet> packets_;
  rt::MpmcQueue<Packet*> global_;
  std::vector<std::unique_ptr<Cache>> caches_;
  std::atomic<std::size_t> free_count_{0};  // approximate, for alloc floors
};

}  // namespace lcr::lci
