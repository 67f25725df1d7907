// Gemini-style distributed graph engine (paper Sections II, IV-B1).
//
// Gemini partitions with a blocked edge-cut ("a simple blocked edge-cut
// partitioning policy that tries to balance the assigned edges across
// hosts") and, unlike Abelian's proxy synchronization, streams *signal
// records* (destination global id, value) from many threads directly to the
// destination's owner, which applies the *slot* (combine) function.
//
// Communication style is what Section IV-B1 highlights: "Gemini ... relies
// on communication from many threads with MPI_THREAD_MULTIPLE ... In
// particular, MPI_PROBE is used frequently inside a receiving thread to
// receive incoming messages (traversing nodes from different hosts and with
// different sizes)". The engine drives one comm::Backend from every compute
// thread, and the two CommKinds reproduce exactly that contrast:
//
//   * MpiProbeMulti - a THREAD_MULTIPLE mpilite shim private to engine.cpp:
//     every compute thread isends its own buffers (paying the global lock)
//     and probes/receives with wildcards (paying matching-queue traversal).
//   * Lci - comm::LciBackend, "simple modifications ... such that each
//     sending/receiving thread uses LCI Queue instead of MPI": send_enq /
//     recv_deq from every thread, one LCI server thread for progress.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "abelian/cluster.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/round_loop.hpp"
#include "comm/backend.hpp"
#include "comm/message.hpp"
#include "graph/dist_graph.hpp"
#include "runtime/aux_thread.hpp"
#include "runtime/bitset.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/cpu_relax.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/mpmc_queue.hpp"
#include "runtime/spinlock.hpp"
#include "runtime/thread_team.hpp"
#include "runtime/timer.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace lcr::gemini {

enum class CommKind : std::uint8_t { Lci, MpiProbeMulti };

const char* to_string(CommKind k);

struct GeminiConfig {
  CommKind comm = CommKind::Lci;
  std::size_t compute_threads = 2;
  std::string mpi_personality = "default";
  rt::MemTracker* tracker = nullptr;
  /// Record-batch bytes per (thread, destination) before a chunk is sent.
  std::size_t batch_bytes = 8 * 1024;
  /// Dual-mode switch: when the frontier covers more than this fraction of
  /// the local masters, push rounds run in *dense* mode - updates to the
  /// same destination are pre-combined locally and sent once per
  /// destination, instead of one signal per edge (Gemini's sparse/dense
  /// signal-slot adaptivity). Set > 1.0 to force sparse, 0.0 to force dense.
  double dense_threshold = 0.05;
  /// Dedicated LCI progress servers (in addition to the host's own server
  /// thread, which always assists); 0 = none.
  std::size_t lci_servers = 0;
  /// One-sided direct-write sync (DESIGN.md §15): dense rounds put their
  /// pre-combined per-destination frame straight into the destination's
  /// registered region instead of streaming record batches. Auto/Forced
  /// behave identically here (dense rounds are explicitly known, no
  /// predictor needed); Off disables. Honors env LCR_DIRECT_WRITE.
  comm::DirectWriteMode direct_write = comm::DirectWriteMode::Auto;
};

struct GeminiStats {
  std::uint64_t rounds = 0;
  std::uint64_t sparse_rounds = 0;
  std::uint64_t dense_rounds = 0;
  /// Time until local signal production finished (compute, overlapped).
  double compute_s = 0.0;
  /// Remaining round time waiting on/processing remote streams.
  double comm_s = 0.0;
  std::atomic<std::uint64_t> messages{0};
  std::atomic<std::uint64_t> bytes{0};
  /// Dense frames that went out as one-sided direct puts (DESIGN.md §15).
  std::atomic<std::uint64_t> direct_sends{0};
  /// Gauges set once at construction: this host's lid-metadata footprint in
  /// the compressed representation (plus the engine's flat mirror-gid table)
  /// vs. the seed vector/hash-map model, and the mirror count it amortizes
  /// over (DESIGN.md §17).
  std::atomic<std::uint64_t> graph_mem_bytes{0};
  std::atomic<std::uint64_t> graph_mem_bytes_uncompressed{0};
  std::atomic<std::uint64_t> graph_mirrors{0};
};

/// Directory pattern key for gemini direct-write regions: gemini rounds all
/// share one exchange pattern (signal records keyed by destination gid), so
/// a single well-known key per (target, source) pair suffices. Distinct from
/// abelian's per-phase-spec keys, which share the same cluster directory.
inline constexpr std::uint32_t kGeminiPatternKey = 0x47454D31u;  // "GEM1"

class GeminiHost {
 public:
  /// `g` must be a BlockedEdgeCut partition.
  GeminiHost(abelian::Cluster& cluster, const graph::DistGraph& g,
             GeminiConfig cfg);
  ~GeminiHost();

  GeminiHost(const GeminiHost&) = delete;
  GeminiHost& operator=(const GeminiHost&) = delete;

  GeminiStats& stats() noexcept { return stats_; }
  const graph::DistGraph& graph() const noexcept { return g_; }
  const char* comm_name() const { return comm_->name(); }

  /// Data-driven push apps (bfs / cc / sssp) using the Abelian app traits.
  template <typename Traits>
  std::vector<typename Traits::Label> run_push(graph::VertexId source,
                                               rt::RecoveryCtx* rec = nullptr);

  /// Topology-driven pagerank over master vertices.
  std::vector<double> run_pagerank(double damping = 0.85,
                                   std::uint32_t max_iterations = 100,
                                   double tolerance = 1e-7,
                                   rt::RecoveryCtx* rec = nullptr);

 private:
  template <typename T>
  void stream_round(
      const std::function<void(std::size_t tid,
                               const std::function<void(graph::VertexId,
                                                        const T&)>& emit)>&
          produce,
      const std::function<void(graph::VertexId, const T&)>& apply);

  template <typename T>
  bool drain_one_typed(
      const std::function<void(graph::VertexId, const T&)>& apply);

  /// Decodes one received chunk's signal records, applies them, and settles
  /// the chunk (release + note_chunk). Takes ownership of `m`.
  template <typename T>
  void apply_chunk_typed(
      comm::InMessage* m,
      const std::function<void(graph::VertexId, const T&)>& apply);

  /// `drain` returns whether it made progress, so blocked producers can
  /// back off (rt::Backoff) instead of burning a core on a busy loop.
  void send_with_backpressure(int dst, std::vector<std::byte>& payload,
                              const std::function<bool()>& drain);

  /// Dense-round direct-write fan-out (DESIGN.md §15): serializes one frame
  /// per remote peer from the touched/value scratch and puts it straight
  /// into the peer's registered region. Peers whose frame was put are marked
  /// in direct_skip_ so the streaming producers don't re-send their records;
  /// direct_sent_ feeds the tail's put count. Any failure (no region
  /// published, frame oversized, put unavailable) silently leaves the peer
  /// on the two-sided path. Called from the round driver before
  /// stream_round, single-threaded.
  template <typename T>
  void direct_put_dense(const rt::ConcurrentBitset& touched,
                        const std::function<T(std::size_t)>& value_of);

  /// Global id of local proxy `lid`: masters by arithmetic, mirrors from the
  /// flat mirror_gids_ table. Every per-record translation goes through here
  /// - a random mirror lookup in the compressed lid map decodes a chunk.
  graph::VertexId gid_of(std::size_t lid) const noexcept {
    return lid < g_.num_masters
               ? g_.lids.master_lo() + static_cast<graph::VertexId>(lid)
               : mirror_gids_[lid - g_.num_masters];
  }

  /// Whether a cluster-wide failure is pending: round waits and back-pressure
  /// retries check this and unwind (never throw - the host-main driver
  /// raises the error at its next round boundary).
  bool aborting() const noexcept {
    return cluster_.membership().failure_pending();
  }

  struct RoundState {
    std::uint32_t round_id = 0;
    rt::Spinlock lock;
    std::vector<std::int32_t> total;  // chunks expected per peer (-1 unknown)
    std::vector<std::int32_t> got;
    // Direct-put ledger (DESIGN.md §15): the peer's tail announces how many
    // direct puts it issued this round (in base_pos); a peer is complete only
    // when both the chunk count and the direct count are satisfied. Compared
    // with >= because the put usually lands before the tail announces it.
    std::vector<std::int32_t> direct_expected;
    std::vector<std::int32_t> direct_got;
    std::vector<char> finished;  // guards double-decrement of peers_remaining
    std::size_t peers_remaining = 0;
    std::atomic<bool> complete{false};
    void arm(std::uint32_t id, int num_hosts);
    void note_chunk(int src, const comm::ChunkHeader& header);
    void note_direct(int src);

   private:
    void check_peer(std::size_t s);  // lock held
  };

  abelian::Cluster& cluster_;
  const graph::DistGraph& g_;
  std::vector<graph::VertexId> mirror_gids_;  // gid of lid num_masters + i
  GeminiConfig cfg_;
  std::unique_ptr<comm::Backend> comm_;
  std::unique_ptr<rt::ThreadTeam> team_;

  rt::AuxThread server_thread_;
  std::atomic<bool> stop_{false};

  RoundState round_;
  std::uint32_t round_counter_ = 0;
  rt::Spinlock stash_lock_;
  std::deque<comm::InMessage> stash_;  // next-round chunks

  /// Parallel-drain handoff: the thread that pops a chunk off comm_
  /// publishes it here so any compute thread can decode/apply it, instead of
  /// serializing decode behind the receiver (DESIGN.md §12). Entries are
  /// heap-owned; the applier deletes after settling.
  rt::MpmcQueue<comm::InMessage*> apply_queue_{1024};

  // Per-destination chunk counters for the current round.
  std::vector<std::unique_ptr<std::atomic<std::uint32_t>>> chunks_sent_;

  /// Receive-side direct-write region for one source peer: engine-owned
  /// buffer registered with the comm backend and published in the cluster
  /// directory under kGeminiPatternKey.
  struct DirectHome {
    std::unique_ptr<std::byte[]> buf;
    comm::DirectRegion region;
  };
  std::vector<DirectHome> direct_homes_;    // indexed by source peer
  std::vector<std::uint32_t> direct_sent_;  // per dst: puts issued this round
  std::vector<char> direct_skip_;           // per dst: records already put
  bool direct_enabled_ = false;

  GeminiStats stats_;
  telemetry::Registration stat_reg_;  // GeminiStats probes ("gemini.*")
};

// ---------------------------------------------------------------------------
// Template implementations
// ---------------------------------------------------------------------------

template <typename T>
void GeminiHost::apply_chunk_typed(
    comm::InMessage* m,
    const std::function<void(graph::VertexId, const T&)>& apply) {
  const comm::ChunkHeader header = m->header();
  const std::byte* p = m->payload();
  constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
  if (telemetry::enabled() && header.trace_id != 0) {
    char hbuf[64];
    std::snprintf(hbuf, sizeof(hbuf), "{\"src\":%d,\"bytes\":%u}", m->src,
                  header.payload_bytes);
    telemetry::hop("decode", static_cast<std::uint32_t>(g_.host_id),
                   header.trace_id, header.trace_hop, hbuf);
  }
  for (std::size_t off = 0; off + rec <= header.payload_bytes; off += rec) {
    graph::VertexId gid;
    T value;
    std::memcpy(&gid, p + off, sizeof(gid));
    std::memcpy(&value, p + off + sizeof(gid), sizeof(T));
    // Gemini applies stay atomic (atomic_min/atomic_add in the app's slot
    // function): signal records arrive keyed by arbitrary unsorted gids, so
    // destination sharding would thrash a lock per record instead of
    // amortizing it like Abelian's sorted shared lists do.
    apply(gid, value);
  }
  if (telemetry::enabled() && header.trace_id != 0)
    telemetry::hop("apply", static_cast<std::uint32_t>(g_.host_id),
                   header.trace_id, header.trace_hop);
  if (m->release) m->release();
  round_.note_chunk(m->src, header);
  delete m;
}

template <typename T>
void GeminiHost::direct_put_dense(
    const rt::ConcurrentBitset& touched,
    const std::function<T(std::size_t)>& value_of) {
  if (!direct_enabled_) return;
  const int p = g_.num_hosts;
  const int me = g_.host_id;
  constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
  // One pass over the touched scratch, binning records by owner. The frame
  // is a regular chunk (Raw records after a ChunkHeader) so the receive side
  // decodes it exactly like a streamed chunk, just in place.
  std::vector<std::vector<std::byte>> frames(static_cast<std::size_t>(p));
  touched.for_each([&](std::size_t lid) {
    const graph::VertexId gid = gid_of(lid);
    const int owner = g_.owner_of(gid);
    if (owner == me) return;
    auto& f = frames[static_cast<std::size_t>(owner)];
    if (f.empty()) f.resize(comm::kChunkHeaderBytes);
    const std::size_t off = f.size();
    f.resize(off + rec);
    const T value = value_of(lid);
    std::memcpy(f.data() + off, &gid, sizeof(gid));
    std::memcpy(f.data() + off + sizeof(gid), &value, sizeof(T));
  });
  for (int dst = 0; dst < p; ++dst) {
    auto& f = frames[static_cast<std::size_t>(dst)];
    if (dst == me || f.empty()) continue;
    comm::DirectRegion region;
    if (!cluster_.direct_directory().lookup(dst, me, kGeminiPatternKey,
                                            region) ||
        f.size() > region.capacity)
      continue;  // no region published (yet) or oversized: stream instead
    comm::ChunkHeader header;
    header.phase_id = round_counter_;
    header.payload_bytes =
        static_cast<std::uint32_t>(f.size() - comm::kChunkHeaderBytes);
    header.base_pos = 0;
    header.span = 0;
    header.chunk_idx = 0;
    header.num_chunks = 0;  // data chunk: the tail carries the totals
    header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
    header.finalize();
    std::memcpy(f.data(), &header, sizeof(header));
    bool ok = false;
    rt::Backoff backoff;
    for (;;) {
      const comm::DirectPutStatus st = comm_->direct_put(
          dst, region, f.data(), f.size(), round_counter_, kGeminiPatternKey);
      if (st == comm::DirectPutStatus::Ok) {
        ok = true;
        break;
      }
      if (st == comm::DirectPutStatus::Unavailable || aborting()) break;
      comm_->progress();  // Retry: transient resource exhaustion
      backoff.pause();
    }
    if (!ok) continue;
    direct_sent_[static_cast<std::size_t>(dst)] = 1;
    direct_skip_[static_cast<std::size_t>(dst)] = 1;
    stats_.direct_sends.fetch_add(1, std::memory_order_relaxed);
    stats_.messages.fetch_add(1, std::memory_order_relaxed);
    stats_.bytes.fetch_add(f.size(), std::memory_order_relaxed);
  }
}

template <typename T>
bool GeminiHost::drain_one_typed(
    const std::function<void(graph::VertexId, const T&)>& apply) {
  // Prefer published work: another thread already paid the recv cost.
  if (auto queued = apply_queue_.try_pop()) {
    apply_chunk_typed<T>(*queued, apply);
    return true;
  }

  // Direct-put signals (DESIGN.md §15): the payload already sits in our
  // registered region; decode/apply in place, zero-copy. The validation
  // ladder drops anything not addressed to the live registration for the
  // current round - a stale put is not in any live ledger, so dropping it
  // cannot deadlock round completion. Rounds are separated by the OOB
  // allreduce, so a peer can never be a round ahead of us here; phase
  // mismatches only arise from retransmissions of already-counted puts.
  comm::DirectSignal sig;
  while (comm_->poll_direct(sig)) {
    if (sig.pattern_key != kGeminiPatternKey) continue;
    const auto s = static_cast<std::size_t>(sig.src);
    if (s >= direct_homes_.size()) continue;
    const DirectHome& home = direct_homes_[s];
    if (!home.region.valid() || sig.generation != home.region.generation ||
        sig.phase_id != round_.round_id ||
        sig.bytes < comm::kChunkHeaderBytes ||
        sig.bytes > home.region.capacity)
      continue;
    comm::InMessage m;
    m.src = sig.src;
    m.data = home.buf.get();
    m.size = sig.bytes;
    const comm::ChunkHeader header = m.header();
    constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
    if (header.phase_id == round_.round_id &&
        comm::kChunkHeaderBytes + header.payload_bytes == sig.bytes) {
      const std::byte* p = m.payload();
      for (std::size_t off = 0; off + rec <= header.payload_bytes;
           off += rec) {
        graph::VertexId gid;
        T value;
        std::memcpy(&gid, p + off, sizeof(gid));
        std::memcpy(&value, p + off + sizeof(gid), sizeof(T));
        apply(gid, value);
      }
    }
    // Generation and round matched: this is a live put, count it even if the
    // frame failed to parse (the ledger must balance or the round hangs).
    round_.note_direct(sig.src);
    return true;
  }

  comm::InMessage msg;
  bool have = false;
  {
    std::lock_guard<rt::Spinlock> guard(stash_lock_);
    if (!stash_.empty() &&
        stash_.front().header().phase_id == round_.round_id) {
      msg = std::move(stash_.front());
      stash_.pop_front();
      have = true;
    }
  }
  if (!have) have = comm_->try_recv(msg);
  if (!have && cfg_.comm == CommKind::Lci) {
    // Nothing pending: lend this thread to the LCI server for one progress
    // step (Queue::progress is thread-safe) and look again. On the paper's
    // clusters the server owns a core and this never helps; here the
    // polling thread would otherwise spin waiting for the server to be
    // scheduled. Not on MPI, where it would add a second global-lock
    // iprobe to every empty poll.
    comm_->progress();
    have = comm_->try_recv(msg);
  }
  if (!have) return false;

  if (msg.header().phase_id != round_.round_id) {
    // A peer raced ahead into the next round (it can be at most one ahead).
    std::lock_guard<rt::Spinlock> guard(stash_lock_);
    stash_.push_back(std::move(msg));
    return true;
  }
  // Hand the chunk to the shared apply queue so the decode/apply work spreads
  // across every draining thread; apply inline only when the queue is full
  // (applying is the very thing that makes room).
  auto* m = new comm::InMessage(std::move(msg));
  if (!apply_queue_.try_push(m)) apply_chunk_typed<T>(m, apply);
  return true;
}

template <typename T>
void GeminiHost::stream_round(
    const std::function<void(
        std::size_t tid,
        const std::function<void(graph::VertexId, const T&)>& emit)>& produce,
    const std::function<void(graph::VertexId, const T&)>& apply) {
  const int p = g_.num_hosts;
  const int me = g_.host_id;
  round_.arm(round_counter_, p);
  for (auto& c : chunks_sent_) c->store(0, std::memory_order_relaxed);

  constexpr std::size_t rec = sizeof(graph::VertexId) + sizeof(T);
  // Cap batches at the backend's chunk size (0 = no preference) so leased
  // LCI chunks fit one eager packet and stay zero-copy end to end.
  const std::size_t pref = comm_->chunk_bytes();
  std::size_t batch = std::max<std::size_t>(rec, cfg_.batch_bytes);
  if (pref > comm::kChunkHeaderBytes + rec)
    batch = std::min(batch, pref - comm::kChunkHeaderBytes);

  std::atomic<std::size_t> producers_left{team_->size()};
  std::atomic<std::uint64_t> produce_end_ns{0};
  const std::uint64_t bytes_before =
      stats_.bytes.load(std::memory_order_relaxed);
  const std::uint64_t round_start_ns = rt::now_ns();

  team_->run([&](std::size_t tid) {
    // Per-destination open lease: records are serialized directly into the
    // leased send buffer (header space reserved at the front), so shipping
    // writes the header in place and commits - no intermediate copy.
    struct Open {
      comm::BufferLease lease;
      std::size_t bytes = 0;  // payload bytes written past the header
    };
    std::vector<Open> open(static_cast<std::size_t>(p));
    auto drain = [&]() -> bool { return drain_one_typed<T>(apply); };
    auto ship = [&](int dst) {
      Open& o = open[static_cast<std::size_t>(dst)];
      if (o.bytes == 0) {
        if (o.lease) comm_->abandon(o.lease);
        return;
      }
      const std::uint32_t ord = chunks_sent_[static_cast<std::size_t>(dst)]
                                    ->fetch_add(1, std::memory_order_acq_rel);
      comm::ChunkHeader header;
      header.phase_id = round_.round_id;
      header.payload_bytes = static_cast<std::uint32_t>(o.bytes);
      header.chunk_idx = 0;   // scatter is order-free
      header.num_chunks = 0;  // streaming: total only known at the tail
      header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
      // Causal-trace sampling: gemini chunks have no shared-list position,
      // so the per-destination chunk ordinal identifies the message. Must
      // precede finalize() (the self-check covers the trace fields).
      header.trace_id = telemetry::sample_trace_id(
          static_cast<std::uint32_t>(me), round_.round_id,
          (static_cast<std::uint32_t>(dst) << 16) | (ord & 0xFFFF));
      header.finalize();
      std::memcpy(o.lease.data, &header, sizeof(header));
      const std::size_t total = comm::kChunkHeaderBytes + o.bytes;
      o.bytes = 0;
      if (telemetry::enabled() && header.trace_id != 0) {
        char hbuf[64];
        std::snprintf(hbuf, sizeof(hbuf), "{\"dst\":%d,\"bytes\":%zu}", dst,
                      total);
        telemetry::hop("encode", static_cast<std::uint32_t>(me),
                       header.trace_id, 0, hbuf);
        telemetry::hop("commit", static_cast<std::uint32_t>(me),
                       header.trace_id, 0);
      }
      stats_.messages.fetch_add(1, std::memory_order_relaxed);
      stats_.bytes.fetch_add(total, std::memory_order_relaxed);
      if (cfg_.tracker != nullptr) cfg_.tracker->on_alloc(total);
      rt::Backoff backoff;
      while (!comm_->commit(dst, o.lease, total)) {
        if (aborting()) {
          comm_->abandon(o.lease);
          if (cfg_.tracker != nullptr) cfg_.tracker->on_free(total);
          return;
        }
        // Relieve back pressure by consuming incoming records; only back off
        // when there was nothing to drain.
        if (drain())
          backoff.reset();
        else
          backoff.pause();
      }
    };
    auto emit = [&](graph::VertexId gid, const T& value) {
      const int owner = g_.owner_of(gid);
      if (owner == me) {
        apply(gid, value);
        return;
      }
      Open& o = open[static_cast<std::size_t>(owner)];
      for (;;) {
        if (!o.lease) {
          o.lease = comm_->acquire(owner, comm::kChunkHeaderBytes + batch);
          o.bytes = 0;
        }
        const std::size_t cap =
            std::min(o.lease.capacity, comm::kChunkHeaderBytes + batch);
        if (comm::kChunkHeaderBytes + o.bytes + rec <= cap) break;
        ship(owner);  // full: ship and re-acquire
      }
      std::byte* at = o.lease.data + comm::kChunkHeaderBytes + o.bytes;
      std::memcpy(at, &gid, sizeof(gid));
      std::memcpy(at + sizeof(gid), &value, sizeof(T));
      o.bytes += rec;
    };

    produce(tid, emit);
    for (int dst = 0; dst < p; ++dst)
      if (dst != me) ship(dst);
    if (producers_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
      produce_end_ns.store(rt::now_ns(), std::memory_order_release);

    // Thread 0 emits the tail chunks once every producer finished, telling
    // each peer how many chunks to expect from us this round.
    if (tid == 0) {
      rt::Backoff wait_backoff;
      while (producers_left.load(std::memory_order_acquire) != 0) {
        if (drain())
          wait_backoff.reset();
        else
          wait_backoff.pause();
      }
      for (int dst = 0; dst < p; ++dst) {
        if (dst == me) continue;
        const std::uint32_t sent =
            chunks_sent_[static_cast<std::size_t>(dst)]->load(
                std::memory_order_acquire);
        std::vector<std::byte> tail(comm::kChunkHeaderBytes);
        comm::ChunkHeader header;
        header.phase_id = round_.round_id;
        header.chunk_idx = 0;
        header.num_chunks = static_cast<std::uint16_t>(sent + 1);  // + tail
        header.payload_bytes = 0;
        // Direct-put ledger: the tail reuses base_pos to announce how many
        // direct puts this host issued to dst this round (DESIGN.md §15).
        header.base_pos = direct_sent_[static_cast<std::size_t>(dst)];
        header.format = static_cast<std::uint8_t>(comm::WireFormat::Raw);
        header.finalize();
        std::memcpy(tail.data(), &header, sizeof(header));
        stats_.messages.fetch_add(1, std::memory_order_relaxed);
        stats_.bytes.fetch_add(tail.size(), std::memory_order_relaxed);
        send_with_backpressure(dst, tail, drain);
      }
    }

    rt::Backoff backoff;
    while (!round_.complete.load(std::memory_order_acquire)) {
      // A dead peer's chunks never arrive: unwind instead of spinning.
      if (aborting()) break;
      if (drain_one_typed<T>(apply))
        backoff.reset();
      else
        backoff.pause();
    }
  });

  // Direct-round scratch is consumed (tails sent, producers done): reset so
  // a following sparse round doesn't inherit stale skip/count state.
  direct_sent_.assign(direct_sent_.size(), 0);
  direct_skip_.assign(direct_skip_.size(), 0);

  const std::uint64_t round_end_ns = rt::now_ns();
  const std::uint64_t mid = produce_end_ns.load(std::memory_order_acquire);
  stats_.compute_s += static_cast<double>(mid - round_start_ns) * 1e-9;
  stats_.comm_s += static_cast<double>(round_end_ns - mid) * 1e-9;
  if (telemetry::enabled()) {
    // Manufactured after the fact so the spans match the compute_s/comm_s
    // attribution exactly (the produce/drain boundary is the last producer's
    // finish time, unknowable to a RAII scope).
    const auto host = static_cast<std::uint32_t>(me);
    telemetry::emit_complete("gemini", "produce", host, round_start_ns,
                             mid - round_start_ns);
    telemetry::emit_complete("gemini", "drain", host, mid,
                             round_end_ns - mid);
  }
  // Health-monitor report: one (duration, bytes) sample per host per round,
  // piggybacked on the round completion just synchronized on.
  cluster_.health().note_phase(
      static_cast<std::uint32_t>(me), round_.round_id,
      round_end_ns - round_start_ns,
      stats_.bytes.load(std::memory_order_relaxed) - bytes_before);

  ++round_counter_;
  stats_.rounds++;
}

template <typename Traits>
std::vector<typename Traits::Label> GeminiHost::run_push(
    graph::VertexId source, rt::RecoveryCtx* rec) {
  using Label = typename Traits::Label;
  const graph::VertexId mlo =
      g_.master_bounds[static_cast<std::size_t>(g_.host_id)];
  const std::size_t n_masters = g_.num_masters;
  const std::size_t n_local = g_.num_local;

  std::vector<Label> labels(n_masters);
  rt::ConcurrentBitset active(n_masters);
  rt::ConcurrentBitset frontier(n_masters);

  // Dense-mode scratch: per-destination combined candidates.
  std::vector<Label> combined(n_local, Traits::kInf);
  rt::ConcurrentBitset touched(n_local);

  for (std::size_t i = 0; i < n_masters; ++i) {
    const graph::VertexId gid = mlo + static_cast<graph::VertexId>(i);
    labels[i] = Traits::init_label(gid, source);
    if (Traits::init_active(gid, source) && g_.out_edges.degree(i) > 0)
      active.set(i);
  }

  std::function<void(graph::VertexId, const Label&)> apply =
      [&](graph::VertexId gid, const Label& value) {
        const std::size_t i = gid - mlo;
        if (apps::atomic_min(labels[i], value) &&
            g_.out_edges.degree(i) > 0)
          active.set(i);
      };

  // Checkpoint: master labels + active set (the dense scratch is reset at
  // the end of every round).
  apps::RoundLoop loop(cluster_, g_.host_id, stats_.compute_s, rec, "gemini");
  loop.checkpoint(labels);
  loop.checkpoint(active);
  loop.run([&] {
    frontier.clear_all();
    active.for_each([&](std::size_t i) { frontier.set(i); });
    const std::size_t frontier_size = frontier.count_range(0, n_masters);
    active.clear_all();

    const bool dense =
        static_cast<double>(frontier_size) >
        cfg_.dense_threshold * static_cast<double>(n_masters);

    if (!dense) {
      // Sparse signal mode: one record per frontier out-edge.
      stats_.sparse_rounds++;
      std::atomic<std::size_t> cursor{0};
      stream_round<Label>(
          [&](std::size_t, const std::function<void(graph::VertexId,
                                                    const Label&)>& emit) {
            constexpr std::size_t kGrain = 256;
            for (;;) {
              const std::size_t lo =
                  cursor.fetch_add(kGrain, std::memory_order_relaxed);
              if (lo >= n_masters) break;
              const std::size_t hi = std::min(n_masters, lo + kGrain);
              frontier.for_each_in_range(lo, hi, [&](std::size_t i) {
                // Drain threads may atomic_min this label concurrently.
                const Label src_label = std::atomic_ref<Label>(labels[i]).load(
                    std::memory_order_relaxed);
                g_.out_edges.for_each_edge(
                    static_cast<graph::VertexId>(i),
                    [&](graph::VertexId dst_lid, graph::Weight w) {
                      const Label cand = Traits::relax(src_label, w);
                      if (cand == Traits::kInf) return;
                      emit(gid_of(dst_lid), cand);
                    });
              });
            }
          },
          apply);
    } else {
      // Dense mode: pre-combine all candidates per destination locally,
      // then signal each destination once (Gemini's aggregated slot path).
      stats_.dense_rounds++;
      loop.compute([&] {
        team_->parallel_chunks(
            0, n_masters, [&](std::size_t lo, std::size_t hi, std::size_t) {
              frontier.for_each_in_range(lo, hi, [&](std::size_t i) {
                const Label src_label = labels[i];
                g_.out_edges.for_each_edge(
                    static_cast<graph::VertexId>(i),
                    [&](graph::VertexId dst_lid, graph::Weight w) {
                      const Label cand = Traits::relax(src_label, w);
                      if (cand == Traits::kInf) return;
                      if (apps::atomic_min(combined[dst_lid], cand))
                        touched.set(dst_lid);
                    });
              });
            });
      });
      // Direct-write fan-out (DESIGN.md §15): ship each peer's combined
      // frame as one one-sided put; peers it reached are skipped by the
      // streaming producers below (direct_skip_), the rest stream as usual.
      direct_put_dense<Label>(
          touched, [&](std::size_t dst) { return combined[dst]; });
      std::atomic<std::size_t> cursor{0};
      stream_round<Label>(
          [&](std::size_t, const std::function<void(graph::VertexId,
                                                    const Label&)>& emit) {
            constexpr std::size_t kGrain = 512;
            for (;;) {
              const std::size_t lo =
                  cursor.fetch_add(kGrain, std::memory_order_relaxed);
              if (lo >= n_local) break;
              const std::size_t hi = std::min(n_local, lo + kGrain);
              touched.for_each_in_range(lo, hi, [&](std::size_t dst) {
                const graph::VertexId gid = gid_of(dst);
                const auto owner = static_cast<std::size_t>(g_.owner_of(gid));
                if (direct_skip_[owner] != 0) return;  // already put
                emit(gid, combined[dst]);
              });
            }
          },
          apply);
      // Reset only the touched scratch entries.
      touched.for_each([&](std::size_t dst) { combined[dst] = Traits::kInf; });
      touched.clear_all();
    }

    return cluster_.oob_allreduce_sum(
               static_cast<std::uint64_t>(active.count())) != 0;
  });
  return labels;
}

}  // namespace lcr::gemini
