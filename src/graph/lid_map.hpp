// Compressed local-id maps and sync plans (DESIGN.md §17).
//
// The Gemini-style partition layout makes every per-host lid structure a
// strictly increasing u32 sequence: masters are the contiguous gid block
// [mlo, mlo + num_masters) mapped to local ids [0, num_masters) in order,
// mirrors are sorted by gid, and the memoized per-peer sync lists enumerate
// lids in increasing order on both sides of every (host, peer) pair. So
// instead of materializing an l2g vector, a g2l hash map, and
// vector<vector<VertexId>> plan lists (28+ bytes per local proxy at scale),
// everything non-arithmetic is stored as ONE representation:
//
//   delta-varint chunks - the sequence is cut into fixed spans of
//   kLidChunkSpan entries; each chunk stores its first value uncompressed
//   in an anchor array plus LEB128-encoded (delta - 1) gaps for the rest
//   (strict monotonicity guarantees gap >= 1). Typical cost: ~1-2 bytes
//   per entry plus 8 bytes per chunk of anchor/offset overhead.
//
// Lookups:
//   * master g2l / l2g     - pure arithmetic (gid - mlo / mlo + lid).
//   * mirror g2l           - binary search over the anchors, then a scan of
//                            one decoded chunk (<= kLidChunkSpan entries).
//   * mirror l2g           - O(1) anchor pick + one chunk decode into a
//                            stack buffer (arithmetic for run chunks).
//   * plan iteration       - streaming visit() for gathers, a PlanCursor
//                            (one decoded chunk of state) for scatters.
//
// There is no decode cache: every lookup decodes at most one chunk into the
// caller's stack. Random mirror l2g is therefore too slow for a per-edge hot
// loop - on kron 17 over 2 hosts each host's ~29.5k mirrors fill ~460 chunks,
// none of them runs, so nearly every remote edge decoded a full 64-entry
// chunk. Gemini's record producers keep their own flat mirror-gid table
// (4 B per mirror, gemini/engine.hpp) for that; everything else here walks
// sequentially (visit / PlanCursor) or looks up once per vertex.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "runtime/varint.hpp"

namespace lcr::graph {

/// Entries per delta chunk. 64 keeps the in-chunk scan short (one cache
/// line of anchors covers 1k entries) while amortizing the 8-byte
/// anchor+offset overhead to 0.125 bytes/entry.
inline constexpr std::uint32_t kLidChunkSpan = 64;

namespace detail {

/// Delta-varint-encoded strictly increasing VertexId sequence in fixed
/// kLidChunkSpan-entry chunks: the single representation behind both the
/// mirror gid segment of CompressedLidMap and every CompressedPlan list.
class DeltaChunks {
 public:
  class Builder {
   public:
    /// Appends the next value; must be strictly greater than the last.
    void append(VertexId v) {
      assert(count_ == 0 || v > prev_);
      prev_ = v;
      pend_[pend_n_++] = v;
      ++count_;
      if (pend_n_ == kLidChunkSpan) flush_chunk();
    }

    std::uint32_t size() const noexcept { return count_; }

    DeltaChunks build() && {
      flush_chunk();
      DeltaChunks c;
      c.count_ = count_;
      c.anchors_ = std::move(anchors_);
      c.chunk_off_ = std::move(chunk_off_);
      c.run_ = std::move(run_);
      c.bytes_ = std::move(bytes_);
      c.anchors_.shrink_to_fit();
      c.chunk_off_.shrink_to_fit();
      c.run_.shrink_to_fit();
      c.bytes_.shrink_to_fit();
      return c;
    }

   private:
    /// Chunks are encoded whole so a run chunk - every delta exactly 1,
    /// i.e. kLidChunkSpan consecutive values - can skip the byte stream
    /// entirely: the anchor alone reconstructs it arithmetically. Runs
    /// dominate dense mirror segments and plan lists, so this is both the
    /// decode fast path and a size win.
    void flush_chunk() {
      if (pend_n_ == 0) return;
      anchors_.push_back(pend_[0]);
      chunk_off_.push_back(static_cast<std::uint32_t>(bytes_.size()));
      bool run = true;
      for (std::uint32_t i = 1; i < pend_n_; ++i)
        if (pend_[i] != pend_[i - 1] + 1) {
          run = false;
          break;
        }
      run_.push_back(run ? 1 : 0);
      if (!run) {
        for (std::uint32_t i = 1; i < pend_n_; ++i) {
          std::byte buf[5];
          const std::size_t n =
              rt::put_varint(buf, pend_[i] - pend_[i - 1] - 1);
          bytes_.insert(bytes_.end(), buf, buf + n);
        }
      }
      pend_n_ = 0;
    }

    std::uint32_t count_ = 0;
    VertexId prev_ = 0;
    std::uint32_t pend_n_ = 0;
    VertexId pend_[kLidChunkSpan];
    std::vector<VertexId> anchors_;
    std::vector<std::uint32_t> chunk_off_;
    std::vector<std::uint8_t> run_;
    std::vector<std::byte> bytes_;
  };

  std::uint32_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Decodes chunk `chunk` into out[0..len); returns len (<= kLidChunkSpan).
  std::uint32_t decode_chunk(std::uint32_t chunk, VertexId* out) const {
    const std::uint32_t base = chunk * kLidChunkSpan;
    const std::uint32_t len = std::min(kLidChunkSpan, count_ - base);
    const VertexId a = anchors_[chunk];
    if (run_[chunk] != 0) {
      for (std::uint32_t i = 0; i < len; ++i) out[i] = a + i;
      return len;
    }
    VertexId v = a;
    out[0] = v;
    std::size_t off = chunk_off_[chunk];
    const std::size_t end = chunk + 1 < chunk_off_.size()
                                ? chunk_off_[chunk + 1]
                                : bytes_.size();
    if (end - off == len - 1) {
      // Every delta fits one varint byte: skip the continuation-bit loop.
      const std::byte* b = bytes_.data() + off;
      for (std::uint32_t i = 1; i < len; ++i) {
        v += static_cast<std::uint32_t>(b[i - 1]) + 1;
        out[i] = v;
      }
      return len;
    }
    for (std::uint32_t i = 1; i < len; ++i) {
      std::uint32_t delta = 0;
      const bool ok = rt::get_varint(bytes_.data(), end, off, delta);
      assert(ok);
      (void)ok;
      v += delta + 1;
      out[i] = v;
    }
    return len;
  }

  /// Random access: arithmetic for run chunks, otherwise one chunk decode
  /// into a stack buffer.
  VertexId at(std::uint32_t idx) const {
    const std::uint32_t chunk = idx / kLidChunkSpan;
    if (run_[chunk] != 0) return anchors_[chunk] + idx % kLidChunkSpan;
    VertexId buf[kLidChunkSpan];
    decode_chunk(chunk, buf);
    return buf[idx % kLidChunkSpan];
  }

  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};

  /// Index of `value` in the sequence, or kNotFound. Binary search over the
  /// anchors, then binary search inside one decoded chunk.
  std::uint32_t find(VertexId value) const {
    if (count_ == 0 || value < anchors_[0]) return kNotFound;
    const auto it =
        std::upper_bound(anchors_.begin(), anchors_.end(), value);
    const auto chunk =
        static_cast<std::uint32_t>(it - anchors_.begin()) - 1;
    if (run_[chunk] != 0) {
      const std::uint32_t base = chunk * kLidChunkSpan;
      const std::uint32_t len = std::min(kLidChunkSpan, count_ - base);
      const VertexId off = value - anchors_[chunk];  // >= 0 by upper_bound
      return off < len ? base + off : kNotFound;
    }
    VertexId buf[kLidChunkSpan];
    const VertexId* lo = buf;
    const VertexId* hi = buf + decode_chunk(chunk, buf);
    const VertexId* pos = std::lower_bound(lo, hi, value);
    if (pos == hi || *pos != value) return kNotFound;
    return chunk * kLidChunkSpan + static_cast<std::uint32_t>(pos - lo);
  }

  /// Streaming decode of index range [lo, hi): fn(index, value), one stack
  /// buffer decode per chunk.
  template <typename Fn>
  void visit(std::uint32_t lo, std::uint32_t hi, Fn&& fn) const {
    if (lo >= hi) return;
    VertexId buf[kLidChunkSpan];
    for (std::uint32_t c = lo / kLidChunkSpan; c * kLidChunkSpan < hi; ++c) {
      const std::uint32_t base = c * kLidChunkSpan;
      if (run_[c] != 0) {
        const std::uint32_t len = std::min(kLidChunkSpan, count_ - base);
        const VertexId a = anchors_[c];
        const std::uint32_t b = std::max(lo, base);
        const std::uint32_t e = std::min(hi, base + len);
        for (std::uint32_t i = b; i < e; ++i) fn(i, a + (i - base));
        continue;
      }
      const std::uint32_t len = decode_chunk(c, buf);
      const std::uint32_t b = std::max(lo, base);
      const std::uint32_t e = std::min(hi, base + len);
      for (std::uint32_t i = b; i < e; ++i) fn(i, buf[i - base]);
    }
  }

  /// Heap bytes of the compressed representation.
  std::size_t mem_bytes() const noexcept {
    return anchors_.capacity() * sizeof(VertexId) +
           chunk_off_.capacity() * sizeof(std::uint32_t) +
           run_.capacity() * sizeof(std::uint8_t) + bytes_.capacity();
  }

 private:
  std::uint32_t count_ = 0;
  std::vector<VertexId> anchors_;     ///< first value of each chunk
  std::vector<std::uint32_t> chunk_off_;  ///< byte offset of each chunk's deltas
  std::vector<std::uint8_t> run_;     ///< 1 = pure run chunk, no delta bytes
  std::vector<std::byte> bytes_;      ///< LEB128 (delta - 1) stream
};

}  // namespace detail

// ---------------------------------------------------------------------------
// CompressedLidMap: the host's entire l2g/g2l in arithmetic + delta chunks
// ---------------------------------------------------------------------------

class CompressedLidMap {
 public:
  static constexpr VertexId kNoLocal = ~VertexId{0};

  /// Build order: masters are implicit (the [mlo, mlo + num_masters) block);
  /// mirror gids are appended in strictly increasing order, matching the
  /// partitioner's sorted mirror collection.
  class Builder {
   public:
    Builder() = default;
    Builder(VertexId master_lo, VertexId num_masters)
        : master_lo_(master_lo), num_masters_(num_masters) {}

    void add_mirror(VertexId gid) {
      assert(gid < master_lo_ || gid >= master_lo_ + num_masters_);
      mirrors_.append(gid);
    }

    CompressedLidMap build() && {
      CompressedLidMap m;
      m.master_lo_ = master_lo_;
      m.num_masters_ = num_masters_;
      m.mirrors_ = std::move(mirrors_).build();
      return m;
    }

   private:
    VertexId master_lo_ = 0;
    VertexId num_masters_ = 0;
    detail::DeltaChunks::Builder mirrors_;
  };

  CompressedLidMap() = default;

  VertexId master_lo() const noexcept { return master_lo_; }
  VertexId num_masters() const noexcept { return num_masters_; }
  VertexId num_mirrors() const noexcept { return mirrors_.size(); }
  VertexId num_local() const noexcept { return num_masters_ + mirrors_.size(); }

  /// Local id of a global vertex, or kNoLocal if absent on this host.
  VertexId global_to_local(VertexId gid) const {
    // Master block: pure arithmetic, no search and no hashing.
    if (gid >= master_lo_ && gid - master_lo_ < num_masters_)
      return gid - master_lo_;
    const std::uint32_t idx = mirrors_.find(gid);
    return idx == detail::DeltaChunks::kNotFound ? kNoLocal
                                                 : num_masters_ + idx;
  }

  /// Global id of a local proxy.
  VertexId local_to_global(VertexId lid) const {
    if (lid < num_masters_) return master_lo_ + lid;
    return mirrors_.at(lid - num_masters_);
  }

  /// Streaming walk of the mirror segment: fn(lid, gid) in lid order.
  template <typename Fn>
  void visit_mirrors(Fn&& fn) const {
    const VertexId nm = num_masters_;
    mirrors_.visit(0, mirrors_.size(), [&](std::uint32_t idx, VertexId gid) {
      fn(nm + idx, gid);
    });
  }

  /// Heap bytes of the compressed map.
  std::size_t mem_bytes() const noexcept { return mirrors_.mem_bytes(); }

  /// What the seed representation cost for the same contents: an l2g
  /// vector (4 B per proxy) plus an unordered_map g2l - per entry one hash
  /// node (next pointer + key/value pair, 16 B on LP64 libstdc++) plus a
  /// bucket pointer at load factor 1.
  std::size_t mem_bytes_uncompressed() const noexcept {
    const std::size_t n = num_local();
    return n * sizeof(VertexId) +                       // l2g
           n * (sizeof(void*) + 2 * sizeof(VertexId)) +  // g2l hash nodes
           n * sizeof(void*);                           // g2l buckets
  }

 private:
  VertexId master_lo_ = 0;
  VertexId num_masters_ = 0;
  detail::DeltaChunks mirrors_;
};

// ---------------------------------------------------------------------------
// CompressedPlan: the memoized per-peer sync lists in the same encoding
// ---------------------------------------------------------------------------

/// View of one peer's plan list. Cheap to copy; valid while the owning
/// CompressedPlan lives.
class PlanSpan {
 public:
  PlanSpan() = default;
  explicit PlanSpan(const detail::DeltaChunks* chunks) : chunks_(chunks) {}

  std::uint32_t size() const noexcept {
    return chunks_ == nullptr ? 0 : chunks_->size();
  }
  bool empty() const noexcept { return size() == 0; }

  /// Streaming decode of positions [lo, hi): fn(pos, lid). This is the
  /// gather-side iteration contract (comm::encode_dirty_range).
  template <typename Fn>
  void visit(std::uint32_t lo, std::uint32_t hi, Fn&& fn) const {
    if (chunks_ != nullptr) chunks_->visit(lo, hi, fn);
  }

  const detail::DeltaChunks* chunks() const noexcept { return chunks_; }

 private:
  const detail::DeltaChunks* chunks_ = nullptr;
};

/// Scatter-side cursor: one decoded chunk of private state, so concurrent
/// apply slices of the same plan never share mutable data. at(pos) accepts
/// any position but is O(1) amortized for the monotone position streams the
/// decode path produces (record positions are strictly increasing within a
/// slice).
class PlanCursor {
 public:
  explicit PlanCursor(PlanSpan span) : chunks_(span.chunks()) {}

  VertexId at(std::uint32_t pos) {
    const std::uint32_t chunk = pos / kLidChunkSpan;
    if (chunk != chunk_) {
      chunk_ = chunk;
      len_ = chunks_->decode_chunk(chunk, buf_);
    }
    assert(pos % kLidChunkSpan < len_);
    return buf_[pos % kLidChunkSpan];
  }

 private:
  const detail::DeltaChunks* chunks_ = nullptr;
  std::uint32_t chunk_ = ~std::uint32_t{0};
  std::uint32_t len_ = 0;
  VertexId buf_[kLidChunkSpan];
};

/// All per-peer sync lists of one direction (mirror_to_master or
/// master_to_mirror), delta-chunked. Replaces vector<vector<VertexId>>.
class CompressedPlan {
 public:
  class Builder {
   public:
    Builder() = default;
    explicit Builder(int num_peers)
        : peers_(static_cast<std::size_t>(num_peers)) {}

    /// Appends `lid` to peer `peer`'s list; per-peer lids must be strictly
    /// increasing (the partitioner's gid-sorted construction guarantees it).
    void append(int peer, VertexId lid) {
      peers_[static_cast<std::size_t>(peer)].append(lid);
    }

    CompressedPlan build() && {
      CompressedPlan p;
      p.peers_.reserve(peers_.size());
      for (auto& b : peers_) p.peers_.push_back(std::move(b).build());
      return p;
    }

   private:
    std::vector<detail::DeltaChunks::Builder> peers_;
  };

  CompressedPlan() = default;

  int num_peers() const noexcept { return static_cast<int>(peers_.size()); }

  std::uint32_t size(int peer) const noexcept {
    return peers_[static_cast<std::size_t>(peer)].size();
  }
  bool empty(int peer) const noexcept { return size(peer) == 0; }

  PlanSpan span(int peer) const noexcept {
    return PlanSpan(&peers_[static_cast<std::size_t>(peer)]);
  }

  /// Total entries across all peers.
  std::uint64_t total_entries() const noexcept {
    std::uint64_t n = 0;
    for (const auto& p : peers_) n += p.size();
    return n;
  }

  /// Heap bytes of the compressed plan (all peers).
  std::size_t mem_bytes() const noexcept {
    std::size_t n = peers_.capacity() * sizeof(detail::DeltaChunks);
    for (const auto& p : peers_) n += p.mem_bytes();
    return n;
  }

  /// Seed-representation cost: one vector<VertexId> per peer (3-pointer
  /// header + 4 B per entry).
  std::size_t mem_bytes_uncompressed() const noexcept {
    std::size_t n = peers_.size() * 3 * sizeof(void*);
    for (const auto& p : peers_) n += p.size() * sizeof(VertexId);
    return n;
  }

 private:
  std::vector<detail::DeltaChunks> peers_;
};

}  // namespace lcr::graph
