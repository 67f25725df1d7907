// Gather/scatter record serialization for proxy synchronization.
//
// A sync payload names which entries of the memoized shared vertex list
// changed this round and their new label values - the paper's "minimizes the
// communication meta-data while synchronizing only the updated labels": no
// global ids travel. Three adaptive encodings trade meta-data bytes against
// dirty density (DESIGN.md §11), chosen per message from the range popcount
// and tagged in the chunk header:
//
//   Sparse  [u32 rel_pos][value]...            4+sizeof(T) bytes/record
//   Varint  [varint pos_delta][value]...       1..5+sizeof(T) bytes/record
//   Dense   [span-bit bitmap][packed values]   span/8 + count*sizeof(T) total
//           (bitmap elided entirely when every position is dirty -
//            header flag kFlagDenseFull)
//
// Positions on the wire are relative to the header's base_pos so chunk
// ranges partition freely. encode_dirty_range() serializes straight into
// caller-provided memory (a backend BufferLease) - no intermediate vector.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "comm/message.hpp"
#include "graph/csr.hpp"
#include "runtime/bitset.hpp"
#include "runtime/ult.hpp"
#include "runtime/varint.hpp"

namespace lcr::comm {

namespace detail {

/// Uniform iteration over a shared vertex list: fn(pos, lid) for pos in
/// [lo, hi). A plain vector indexes directly; the compressed sync plans
/// (graph::PlanSpan, DESIGN.md §17) stream through their chunked decoder -
/// either way the encode paths below never materialize the list.
template <typename Shared, typename Fn>
void for_each_shared(const Shared& shared, std::uint32_t lo, std::uint32_t hi,
                     Fn&& fn) {
  if constexpr (requires { shared.visit(lo, hi, fn); }) {
    shared.visit(lo, hi, fn);
  } else {
    for (std::uint32_t pos = lo; pos < hi; ++pos) fn(pos, shared[pos]);
  }
}

/// Encoder spill scratch for the in-place format-upgrade pass, keyed by
/// execution context: one buffer per OS thread, or per fiber under the ULT
/// host scheduler, so compute fibers of different simulated hosts
/// multiplexed onto one worker never share (or cross-account) scratch
/// (DESIGN.md §16 re-keying rule).
inline std::vector<std::byte>& encode_scratch() {
  if (ult::on_fiber()) {
    static const int slot = ult::fls_alloc(
        [](void* p) { delete static_cast<std::vector<std::byte>*>(p); });
    auto* v = static_cast<std::vector<std::byte>*>(ult::fls_get(slot));
    if (v == nullptr) {
      v = new std::vector<std::byte>();
      ult::fls_set(slot, v);
    }
    return *v;
  }
  static thread_local std::vector<std::byte> scratch;
  return scratch;
}

}  // namespace detail

template <typename T>
constexpr std::size_t record_bytes() {
  return sizeof(std::uint32_t) + sizeof(T);
}

// ---------------------------------------------------------------------------
// Adaptive formats
// ---------------------------------------------------------------------------

/// Dirty popcount of shared-list range [lo, hi) - exact reservation sizing.
template <typename Shared>
std::size_t count_dirty(const Shared& shared, const rt::ConcurrentBitset& dirty,
                        std::size_t lo, std::size_t hi) {
  std::size_t count = 0;
  detail::for_each_shared(shared, static_cast<std::uint32_t>(lo),
                          static_cast<std::uint32_t>(hi),
                          [&](std::uint32_t, graph::VertexId lid) {
                            if (dirty.test(lid)) ++count;
                          });
  return count;
}

/// LCR_WIRE_FORMAT={auto,sparse,varint,dense} debugging override; env is
/// read once, then cached. Tests force formats programmatically instead.
std::optional<WireFormat> forced_wire_format();

/// Programmatic override: a concrete format forces every subsequent encode;
/// nullopt reverts to the environment/auto behavior.
void set_wire_format_override(std::optional<WireFormat> format);

inline std::size_t sparse_bytes(std::size_t count, std::size_t value_bytes) {
  return count * (sizeof(std::uint32_t) + value_bytes);
}

inline std::size_t dense_bytes(std::size_t count, std::size_t span,
                               std::size_t value_bytes, bool all_set) {
  return (all_set ? 0 : (span + 7) / 8) + count * value_bytes;
}

/// Upper bound for the varint encoding. Each delta costs one byte plus at
/// most gap/64 continuation bytes (a gap g >= 128 never needs more than
/// g/64 extra); the gaps sum to at most span, hence the span/64 + 1 slack.
/// Always <= span * (4 + value_bytes), the sparse worst case, so every
/// format fits a lease sized for worst-case sparse.
inline std::size_t varint_bound(std::size_t count, std::size_t span,
                                std::size_t value_bytes) {
  return count * (1 + value_bytes) + span / 64 + 1;
}

/// Density-threshold format choice (override wins). Dense pays off once
/// >= 1/8 of the span is dirty (the 4-byte position exceeds the amortized
/// bitmap cost); varint helps from ~1/64 up, where deltas stay short.
inline WireFormat choose_format(std::size_t count, std::size_t span,
                                std::size_t value_bytes) {
  (void)value_bytes;
  if (const auto forced = forced_wire_format()) return *forced;
  if (count == 0 || span == 0) return WireFormat::Sparse;
  if (count * 8 >= span) return WireFormat::Dense;
  if (count * 64 >= span) return WireFormat::Varint;
  return WireFormat::Sparse;
}

/// LEB128 codec, shared with the compressed lid maps (runtime/varint.hpp).
using rt::get_varint;
using rt::put_varint;

/// Result of encoding one shared-list range.
struct EncodedChunk {
  WireFormat format = WireFormat::Sparse;
  std::size_t bytes = 0;    ///< payload bytes actually written
  std::size_t records = 0;  ///< dirty entries encoded
  bool all_set = false;     ///< every position in the range was dirty
};

/// Encodes the dirty entries of shared[lo, hi) directly into memory obtained
/// from `reserve(max_bytes)` - called at most once (with worst-case sparse
/// sizing for the range), and not at all when the range is clean. The caller
/// points `reserve` at a leased backend buffer (offset past the header) so
/// records land in wire memory with zero copies. Safe to run concurrently
/// from compute threads on disjoint ranges.
///
/// Format strategy: one pass over the range writes sparse records while
/// counting - the low-density common case finishes right there, with no
/// separate popcount pass. When the final count crosses a density
/// threshold, the records are spilled to a thread-local scratch buffer and
/// re-encoded into the lease as varint or dense. The upgrade pass reads the
/// compact record stream sequentially - it never re-walks shared/dirty/
/// labels with their random indirection - and every format fits the
/// worst-case sparse reservation (dense_bytes, varint_bound <=
/// sparse_bytes for any span).
template <typename T, typename Shared, typename ReserveFn>
EncodedChunk encode_dirty_range(const Shared& shared,
                                const rt::ConcurrentBitset& dirty,
                                const T* labels, std::uint32_t lo,
                                std::uint32_t hi, ReserveFn&& reserve) {
  constexpr std::size_t vb = sizeof(T);
  constexpr std::size_t rec = record_bytes<T>();
  EncodedChunk enc;
  const std::uint32_t span = hi - lo;

  std::byte* dst = nullptr;
  std::size_t off = 0;
  std::size_t count = 0;
  detail::for_each_shared(
      shared, lo, hi, [&](std::uint32_t pos, graph::VertexId lid) {
        if (!dirty.test(lid)) return;
        if (dst == nullptr) dst = reserve(sparse_bytes(span, vb));
        const std::uint32_t rel = pos - lo;
        std::memcpy(dst + off, &rel, sizeof(rel));
        std::memcpy(dst + off + sizeof(rel), &labels[lid], vb);
        off += rec;
        ++count;
      });
  if (count == 0) return enc;
  enc.records = count;
  enc.all_set = count == span;
  enc.format = choose_format(count, span, vb);
  if (enc.format != WireFormat::Dense && enc.format != WireFormat::Varint) {
    enc.format = WireFormat::Sparse;  // forced Raw falls back to records
    enc.bytes = off;
    return enc;
  }

  // Upgrade pass: spill the sparse records and re-encode sequentially.
  std::vector<std::byte>& scratch = detail::encode_scratch();
  if (scratch.size() < off) scratch.resize(off);
  std::memcpy(scratch.data(), dst, off);
  const std::byte* src = scratch.data();
  if (enc.format == WireFormat::Dense) {
    const std::size_t bitmap = enc.all_set ? 0 : (span + 7) / 8;
    enc.bytes = dense_bytes(count, span, vb, enc.all_set);
    if (bitmap != 0) std::memset(dst, 0, bitmap);
    std::byte* values = dst + bitmap;
    for (std::size_t i = 0; i < count; ++i) {
      if (bitmap != 0) {
        std::uint32_t rel = 0;
        std::memcpy(&rel, src + i * rec, sizeof(rel));
        dst[rel >> 3] |= static_cast<std::byte>(1U << (rel & 7));
      }
      std::memcpy(values, src + i * rec + sizeof(std::uint32_t), vb);
      values += vb;
    }
  } else {  // Varint
    off = 0;
    std::uint32_t prev_next = 0;  // rel position one past the last record
    for (std::size_t i = 0; i < count; ++i) {
      std::uint32_t rel = 0;
      std::memcpy(&rel, src + i * rec, sizeof(rel));
      off += put_varint(dst + off, rel - prev_next);
      prev_next = rel + 1;
      std::memcpy(dst + off, src + i * rec + sizeof(std::uint32_t), vb);
      off += vb;
    }
    enc.bytes = off;
  }
  return enc;
}

// ---------------------------------------------------------------------------
// Re-entrant decode (parallel receive-side apply, DESIGN.md §12)
// ---------------------------------------------------------------------------

/// Resumable decode state. All fields are format-private; callers only
/// default-construct a cursor (or position one via seek_record) and hand it
/// back unchanged between decode_chunk_resume calls on the same chunk.
struct DecodeCursor {
  /// Sparse/Varint: payload byte offset. Dense: bitmap byte index.
  /// DenseFull: record (= relative position) index.
  std::size_t off = 0;
  std::uint64_t next = 0;      ///< Varint: next expected relative position
  std::size_t seen = 0;        ///< Dense: packed values consumed so far
  std::uint8_t pending = 0;    ///< Dense: unconsumed bits of byte `off`
  bool pending_valid = false;  ///< Dense: `pending` holds byte `off`'s bits
  bool started = false;        ///< structural validation already ran
};

enum class DecodeStatus : std::uint8_t {
  Done,   ///< payload fully consumed, all records emitted
  More,   ///< record budget exhausted; call again with the same cursor
  Error,  ///< malformed payload; fn was not invoked past the failure point
};

inline constexpr std::size_t kAllRecords = ~std::size_t{0};

/// Random-access sliceability of one chunk: fixed-stride formats (Sparse and
/// bitmap-elided Dense) expose their record count up front, so disjoint
/// [rec_lo, rec_hi) slices can be decoded independently via seek_record.
/// Varint (positions are deltas) and bitmap Dense (values index by popcount
/// prefix) must be walked sequentially: records == 0, sliceable == false.
/// A bad size modulus also reports non-sliceable; the (single) decode call
/// then surfaces the Error.
struct ChunkSliceInfo {
  bool sliceable = false;
  std::uint32_t records = 0;
};

inline ChunkSliceInfo chunk_slice_info(const ChunkHeader& h,
                                       std::size_t value_bytes) {
  const std::size_t size = h.payload_bytes;
  switch (static_cast<WireFormat>(h.format)) {
    case WireFormat::Sparse: {
      const std::size_t rec = sizeof(std::uint32_t) + value_bytes;
      if (size % rec != 0) return {};
      return {true, static_cast<std::uint32_t>(size / rec)};
    }
    case WireFormat::Dense:
      if ((h.flags & kFlagDenseFull) == 0) return {};
      if (value_bytes == 0 || size != h.span * value_bytes) return {};
      return {true, h.span};
    default:
      return {};
  }
}

/// Positions `cur` at record index `rec_idx` of a sliceable chunk (see
/// chunk_slice_info) and runs the structural validation a first decode call
/// would. Returns false on a non-sliceable format (unless rec_idx == 0, which
/// just resets the cursor), an out-of-range index, or a malformed chunk.
template <typename T>
bool seek_record(const ChunkHeader& h, std::size_t shared_size,
                 std::size_t rec_idx, DecodeCursor& cur) {
  constexpr std::size_t vb = sizeof(T);
  cur = DecodeCursor{};
  if (rec_idx == 0) return true;  // fresh cursor; decode validates
  if (static_cast<std::uint64_t>(h.base_pos) + h.span > shared_size)
    return false;
  const std::size_t size = h.payload_bytes;
  switch (static_cast<WireFormat>(h.format)) {
    case WireFormat::Sparse: {
      constexpr std::size_t rec = record_bytes<T>();
      if (size % rec != 0 || rec_idx > size / rec) return false;
      cur.off = rec_idx * rec;
      cur.started = true;
      return true;
    }
    case WireFormat::Dense: {
      if ((h.flags & kFlagDenseFull) == 0) return false;
      if (size != static_cast<std::size_t>(h.span) * vb || rec_idx > h.span)
        return false;
      cur.off = rec_idx;
      cur.started = true;
      return true;
    }
    default:
      return false;
  }
}

/// Re-entrant unified scatter: decodes up to `max_records` records starting
/// from `cur` and invokes fn(absolute_pos, value) per record, where
/// absolute_pos = header.base_pos + relative position. Structural checks
/// (size modulus, bitmap/value length agreement, span bounds) run on the
/// first call for a cursor; per-record checks (out-of-span position,
/// truncated varint, stray bitmap bits) run as records stream. Returns Error
/// - without invoking fn beyond the failure point - on any malformed input,
/// More when the budget ran out with payload left, Done at the end. Raw
/// payloads carry no typed records and always Error.
template <typename T, typename Fn>
DecodeStatus decode_chunk_resume(const ChunkHeader& h,
                                 const std::byte* payload,
                                 std::size_t shared_size, DecodeCursor& cur,
                                 std::size_t max_records, Fn&& fn) {
  constexpr std::size_t vb = sizeof(T);
  const std::size_t size = h.payload_bytes;
  const std::uint64_t base = h.base_pos;
  const std::uint64_t span = h.span;
  if (base + span > shared_size) return DecodeStatus::Error;
  std::size_t emitted = 0;
  switch (static_cast<WireFormat>(h.format)) {
    case WireFormat::Sparse: {
      constexpr std::size_t rec = record_bytes<T>();
      if (!cur.started) {
        if (size % rec != 0) return DecodeStatus::Error;
        cur.started = true;
      }
      while (cur.off < size) {
        if (emitted == max_records) return DecodeStatus::More;
        std::uint32_t rel = 0;
        T value;
        std::memcpy(&rel, payload + cur.off, sizeof(rel));
        std::memcpy(&value, payload + cur.off + sizeof(rel), vb);
        if (rel >= span) return DecodeStatus::Error;
        cur.off += rec;
        ++emitted;
        fn(static_cast<std::uint32_t>(base + rel), value);
      }
      return DecodeStatus::Done;
    }
    case WireFormat::Varint: {
      cur.started = true;
      while (cur.off < size) {
        if (emitted == max_records) return DecodeStatus::More;
        std::size_t off = cur.off;
        std::uint32_t delta = 0;
        if (!get_varint(payload, size, off, delta))
          return DecodeStatus::Error;
        const std::uint64_t rel = cur.next + delta;
        if (rel >= span) return DecodeStatus::Error;
        if (off + vb > size) return DecodeStatus::Error;
        T value;
        std::memcpy(&value, payload + off, vb);
        cur.off = off + vb;
        cur.next = rel + 1;
        ++emitted;
        fn(static_cast<std::uint32_t>(base + rel), value);
      }
      return DecodeStatus::Done;
    }
    case WireFormat::Dense: {
      if ((h.flags & kFlagDenseFull) != 0) {
        if (!cur.started) {
          if (size != span * vb) return DecodeStatus::Error;
          cur.started = true;
        }
        while (cur.off < span) {
          if (emitted == max_records) return DecodeStatus::More;
          T value;
          std::memcpy(&value, payload + cur.off * vb, vb);
          const auto rel = static_cast<std::uint64_t>(cur.off);
          ++cur.off;
          ++emitted;
          fn(static_cast<std::uint32_t>(base + rel), value);
        }
        return DecodeStatus::Done;
      }
      const std::size_t bitmap = (span + 7) / 8;
      if (!cur.started) {
        if (size < bitmap || (size - bitmap) % vb != 0)
          return DecodeStatus::Error;
        cur.started = true;
      }
      const std::size_t count = (size - bitmap) / vb;
      const std::byte* values = payload + bitmap;
      for (;;) {
        if (!cur.pending_valid) {
          if (cur.off >= bitmap) break;
          cur.pending = static_cast<std::uint8_t>(payload[cur.off]);
          cur.pending_valid = true;
        }
        while (cur.pending != 0) {
          if (emitted == max_records) return DecodeStatus::More;
          const int b = __builtin_ctz(cur.pending);
          cur.pending = static_cast<std::uint8_t>(cur.pending &
                                                  (cur.pending - 1));
          const std::uint64_t rel =
              cur.off * 8 + static_cast<std::uint64_t>(b);
          if (rel >= span) return DecodeStatus::Error;  // stray bit past span
          if (cur.seen == count) return DecodeStatus::Error;
          T value;
          std::memcpy(&value, values + cur.seen * vb, vb);
          ++cur.seen;
          ++emitted;
          fn(static_cast<std::uint32_t>(base + rel), value);
        }
        cur.pending_valid = false;
        ++cur.off;
      }
      // Every shipped value must have a bitmap bit.
      return cur.seen == count ? DecodeStatus::Done : DecodeStatus::Error;
    }
    default:
      return DecodeStatus::Error;  // Raw payloads carry no typed records
  }
}

/// Unified scatter: decodes one chunk's payload according to its header tag
/// and invokes fn(absolute_pos, value) per record, where absolute_pos =
/// header.base_pos + relative position. Returns false - without invoking fn
/// beyond the point of failure - on any malformed input: bad size modulus,
/// out-of-span position, truncated varint, bitmap/value length mismatch, or
/// set bitmap bits beyond the span. Raw payloads are not typed records.
/// (One-shot wrapper over decode_chunk_resume.)
template <typename T, typename Fn>
bool decode_chunk(const ChunkHeader& h, const std::byte* payload,
                  std::size_t shared_size, Fn&& fn) {
  DecodeCursor cur;
  return decode_chunk_resume<T>(h, payload, shared_size, cur, kAllRecords,
                                std::forward<Fn>(fn)) == DecodeStatus::Done;
}

}  // namespace lcr::comm
