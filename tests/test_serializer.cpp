// Tests for sync-payload serialization and message framing, including
// seeded property/fuzz round-trips (replay a failure with
// LCR_STRESS_SEED=0x<seed>).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "comm/message.hpp"
#include "comm/serializer.hpp"
#include "runtime/rng.hpp"

namespace lcr {
namespace {

TEST(Serializer, RecordSizes) {
  EXPECT_EQ(comm::record_bytes<std::uint32_t>(), 8u);
  EXPECT_EQ(comm::record_bytes<std::uint64_t>(), 12u);
  EXPECT_EQ(comm::record_bytes<double>(), 12u);
}

// ---------------------------------------------------------------------------
// Property tests: randomized round-trips driven by one replayable seed.
// Values are compared bit-exactly (memcmp of the value bytes), so NaN
// payloads and negative zero are covered - the serializer must be a byte
// copy, never a value conversion.
// ---------------------------------------------------------------------------

std::uint64_t fuzz_seed() {
  static const std::uint64_t seed = [] {
    const char* env = std::getenv("LCR_STRESS_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 0)
                          : 0x5EEDFACE5EEDULL;
  }();
  return seed;
}

std::string fuzz_trace(const char* what) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s: replay with LCR_STRESS_SEED=0x%llx",
                what, static_cast<unsigned long long>(fuzz_seed()));
  return std::string(buf);
}

/// A value of type T whose bytes are fully random (for double that includes
/// NaNs, infinities, denormals - all must survive the trip bit-for-bit).
template <typename T>
T random_bits(rt::Rng& rng) {
  std::uint64_t raw = rng();
  T value;
  std::memcpy(&value, &raw, sizeof(T));
  return value;
}

TEST(Message, HeaderAccessors) {
  std::vector<std::byte> buf(comm::kChunkHeaderBytes + 8);
  comm::ChunkHeader header;
  header.phase_id = 42;
  header.chunk_idx = 3;
  header.num_chunks = 5;
  header.payload_bytes = 8;
  header.base_pos = 100;
  header.span = 7;
  header.format = static_cast<std::uint8_t>(comm::WireFormat::Sparse);
  header.finalize();
  std::memcpy(buf.data(), &header, sizeof(header));

  comm::InMessage msg;
  msg.src = 1;
  msg.data = buf.data();
  msg.size = buf.size();
  EXPECT_TRUE(msg.header().valid());
  EXPECT_EQ(msg.header().phase_id, 42u);
  EXPECT_EQ(msg.header().num_chunks, 5u);
  EXPECT_EQ(msg.header().base_pos, 100u);
  EXPECT_EQ(msg.header().span, 7u);
  EXPECT_EQ(msg.payload(), buf.data() + comm::kChunkHeaderBytes);
  EXPECT_EQ(msg.payload_size(), 8u);
}

// ---------------------------------------------------------------------------
// Adaptive wire formats (DESIGN.md §11): header self-check, density-driven
// format choice, per-format round-trips at random densities, range-split
// equivalence, and strict rejection of truncated / fuzzed frames.
// ---------------------------------------------------------------------------

/// Scoped programmatic format override; always restores auto/env behavior.
struct FormatOverrideGuard {
  explicit FormatOverrideGuard(comm::WireFormat f) {
    comm::set_wire_format_override(f);
  }
  ~FormatOverrideGuard() { comm::set_wire_format_override(std::nullopt); }
};

/// One encoded chunk with its finalized wire header, as the engine frames it.
struct EncodedFrame {
  comm::ChunkHeader header;
  std::vector<std::byte> payload;
  comm::EncodedChunk enc;
};

template <typename T>
EncodedFrame encode_frame(const std::vector<graph::VertexId>& shared,
                          const rt::ConcurrentBitset& dirty, const T* labels,
                          std::uint32_t lo, std::uint32_t hi) {
  EncodedFrame f;
  f.enc = comm::encode_dirty_range<T>(shared, dirty, labels, lo, hi,
                                      [&](std::size_t n) {
                                        f.payload.resize(n);
                                        return f.payload.data();
                                      });
  f.payload.resize(f.enc.bytes);
  f.header.payload_bytes = static_cast<std::uint32_t>(f.enc.bytes);
  f.header.base_pos = lo;
  f.header.span = hi - lo;
  f.header.format = static_cast<std::uint8_t>(f.enc.format);
  if (f.enc.format == comm::WireFormat::Dense && f.enc.all_set)
    f.header.flags = comm::kFlagDenseFull;
  f.header.finalize();
  return f;
}

/// Encodes `n` entries with fully random label bits through the live
/// encoder with the Sparse format forced (each entry dirty with probability
/// 1/`every`), decodes the frame and demands every dirty entry back bit for
/// bit. Re-encoding the decoded values must reproduce the payload byte for
/// byte. Returns the frame for further slicing.
template <typename T>
EncodedFrame sparse_roundtrip(rt::Rng& rng, std::size_t n,
                              std::uint64_t every) {
  std::vector<graph::VertexId> shared(n);
  rt::ConcurrentBitset dirty(n);
  std::vector<T> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    shared[i] = static_cast<graph::VertexId>(i);
    labels[i] = random_bits<T>(rng);
    if (rng.below(every) == 0) dirty.set(i);
  }
  const auto span = static_cast<std::uint32_t>(n);
  FormatOverrideGuard guard(comm::WireFormat::Sparse);
  EncodedFrame f = encode_frame<T>(shared, dirty, labels.data(), 0, span);
  EXPECT_EQ(f.payload.size(), f.enc.records * comm::record_bytes<T>());

  std::vector<T> decoded(n);
  std::size_t seen = 0;
  EXPECT_TRUE(comm::decode_chunk<T>(
      f.header, f.payload.data(), n, [&](std::uint32_t pos, const T& v) {
        EXPECT_TRUE(dirty.test(pos)) << "clean entry travelled: pos " << pos;
        EXPECT_EQ(std::memcmp(&v, &labels[pos], sizeof(T)), 0)
            << "record " << pos << " value bytes differ";
        decoded[pos] = v;
        ++seen;
      }));
  EXPECT_EQ(seen, dirty.count());

  const EncodedFrame again =
      encode_frame<T>(shared, dirty, decoded.data(), 0, span);
  EXPECT_EQ(again.payload, f.payload);
  return f;
}

TEST(SerializerProperty, RandomRecordsRoundTripBitExact) {
  SCOPED_TRACE(fuzz_trace("RandomRecordsRoundTripBitExact"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x01));
  for (int round = 0; round < 32; ++round) {
    const std::size_t n = rng.below(512);
    sparse_roundtrip<std::uint32_t>(rng, n, 2);
    sparse_roundtrip<std::uint64_t>(rng, n, 2);
    sparse_roundtrip<double>(rng, n, 2);
  }
}

/// Payload sizes straddling the LCI eager limit (16 KiB) and typical chunk
/// boundaries: the serializer itself has no size limit, so a payload one
/// record below, exactly at, and above the boundary must all decode
/// identically. The boundary cases are where the comm layer switches between
/// eager and rendezvous and where chunking splits a phase's payload.
TEST(SerializerProperty, SizesStraddlingEagerLimitRoundTrip) {
  SCOPED_TRACE(fuzz_trace("SizesStraddlingEagerLimit"));
  constexpr std::size_t kEagerLimit = 16 * 1024;  // lci::Device eager_limit
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x02));
  const std::size_t rec = comm::record_bytes<std::uint64_t>();
  const std::size_t at_limit = kEagerLimit / rec;
  for (std::size_t count :
       {at_limit - 2, at_limit - 1, at_limit, at_limit + 1, at_limit + 2,
        2 * at_limit, rng.below(3 * at_limit)}) {
    const EncodedFrame f = sparse_roundtrip<std::uint64_t>(rng, count, 1);
    EXPECT_EQ(f.payload.size(), count * rec);
  }
}

/// Chunk-splitting property: decoding a Sparse payload piece by piece at any
/// record-aligned split points yields exactly the same record stream as
/// decoding it whole. This is the invariant the backends rely on when a
/// phase's payload is fragmented into ChunkHeader-framed messages.
TEST(SerializerProperty, RecordAlignedChunkingIsLossless) {
  SCOPED_TRACE(fuzz_trace("RecordAlignedChunking"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x03));
  const std::size_t rec = comm::record_bytes<double>();
  for (int round = 0; round < 16; ++round) {
    const std::size_t n = 1 + rng.below(2048);
    const EncodedFrame f = sparse_roundtrip<double>(rng, n, 1);
    const std::vector<std::byte>& buf = f.payload;

    std::vector<std::pair<std::uint32_t, double>> whole;
    ASSERT_TRUE(comm::decode_chunk<double>(
        f.header, buf.data(), n,
        [&](std::uint32_t p, const double& v) { whole.emplace_back(p, v); }));

    // Random record-aligned split points (2..5 chunks).
    std::vector<std::pair<std::uint32_t, double>> chunked;
    std::size_t off = 0;
    while (off < buf.size()) {
      const std::size_t max_recs = (buf.size() - off) / rec;
      const std::size_t take = 1 + rng.below(std::max<std::size_t>(
                                       1, (max_recs + 1) / 2));
      const std::size_t bytes = std::min(take * rec, buf.size() - off);
      comm::ChunkHeader piece = f.header;
      piece.payload_bytes = static_cast<std::uint32_t>(bytes);
      piece.finalize();
      ASSERT_TRUE(comm::decode_chunk<double>(
          piece, buf.data() + off, n, [&](std::uint32_t p, const double& v) {
            chunked.emplace_back(p, v);
          }));
      off += bytes;
    }
    ASSERT_EQ(chunked.size(), whole.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      EXPECT_EQ(chunked[i].first, whole[i].first);
      EXPECT_EQ(std::memcmp(&chunked[i].second, &whole[i].second,
                            sizeof(double)),
                0);
    }
  }
}

/// Encode -> decode is an exact inverse on the dirty subset of an arbitrary
/// shared list (random local ids, repeats allowed): every dirty shared entry
/// appears exactly once with its label bits intact, clean entries never
/// travel. Random shared lists, dirty masks and label values, in whatever
/// format the encoder picks.
TEST(SerializerProperty, EncodeDecodeInverseOnRandomSharedLists) {
  SCOPED_TRACE(fuzz_trace("EncodeDecodeInverse"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x04));
  for (int round = 0; round < 24; ++round) {
    const std::size_t local = 1 + rng.below(256);
    const std::size_t shared_n = rng.below(local + 1);
    std::vector<graph::VertexId> shared;
    for (std::size_t i = 0; i < shared_n; ++i)
      shared.push_back(static_cast<graph::VertexId>(rng.below(local)));
    rt::ConcurrentBitset dirty(local);
    std::vector<double> labels;
    for (std::size_t i = 0; i < local; ++i) {
      labels.push_back(random_bits<double>(rng));
      if (rng.below(2) == 0) dirty.set(i);
    }

    const auto n = static_cast<std::uint32_t>(shared_n);
    const EncodedFrame f = encode_frame<double>(shared, dirty, labels.data(),
                                                0, n);
    std::size_t expected = 0;
    for (const graph::VertexId lid : shared)
      if (dirty.test(lid)) ++expected;
    EXPECT_EQ(f.enc.records, expected);

    std::size_t seen = 0;
    ASSERT_TRUE(comm::decode_chunk<double>(
        f.header, f.payload.data(), shared.size(),
        [&](std::uint32_t pos, const double& v) {
          ASSERT_LT(pos, shared.size());
          const graph::VertexId lid = shared[pos];
          EXPECT_TRUE(dirty.test(lid)) << "clean entry travelled: pos " << pos;
          EXPECT_EQ(std::memcmp(&v, &labels[lid], sizeof(double)), 0)
              << "label bits mangled at pos " << pos;
          ++seen;
        }));
    EXPECT_EQ(seen, expected);
  }
}

TEST(WireFormat, ChooseFormatTracksDensity) {
  if (std::getenv("LCR_WIRE_FORMAT") != nullptr)
    GTEST_SKIP() << "format forced by environment";
  using comm::WireFormat;
  EXPECT_EQ(comm::choose_format(0, 1024, 4), WireFormat::Sparse);
  EXPECT_EQ(comm::choose_format(1, 1024, 4), WireFormat::Sparse);
  EXPECT_EQ(comm::choose_format(15, 1024, 4), WireFormat::Sparse);
  EXPECT_EQ(comm::choose_format(16, 1024, 4), WireFormat::Varint);
  EXPECT_EQ(comm::choose_format(127, 1024, 4), WireFormat::Varint);
  EXPECT_EQ(comm::choose_format(128, 1024, 4), WireFormat::Dense);
  EXPECT_EQ(comm::choose_format(1024, 1024, 4), WireFormat::Dense);
}

TEST(WireFormat, ProgrammaticOverrideWinsAndRestores) {
  {
    FormatOverrideGuard guard(comm::WireFormat::Dense);
    EXPECT_EQ(comm::choose_format(1, 1 << 20, 4), comm::WireFormat::Dense);
  }
  if (std::getenv("LCR_WIRE_FORMAT") == nullptr) {
    EXPECT_EQ(comm::choose_format(1, 1 << 20, 4), comm::WireFormat::Sparse);
  }
}

TEST(WireFormat, VarintRoundTripAndStrictRejects) {
  for (const std::uint32_t v : {0u, 1u, 127u, 128u, 300u, 16383u, 16384u,
                                0x0FFFFFFFu, 0xFFFFFFFFu}) {
    std::byte buf[8];
    const std::size_t n = comm::put_varint(buf, v);
    ASSERT_LE(n, 5u);
    std::size_t off = 0;
    std::uint32_t out = 0;
    EXPECT_TRUE(comm::get_varint(buf, n, off, out));
    EXPECT_EQ(out, v);
    EXPECT_EQ(off, n);
    // Every strict prefix is a truncated varint and must be rejected.
    for (std::size_t cut = 0; cut < n; ++cut) {
      off = 0;
      EXPECT_FALSE(comm::get_varint(buf, cut, off, out)) << "cut=" << cut;
    }
  }
  // Fifth byte carrying bits beyond 32 (overflow).
  const std::byte over[5] = {std::byte{0x80}, std::byte{0x80}, std::byte{0x80},
                             std::byte{0x80}, std::byte{0x10}};
  std::size_t off = 0;
  std::uint32_t out = 0;
  EXPECT_FALSE(comm::get_varint(over, 5, off, out));
  // Continuation bit never cleared.
  const std::byte run[6] = {std::byte{0x80}, std::byte{0x80}, std::byte{0x80},
                            std::byte{0x80}, std::byte{0x80}, std::byte{0x80}};
  off = 0;
  EXPECT_FALSE(comm::get_varint(run, 6, off, out));
}

TEST(WireFormat, HeaderSelfCheckRejectsFuzzedHeaders) {
  SCOPED_TRACE(fuzz_trace("HeaderFuzz"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x07));
  comm::ChunkHeader h;
  h.phase_id = 9;
  h.payload_bytes = 128;
  h.base_pos = 4;
  h.span = 32;
  h.format = static_cast<std::uint8_t>(comm::WireFormat::Varint);
  h.finalize();
  ASSERT_TRUE(h.valid());

  // Unknown format tags / flag bits are invalid even with a matching check.
  comm::ChunkHeader bad = h;
  bad.format = 17;
  bad.finalize();
  EXPECT_FALSE(bad.valid());
  bad = h;
  bad.flags = 0x80;
  bad.finalize();
  EXPECT_FALSE(bad.valid());

  // Random single-byte corruption is caught by the Fletcher self-check.
  // (0x00 <-> 0xFF is the one substitution Fletcher cannot see; skip it.)
  for (int i = 0; i < 128; ++i) {
    comm::ChunkHeader fuzz = h;
    auto* bytes = reinterpret_cast<std::uint8_t*>(&fuzz);
    const std::size_t at = rng.below(sizeof(fuzz));
    const auto oldv = bytes[at];
    const auto newv = static_cast<std::uint8_t>(rng());
    if (newv == oldv || (oldv == 0x00 && newv == 0xFF) ||
        (oldv == 0xFF && newv == 0x00)) {
      continue;
    }
    bytes[at] = newv;
    EXPECT_FALSE(fuzz.valid()) << "byte " << at << " corrupt undetected";
  }
}

/// Encode/decode one random instance under every format (auto + each forced)
/// and demand the exact dirty record map back, values bit-for-bit.
template <typename T>
void roundtrip_formats_once(rt::Rng& rng, double density) {
  const std::size_t local = 64 + rng.below(512);
  std::vector<graph::VertexId> shared(local);
  for (std::size_t i = 0; i < local; ++i)
    shared[i] = static_cast<graph::VertexId>(i);
  rt::ConcurrentBitset dirty(local);
  std::vector<T> labels(local);
  const auto threshold = static_cast<std::uint64_t>(density * 1000.0);
  for (std::size_t i = 0; i < local; ++i) {
    labels[i] = random_bits<T>(rng);
    if (rng.below(1000) < threshold) dirty.set(i);
  }
  const auto n = static_cast<std::uint32_t>(local);

  std::map<std::uint32_t, T> reference;
  for (std::uint32_t pos = 0; pos < n; ++pos)
    if (dirty.test(shared[pos])) reference[pos] = labels[shared[pos]];

  const std::optional<comm::WireFormat> modes[] = {
      std::nullopt, comm::WireFormat::Sparse, comm::WireFormat::Varint,
      comm::WireFormat::Dense};
  for (const auto& mode : modes) {
    std::optional<FormatOverrideGuard> guard;
    if (mode) guard.emplace(*mode);
    const EncodedFrame f = encode_frame<T>(shared, dirty, labels.data(), 0, n);
    ASSERT_EQ(f.enc.records, reference.size());
    std::map<std::uint32_t, T> got;
    const bool ok = comm::decode_chunk<T>(
        f.header, f.payload.data(), shared.size(),
        [&](std::uint32_t pos, const T& v) { got[pos] = v; });
    ASSERT_TRUE(ok);
    ASSERT_EQ(got.size(), reference.size());
    for (const auto& [pos, v] : reference) {
      ASSERT_EQ(got.count(pos), 1u);
      EXPECT_EQ(std::memcmp(&got[pos], &v, sizeof(T)), 0)
          << "value bits differ at pos " << pos;
    }
  }
}

TEST(WireFormatProperty, AllFormatsRoundTripAcrossDensities) {
  SCOPED_TRACE(fuzz_trace("AllFormatsRoundTrip"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x05));
  for (const double density : {0.001, 0.01, 0.1, 0.5, 0.95, 1.0}) {
    roundtrip_formats_once<std::uint32_t>(rng, density);
    roundtrip_formats_once<double>(rng, density);
  }
}

/// Splitting a shared list into arbitrary [lo, hi) chunk ranges - each free
/// to pick its own format from its own local density - must decode to the
/// same record set as one whole-range chunk. This is the invariant behind
/// the engine's range-parallel gather and chunk-boundary straddles.
TEST(WireFormatProperty, RangeSplitsDecodeIdenticallyToWhole) {
  SCOPED_TRACE(fuzz_trace("RangeSplitEquivalence"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x06));
  for (int round = 0; round < 12; ++round) {
    const std::size_t local = 64 + rng.below(1024);
    std::vector<graph::VertexId> shared(local);
    for (std::size_t i = 0; i < local; ++i)
      shared[i] = static_cast<graph::VertexId>(i);
    rt::ConcurrentBitset dirty(local);
    std::vector<double> labels(local);
    const std::uint64_t threshold = rng.below(1001);
    for (std::size_t i = 0; i < local; ++i) {
      labels[i] = random_bits<double>(rng);
      if (rng.below(1000) < threshold) dirty.set(i);
    }
    const auto n = static_cast<std::uint32_t>(local);

    const EncodedFrame whole_frame =
        encode_frame<double>(shared, dirty, labels.data(), 0, n);
    std::map<std::uint32_t, double> whole;
    ASSERT_TRUE(comm::decode_chunk<double>(
        whole_frame.header, whole_frame.payload.data(), shared.size(),
        [&](std::uint32_t pos, const double& v) { whole[pos] = v; }));

    std::map<std::uint32_t, double> split;
    std::uint32_t lo = 0;
    while (lo < n) {
      const std::uint32_t hi =
          lo + 1 + static_cast<std::uint32_t>(rng.below(n - lo));
      const EncodedFrame f =
          encode_frame<double>(shared, dirty, labels.data(), lo, hi);
      ASSERT_TRUE(comm::decode_chunk<double>(
          f.header, f.payload.data(), shared.size(),
          [&](std::uint32_t pos, const double& v) {
            EXPECT_GE(pos, lo);
            EXPECT_LT(pos, hi);
            split[pos] = v;
          }));
      lo = hi;
    }
    ASSERT_EQ(split.size(), whole.size());
    for (const auto& [pos, v] : whole) {
      ASSERT_EQ(split.count(pos), 1u);
      EXPECT_EQ(std::memcmp(&split[pos], &v, sizeof(double)), 0);
    }
  }
}

TEST(WireFormat, DenseFullElidesBitmapAndHalvesSparseBytes) {
  constexpr std::uint32_t n = 256;
  std::vector<graph::VertexId> shared(n);
  std::vector<std::uint32_t> labels(n);
  rt::ConcurrentBitset dirty(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shared[i] = i;
    labels[i] = 3 * i + 1;
    dirty.set(i);
  }
  FormatOverrideGuard guard(comm::WireFormat::Dense);
  const EncodedFrame f =
      encode_frame<std::uint32_t>(shared, dirty, labels.data(), 0, n);
  EXPECT_TRUE(f.enc.all_set);
  EXPECT_EQ(f.header.flags & comm::kFlagDenseFull, comm::kFlagDenseFull);
  // Bitmap elided: exactly the packed values, half the sparse wire bytes.
  EXPECT_EQ(f.enc.bytes, n * sizeof(std::uint32_t));
  EXPECT_EQ(comm::sparse_bytes(n, sizeof(std::uint32_t)), 2 * f.enc.bytes);
  std::size_t seen = 0;
  ASSERT_TRUE(comm::decode_chunk<std::uint32_t>(
      f.header, f.payload.data(), shared.size(),
      [&](std::uint32_t pos, const std::uint32_t& v) {
        EXPECT_EQ(v, 3 * pos + 1);
        ++seen;
      }));
  EXPECT_EQ(seen, n);
}

TEST(WireFormat, VarintBytesStayWithinBound) {
  SCOPED_TRACE(fuzz_trace("VarintBound"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x0B));
  FormatOverrideGuard guard(comm::WireFormat::Varint);
  for (int round = 0; round < 16; ++round) {
    const std::size_t local = 1 + rng.below(4096);
    std::vector<graph::VertexId> shared(local);
    for (std::size_t i = 0; i < local; ++i)
      shared[i] = static_cast<graph::VertexId>(i);
    rt::ConcurrentBitset dirty(local);
    std::vector<std::uint32_t> labels(local, 7);
    std::size_t count = 0;
    const std::uint64_t threshold = rng.below(1001);
    for (std::size_t i = 0; i < local; ++i) {
      if (rng.below(1000) < threshold) {
        dirty.set(i);
        ++count;
      }
    }
    if (count == 0) continue;
    const auto n = static_cast<std::uint32_t>(local);
    const EncodedFrame f =
        encode_frame<std::uint32_t>(shared, dirty, labels.data(), 0, n);
    ASSERT_EQ(f.enc.format, comm::WireFormat::Varint);
    const std::size_t bound =
        comm::varint_bound(count, local, sizeof(std::uint32_t));
    EXPECT_LE(f.enc.bytes, bound);
    // The bound itself never exceeds worst-case sparse sizing for the span,
    // so a lease sized for sparse always fits the varint encoding.
    EXPECT_LE(bound, comm::sparse_bytes(local, sizeof(std::uint32_t)));
  }
}

TEST(WireFormat, DecodeRejectsMalformedPayloads) {
  const auto header_for = [](comm::WireFormat f, std::uint32_t bytes,
                             std::uint32_t base, std::uint32_t span,
                             std::uint8_t flags = 0) {
    comm::ChunkHeader h;
    h.payload_bytes = bytes;
    h.base_pos = base;
    h.span = span;
    h.format = static_cast<std::uint8_t>(f);
    h.flags = flags;
    h.finalize();
    return h;
  };
  const auto sink = [](std::uint32_t, const std::uint32_t&) {};
  using comm::WireFormat;

  // Range exceeding the shared list.
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Sparse, 0, 90, 20), nullptr, 100, sink));

  // Sparse: size not a record multiple; position past the span.
  std::byte rec[8] = {};
  const std::uint32_t rel = 5;
  std::memcpy(rec, &rel, sizeof(rel));
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Sparse, 7, 0, 16), rec, 64, sink));
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Sparse, 8, 0, 4), rec, 64, sink));

  // Varint: value truncated after a complete position delta.
  const std::byte short_varint[1] = {std::byte{0x00}};
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Varint, 1, 0, 16), short_varint, 64, sink));

  // Dense: a set bitmap bit past the span.
  std::byte stray[5] = {std::byte{0x08}};  // bit 3 with span 3
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Dense, 5, 0, 3), stray, 64, sink));

  // Dense: fewer bitmap bits than shipped values.
  std::byte mismatch[9] = {std::byte{0x01}};  // 1 bit, 2 values
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Dense, 9, 0, 8), mismatch, 64, sink));

  // DenseFull: payload size disagrees with span * value size.
  std::byte full[12] = {};
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Dense, 12, 0, 4, comm::kFlagDenseFull), full, 64,
      sink));

  // Raw payloads never carry typed records.
  std::byte raw[8] = {};
  EXPECT_FALSE(comm::decode_chunk<std::uint32_t>(
      header_for(WireFormat::Raw, 8, 0, 16), raw, 64, sink));
}

/// Chopping bytes off the end of any encoding must be caught - partial
/// values never reach the scatter callback as full records.
TEST(WireFormatProperty, TruncatedPayloadsAreRejected) {
  SCOPED_TRACE(fuzz_trace("TruncatedPayloads"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x08));
  constexpr std::size_t vb = sizeof(double);
  for (const comm::WireFormat format :
       {comm::WireFormat::Sparse, comm::WireFormat::Varint,
        comm::WireFormat::Dense}) {
    FormatOverrideGuard guard(format);
    const std::size_t local = 96 + rng.below(128);
    std::vector<graph::VertexId> shared(local);
    for (std::size_t i = 0; i < local; ++i)
      shared[i] = static_cast<graph::VertexId>(i);
    rt::ConcurrentBitset dirty(local);
    std::vector<double> labels(local);
    for (std::size_t i = 0; i < local; ++i) {
      labels[i] = random_bits<double>(rng);
      if (rng.below(2) == 0) dirty.set(i);
    }
    const auto n = static_cast<std::uint32_t>(local);
    const EncodedFrame f =
        encode_frame<double>(shared, dirty, labels.data(), 0, n);
    if (f.enc.bytes == 0) continue;
    for (std::size_t cut = 1; cut <= vb && cut < f.enc.bytes; ++cut) {
      comm::ChunkHeader h = f.header;
      h.payload_bytes = static_cast<std::uint32_t>(f.enc.bytes - cut);
      h.finalize();
      EXPECT_FALSE(comm::decode_chunk<double>(
          h, f.payload.data(), shared.size(),
          [](std::uint32_t, const double&) {}))
          << "format " << static_cast<int>(format) << " cut " << cut;
    }
  }
}

/// Random garbage payloads under every format tag: decoding may succeed or
/// fail, but a delivered position must always stay inside [base, base+span)
/// and no out-of-bounds read may occur (ASan-checked in CI).
TEST(WireFormatProperty, GarbagePayloadsNeverEscapeTheSpan) {
  SCOPED_TRACE(fuzz_trace("GarbagePayloads"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x09));
  for (int round = 0; round < 64; ++round) {
    const auto span = static_cast<std::uint32_t>(1 + rng.below(64));
    const auto base = static_cast<std::uint32_t>(rng.below(16));
    const std::size_t size = rng.below(256);
    std::vector<std::byte> payload(size);
    for (auto& b : payload) b = static_cast<std::byte>(rng());
    for (std::uint8_t tag = 0; tag < comm::kWireFormatCount; ++tag) {
      for (const std::uint8_t flags : {std::uint8_t{0}, comm::kFlagDenseFull}) {
        comm::ChunkHeader h;
        h.payload_bytes = static_cast<std::uint32_t>(size);
        h.base_pos = base;
        h.span = span;
        h.format = tag;
        h.flags = flags;
        h.finalize();
        comm::decode_chunk<std::uint32_t>(
            h, payload.data(), base + span,
            [&](std::uint32_t pos, const std::uint32_t&) {
              EXPECT_GE(pos, base);
              EXPECT_LT(pos, base + span);
            });
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Re-entrant decode (DESIGN.md §12): stepwise decode_chunk_resume must agree
// with one-shot decode_chunk under every format, and seek_record slices of a
// sliceable chunk must reassemble to the full record set.
// ---------------------------------------------------------------------------

/// Decodes `f` in randomly-sized budget steps and demands the exact record
/// map a one-shot decode produces, with More on every non-final step.
template <typename T>
void resume_matches_one_shot(rt::Rng& rng, const EncodedFrame& f,
                             std::size_t shared_size) {
  std::map<std::uint32_t, T> reference;
  ASSERT_TRUE(comm::decode_chunk<T>(
      f.header, f.payload.data(), shared_size,
      [&](std::uint32_t pos, const T& v) { reference[pos] = v; }));

  std::map<std::uint32_t, T> got;
  comm::DecodeCursor cur;
  for (int steps = 0;; ++steps) {
    ASSERT_LT(steps, 1 << 16) << "resume never reached Done";
    const std::size_t budget = 1 + rng.below(7);
    std::size_t emitted = 0;
    const auto status = comm::decode_chunk_resume<T>(
        f.header, f.payload.data(), shared_size, cur, budget,
        [&](std::uint32_t pos, const T& v) {
          got[pos] = v;
          ++emitted;
        });
    ASSERT_NE(status, comm::DecodeStatus::Error);
    if (status == comm::DecodeStatus::Done) break;
    // More must mean the budget was the limiting factor.
    ASSERT_EQ(emitted, budget);
  }
  ASSERT_EQ(got.size(), reference.size());
  for (const auto& [pos, v] : reference) {
    ASSERT_EQ(got.count(pos), 1u);
    EXPECT_EQ(std::memcmp(&got[pos], &v, sizeof(T)), 0)
        << "value bits differ at pos " << pos;
  }
}

TEST(DecodeCursorProperty, ResumeMatchesOneShotAcrossFormats) {
  SCOPED_TRACE(fuzz_trace("ResumeMatchesOneShot"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x0C));
  const std::optional<comm::WireFormat> modes[] = {
      std::nullopt, comm::WireFormat::Sparse, comm::WireFormat::Varint,
      comm::WireFormat::Dense};
  // Density 1.0 under forced Dense yields DenseFull (bitmap elided), so all
  // four wire layouts are exercised.
  for (const double density : {0.02, 0.3, 1.0}) {
    for (const auto& mode : modes) {
      std::optional<FormatOverrideGuard> guard;
      if (mode) guard.emplace(*mode);
      const std::size_t local = 64 + rng.below(512);
      std::vector<graph::VertexId> shared(local);
      for (std::size_t i = 0; i < local; ++i)
        shared[i] = static_cast<graph::VertexId>(i);
      rt::ConcurrentBitset dirty(local);
      std::vector<std::uint64_t> labels(local);
      const auto threshold = static_cast<std::uint64_t>(density * 1000.0);
      for (std::size_t i = 0; i < local; ++i) {
        labels[i] = random_bits<std::uint64_t>(rng);
        if (rng.below(1000) < threshold) dirty.set(i);
      }
      const auto n = static_cast<std::uint32_t>(local);
      const EncodedFrame f =
          encode_frame<std::uint64_t>(shared, dirty, labels.data(), 0, n);
      if (f.enc.records == 0) continue;
      resume_matches_one_shot<std::uint64_t>(rng, f, shared.size());
    }
  }
}

TEST(DecodeCursorProperty, SeekSlicesMatchFullDecode) {
  SCOPED_TRACE(fuzz_trace("SeekSlices"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x0D));
  // Sparse (random density) and DenseFull (all dirty): the two random-access
  // layouts the apply pipeline slices.
  for (const auto mode : {comm::WireFormat::Sparse, comm::WireFormat::Dense}) {
    FormatOverrideGuard guard(mode);
    const std::size_t local = 128 + rng.below(512);
    std::vector<graph::VertexId> shared(local);
    for (std::size_t i = 0; i < local; ++i)
      shared[i] = static_cast<graph::VertexId>(i);
    rt::ConcurrentBitset dirty(local);
    std::vector<std::uint32_t> labels(local);
    for (std::size_t i = 0; i < local; ++i) {
      labels[i] = static_cast<std::uint32_t>(rng());
      if (mode == comm::WireFormat::Dense || rng.below(4) == 0) dirty.set(i);
    }
    const auto n = static_cast<std::uint32_t>(local);
    const EncodedFrame f =
        encode_frame<std::uint32_t>(shared, dirty, labels.data(), 0, n);
    const comm::ChunkSliceInfo info =
        comm::chunk_slice_info(f.header, sizeof(std::uint32_t));
    ASSERT_TRUE(info.sliceable);
    ASSERT_EQ(info.records, f.enc.records);

    std::map<std::uint32_t, std::uint32_t> whole;
    ASSERT_TRUE(comm::decode_chunk<std::uint32_t>(
        f.header, f.payload.data(), shared.size(),
        [&](std::uint32_t pos, const std::uint32_t& v) { whole[pos] = v; }));

    // Three random cut points -> up to four disjoint record slices.
    std::vector<std::uint32_t> cuts = {
        0, static_cast<std::uint32_t>(rng.below(info.records + 1)),
        static_cast<std::uint32_t>(rng.below(info.records + 1)),
        static_cast<std::uint32_t>(rng.below(info.records + 1)),
        info.records};
    std::sort(cuts.begin(), cuts.end());
    std::map<std::uint32_t, std::uint32_t> sliced;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
      const std::uint32_t rec_lo = cuts[s];
      const std::uint32_t rec_hi = cuts[s + 1];
      if (rec_lo == rec_hi) continue;
      comm::DecodeCursor cur;
      ASSERT_TRUE(comm::seek_record<std::uint32_t>(f.header, shared.size(),
                                                   rec_lo, cur));
      const auto status = comm::decode_chunk_resume<std::uint32_t>(
          f.header, f.payload.data(), shared.size(), cur, rec_hi - rec_lo,
          [&](std::uint32_t pos, const std::uint32_t& v) {
            ASSERT_EQ(sliced.count(pos), 0u) << "slice overlap at " << pos;
            sliced[pos] = v;
          });
      ASSERT_NE(status, comm::DecodeStatus::Error);
      // The final slice consumes the payload; earlier ones stop on budget.
      ASSERT_EQ(status, rec_hi == info.records ? comm::DecodeStatus::Done
                                               : comm::DecodeStatus::More);
    }
    EXPECT_EQ(sliced, whole);
  }
}

TEST(DecodeCursor, SeekRejectsNonSliceableFormats) {
  const std::size_t local = 256;
  std::vector<graph::VertexId> shared(local);
  for (std::size_t i = 0; i < local; ++i)
    shared[i] = static_cast<graph::VertexId>(i);
  rt::ConcurrentBitset dirty(local);
  std::vector<std::uint32_t> labels(local, 9);
  for (std::size_t i = 0; i < local; i += 2) dirty.set(i);  // half dirty

  // Varint and bitmap Dense (not all-set) are sequential-only.
  for (const auto mode :
       {comm::WireFormat::Varint, comm::WireFormat::Dense}) {
    FormatOverrideGuard guard(mode);
    const EncodedFrame f = encode_frame<std::uint32_t>(
        shared, dirty, labels.data(), 0, static_cast<std::uint32_t>(local));
    ASSERT_EQ(f.header.flags & comm::kFlagDenseFull, 0);
    EXPECT_FALSE(comm::chunk_slice_info(f.header, sizeof(std::uint32_t))
                     .sliceable);
    comm::DecodeCursor cur;
    // rec_idx == 0 just resets the cursor and is always allowed...
    EXPECT_TRUE(
        comm::seek_record<std::uint32_t>(f.header, shared.size(), 0, cur));
    // ...but a real seek into a sequential-only layout must fail.
    EXPECT_FALSE(
        comm::seek_record<std::uint32_t>(f.header, shared.size(), 4, cur));
  }

  // Out-of-range seeks on a sliceable chunk fail too.
  {
    FormatOverrideGuard guard(comm::WireFormat::Sparse);
    const EncodedFrame f = encode_frame<std::uint32_t>(
        shared, dirty, labels.data(), 0, static_cast<std::uint32_t>(local));
    comm::DecodeCursor cur;
    EXPECT_FALSE(comm::seek_record<std::uint32_t>(
        f.header, shared.size(), f.enc.records + 1, cur));
  }
}

TEST(Bitset, CountRangeMatchesManualPopcount) {
  SCOPED_TRACE(fuzz_trace("CountRange"));
  rt::Rng rng(rt::hash64(fuzz_seed() ^ 0x0A));
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 1 + rng.below(513);
    rt::ConcurrentBitset bits(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.below(3) == 0) bits.set(i);
    const std::size_t random_lo = rng.below(n + 1);
    const std::size_t probes[][2] = {
        {0, 0},           {0, n},
        {n / 2, n},       {0, std::min<std::size_t>(n, 63)},
        {std::min<std::size_t>(n, 63), std::min<std::size_t>(n, 65)},
        {random_lo, random_lo + rng.below(n + 1 - random_lo)}};
    for (const auto& [lo, hi] : probes) {
      std::size_t manual = 0;
      for (std::size_t i = lo; i < hi; ++i)
        if (bits.test(i)) ++manual;
      EXPECT_EQ(bits.count_range(lo, hi), manual)
          << "range [" << lo << ", " << hi << ")";
    }
  }
}

}  // namespace
}  // namespace lcr
