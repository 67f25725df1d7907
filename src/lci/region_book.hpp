// Direct-write region bookkeeping shared by every backend (DESIGN.md §15).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "lci/completion.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::lci {

/// Bookkeeping for locally exposed direct-write regions (DESIGN.md §15).
///
/// One entry per live registration, keyed by a never-reused token (fabric
/// rkeys are monotonic; software emulations hand out their own monotonic
/// slots). Each entry carries the registered extent, the epoch/generation
/// tag of the registration, and an optional CompletionCounter bumped per
/// accepted put - the counter-based completion tracking that replaces
/// per-message headers on the direct path. note_put() is the single
/// validation ladder every emulated put walks: unknown token (stale rkey
/// after a revive), stale generation (put built against a retracted
/// descriptor), out-of-bounds extent. The direct-write backends consult it
/// before touching memory; the property/fuzz suite drives it standalone.
class RegionBook {
 public:
  struct Entry {
    std::byte* base = nullptr;
    std::size_t size = 0;
    std::uint32_t generation = 0;
    CompletionCounter* counter = nullptr;
  };

  enum class Verdict : std::uint8_t {
    Ok,
    UnknownToken,
    StaleGeneration,
    OutOfBounds,
  };

  /// Records a registration. False when the token is already live (tokens
  /// must never be reused while registered).
  bool add(std::uint64_t token, std::byte* base, std::size_t size,
           std::uint32_t generation, CompletionCounter* counter = nullptr);

  /// Drops a registration; false = unknown token.
  bool remove(std::uint64_t token);

  bool lookup(std::uint64_t token, Entry& out) const;

  /// Validates a put of `bytes` at `offset` claiming `generation` against
  /// the live registration under `token`. Ok bumps the entry's counter (if
  /// any) and the accepted tally; every rejection is tallied by cause.
  Verdict note_put(std::uint64_t token, std::size_t offset, std::size_t bytes,
                   std::uint32_t generation);

  std::size_t live() const;
  std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  mutable rt::Spinlock lock_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace lcr::lci
