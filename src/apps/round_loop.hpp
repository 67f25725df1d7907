// The BSP round loop every app driver runs, on both engines.
//
// Abelian and Gemini execute the same round (paper Section II, Fig. 2): a
// round boundary, then compute, then partition-aware sync, then a global
// termination test. Drivers keep their operator bodies and their own
// termination predicates; RoundLoop owns everything around them:
//
//   * checkpoint state: the driver registers the arrays and scalars that
//     carry over between rounds (typed vectors, ConcurrentBitsets, scalars);
//   * resume: on RecoveryCtx::resume the registered state and the round
//     number are reloaded from the last stable checkpoint;
//   * the round boundary: Cluster::round_tick (scheduled kills, straggler
//     injection, failure abort) and then a save every K rounds, skipping the
//     resumed round. Tick comes first, so a victim dies before it stages
//     round R (DESIGN.md §13);
//   * the "round" span, and the "compute" span + compute_s timer around every
//     compute region (compute(fn)), so the span and the timer agree by
//     construction (DESIGN.md §9).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "abelian/cluster.hpp"
#include "runtime/bitset.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/timer.hpp"
#include "telemetry/trace.hpp"

namespace lcr::apps {

class RoundLoop {
 public:
  /// `compute_s` is the engine stat compute regions add to; `cat` is the
  /// span category ("app" for Abelian drivers, "gemini" for Gemini's).
  RoundLoop(abelian::Cluster& cluster, int host, double& compute_s,
            rt::RecoveryCtx* rec, const char* cat = "app")
      : cluster_(cluster),
        host_(host),
        compute_s_(compute_s),
        rec_(rec),
        cat_(cat) {}

  // --- Checkpoint state (register before run(); sizes must stay fixed) ---

  template <typename T>
  void checkpoint(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    state_.push_back({v.data(), nullptr, v.size() * sizeof(T)});
  }
  void checkpoint(rt::ConcurrentBitset& bits) {
    static_assert(sizeof(std::atomic<std::uint64_t>) == sizeof(std::uint64_t));
    state_.push_back(
        {nullptr, &bits, bits.num_words() * sizeof(std::uint64_t)});
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void checkpoint(T& scalar) {
    state_.push_back({&scalar, nullptr, sizeof(T)});
  }

  /// Times fn() into compute_s inside a "compute" span.
  template <typename Fn>
  void compute(Fn&& fn) {
    rt::Timer timer;
    {
      telemetry::Span span(cat_, "compute", static_cast<std::uint32_t>(host_));
      fn();
    }
    compute_s_ += timer.elapsed_s();
  }

  /// Runs rounds until body() returns false or max_rounds rounds have
  /// started. Starts at 0, or at the checkpointed round on resume.
  template <typename Body>
  void run(std::uint64_t max_rounds, Body&& body) {
    std::uint64_t round = 0;
    std::uint64_t resumed_at = std::numeric_limits<std::uint64_t>::max();
    if (rec_ != nullptr && rec_->resume && rec_->resume_round >= 0 &&
        restore(rec_->resume_round)) {
      round = static_cast<std::uint64_t>(rec_->resume_round);
      resumed_at = round;
    }
    for (; round < max_rounds; ++round) {
      cluster_.round_tick(host_, static_cast<std::int64_t>(round));
      // Round boundary: the registered state is quiescent, so the staging
      // copy needs no locks.
      if (rec_ != nullptr && rec_->interval > 0 &&
          round % static_cast<std::uint64_t>(rec_->interval) == 0 &&
          round != resumed_at)
        save(round);
      telemetry::Span round_span(cat_, "round",
                                 static_cast<std::uint32_t>(host_));
      if (!body()) break;
    }
  }
  template <typename Body>
  void run(Body&& body) {
    run(std::numeric_limits<std::uint64_t>::max(), body);
  }

 private:
  struct Slot {
    void* data;                  // vectors and scalars
    rt::ConcurrentBitset* bits;  // bitsets (restored word by word)
    std::size_t bytes;
  };

  void save(std::uint64_t round) {
    std::vector<rt::CheckpointStore::View> views;
    views.reserve(state_.size());
    for (const Slot& s : state_)
      views.push_back({s.bits != nullptr
                           ? static_cast<const void*>(s.bits->words_data())
                           : s.data,
                       s.bytes});
    rec_->store->save(rec_->host, static_cast<std::int64_t>(round), views);
  }

  /// Reloads every registered slot; false (state untouched) when the store
  /// has no matching checkpoint, in which case the run restarts at round 0.
  bool restore(std::int64_t round) {
    std::vector<std::vector<std::uint8_t>> arrays;
    if (!rec_->store->load(rec_->host, round, arrays) ||
        arrays.size() != state_.size())
      return false;
    for (std::size_t i = 0; i < state_.size(); ++i)
      if (arrays[i].size() != state_[i].bytes) return false;
    for (std::size_t i = 0; i < state_.size(); ++i) {
      const Slot& s = state_[i];
      if (s.bits != nullptr) {
        const auto* words =
            reinterpret_cast<const std::uint64_t*>(arrays[i].data());
        for (std::size_t wi = 0; wi < s.bits->num_words(); ++wi)
          s.bits->set_word(wi, words[wi]);
      } else if (s.bytes > 0) {
        std::memcpy(s.data, arrays[i].data(), s.bytes);
      }
    }
    return true;
  }

  abelian::Cluster& cluster_;
  int host_;
  double& compute_s_;
  rt::RecoveryCtx* rec_;
  const char* cat_;
  std::vector<Slot> state_;
};

}  // namespace lcr::apps
