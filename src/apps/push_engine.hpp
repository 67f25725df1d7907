// Generic data-driven monotone push driver (bfs / cc / sssp).
//
// Implements the vertex-program model of paper Section II: some nodes start
// active; applying the push operator to an active node relaxes its
// out-neighbors' labels; labels are monotone under a min-combine, so the
// partition-aware sync (reduce, plus broadcast under vertex cuts) converges
// to the same fixed point as a sequential run. Computation terminates when
// all nodes are quiescent (global active count == 0).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "abelian/engine.hpp"
#include "abelian/sync.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/round_loop.hpp"

namespace lcr::apps {

/// Traits contract:
///   using Label = <integral label type>;
///   static constexpr Label kInf;
///   static Label init_label(VertexId gid, VertexId source);
///   static bool init_active(VertexId gid, VertexId source);
///   static Label relax(Label src_label, graph::Weight w);
template <typename Traits>
std::vector<typename Traits::Label> run_push(
    abelian::HostEngine& eng, graph::VertexId source,
    std::uint64_t max_rounds = std::numeric_limits<std::uint64_t>::max(),
    rt::RecoveryCtx* rec = nullptr) {
  using Label = typename Traits::Label;
  const graph::DistGraph& g = eng.graph();
  const std::size_t n = g.num_local;

  std::vector<Label> labels(n);
  rt::ConcurrentBitset active(n);
  rt::ConcurrentBitset frontier(n);
  rt::ConcurrentBitset dirty(n);

  // Activation is only useful where the vertex can push, i.e. it has local
  // out-edges (under edge cuts mirrors never have any).
  auto maybe_activate = [&](graph::VertexId lid) {
    if (g.out_edges.degree(lid) > 0) active.set(lid);
  };

  g.for_each_local([&](graph::VertexId lid, graph::VertexId gid) {
    labels[lid] = Traits::init_label(gid, source);
    if (Traits::init_active(gid, source)) maybe_activate(lid);
  });

  const abelian::SyncPlan plan = abelian::plan_push_monotone(g.policy);
  // Checkpoint: labels + active set; everything else is rebuilt per round.
  RoundLoop loop(eng.cluster(), g.host_id, eng.stats().compute_s, rec);
  loop.checkpoint(labels);
  loop.checkpoint(active);
  loop.run(max_rounds, [&] {
    loop.compute([&] {
      frontier.clear_all();
      active.for_each([&](std::size_t lid) { frontier.set(lid); });
      active.clear_all();

      eng.team().parallel_chunks(
          0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
            frontier.for_each_in_range(lo, hi, [&](std::size_t lid) {
              const Label src_label = labels[lid];
              g.out_edges.for_each_edge(
                  static_cast<graph::VertexId>(lid),
                  [&](graph::VertexId dst, graph::Weight w) {
                    const Label cand = Traits::relax(src_label, w);
                    if (cand < labels[dst] && atomic_min(labels[dst], cand)) {
                      dirty.set(dst);
                      maybe_activate(dst);
                    }
                  });
            });
          });
    });

    // --- Communication phase: partition-aware sync ---
    if (plan.do_reduce) {
      eng.sync_reduce<Label>(
          labels.data(), dirty,
          [&](Label& current, Label incoming) {
            // Exclusive under the engine's shard lock (DESIGN.md §12).
            return plain_min(current, incoming);
          },
          [&](graph::VertexId lid) {
            dirty.set(lid);
            maybe_activate(lid);
          });
    }
    if (plan.do_broadcast) {
      eng.sync_broadcast<Label>(
          labels.data(), dirty,
          [&](graph::VertexId lid) { maybe_activate(lid); });
    }
    dirty.clear_all();
    eng.stats().rounds++;

    // --- Termination: all nodes quiescent everywhere ---
    return eng.cluster().oob_allreduce_sum(
               static_cast<std::uint64_t>(active.count())) != 0;
  });
  return labels;
}

}  // namespace lcr::apps
