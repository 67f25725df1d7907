// Generic monotone pull driver.
//
// The paper's vertex-program model has two operator styles (Section II):
// push ("reads the active node's label and writes its neighbors' labels",
// see push_engine.hpp) and pull ("reads its neighbors' labels and writes
// the active node's label"). This driver implements the pull style: each
// round, every local proxy recomputes its label as the min over its local
// in-edges of relax(neighbor label); partial results on mirror proxies are
// min-reduced to the master and fresh values are broadcast back, according
// to the same partition-aware plan as the push driver (the policy decides
// which endpoints can be mirrors, not the operator direction).
//
// Pull is topology-driven here (every vertex with in-edges is re-evaluated
// each round); it converges to the same fixed point as the data-driven push
// driver, which the tests assert.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "abelian/engine.hpp"
#include "abelian/sync.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/round_loop.hpp"

namespace lcr::apps {

template <typename Traits>
std::vector<typename Traits::Label> run_pull(
    abelian::HostEngine& eng, graph::VertexId source,
    std::uint64_t max_rounds = std::numeric_limits<std::uint64_t>::max()) {
  using Label = typename Traits::Label;
  const graph::DistGraph& g = eng.graph();
  const std::size_t n = g.num_local;

  std::vector<Label> labels(n);
  rt::ConcurrentBitset dirty(n);

  g.for_each_local([&](graph::VertexId lid, graph::VertexId gid) {
    labels[lid] = Traits::init_label(gid, source);
  });

  const abelian::SyncPlan plan = abelian::plan_push_monotone(g.policy);
  // No recovery context: pull has no caller that runs it under a kill.
  RoundLoop loop(eng.cluster(), g.host_id, eng.stats().compute_s, nullptr);
  loop.run(max_rounds, [&] {
    // --- Pull computation: re-evaluate every proxy from local in-edges ---
    std::atomic<std::uint64_t> changed{0};
    loop.compute([&] {
      eng.team().parallel_chunks(
          0, n, [&](std::size_t lo, std::size_t hi, std::size_t) {
            for (std::size_t v = lo; v < hi; ++v) {
              Label best = labels[v];
              g.in_edges.for_each_edge(
                  static_cast<graph::VertexId>(v),
                  [&](graph::VertexId u, graph::Weight w) {
                    const Label cand = Traits::relax(labels[u], w);
                    if (cand < best) best = cand;
                  });
              if (best < labels[v]) {
                labels[v] = best;  // single writer per v in this loop
                dirty.set(v);
                changed.fetch_add(1, std::memory_order_relaxed);
              }
            }
          });
    });

    // --- Partition-aware sync, same plan as push ---
    if (plan.do_reduce) {
      eng.sync_reduce<Label>(
          labels.data(), dirty,
          [&](Label& current, Label incoming) {
            // Exclusive under the engine's shard lock (DESIGN.md §12).
            return plain_min(current, incoming);
          },
          [&](graph::VertexId lid) {
            dirty.set(lid);
            changed.fetch_add(1, std::memory_order_relaxed);
          });
    }
    if (plan.do_broadcast) {
      eng.sync_broadcast<Label>(labels.data(), dirty, [&](graph::VertexId) {
        changed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    dirty.clear_all();
    eng.stats().rounds++;

    return eng.cluster().oob_allreduce_sum(changed.load()) != 0;
  });
  return labels;
}

}  // namespace lcr::apps
