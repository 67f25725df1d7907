#include "apps/pagerank.hpp"

#include <cmath>
#include <mutex>

#include "abelian/sync.hpp"
#include "apps/atomic_ops.hpp"
#include "apps/pagerank_gather.hpp"
#include "apps/round_loop.hpp"
#include "runtime/spinlock.hpp"

namespace lcr::apps {

std::vector<double> run_pagerank(abelian::HostEngine& eng,
                                 PagerankOptions opt, rt::RecoveryCtx* rec) {
  const graph::DistGraph& g = eng.graph();
  const std::size_t n_local = g.num_local;
  const double n_global = static_cast<double>(g.global_nodes);

  std::vector<double> rank(n_local, 1.0 / n_global);
  std::vector<double> contrib(n_local, 0.0);
  std::vector<double> accum(n_local, 0.0);
  rt::ConcurrentBitset dirty(n_local);
  rt::ConcurrentBitset rank_dirty(n_local);

  const abelian::SyncPlan plan = abelian::plan_accumulate(g.policy);

  // The per-iteration transients (contrib, accum, dirty sets) are rebuilt
  // every round, so the checkpoint is just the rank vector.
  RoundLoop loop(eng.cluster(), g.host_id, eng.stats().compute_s, rec);
  loop.checkpoint(rank);
  loop.run(opt.max_iterations, [&] {
    // --- Computation: pull contributions along local in-edges ---
    loop.compute(
        [&] { pagerank_gather(eng.team(), g, rank, contrib, accum, dirty); });

    // --- Reduce: Add dirty accumulator mirrors into masters (skipped when
    // the partition guarantees contributions land on masters, e.g. the
    // incoming edge-cut) ---
    if (plan.do_reduce) {
      eng.sync_reduce<double>(
          accum.data(), dirty,
          [&](double& current, double incoming) {
            // Exclusive under the engine's shard lock (DESIGN.md §12).
            plain_add(current, incoming);
            return true;
          },
          [](graph::VertexId) {});
    }

    // --- Recompute masters, measure convergence ---
    double local_delta = 0.0;
    loop.compute([&] {
      rt::Spinlock delta_lock;
      eng.team().parallel_chunks(
          0, g.num_masters, [&](std::size_t lo, std::size_t hi, std::size_t) {
            double delta = 0.0;
            for (std::size_t lid = lo; lid < hi; ++lid) {
              const double next =
                  (1.0 - opt.damping) / n_global + opt.damping * accum[lid];
              delta += std::abs(next - rank[lid]);
              rank[lid] = next;
              rank_dirty.set(lid);
            }
            std::lock_guard<rt::Spinlock> guard(delta_lock);
            local_delta += delta;
          });
    });

    // --- Broadcast new ranks to mirrors (vertex cuts only) ---
    if (plan.do_broadcast) {
      eng.sync_broadcast<double>(rank.data(), rank_dirty,
                                 [](graph::VertexId) {});
    }

    // --- Reset round state (the gather overwrites every accum slot) ---
    loop.compute([&] {
      dirty.clear_all();
      rank_dirty.clear_all();
    });
    eng.stats().rounds++;

    const double global_delta = eng.cluster().oob_allreduce_sum(local_delta);
    return !(opt.tolerance > 0.0 && global_delta < opt.tolerance);
  });
  return rank;
}

}  // namespace lcr::apps
