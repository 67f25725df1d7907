// The PageRank compute phase both engines run (DESIGN.md §4, item 7): a
// pull over the in-edge transpose. Each slot has one writer, so there are
// no atomics, and every slot is overwritten, so there is no reset pass.
// Csr::reverse() lists in-edges in ascending source order, the order the
// sequential reference adds them in, so each sum has a fixed order at any
// thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/dist_graph.hpp"
#include "runtime/bitset.hpp"
#include "runtime/thread_team.hpp"

namespace lcr::apps {

/// Sets contrib[v] = rank[v] / global out-degree (0 for out-degree 0) for
/// every v < rank.size(), then sums[dst] = sum of contrib over dst's local
/// in-edges for every local dst, marking each dst that has an in-edge in
/// `touched`. `contrib` and `sums` are sized g.num_local; entries of
/// `contrib` past rank.size() (Gemini's mirrors, which have no out-edges)
/// must hold 0.
inline void pagerank_gather(rt::ThreadTeam& team, const graph::DistGraph& g,
                            const std::vector<double>& rank,
                            std::vector<double>& contrib,
                            std::vector<double>& sums,
                            rt::ConcurrentBitset& touched) {
  team.parallel_chunks(
      0, rank.size(), [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t v = lo; v < hi; ++v) {
          const std::uint32_t outdeg = g.global_out_degree[v];
          contrib[v] =
              outdeg == 0 ? 0.0 : rank[v] / static_cast<double>(outdeg);
        }
      });
  team.parallel_chunks(
      0, g.num_local, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t lid = lo; lid < hi; ++lid) {
          const auto dst = static_cast<graph::VertexId>(lid);
          double sum = 0.0;
          g.in_edges.for_each_edge(
              dst, [&](graph::VertexId src, graph::Weight) {
                sum += contrib[src];
              });
          sums[lid] = sum;
          if (g.in_edges.degree(dst) != 0) touched.set(lid);
        }
      });
}

}  // namespace lcr::apps
