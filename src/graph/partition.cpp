#include "graph/partition.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lcr::graph {

std::pair<int, int> cvc_grid(int num_hosts) {
  int pr = static_cast<int>(std::sqrt(static_cast<double>(num_hosts)));
  while (pr > 1 && num_hosts % pr != 0) --pr;
  return {pr, num_hosts / pr};
}

Csr symmetrize(const Csr& g) {
  EdgeList edges;
  std::vector<Weight> weights;
  const bool w = g.has_weights();
  edges.reserve(g.num_edges() * 2);
  if (w) weights.reserve(g.num_edges() * 2);
  for (VertexId u = 0; u < g.num_nodes(); ++u) {
    for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      const VertexId v = g.edge_target(e);
      edges.emplace_back(u, v);
      edges.emplace_back(v, u);
      if (w) {
        weights.push_back(g.edge_weight(e));
        weights.push_back(g.edge_weight(e));
      }
    }
  }
  return Csr::from_edges(g.num_nodes(), edges, weights);
}

namespace {

/// Contiguous master blocks balanced by out-edge count (Gemini's "blocked"
/// assignment that "tries to balance the assigned edges across hosts").
std::vector<VertexId> compute_master_bounds(const Csr& g, int num_hosts) {
  const VertexId n = g.num_nodes();
  std::vector<VertexId> bounds(static_cast<std::size_t>(num_hosts) + 1, n);
  bounds[0] = 0;
  const double target =
      static_cast<double>(g.num_edges()) / static_cast<double>(num_hosts);
  EdgeId acc = 0;
  int h = 1;
  for (VertexId v = 0; v < n && h < num_hosts; ++v) {
    acc += g.degree(v);
    if (static_cast<double>(acc) >= target * h) {
      bounds[static_cast<std::size_t>(h)] = v + 1;
      ++h;
    }
  }
  // Any remaining cuts collapse to n (empty hosts are legal for tiny graphs).
  for (; h < num_hosts; ++h)
    bounds[static_cast<std::size_t>(h)] =
        std::max(bounds[static_cast<std::size_t>(h)],
                 bounds[static_cast<std::size_t>(h - 1)]);
  return bounds;
}

int owner_from_bounds(const std::vector<VertexId>& bounds, VertexId gid) {
  // upper_bound over bounds[1..p]; small p, linear is fine but use binary.
  int lo = 0;
  int hi = static_cast<int>(bounds.size()) - 1;
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (bounds[static_cast<std::size_t>(mid)] <= gid)
      lo = mid;
    else
      hi = mid;
  }
  return lo;
}

}  // namespace

std::vector<DistGraph> partition(const Csr& g, int num_hosts,
                                 PartitionPolicy policy) {
  assert(num_hosts >= 1);
  const VertexId n = g.num_nodes();
  const std::vector<VertexId> bounds = compute_master_bounds(g, num_hosts);
  const auto [pr, pc] = cvc_grid(num_hosts);

  // 1. Assign every edge to a host.
  auto edge_host = [&](VertexId u, VertexId v) -> int {
    const int ou = owner_from_bounds(bounds, u);
    switch (policy) {
      case PartitionPolicy::BlockedEdgeCut:
      case PartitionPolicy::OutgoingEdgeCut:
        return ou;
      case PartitionPolicy::IncomingEdgeCut:
        return owner_from_bounds(bounds, v);
      case PartitionPolicy::CartesianVertexCut: {
        const int ov = owner_from_bounds(bounds, v);
        const int r = ou * pr / num_hosts;
        const int c = ov * pc / num_hosts;
        return r * pc + c;
      }
    }
    return ou;
  };

  std::vector<EdgeList> host_edges(static_cast<std::size_t>(num_hosts));
  std::vector<std::vector<Weight>> host_weights(
      static_cast<std::size_t>(num_hosts));
  const bool weighted = g.has_weights();
  for (VertexId u = 0; u < n; ++u) {
    for (EdgeId e = g.edge_begin(u); e < g.edge_end(u); ++e) {
      const VertexId v = g.edge_target(e);
      const int h = edge_host(u, v);
      host_edges[static_cast<std::size_t>(h)].emplace_back(u, v);
      if (weighted)
        host_weights[static_cast<std::size_t>(h)].push_back(g.edge_weight(e));
    }
  }

  // 2. Build each host's local graph: masters (all owned vertices) first,
  //    then mirrors (non-owned endpoints of local edges), each sorted by gid.
  std::vector<DistGraph> hosts(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    DistGraph& dg = hosts[static_cast<std::size_t>(h)];
    dg.host_id = h;
    dg.num_hosts = num_hosts;
    dg.policy = policy;
    dg.global_nodes = n;
    dg.master_bounds = bounds;

    const VertexId mlo = bounds[static_cast<std::size_t>(h)];
    const VertexId mhi = bounds[static_cast<std::size_t>(h) + 1];
    dg.num_masters = mhi - mlo;

    // Collect mirror gids.
    std::vector<VertexId> mirrors;
    {
      std::vector<bool> seen;  // lazily sized; local edges touch few gids
      seen.assign(n, false);
      for (const Edge& e : host_edges[static_cast<std::size_t>(h)]) {
        for (const VertexId gid : {e.first, e.second}) {
          if ((gid < mlo || gid >= mhi) && !seen[gid]) {
            seen[gid] = true;
            mirrors.push_back(gid);
          }
        }
      }
      std::sort(mirrors.begin(), mirrors.end());
    }

    dg.num_local = dg.num_masters + static_cast<VertexId>(mirrors.size());

    // Compressed lid map: masters implicit, mirror gids appended in the
    // sorted order the collection above produced.
    CompressedLidMap::Builder lids(mlo, dg.num_masters);
    for (const VertexId gid : mirrors) lids.add_mirror(gid);
    dg.lids = std::move(lids).build();

    // Local CSR, relabelled through a transient dense g2l (like `seen`
    // above, it dies with this scope and never ships with the graph).
    std::vector<VertexId> g2l(n, CompressedLidMap::kNoLocal);
    for (VertexId i = 0; i < dg.num_masters; ++i) g2l[mlo + i] = i;
    for (std::size_t i = 0; i < mirrors.size(); ++i)
      g2l[mirrors[i]] = dg.num_masters + static_cast<VertexId>(i);
    EdgeList local;
    local.reserve(host_edges[static_cast<std::size_t>(h)].size());
    for (const Edge& e : host_edges[static_cast<std::size_t>(h)])
      local.emplace_back(g2l[e.first], g2l[e.second]);
    dg.out_edges = Csr::from_edges(dg.num_local, local,
                                   host_weights[static_cast<std::size_t>(h)]);
    dg.in_edges = dg.out_edges.reverse();

    // Global out-degrees for every local proxy.
    dg.global_out_degree.resize(dg.num_local);
    for (VertexId i = 0; i < dg.num_masters; ++i)
      dg.global_out_degree[i] = static_cast<std::uint32_t>(g.degree(mlo + i));
    for (std::size_t i = 0; i < mirrors.size(); ++i)
      dg.global_out_degree[dg.num_masters + i] =
          static_cast<std::uint32_t>(g.degree(mirrors[i]));
  }

  // 3. Memoized sync plans. Mirrors are sorted by gid, masters are sorted by
  //    gid, and gid -> master-local-id is monotone, so both sides of each
  //    pair list the shared vertices in identical (gid) order - which also
  //    means every per-(host, peer) list appends strictly increasing lids,
  //    exactly what the delta-chunk builders require.
  std::vector<CompressedPlan::Builder> m2m_builders;
  std::vector<CompressedPlan::Builder> m2mirror_builders;
  m2m_builders.reserve(static_cast<std::size_t>(num_hosts));
  m2mirror_builders.reserve(static_cast<std::size_t>(num_hosts));
  for (int h = 0; h < num_hosts; ++h) {
    m2m_builders.emplace_back(num_hosts);
    m2mirror_builders.emplace_back(num_hosts);
  }
  for (int h = 0; h < num_hosts; ++h) {
    DistGraph& dg = hosts[static_cast<std::size_t>(h)];
    dg.lids.visit_mirrors([&](VertexId lid, VertexId gid) {
      const int p = owner_from_bounds(bounds, gid);
      m2m_builders[static_cast<std::size_t>(h)].append(p, lid);
      // The owner-side master lid is arithmetic: gid - owner's block start.
      m2mirror_builders[static_cast<std::size_t>(p)].append(
          h, gid - bounds[static_cast<std::size_t>(p)]);
    });
  }
  for (int h = 0; h < num_hosts; ++h) {
    DistGraph& dg = hosts[static_cast<std::size_t>(h)];
    dg.mirror_to_master =
        std::move(m2m_builders[static_cast<std::size_t>(h)]).build();
    dg.master_to_mirror =
        std::move(m2mirror_builders[static_cast<std::size_t>(h)]).build();
  }

  return hosts;
}

}  // namespace lcr::graph
