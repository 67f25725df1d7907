// Seeded property tests for the compressed lid maps and sync plans
// (DESIGN.md §17): DeltaChunks / CompressedLidMap / PlanCursor checked
// against plain vector + unordered_map shadow models, on synthetic
// sequences and on real partitions (edge-cut and vertex-cut, skewed and
// uniform graphs), plus a compact exactness matrix re-validating the three
// apps x three backends end-to-end on the compressed representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <unordered_map>
#include <vector>

#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "graph/generators.hpp"
#include "graph/lid_map.hpp"
#include "graph/partition.hpp"

namespace lcr {
namespace {

using graph::VertexId;

/// Strictly increasing random sequence. `skewed` clusters values in tight
/// runs separated by huge jumps (the gid pattern hub-heavy partitions
/// produce); otherwise gaps are uniform small.
std::vector<VertexId> random_monotone(std::mt19937& rng, std::size_t n,
                                      bool skewed) {
  std::vector<VertexId> seq;
  seq.reserve(n);
  VertexId v = rng() % 64;
  std::uniform_int_distribution<std::uint32_t> small(1, 7);
  std::uniform_int_distribution<std::uint32_t> huge(1000, 5'000'000);
  for (std::size_t i = 0; i < n; ++i) {
    seq.push_back(v);
    const bool jump = skewed && (rng() % 16 == 0);
    v += jump ? huge(rng) : small(rng);
  }
  return seq;
}

TEST(DeltaChunks, MatchesVectorShadowSeeded) {
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng() % 700;  // straddles chunk boundaries
    const bool skewed = trial % 2 == 0;
    const std::vector<VertexId> shadow = random_monotone(rng, n, skewed);

    graph::detail::DeltaChunks::Builder b;
    for (const VertexId v : shadow) b.append(v);
    const graph::detail::DeltaChunks seq = std::move(b).build();

    ASSERT_EQ(seq.size(), shadow.size());
    // Random access in scrambled order: run and non-run chunks, every
    // in-chunk offset.
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
      order[i] = static_cast<std::uint32_t>(i);
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::uint32_t i : order) EXPECT_EQ(seq.at(i), shadow[i]);

    // find(): every member resolves to its index, near-misses to kNotFound.
    for (std::size_t i = 0; i < n; i += 3)
      EXPECT_EQ(seq.find(shadow[i]), static_cast<std::uint32_t>(i));
    std::set<VertexId> members(shadow.begin(), shadow.end());
    for (std::size_t i = 0; i < n; i += 5) {
      const VertexId probe = shadow[i] + 1 + rng() % 3;
      if (members.count(probe) == 0) {
        EXPECT_EQ(seq.find(probe), graph::detail::DeltaChunks::kNotFound);
      }
    }
    if (shadow.front() > 0) {
      EXPECT_EQ(seq.find(shadow.front() - 1),
                graph::detail::DeltaChunks::kNotFound);
    }
    EXPECT_EQ(seq.find(shadow.back() + 1),
              graph::detail::DeltaChunks::kNotFound);

    // visit() over random sub-ranges streams exactly shadow[lo, hi).
    for (int r = 0; r < 8; ++r) {
      std::uint32_t lo = rng() % (n + 1);
      std::uint32_t hi = rng() % (n + 1);
      if (lo > hi) std::swap(lo, hi);
      std::uint32_t expect = lo;
      seq.visit(lo, hi, [&](std::uint32_t idx, VertexId v) {
        ASSERT_EQ(idx, expect);
        EXPECT_EQ(v, shadow[idx]);
        ++expect;
      });
      EXPECT_EQ(expect, hi);
    }
  }
}

TEST(CompressedLidMap, MatchesShadowMapsSeeded) {
  std::mt19937 rng(0xC0FFEE);
  for (int trial = 0; trial < 25; ++trial) {
    const VertexId universe = 1u << 14;
    const VertexId mlo = rng() % (universe / 2);
    const VertexId nm = rng() % (universe / 4);

    // Random mirror gid set outside the master block.
    std::set<VertexId> mirror_set;
    const std::size_t want = rng() % 600;
    while (mirror_set.size() < want) {
      const VertexId gid = rng() % universe;
      if (gid < mlo || gid >= mlo + nm) mirror_set.insert(gid);
    }

    // Shadow models: the seed representation.
    std::vector<VertexId> l2g;
    std::unordered_map<VertexId, VertexId> g2l;
    for (VertexId i = 0; i < nm; ++i) {
      l2g.push_back(mlo + i);
      g2l.emplace(mlo + i, i);
    }
    for (const VertexId gid : mirror_set) {
      g2l.emplace(gid, static_cast<VertexId>(l2g.size()));
      l2g.push_back(gid);
    }

    graph::CompressedLidMap::Builder builder(mlo, nm);
    for (const VertexId gid : mirror_set) builder.add_mirror(gid);
    const graph::CompressedLidMap map = std::move(builder).build();

    ASSERT_EQ(map.num_local(), l2g.size());
    ASSERT_EQ(map.num_mirrors(), mirror_set.size());
    for (VertexId lid = 0; lid < map.num_local(); ++lid)
      EXPECT_EQ(map.local_to_global(lid), l2g[lid]);
    // Exhaustive g2l: members invert, absentees report kNoLocal.
    for (VertexId gid = 0; gid < universe; ++gid) {
      const auto it = g2l.find(gid);
      EXPECT_EQ(map.global_to_local(gid),
                it == g2l.end() ? graph::CompressedLidMap::kNoLocal
                                : it->second);
    }
    // visit_mirrors streams the mirror segment in lid order.
    VertexId expect_lid = nm;
    map.visit_mirrors([&](VertexId lid, VertexId gid) {
      ASSERT_EQ(lid, expect_lid++);
      EXPECT_EQ(gid, l2g[lid]);
    });
    EXPECT_EQ(expect_lid, map.num_local());
    EXPECT_LE(map.mem_bytes(), map.mem_bytes_uncompressed());
  }
}

TEST(PlanCursor, MatchesVectorShadowSeeded) {
  std::mt19937 rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const int peers = 2 + static_cast<int>(rng() % 6);
    std::vector<std::vector<VertexId>> shadow(
        static_cast<std::size_t>(peers));
    graph::CompressedPlan::Builder builder(peers);
    for (int p = 0; p < peers; ++p) {
      auto lids = random_monotone(rng, rng() % 400, trial % 2 == 0);
      for (const VertexId lid : lids) builder.append(p, lid);
      shadow[static_cast<std::size_t>(p)] = std::move(lids);
    }
    const graph::CompressedPlan plan = std::move(builder).build();

    ASSERT_EQ(plan.num_peers(), peers);
    std::uint64_t total = 0;
    for (int p = 0; p < peers; ++p) {
      const auto& list = shadow[static_cast<std::size_t>(p)];
      total += list.size();
      ASSERT_EQ(plan.size(p), list.size());
      EXPECT_EQ(plan.empty(p), list.empty());

      const graph::PlanSpan span = plan.span(p);
      span.visit(0, static_cast<std::uint32_t>(list.size()),
                 [&](std::uint32_t pos, VertexId lid) {
                   EXPECT_EQ(lid, list[pos]);
                 });

      // Scatter contract: monotone position streams with slice restarts.
      graph::PlanCursor cursor(span);
      std::uint32_t pos = 0;
      while (pos < list.size()) {
        const std::uint32_t slice_end =
            std::min(static_cast<std::uint32_t>(list.size()),
                     pos + 1 + static_cast<std::uint32_t>(rng() % 96));
        graph::PlanCursor slice(span);  // each apply slice owns a cursor
        for (std::uint32_t i = pos; i < slice_end; ++i) {
          EXPECT_EQ(slice.at(i), list[i]);
          EXPECT_EQ(cursor.at(i), list[i]);
        }
        pos = slice_end;
      }
    }
    EXPECT_EQ(plan.total_entries(), total);
  }
}

// ---------------------------------------------------------------------------
// Real partitions: the compressed structures vs an independently derived
// expected model (edge assignment replayed from the documented policies).
// ---------------------------------------------------------------------------

struct PartitionShadowCase {
  const char* graph;  // "rmat" (skewed) | "er" (uniform)
  graph::PartitionPolicy policy;
  int hosts;
};

class LidMapOnPartitions
    : public ::testing::TestWithParam<PartitionShadowCase> {};

TEST_P(LidMapOnPartitions, AgreesWithShadowModel) {
  const auto [kind, policy, hosts] = GetParam();
  const graph::Csr g = std::string(kind) == "rmat"
                           ? graph::rmat(8, 8.0)
                           : graph::erdos_renyi(512, 1u << 13);
  const auto parts = graph::partition(g, hosts, policy);
  const auto [pr, pc] = graph::cvc_grid(hosts);
  const auto& bounds = parts[0].master_bounds;

  // Independent edge-assignment replay (partition.cpp's documented rules).
  const auto owner = [&](VertexId gid) { return parts[0].owner_of(gid); };
  const auto edge_host = [&](VertexId u, VertexId v) -> int {
    switch (policy) {
      case graph::PartitionPolicy::BlockedEdgeCut:
      case graph::PartitionPolicy::OutgoingEdgeCut:
        return owner(u);
      case graph::PartitionPolicy::IncomingEdgeCut:
        return owner(v);
      case graph::PartitionPolicy::CartesianVertexCut:
        return (owner(u) * pr / hosts) * pc + owner(v) * pc / hosts;
    }
    return owner(u);
  };
  std::vector<std::set<VertexId>> expect_mirrors(
      static_cast<std::size_t>(hosts));
  for (VertexId u = 0; u < g.num_nodes(); ++u)
    g.for_each_edge(u, [&](VertexId v, graph::Weight) {
      const int h = edge_host(u, v);
      for (const VertexId gid : {u, v})
        if (owner(gid) != h)
          expect_mirrors[static_cast<std::size_t>(h)].insert(gid);
    });

  for (int h = 0; h < hosts; ++h) {
    const auto& part = parts[static_cast<std::size_t>(h)];
    const auto& mirrors = expect_mirrors[static_cast<std::size_t>(h)];

    // Shadow l2g / g2l from the expected model.
    std::vector<VertexId> l2g;
    std::unordered_map<VertexId, VertexId> g2l;
    for (VertexId gid = bounds[static_cast<std::size_t>(h)];
         gid < bounds[static_cast<std::size_t>(h) + 1]; ++gid) {
      g2l.emplace(gid, static_cast<VertexId>(l2g.size()));
      l2g.push_back(gid);
    }
    for (const VertexId gid : mirrors) {
      g2l.emplace(gid, static_cast<VertexId>(l2g.size()));
      l2g.push_back(gid);
    }

    ASSERT_EQ(part.num_local, l2g.size()) << "host " << h;
    for (VertexId lid = 0; lid < part.num_local; ++lid)
      EXPECT_EQ(part.local_to_global(lid), l2g[lid]);
    // for_each_local streams every lid once, in order, with its gid.
    VertexId next_lid = 0;
    part.for_each_local([&](VertexId lid, VertexId gid) {
      ASSERT_EQ(lid, next_lid++);
      EXPECT_EQ(gid, part.local_to_global(lid));
    });
    EXPECT_EQ(next_lid, part.num_local) << "host " << h;
    for (VertexId gid = 0; gid < g.num_nodes(); ++gid) {
      const auto it = g2l.find(gid);
      EXPECT_EQ(part.global_to_local(gid),
                it == g2l.end() ? graph::DistGraph::kNoLocal : it->second);
    }

    // Shadow plans: mirror lids in lid order binned by owner; the owner
    // side's master lid is gid - its block start.
    std::vector<std::vector<VertexId>> expect_m2m(
        static_cast<std::size_t>(hosts));
    for (const VertexId gid : mirrors)
      expect_m2m[static_cast<std::size_t>(owner(gid))].push_back(
          g2l.at(gid));
    for (int p = 0; p < hosts; ++p) {
      const auto& list = expect_m2m[static_cast<std::size_t>(p)];
      const graph::PlanSpan span = part.mirror_to_master.span(p);
      ASSERT_EQ(span.size(), list.size()) << "host " << h << " peer " << p;
      graph::PlanCursor cursor(span);
      for (std::uint32_t i = 0; i < list.size(); ++i)
        EXPECT_EQ(cursor.at(i), list[i]);
      // Owner-side reverse list: arithmetic master lids, same gid order.
      const graph::PlanSpan rev =
          parts[static_cast<std::size_t>(p)].master_to_mirror.span(h);
      ASSERT_EQ(rev.size(), list.size());
      rev.visit(0, static_cast<std::uint32_t>(list.size()),
                [&](std::uint32_t pos, VertexId master_lid) {
                  EXPECT_EQ(master_lid + bounds[static_cast<std::size_t>(p)],
                            l2g[list[pos]]);
                });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LidMapOnPartitions,
    ::testing::Values(
        PartitionShadowCase{"rmat", graph::PartitionPolicy::OutgoingEdgeCut,
                            4},
        PartitionShadowCase{"rmat",
                            graph::PartitionPolicy::CartesianVertexCut, 6},
        PartitionShadowCase{"er", graph::PartitionPolicy::OutgoingEdgeCut, 5},
        PartitionShadowCase{"er", graph::PartitionPolicy::CartesianVertexCut,
                            4}),
    [](const auto& info) {
      const bool cvc = info.param.policy ==
                       graph::PartitionPolicy::CartesianVertexCut;
      return std::string(info.param.graph) + (cvc ? "_cvc_h" : "_oec_h") +
             std::to_string(info.param.hosts);
    });

// ---------------------------------------------------------------------------
// Exactness on the compressed build: apps x backends end-to-end, validated
// against the sequential references (edge-cut here; the host-scale suite
// covers the vertex-cut variant of the same matrix).
// ---------------------------------------------------------------------------

struct ExactCase {
  const char* app;
  comm::BackendKind backend;
};

class CompressedExactness : public ::testing::TestWithParam<ExactCase> {};

TEST_P(CompressedExactness, MatchesSequentialReference) {
  const auto [app, backend] = GetParam();
  const bool is_cc = std::string(app) == "cc";
  graph::Csr g = graph::rmat(7, 8.0);
  if (is_cc) g = graph::symmetrize(g);

  bench::RunSpec spec;
  spec.app = app;
  spec.backend = backend;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  spec.hosts = 4;
  spec.threads = 2;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 10;

  const bench::RunResult result = bench::run_app(g, spec);
  if (std::string(app) == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (is_cc) {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else {
    const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CompressedExactness,
    ::testing::Values(ExactCase{"bfs", comm::BackendKind::Lci},
                      ExactCase{"bfs", comm::BackendKind::MpiProbe},
                      ExactCase{"bfs", comm::BackendKind::MpiRma},
                      ExactCase{"cc", comm::BackendKind::Lci},
                      ExactCase{"cc", comm::BackendKind::MpiProbe},
                      ExactCase{"cc", comm::BackendKind::MpiRma},
                      ExactCase{"pagerank", comm::BackendKind::Lci},
                      ExactCase{"pagerank", comm::BackendKind::MpiProbe},
                      ExactCase{"pagerank", comm::BackendKind::MpiRma}),
    [](const auto& info) {
      std::string name = info.param.app;
      name += info.param.backend == comm::BackendKind::Lci ? "_lci"
              : info.param.backend == comm::BackendKind::MpiProbe
                  ? "_probe"
                  : "_rma";
      return name;
    });

}  // namespace
}  // namespace lcr
