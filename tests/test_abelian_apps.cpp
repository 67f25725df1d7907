// End-to-end correctness of the Abelian engine: every app validated against
// sequential references across backends, partition policies, and host
// counts (parameterized sweep).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>

#include "abelian/cluster.hpp"
#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/pull_engine.hpp"
#include "apps/reference.hpp"
#include "apps/sssp.hpp"
#include "apps/sssp_delta.hpp"
#include "bench_support/runner.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace lcr {
namespace {

struct AppCase {
  const char* app;
  comm::BackendKind backend;
  graph::PartitionPolicy policy;
  int hosts;
};

std::string case_name(const ::testing::TestParamInfo<AppCase>& info) {
  std::ostringstream os;
  os << info.param.app << "_";
  switch (info.param.backend) {
    case comm::BackendKind::Lci: os << "lci"; break;
    case comm::BackendKind::MpiProbe: os << "probe"; break;
    case comm::BackendKind::MpiRma: os << "rma"; break;
  }
  os << "_";
  switch (info.param.policy) {
    case graph::PartitionPolicy::BlockedEdgeCut: os << "bec"; break;
    case graph::PartitionPolicy::OutgoingEdgeCut: os << "oec"; break;
    case graph::PartitionPolicy::IncomingEdgeCut: os << "iec"; break;
    case graph::PartitionPolicy::CartesianVertexCut: os << "cvc"; break;
  }
  os << "_h" << info.param.hosts;
  return os.str();
}

class AbelianApps : public ::testing::TestWithParam<AppCase> {};

TEST_P(AbelianApps, MatchesSequentialReference) {
  const AppCase& c = GetParam();
  graph::GenOptions opt;
  opt.seed = 1234;
  opt.make_weights = true;
  opt.max_weight = 16;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const bool is_cc = std::string(c.app) == "cc";
  if (is_cc) g = graph::symmetrize(g);

  bench::RunSpec spec;
  spec.app = c.app;
  spec.engine = "abelian";
  spec.backend = c.backend;
  spec.policy = c.policy;
  spec.hosts = c.hosts;
  spec.threads = 2;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 10;

  const bench::RunResult result = bench::run_app(g, spec);

  if (std::string(c.app) == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (std::string(c.app) == "sssp") {
    EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  } else if (is_cc) {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else {
    const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }
  EXPECT_GT(result.rounds, 0u);
}

std::vector<AppCase> make_cases() {
  std::vector<AppCase> cases;
  const char* apps[] = {"bfs", "cc", "sssp", "pagerank"};
  const comm::BackendKind backends[] = {comm::BackendKind::Lci,
                                        comm::BackendKind::MpiProbe,
                                        comm::BackendKind::MpiRma};
  // Core sweep: every app x backend on the vertex cut at 4 hosts.
  for (const char* app : apps)
    for (auto backend : backends)
      cases.push_back(
          {app, backend, graph::PartitionPolicy::CartesianVertexCut, 4});
  // Policy coverage with the LCI backend (including the broadcast-only
  // incoming edge-cut plan).
  for (const char* app : apps) {
    cases.push_back(
        {app, comm::BackendKind::Lci, graph::PartitionPolicy::OutgoingEdgeCut,
         4});
    cases.push_back({app, comm::BackendKind::Lci,
                     graph::PartitionPolicy::BlockedEdgeCut, 3});
    cases.push_back({app, comm::BackendKind::Lci,
                     graph::PartitionPolicy::IncomingEdgeCut, 4});
  }
  cases.push_back({"bfs", comm::BackendKind::MpiProbe,
                   graph::PartitionPolicy::IncomingEdgeCut, 3});
  cases.push_back({"pagerank", comm::BackendKind::MpiRma,
                   graph::PartitionPolicy::IncomingEdgeCut, 4});
  // Host-count coverage (including the degenerate single host).
  for (auto backend : backends) {
    cases.push_back(
        {"bfs", backend, graph::PartitionPolicy::CartesianVertexCut, 1});
    cases.push_back(
        {"pagerank", backend, graph::PartitionPolicy::CartesianVertexCut, 2});
    cases.push_back(
        {"sssp", backend, graph::PartitionPolicy::OutgoingEdgeCut, 2});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AbelianApps, ::testing::ValuesIn(make_cases()),
                         case_name);

// ---------------------------------------------------------------------------
// Pull-style operators (paper Section II's second operator style)
// ---------------------------------------------------------------------------

struct PullCase {
  const char* app;  // bfs | cc | sssp
  graph::PartitionPolicy policy;
  int hosts;
};

class PullApps : public ::testing::TestWithParam<PullCase> {};

TEST_P(PullApps, PullMatchesReference) {
  const PullCase& c = GetParam();
  graph::GenOptions opt;
  opt.seed = 99;
  opt.make_weights = true;
  opt.max_weight = 16;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const bool is_cc = std::string(c.app) == "cc";
  if (is_cc) g = graph::symmetrize(g);
  const graph::VertexId source = bench::choose_source(g);

  auto parts = graph::partition(g, c.hosts, c.policy);
  abelian::Cluster cluster(c.hosts, fabric::test_config());
  std::vector<std::uint32_t> labels(g.num_nodes(), 0);
  cluster.run([&](int h) {
    const auto& part = parts[static_cast<std::size_t>(h)];
    abelian::EngineConfig cfg;
    abelian::HostEngine eng(cluster, part, cfg);
    std::vector<std::uint32_t> local;
    if (std::string(c.app) == "bfs")
      local = apps::run_pull<apps::BfsTraits>(eng, source);
    else if (is_cc)
      local = apps::run_pull<apps::CcTraits>(eng, 0);
    else
      local = apps::run_pull<apps::SsspTraits>(eng, source);
    for (graph::VertexId lid = 0; lid < part.num_masters; ++lid)
      labels[part.local_to_global(lid)] = local[lid];
    cluster.oob_barrier();
  });

  if (std::string(c.app) == "bfs")
    EXPECT_EQ(labels, apps::reference_bfs(g, source));
  else if (is_cc)
    EXPECT_EQ(labels, apps::reference_cc(g));
  else
    EXPECT_EQ(labels, apps::reference_sssp(g, source));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PullApps,
    ::testing::Values(
        PullCase{"bfs", graph::PartitionPolicy::CartesianVertexCut, 4},
        PullCase{"bfs", graph::PartitionPolicy::OutgoingEdgeCut, 3},
        PullCase{"bfs", graph::PartitionPolicy::IncomingEdgeCut, 4},
        PullCase{"cc", graph::PartitionPolicy::CartesianVertexCut, 4},
        PullCase{"cc", graph::PartitionPolicy::IncomingEdgeCut, 2},
        PullCase{"sssp", graph::PartitionPolicy::CartesianVertexCut, 4},
        PullCase{"sssp", graph::PartitionPolicy::OutgoingEdgeCut, 2}),
    [](const auto& info) {
      std::ostringstream os;
      os << info.param.app << "_";
      switch (info.param.policy) {
        case graph::PartitionPolicy::OutgoingEdgeCut: os << "oec"; break;
        case graph::PartitionPolicy::IncomingEdgeCut: os << "iec"; break;
        default: os << "cvc"; break;
      }
      os << "_h" << info.param.hosts;
      return os.str();
    });

TEST(AbelianAppsExtra, BfsOnDisconnectedGraphLeavesInfinity) {
  // Two stars with no edges between them.
  graph::EdgeList edges;
  for (graph::VertexId v = 1; v < 8; ++v) edges.emplace_back(0, v);
  for (graph::VertexId v = 17; v < 24; ++v) edges.emplace_back(16, v);
  graph::Csr g = graph::Csr::from_edges(32, edges);

  bench::RunSpec spec;
  spec.app = "bfs";
  spec.hosts = 2;
  spec.source = 0;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, 0));
  EXPECT_EQ(result.labels_u32[16], ~std::uint32_t{0});  // unreachable
}

TEST(AbelianAppsExtra, CcFindsMultipleComponents) {
  graph::EdgeList edges{{0, 1}, {1, 0}, {2, 3}, {3, 2}, {4, 5}, {5, 4}};
  graph::Csr g = graph::Csr::from_edges(6, edges);
  bench::RunSpec spec;
  spec.app = "cc";
  spec.hosts = 3;
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, (std::vector<std::uint32_t>{0, 0, 2, 2, 4, 4}));
}

TEST(AbelianAppsExtra, SsspRespectsWeights) {
  // 0 -> 1 (weight 10), 0 -> 2 (1), 2 -> 1 (1): shortest 0->1 is 2 via 2.
  graph::EdgeList edges{{0, 1}, {0, 2}, {2, 1}};
  std::vector<graph::Weight> weights{10, 1, 1};
  graph::Csr g = graph::Csr::from_edges(3, edges, weights);
  bench::RunSpec spec;
  spec.app = "sssp";
  spec.hosts = 2;
  spec.source = 0;
  spec.policy = graph::PartitionPolicy::OutgoingEdgeCut;
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32[1], 2u);
  EXPECT_EQ(result.labels_u32[2], 1u);
}

// ---------------------------------------------------------------------------
// Delta-stepping SSSP
// ---------------------------------------------------------------------------

class DeltaSssp
    : public ::testing::TestWithParam<graph::PartitionPolicy> {};

TEST_P(DeltaSssp, MatchesDijkstraAcrossDeltas) {
  graph::GenOptions opt;
  opt.seed = 55;
  opt.make_weights = true;
  opt.max_weight = 32;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const graph::VertexId source = bench::choose_source(g);
  const auto expected = apps::reference_sssp(g, source);

  for (std::uint32_t delta : {1u, 8u, 64u, 0u /*heuristic*/}) {
    auto parts = graph::partition(g, 4, GetParam());
    abelian::Cluster cluster(4, fabric::test_config());
    std::vector<std::uint32_t> labels(g.num_nodes(), 0);
    cluster.run([&](int h) {
      const auto& part = parts[static_cast<std::size_t>(h)];
      abelian::EngineConfig cfg;
      abelian::HostEngine eng(cluster, part, cfg);
      apps::DeltaSsspStats stats;
      auto local = apps::run_sssp_delta(eng, source, delta, &stats);
      if (delta == 1) {
        EXPECT_GT(stats.buckets, 1u);  // real bucketing
      }
      for (graph::VertexId lid = 0; lid < part.num_masters; ++lid)
        labels[part.local_to_global(lid)] = local[lid];
      cluster.oob_barrier();
    });
    EXPECT_EQ(labels, expected) << "delta " << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DeltaSssp,
    ::testing::Values(graph::PartitionPolicy::CartesianVertexCut,
                      graph::PartitionPolicy::OutgoingEdgeCut,
                      graph::PartitionPolicy::IncomingEdgeCut),
    [](const auto& info) {
      switch (info.param) {
        case graph::PartitionPolicy::OutgoingEdgeCut: return "oec";
        case graph::PartitionPolicy::IncomingEdgeCut: return "iec";
        default: return "cvc";
      }
    });

TEST(DeltaSsspExtra, RunnerIntegration) {
  graph::GenOptions opt;
  opt.make_weights = true;
  graph::Csr g = graph::kron(7, 16.0, opt);
  bench::RunSpec spec;
  spec.app = "sssp_delta";
  spec.hosts = 3;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
}

TEST(AbelianAppsExtra, PagerankMassConserved) {
  graph::Csr g = graph::kron(7, 16.0);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.hosts = 4;
  spec.pagerank_iters = 5;
  const auto result = bench::run_app(g, spec);
  const auto expected = apps::reference_pagerank(g, 0.85, 5, 0.0);
  double total = 0.0;
  double expected_total = 0.0;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    total += result.labels_f64[v];
    expected_total += expected[v];
  }
  EXPECT_NEAR(total, expected_total, 1e-9);
}

// PageRank pulls over the in-edge transpose, so each destination's sum runs
// in ascending local-source order whatever the thread count: on one host it
// is the reference's order exactly, and on the vertex cut the ranks do not
// depend on how many compute threads gathered them.
bench::RunResult run_pagerank_rmat11(int hosts, std::size_t threads) {
  graph::Csr g = graph::rmat(11, 8.0);
  bench::RunSpec spec;
  spec.app = "pagerank";
  spec.engine = "abelian";
  spec.policy = graph::PartitionPolicy::CartesianVertexCut;
  spec.hosts = hosts;
  spec.threads = threads;
  spec.pagerank_iters = 10;
  return bench::run_app(g, spec);
}

TEST(AbelianPagerank, SingleHostBitwiseEqualsReferenceAtEveryThreadCount) {
  const auto expected =
      apps::reference_pagerank(graph::rmat(11, 8.0), 0.85, 10, 0.0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto result = run_pagerank_rmat11(1, threads);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    EXPECT_EQ(std::memcmp(result.labels_f64.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << "threads " << threads;
  }
}

TEST(AbelianPagerank, VertexCutRanksIndependentOfThreadCount) {
  for (int hosts : {2, 4}) {
    const auto base = run_pagerank_rmat11(hosts, 1);
    for (std::size_t threads : {2u, 4u}) {
      const auto result = run_pagerank_rmat11(hosts, threads);
      ASSERT_EQ(result.labels_f64.size(), base.labels_f64.size());
      EXPECT_EQ(std::memcmp(result.labels_f64.data(), base.labels_f64.data(),
                            base.labels_f64.size() * sizeof(double)),
                0)
          << "hosts " << hosts << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace lcr
