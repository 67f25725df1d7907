// End-to-end correctness of the Gemini engine with both comm backends.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "abelian/cluster.hpp"
#include "apps/bfs.hpp"
#include "apps/cc.hpp"
#include "apps/reference.hpp"
#include "bench_support/runner.hpp"
#include "gemini/engine.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/mem_tracker.hpp"

namespace lcr {
namespace {

struct GeminiCase {
  const char* app;
  comm::BackendKind backend;  // Lci or MpiProbe (mapped to the MPI shim)
  int hosts;
};

std::string case_name(const ::testing::TestParamInfo<GeminiCase>& info) {
  std::ostringstream os;
  os << info.param.app << "_"
     << (info.param.backend == comm::BackendKind::Lci ? "lci" : "mpi") << "_h"
     << info.param.hosts;
  return os.str();
}

class GeminiApps : public ::testing::TestWithParam<GeminiCase> {};

TEST_P(GeminiApps, MatchesSequentialReference) {
  const GeminiCase& c = GetParam();
  graph::GenOptions opt;
  opt.seed = 777;
  opt.make_weights = true;
  opt.max_weight = 8;
  graph::Csr g = graph::rmat(7, 8.0, opt);
  const bool is_cc = std::string(c.app) == "cc";
  if (is_cc) g = graph::symmetrize(g);

  bench::RunSpec spec;
  spec.app = c.app;
  spec.engine = "gemini";
  spec.backend = c.backend;
  spec.hosts = c.hosts;
  spec.threads = 2;
  spec.source = bench::choose_source(g);
  spec.pagerank_iters = 8;

  const bench::RunResult result = bench::run_app(g, spec);

  if (std::string(c.app) == "bfs") {
    EXPECT_EQ(result.labels_u32, apps::reference_bfs(g, spec.source));
  } else if (std::string(c.app) == "sssp") {
    EXPECT_EQ(result.labels_u32, apps::reference_sssp(g, spec.source));
  } else if (is_cc) {
    EXPECT_EQ(result.labels_u32, apps::reference_cc(g));
  } else {
    const auto expected = apps::reference_pagerank(g, 0.85, 8, 0.0);
    for (std::size_t v = 0; v < expected.size(); ++v)
      EXPECT_NEAR(result.labels_f64[v], expected[v], 1e-9) << "vertex " << v;
  }
}

std::vector<GeminiCase> make_cases() {
  std::vector<GeminiCase> cases;
  for (const char* app : {"bfs", "cc", "sssp", "pagerank"}) {
    cases.push_back({app, comm::BackendKind::Lci, 4});
    cases.push_back({app, comm::BackendKind::MpiProbe, 4});
  }
  cases.push_back({"bfs", comm::BackendKind::Lci, 1});
  cases.push_back({"bfs", comm::BackendKind::Lci, 2});
  cases.push_back({"pagerank", comm::BackendKind::MpiProbe, 2});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GeminiApps, ::testing::ValuesIn(make_cases()),
                         case_name);

/// Dual-mode check: forcing sparse signals, forcing dense pre-combining,
/// and the adaptive default must all converge to the same labels.
TEST(GeminiExtra, SparseAndDenseModesAgree) {
  graph::Csr g = graph::kron(8, 16.0);
  auto parts =
      graph::partition(g, 3, graph::PartitionPolicy::BlockedEdgeCut);
  const graph::VertexId source = bench::choose_source(g);
  const auto expected = apps::reference_bfs(g, source);

  for (double threshold : {2.0 /*always sparse*/, 0.0 /*always dense*/,
                           0.05 /*adaptive*/}) {
    abelian::Cluster cluster(3, fabric::test_config());
    std::vector<std::uint32_t> labels(g.num_nodes(), 0);
    std::uint64_t sparse_rounds = 0, dense_rounds = 0;
    cluster.run([&](int h) {
      const auto& part = parts[static_cast<std::size_t>(h)];
      gemini::GeminiConfig cfg;
      cfg.comm = gemini::CommKind::Lci;
      cfg.dense_threshold = threshold;
      gemini::GeminiHost host(cluster, part, cfg);
      auto local = host.run_push<apps::BfsTraits>(source);
      const graph::VertexId mlo =
          part.master_bounds[static_cast<std::size_t>(h)];
      for (graph::VertexId i = 0; i < part.num_masters; ++i)
        labels[mlo + i] = local[i];
      if (h == 0) {
        sparse_rounds = host.stats().sparse_rounds;
        dense_rounds = host.stats().dense_rounds;
      }
      cluster.oob_barrier();
    });
    EXPECT_EQ(labels, expected) << "threshold " << threshold;
    if (threshold > 1.0) {
      EXPECT_EQ(dense_rounds, 0u);
    }
    // threshold 0: every round with a non-empty local frontier is dense
    // (an empty local frontier while peers are still active counts sparse).
    if (threshold == 0.0) {
      EXPECT_GT(dense_rounds, 0u);
    }
    (void)sparse_rounds;
  }
}

/// Dense mode sends at most one record per destination per round, so it
/// must move fewer bytes than sparse mode on a dense-frontier app (cc).
TEST(GeminiExtra, DenseModeReducesTraffic) {
  graph::Csr g = graph::symmetrize(graph::kron(8, 16.0));
  auto parts =
      graph::partition(g, 3, graph::PartitionPolicy::BlockedEdgeCut);
  std::uint64_t bytes_sparse = 0, bytes_dense = 0;
  for (bool dense : {false, true}) {
    abelian::Cluster cluster(3, fabric::test_config());
    std::atomic<std::uint64_t> total{0};
    cluster.run([&](int h) {
      gemini::GeminiConfig cfg;
      cfg.dense_threshold = dense ? 0.0 : 2.0;
      gemini::GeminiHost host(cluster,
                              parts[static_cast<std::size_t>(h)], cfg);
      auto local = host.run_push<apps::CcTraits>(0);
      total.fetch_add(host.stats().bytes.load());
      cluster.oob_barrier();
    });
    (dense ? bytes_dense : bytes_sparse) = total.load();
  }
  EXPECT_LT(bytes_dense, bytes_sparse);
}

/// Comm-buffer accounting (the benchmark's comm_mem_kb): every byte a host's
/// tracker saw allocated - send chunks, received chunks, direct-write
/// regions - is freed again once the host is destroyed, on both backends
/// and in both signal modes.
TEST(GeminiExtra, CommBufferTrackerBalances) {
  graph::Csr g = graph::kron(8, 16.0);
  auto parts =
      graph::partition(g, 3, graph::PartitionPolicy::BlockedEdgeCut);
  const graph::VertexId source = bench::choose_source(g);
  for (gemini::CommKind kind :
       {gemini::CommKind::Lci, gemini::CommKind::MpiProbeMulti}) {
    for (double threshold : {2.0 /*always sparse*/, 0.0 /*always dense*/}) {
      SCOPED_TRACE(std::string(gemini::to_string(kind)) + " threshold " +
                   std::to_string(threshold));
      abelian::Cluster cluster(3, fabric::test_config());
      std::vector<rt::MemTracker> trackers(3);
      cluster.run([&](int h) {
        gemini::GeminiConfig cfg;
        cfg.comm = kind;
        cfg.dense_threshold = threshold;
        cfg.tracker = &trackers[static_cast<std::size_t>(h)];
        {
          gemini::GeminiHost host(cluster,
                                  parts[static_cast<std::size_t>(h)], cfg);
          host.run_push<apps::BfsTraits>(source);
          host.run_pagerank(0.85, 5, 0.0);
          cluster.oob_barrier();
        }
        cluster.oob_barrier();
      });
      for (std::size_t h = 0; h < trackers.size(); ++h) {
        EXPECT_EQ(trackers[h].current(), 0u) << "host " << h;
        EXPECT_GT(trackers[h].peak(), 0u) << "host " << h;
      }
    }
  }
}

TEST(GeminiExtra, StatsArePopulated) {
  graph::Csr g = graph::rmat(7, 8.0);
  bench::RunSpec spec;
  spec.app = "bfs";
  spec.engine = "gemini";
  spec.hosts = 4;
  spec.source = bench::choose_source(g);
  const auto result = bench::run_app(g, spec);
  EXPECT_GT(result.rounds, 0u);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.bytes, 0u);
}

// PageRank pulls over the in-edge transpose in ascending source order, so a
// single host's ranks are the reference's bit for bit at any thread count.
// (Across hosts the receive-side apply adds peers' partials in arrival order,
// so multi-host ranks are only 1e-9-close.)
TEST(GeminiPagerank, SingleHostBitwiseEqualsReferenceAtEveryThreadCount) {
  const graph::Csr g = graph::rmat(11, 8.0);
  const auto expected = apps::reference_pagerank(g, 0.85, 10, 0.0);
  for (std::size_t threads : {1u, 2u, 4u}) {
    bench::RunSpec spec;
    spec.app = "pagerank";
    spec.engine = "gemini";
    spec.hosts = 1;
    spec.threads = threads;
    spec.pagerank_iters = 10;
    const auto result = bench::run_app(g, spec);
    ASSERT_EQ(result.labels_f64.size(), expected.size());
    EXPECT_EQ(std::memcmp(result.labels_f64.data(), expected.data(),
                          expected.size() * sizeof(double)),
              0)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace lcr
