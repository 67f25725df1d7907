// perfbench driver: runs one benchmark workload on every communication
// backend it supports and prints one JSON object per line on stdout:
//
//   {"kind":"meta", ...}     inputs, thread budget, reference runs
//   {"kind":"rep", ...}      one repetition of one backend (setup + timed run)
//   {"kind":"done", ...}     end of the measurement
//
// perfbench/run.py builds this program, runs it under a deadline and turns
// the records into the metrics named in BENCHMARK.json. Everything the
// driver measures is taken from outside the library: wall time around the
// calls it makes into graph::partition, engine construction, the app
// drivers and apps::reference_*, the counters the fabric's telemetry
// registry already holds, and (with --trace 1) the spans recorded by the
// library plus the driver's own bench.* spans.
//
// Usage:
//   perfbench_driver --workload <bfs_grid|pagerank_rmat|gemini_bfs_kron>
//                    --seed N --seconds S --trace 0|1
//                    [--smoke] [--validator-selftest]
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "abelian/cluster.hpp"
#include "abelian/engine.hpp"
#include "abelian/sync.hpp"
#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/reference.hpp"
#include "fabric/config.hpp"
#include "gemini/engine.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "runtime/bitset.hpp"
#include "runtime/mem_tracker.hpp"
#include "runtime/timer.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace lcr;

// ---------------------------------------------------------------- JSON out

/// Builds one flat-or-nested JSON object as text.
class JsonObj {
 public:
  JsonObj& num(const std::string& k, double v) {
    char buf[64];
    if (!std::isfinite(v)) v = 0.0;
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(k, buf);
  }
  JsonObj& num(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonObj& num(const std::string& k, int v) { return raw(k, std::to_string(v)); }
  JsonObj& boolean(const std::string& k, bool v) {
    return raw(k, v ? "true" : "false");
  }
  JsonObj& str(const std::string& k, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(k, q + "\"");
  }
  JsonObj& obj(const std::string& k, const JsonObj& v) {
    return raw(k, v.text());
  }
  JsonObj& nums(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }
  void print() const {
    std::printf("%s\n", text().c_str());
    std::fflush(stdout);
  }

 private:
  JsonObj& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + k + "\":" + v;
    return *this;
  }
  std::string body_;
};

// ---------------------------------------------------------------- options

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs, for the smoke test
  bool validator_selftest = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench_driver: %s\n", msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (k == "--validator-selftest") {
      a.validator_selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else usage(("unknown option " + k).c_str());
  }
  if (a.workload.empty() && !a.validator_selftest) usage("--workload required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

// ------------------------------------------------------- thread placement

/// CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

/// Restricts the calling thread (and threads it creates afterwards) to
/// `cpus`.
void bind_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0)
    throw std::runtime_error("sched_setaffinity failed");
}

/// Host h owns CPUs [h*(threads+1), (h+1)*(threads+1)) of the allowed set.
/// Its engine's helper threads (communication thread, compute workers) are
/// created on the CPUs after the first; the host-main thread, which is
/// compute thread 0, then moves to the first. Left to the kernel, all host
/// threads sometimes share one CPU and every spin-yield hand-off waits for a
/// scheduler tick (see perfbench/NOTES.md, "Probe bimodality").
struct Placement {
  std::vector<int> cpus;
  std::size_t per_host = 1;

  std::vector<int> host_cpus(int h, std::size_t from) const {
    std::vector<int> out;
    for (std::size_t i = from; i < per_host; ++i)
      out.push_back(cpus[static_cast<std::size_t>(h) * per_host + i]);
    return out;
  }
  void before_engine(int h) const {
    if (per_host > 1) bind_self(host_cpus(h, 1));
  }
  void after_engine(int h) const {
    bind_self({cpus[static_cast<std::size_t>(h) * per_host]});
  }
};

// ------------------------------------------------------------ utilities

double secs(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Registry counters a rep reports (deltas over the timed region).
const char* const kCounters[] = {
    "fabric.sends",       "fabric.puts",
    "fabric.bytes_tx",    "fabric.cq_polls",
    "fabric.retries_no_rx", "fabric.retries_throttled",
    "fabric.retries_cq_full", "lci.eager_sends",
    "lci.rdv_sends",      "lci.recvs",
    "lci.progress_events", "lci.lease_sends",
    "mpilite.iprobes",    "mpilite.irecvs",
    "mpilite.umq_scanned", "mpilite.prq_scanned",
    "sync.gather_ns",     "sync.apply_ns",
    "sync.direct_ns",     "sync.fmt_sparse",
    "sync.fmt_varint",    "sync.fmt_dense",
    "abelian.comm_thread.idle_ns", "abelian.comm_thread.work_ns",
};

JsonObj counter_delta(const std::map<std::string, std::uint64_t>& before,
                      const std::map<std::string, std::uint64_t>& after) {
  JsonObj o;
  for (const char* name : kCounters) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    const std::uint64_t av = a == after.end() ? 0 : a->second;
    const std::uint64_t bv = b == before.end() ? 0 : b->second;
    o.num(name, av >= bv ? av - bv : std::uint64_t{0});
  }
  return o;
}

// ----------------------------------------------------------- tracing

/// Self time per span name: a span's duration minus the part of it that
/// spans nested inside it on the same thread cover. Spans on one thread nest
/// (RAII), so each span is charged only to its innermost enclosing span.
struct SpanSummary {
  std::map<std::string, double> self_s;
  double app_self_s = 0.0;  // bench.app self time: unattributed timed region
  double app_s = 0.0;       // bench.app total
};

SpanSummary summarize_spans(std::vector<telemetry::TraceEvent> events) {
  struct Open {
    std::uint64_t end;
    std::string name;
    double self;
  };
  SpanSummary out;
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const telemetry::TraceEvent& e) {
                                return e.phase != 'X';
                              }),
               events.end());
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    return a.dur_ns > b.dur_ns;  // parent before a child starting with it
  });
  std::vector<Open> stack;
  auto close = [&out](const Open& o) {
    const double self = std::max(0.0, o.self);
    out.self_s[o.name] += self;
    if (o.name == "bench.app") out.app_self_s += self;
  };
  std::uint32_t tid = ~0u;
  for (const auto& e : events) {
    if (e.tid != tid) {
      while (!stack.empty()) close(stack.back()), stack.pop_back();
      tid = e.tid;
    }
    const std::uint64_t end = e.ts_ns + e.dur_ns;
    while (!stack.empty() && stack.back().end <= e.ts_ns)
      close(stack.back()), stack.pop_back();
    if (!stack.empty())
      stack.back().self -= secs(std::min(end, stack.back().end) - e.ts_ns);
    const std::string cat = e.cat;
    const std::string name =
        cat == "bench" ? "bench." + std::string(e.name) : std::string(e.name);
    if (name == "bench.app") out.app_s += secs(e.dur_ns);
    stack.push_back({end, name, secs(e.dur_ns)});
  }
  while (!stack.empty()) close(stack.back()), stack.pop_back();
  return out;
}

/// Spans recorded from the driver's own code. With tracing off these are
/// no-ops, so untraced reps pay nothing for them.
void bench_span(const char* name, std::uint32_t host, std::uint64_t t0,
                std::uint64_t t1) {
  telemetry::emit_complete("bench", name, host, t0, t1 - t0);
}

JsonObj span_json(const SpanSummary& s) {
  JsonObj o;
  for (const auto& [name, v] : s.self_s) o.num(name, v);
  return o;
}

// ------------------------------------------------------ graph workloads

using Backend = comm::BackendKind;

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::Lci: return "lci";
    case Backend::MpiProbe: return "probe";
    case Backend::MpiRma: return "rma";
  }
  return "?";
}

struct GraphWorkload {
  std::string app;  // "bfs" | "pagerank"
  bool gemini = false;
  graph::PartitionPolicy policy = graph::PartitionPolicy::CartesianVertexCut;
  int hosts = 2;
  std::size_t threads = 1;
  std::uint32_t pr_iters = 20;
  fabric::FabricConfig fabric = fabric::omnipath_knl_config();
  std::vector<Backend> backends;
  graph::Csr g;
  std::vector<graph::VertexId> sources;                // bfs
  std::vector<std::vector<std::uint32_t>> ref_bfs;     // per source
  std::vector<double> ref_pr;
  std::vector<double> reference_s;                     // per reference run
};

/// Validation: BFS labels must equal the sequential reference bitwise;
/// PageRank ranks must be within the tolerance the repository's tests use.
constexpr double kPagerankTol = 1e-9;

std::string check_bfs(const std::vector<std::uint32_t>& got,
                      const std::vector<std::uint32_t>& want) {
  if (got.size() != want.size()) return "bfs: label vector size mismatch";
  for (std::size_t v = 0; v < got.size(); ++v)
    if (got[v] != want[v])
      return "bfs: label mismatch at vertex " + std::to_string(v);
  return {};
}

std::string check_pagerank(const std::vector<double>& got,
                           const std::vector<double>& want) {
  if (got.size() != want.size()) return "pagerank: rank vector size mismatch";
  for (std::size_t v = 0; v < got.size(); ++v)
    if (!(std::fabs(got[v] - want[v]) <= kPagerankTol))
      return "pagerank: rank mismatch at vertex " + std::to_string(v);
  return {};
}

/// Seeded BFS sources on the grid: each lies within L1 distance 8 of a
/// corner, so every BFS takes about rows + cols rounds whatever the seed.
std::vector<graph::VertexId> grid_sources(graph::VertexId rows,
                                          graph::VertexId cols,
                                          std::mt19937_64& rng) {
  std::vector<graph::VertexId> out;
  const std::uint32_t first_corner = static_cast<std::uint32_t>(rng() % 4);
  for (std::uint32_t k = 0; k < 4; ++k) {
    const std::uint32_t corner = (first_corner + k) % 4;
    const graph::VertexId dr = static_cast<graph::VertexId>(rng() % 5);
    const graph::VertexId dc = static_cast<graph::VertexId>(rng() % 5);
    const graph::VertexId r = corner & 1 ? rows - 1 - dr : dr;
    const graph::VertexId c = corner & 2 ? cols - 1 - dc : dc;
    out.push_back(r * cols + c);
  }
  return out;
}

/// Seeded BFS sources: random picks among the 64 highest out-degree
/// vertices whose BFS reaches at least 90% of what the best-connected vertex
/// reaches (kron leaves many vertices isolated or in small pockets).
void pick_reaching_sources(GraphWorkload& w, std::mt19937_64& rng,
                           std::size_t count) {
  std::vector<graph::VertexId> by_degree(w.g.num_nodes());
  for (graph::VertexId v = 0; v < w.g.num_nodes(); ++v) by_degree[v] = v;
  const std::size_t top = std::min<std::size_t>(64, by_degree.size());
  std::partial_sort(by_degree.begin(), by_degree.begin() + top,
                    by_degree.end(), [&](auto a, auto b) {
                      return w.g.degree(a) > w.g.degree(b);
                    });
  auto reach = [](const std::vector<std::uint32_t>& labels) {
    std::size_t n = 0;
    for (auto l : labels) n += l != UINT32_MAX;
    return n;
  };
  const std::size_t best = reach(apps::reference_bfs(w.g, by_degree[0]));
  for (std::size_t tries = 0; w.sources.size() < count && tries < 4 * top;
       ++tries) {
    const graph::VertexId v = by_degree[rng() % top];
    if (std::find(w.sources.begin(), w.sources.end(), v) != w.sources.end())
      continue;
    rt::Timer t;
    auto ref = apps::reference_bfs(w.g, v);
    const double ref_s = t.elapsed_s();
    if (reach(ref) * 10 < best * 9) continue;
    w.sources.push_back(v);
    w.ref_bfs.push_back(std::move(ref));
    w.reference_s.push_back(ref_s);
  }
  if (w.sources.size() < count)
    throw std::runtime_error("too few well-connected BFS sources");
}

GraphWorkload make_graph_workload(const std::string& name, std::uint64_t seed,
                                  bool smoke) {
  GraphWorkload w;
  std::mt19937_64 rng(mix64(seed));
  graph::GenOptions gen;
  gen.seed = mix64(seed ^ 0x5EED);
  if (name == "bfs_grid") {
    const graph::VertexId side = smoke ? 16 : 256;
    w.app = "bfs";
    w.backends = {Backend::Lci, Backend::MpiProbe, Backend::MpiRma};
    w.g = graph::grid2d(side, side);
    w.sources = grid_sources(side, side, rng);
    for (auto s : w.sources) {
      rt::Timer t;
      w.ref_bfs.push_back(apps::reference_bfs(w.g, s));
      w.reference_s.push_back(t.elapsed_s());
    }
  } else if (name == "pagerank_rmat") {
    w.app = "pagerank";
    w.backends = {Backend::Lci, Backend::MpiProbe, Backend::MpiRma};
    w.pr_iters = smoke ? 3 : 20;
    w.g = graph::rmat(smoke ? 10 : 17, 16.0, gen);
    rt::Timer t;
    w.ref_pr = apps::reference_pagerank(w.g, 0.85, w.pr_iters, 0.0);
    w.reference_s.push_back(t.elapsed_s());
  } else if (name == "gemini_bfs_kron") {
    w.app = "bfs";
    w.gemini = true;
    w.policy = graph::PartitionPolicy::BlockedEdgeCut;
    w.backends = {Backend::Lci, Backend::MpiProbe};  // Gemini has no RMA shim
    w.g = graph::kron(smoke ? 9 : 17, 32.0, gen);
    pick_reaching_sources(w, rng, smoke ? 2 : 3);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return w;
}

/// The untimed warm-up sync of the repository's bench runner: one empty
/// round with the app's sync patterns, then the engine's stats are zeroed.
template <typename Label>
void warmup_sync(abelian::HostEngine& eng, const abelian::SyncPlan& plan) {
  rt::ConcurrentBitset clean(eng.graph().num_local);
  std::vector<Label> scratch(eng.graph().num_local, Label{});
  if (plan.do_reduce)
    eng.sync_reduce<Label>(
        scratch.data(), clean, [](Label&, Label) { return false; },
        [](graph::VertexId) {});
  if (plan.do_broadcast)
    eng.sync_broadcast<Label>(scratch.data(), clean, [](graph::VertexId) {});
}

void warmup_engine(abelian::HostEngine& eng, const GraphWorkload& w) {
  if (w.app == "pagerank")
    warmup_sync<double>(eng, abelian::plan_accumulate(w.policy));
  else
    warmup_sync<std::uint32_t>(eng, abelian::plan_push_monotone(w.policy));
  eng.stats().comm_s = 0.0;
  eng.stats().compute_s = 0.0;
  eng.stats().phases = 0;
  eng.stats().messages_sent.store(0);
  eng.stats().bytes_sent.store(0);
}

struct HostOut {
  double app_s = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

template <typename Label>
void write_masters(const graph::DistGraph& g, const std::vector<Label>& local,
                   std::vector<Label>& global) {
  for (graph::VertexId lid = 0; lid < g.num_masters; ++lid)
    global[g.local_to_global(lid)] = local[lid];
}

/// One repetition: partition, cluster and engine set-up, warm-up (all of it
/// `setup_s`), then the timed region (PageRank, or one BFS from each source
/// of the seeded set), then validation of every output.
JsonObj run_graph_rep(const GraphWorkload& w, Backend b,
                      const Placement& place) {
  const auto hosts = static_cast<std::size_t>(w.hosts);

  const std::uint64_t t_begin = rt::now_ns();
  const std::vector<graph::DistGraph> parts =
      graph::partition(w.g, w.hosts, w.policy);
  const std::uint64_t t_parted = rt::now_ns();
  bench_span("partition", 0, t_begin, t_parted);

  abelian::ClusterOptions copts;  // OS-thread hosts, tree collectives
  copts.host_sched = abelian::ClusterOptions::HostSched::kOsThreads;
  copts.oob_coll = abelian::ClusterOptions::OobColl::kTree;
  abelian::Cluster cluster(w.hosts, w.fabric, copts);

  std::vector<rt::MemTracker> trackers(hosts);
  std::vector<HostOut> outs(hosts);
  // One label vector per BFS source; the timed region runs them all.
  std::vector<std::vector<std::uint32_t>> labels_u32(
      w.sources.size(), std::vector<std::uint32_t>(w.g.num_nodes(), 0));
  std::vector<double> labels_f64(w.app == "pagerank" ? w.g.num_nodes() : 0);
  std::map<std::string, std::uint64_t> before, after;
  std::uint64_t t_setup_end = 0;

  cluster.run([&](int h) {
    const auto hs = static_cast<std::size_t>(h);
    const graph::DistGraph& part = parts[hs];
    const auto uh = static_cast<std::uint32_t>(h);
    HostOut& out = outs[hs];

    auto timed_region = [&](auto&& app_fn) {
      cluster.oob_barrier();
      if (h == 0) {
        t_setup_end = rt::now_ns();
        before = cluster.fabric().telemetry().snapshot();
      }
      cluster.oob_barrier();
      const std::uint64_t t0 = rt::now_ns();
      app_fn();
      const std::uint64_t t1 = rt::now_ns();
      bench_span("app", uh, t0, t1);
      out.app_s = secs(t1 - t0);
      cluster.oob_barrier();
      if (h == 0) after = cluster.fabric().telemetry().snapshot();
      cluster.oob_barrier();
    };

    if (w.gemini) {
      gemini::GeminiConfig cfg;
      cfg.comm = b == Backend::Lci ? gemini::CommKind::Lci
                                   : gemini::CommKind::MpiProbeMulti;
      cfg.compute_threads = w.threads;
      cfg.tracker = &trackers[hs];
      cfg.dense_threshold = 2.0;  // forced sparse, as in Fig 4
      const std::uint64_t t0 = rt::now_ns();
      place.before_engine(h);
      gemini::GeminiHost host(cluster, part, cfg);
      place.after_engine(h);
      bench_span("engine_setup", uh, t0, rt::now_ns());
      timed_region([&] {
        for (std::size_t k = 0; k < w.sources.size(); ++k) {
          auto labels = host.run_push<apps::BfsTraits>(w.sources[k]);
          write_masters(part, labels, labels_u32[k]);
        }
      });
      out.compute_s = host.stats().compute_s;
      out.comm_s = host.stats().comm_s;
      out.rounds = host.stats().rounds;
      out.msgs = host.stats().messages.load();
      out.bytes = host.stats().bytes.load();
      return;
    }

    abelian::EngineConfig cfg;
    cfg.backend = b;
    cfg.backend_options.tracker = &trackers[hs];
    cfg.compute_threads = w.threads;
    const std::uint64_t t0 = rt::now_ns();
    place.before_engine(h);
    abelian::HostEngine eng(cluster, part, cfg);
    place.after_engine(h);
    const std::uint64_t t1 = rt::now_ns();
    bench_span("engine_setup", uh, t0, t1);
    warmup_engine(eng, w);
    bench_span("warmup", uh, t1, rt::now_ns());
    timed_region([&] {
      if (w.app == "pagerank") {
        apps::PagerankOptions opt;
        opt.max_iterations = w.pr_iters;
        opt.tolerance = 0.0;
        auto ranks = apps::run_pagerank(eng, opt);
        write_masters(part, ranks, labels_f64);
      } else {
        for (std::size_t k = 0; k < w.sources.size(); ++k) {
          auto labels = apps::run_bfs(eng, w.sources[k]);
          write_masters(part, labels, labels_u32[k]);
        }
      }
    });
    out.compute_s = eng.stats().compute_s;
    out.comm_s = eng.stats().comm_s;
    out.rounds = eng.stats().rounds;
    out.msgs = eng.stats().messages_sent.load();
    out.bytes = eng.stats().bytes_sent.load();
  });
  const auto mem_it = after.find("graph.mem_bytes");
  const std::uint64_t graph_mem = mem_it == after.end() ? 0 : mem_it->second;

  std::string err;
  if (w.app == "pagerank") err = check_pagerank(labels_f64, w.ref_pr);
  for (std::size_t k = 0; k < w.sources.size() && err.empty(); ++k)
    err = check_bfs(labels_u32[k], w.ref_bfs[k]);
  double time_s = 0, compute_sum = 0, comm_sum = 0, mem_kb = 0;
  std::uint64_t rounds = 0, msgs = 0, bytes = 0;
  for (std::size_t h = 0; h < hosts; ++h) {
    time_s = std::max(time_s, outs[h].app_s);
    compute_sum += outs[h].compute_s;
    comm_sum += outs[h].comm_s;
    rounds = std::max(rounds, outs[h].rounds);
    msgs += outs[h].msgs;
    bytes += outs[h].bytes;
    mem_kb = std::max(mem_kb, static_cast<double>(trackers[h].peak()) / 1024.0);
  }
  JsonObj rep;
  rep.str("kind", "rep")
      .str("backend", backend_name(b))
      .boolean("ok", err.empty())
      .str("error", err)
      .num("time_s", time_s)
      .num("setup_s", secs(t_setup_end - t_begin))
      .num("partition_s", secs(t_parted - t_begin))
      .num("mem_kb", mem_kb)
      .num("compute_s", compute_sum / static_cast<double>(hosts))
      .num("comm_s", comm_sum / static_cast<double>(hosts))
      .num("rounds", rounds)
      .num("msgs", msgs)
      .num("bytes", bytes)
      .num("graph_mem_bytes", graph_mem)
      .obj("counters", counter_delta(before, after));
  return rep;
}

// ------------------------------------------------------------ main loop

/// One repetition through `rep`, with telemetry on when `traced`. A rep that
/// throws yields a failed record instead of ending the run.
template <typename RepFn>
JsonObj run_one(RepFn&& rep, Backend b, bool traced) {
  if (traced) telemetry::reset_trace();
  telemetry::set_enabled(traced);
  JsonObj out;
  try {
    out = rep(b);
  } catch (const std::exception& e) {
    out = JsonObj();
    out.str("kind", "rep")
        .str("backend", backend_name(b))
        .boolean("ok", false)
        .str("error", std::string("exception: ") + e.what());
  }
  telemetry::set_enabled(false);
  out.boolean("traced", traced);
  if (traced) {
    const SpanSummary s = summarize_spans(telemetry::collect_trace());
    out.obj("self_s", span_json(s))
        .num("unattributed_s", s.app_self_s)
        .num("app_span_s", s.app_s)
        .num("trace_dropped", telemetry::trace_dropped());
  }
  return out;
}

/// Runs every backend in rotating order, cycle after cycle, until `seconds`
/// are used up (at least one cycle). A cycle is not started when the
/// previous one predicts it would overrun.
template <typename RepFn>
void measure(const std::vector<Backend>& backends, double seconds, bool traced,
             std::size_t& cycle, RepFn&& rep) {
  const std::uint64_t start = rt::now_ns();
  double last_cycle_s = 0.0;
  for (std::size_t done = 0;; ++done, ++cycle) {
    const double used = secs(rt::now_ns() - start);
    if (done > 0 && used + last_cycle_s > seconds) break;
    const std::uint64_t c0 = rt::now_ns();
    for (std::size_t i = 0; i < backends.size(); ++i) {
      const Backend b = backends[(i + cycle) % backends.size()];
      run_one(rep, b, traced).num("cycle", cycle).print();
    }
    last_cycle_s = secs(rt::now_ns() - c0);
  }
}

/// Proves the validators reject bad outputs: a BFS label vector and a
/// PageRank vector with one corrupted entry.
int validator_selftest() {
  const graph::Csr g = graph::grid2d(8, 8);
  const auto bfs = apps::reference_bfs(g, 0);
  auto bad_bfs = bfs;
  bad_bfs[13] += 1;
  const auto pr = apps::reference_pagerank(g, 0.85, 5, 0.0);
  auto bad_pr = pr;
  bad_pr[7] += 1e-6;
  JsonObj o;
  o.str("kind", "selftest")
      .boolean("bfs_accepts_reference", check_bfs(bfs, bfs).empty())
      .boolean("bfs_rejects_corrupt", !check_bfs(bad_bfs, bfs).empty())
      .boolean("pagerank_accepts_reference", check_pagerank(pr, pr).empty())
      .boolean("pagerank_rejects_corrupt", !check_pagerank(bad_pr, pr).empty());
  o.print();
  return 0;
}

int run(const Args& a) {
  const std::vector<int> cpus = allowed_cpus();
  const int nproc = static_cast<int>(cpus.size());
  // Thread budget: every simulated host costs compute_threads + 1 spinning
  // OS threads (host main = compute thread 0, plus the communication or
  // server thread). The benchmark refuses any configuration that would
  // oversubscribe the CPUs.
  const std::uint64_t gen0 = rt::now_ns();
  GraphWorkload gw = make_graph_workload(a.workload, a.seed, a.smoke);
  const double gen_s = secs(rt::now_ns() - gen0);
  const int threads = gw.hosts * static_cast<int>(gw.threads + 1);
  if (threads > nproc) {
    std::fprintf(stderr,
                 "perfbench_driver: %d OS threads needed, nproc is %d\n",
                 threads, nproc);
    return 3;
  }
  Placement place;
  place.cpus = cpus;
  place.per_host = gw.threads + 1;

  // The sequential baseline, timed once more under a bench.reference span so
  // the traced pass reports it too.
  telemetry::set_enabled(a.trace);
  const std::uint64_t r0 = rt::now_ns();
  if (gw.app == "pagerank")
    (void)apps::reference_pagerank(gw.g, 0.85, gw.pr_iters, 0.0);
  else
    (void)apps::reference_bfs(gw.g, gw.sources[0]);
  const std::uint64_t r1 = rt::now_ns();
  bench_span("reference", 0, r0, r1);
  telemetry::set_enabled(false);
  gw.reference_s.push_back(secs(r1 - r0));

  JsonObj meta;
  meta.str("kind", "meta")
      .str("workload", a.workload)
      .num("seed", a.seed)
      .num("nproc", nproc)
      .num("os_threads", threads)
      .num("hosts", gw.hosts)
      .num("compute_threads", static_cast<int>(gw.threads))
      .num("vertices", static_cast<std::uint64_t>(gw.g.num_nodes()))
      .num("edges", static_cast<std::uint64_t>(gw.g.num_edges()))
      .num("generate_s", gen_s)
      .num("reference_s", median(gw.reference_s))
      .nums("reference_runs_s", gw.reference_s);
  if (a.trace) {
    SpanSummary s = summarize_spans(telemetry::collect_trace());
    meta.num("reference_self_s", s.self_s["bench.reference"]);
  }
  telemetry::reset_trace();
  meta.print();

  auto rep = [&](Backend b) { return run_graph_rep(gw, b, place); };
  // One untimed rep first: the process's first allocations and page faults
  // land there, not in the first measured sample. It is still validated.
  run_one(rep, gw.backends[0], false).boolean("warmup", true).print();
  std::size_t cycle = 0;
  // --trace 1 splits the time: an untraced pass (the baseline for
  // trace.overhead and the source of the counters), then a traced pass.
  if (a.trace) {
    measure(gw.backends, a.seconds / 2, false, cycle, rep);
    measure(gw.backends, a.seconds / 2, true, cycle, rep);
  } else {
    measure(gw.backends, a.seconds, false, cycle, rep);
  }
  JsonObj done;
  done.str("kind", "done").num("cycles", static_cast<std::uint64_t>(cycle));
  done.print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.validator_selftest) return validator_selftest();
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
