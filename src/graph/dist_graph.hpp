// Distributed graph: one host's partition with master/mirror proxies.
//
// Mirrors the representation described in paper Section II: edges are
// assigned to hosts by a partitioning policy; a host creates proxies for the
// endpoints of its edges; one proxy per vertex is the master (owning the
// canonical value), the rest are mirrors. On each host "the master nodes are
// stored contiguously, followed by mirror nodes" - local ids [0, num_masters)
// are masters, [num_masters, num_local) are mirrors.
//
// For communication, each pair of hosts shares *memoized index lists* sorted
// by global id (Abelian "minimizes the communication meta-data"):
//   mirror_to_master.span(p) - my mirror local-ids whose master lives on p
//   master_to_mirror.span(p) - my master local-ids that have a mirror on p
// Host A's mirror_to_master[B] and host B's master_to_mirror[A] enumerate the
// same global vertices in the same order, so sync messages only carry
// (position, value) pairs, never global ids.
//
// All lid metadata - the l2g/g2l maps and both plan directions - lives in
// delta-varint chunks (graph/lid_map.hpp, DESIGN.md §17): master lookups are
// pure arithmetic and mirror/plan structures cost ~1-2 bytes per entry
// instead of the 28+ bytes of the former vector + hash-map representation.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "graph/lid_map.hpp"

namespace lcr::graph {

/// Partitioning policies (paper Section II / IV).
enum class PartitionPolicy : std::uint8_t {
  /// Gemini's policy: contiguous vertex blocks balanced by edge count; an
  /// edge lives with its source's owner.
  BlockedEdgeCut,
  /// Abelian outgoing edge-cut: same edge placement, hashed-block masters.
  OutgoingEdgeCut,
  /// Incoming edge-cut: an edge lives with its *destination's* owner, so
  /// push operators always write masters (no reduce needed - broadcast
  /// only), the mirror-image of the outgoing cut. Exercises the other
  /// branch of Abelian's partition-aware synchronization.
  IncomingEdgeCut,
  /// Abelian's "advanced vertex-cut": 2D cartesian blocking of the adjacency
  /// matrix (paper ref [27]); both endpoints of an edge may be mirrors.
  CartesianVertexCut,
};

const char* to_string(PartitionPolicy p);

class DistGraph {
 public:
  int host_id = 0;
  int num_hosts = 1;
  PartitionPolicy policy = PartitionPolicy::BlockedEdgeCut;

  /// Total vertices in the global graph.
  VertexId global_nodes = 0;

  /// Local proxies: masters in [0, num_masters), mirrors after.
  VertexId num_masters = 0;
  VertexId num_local = 0;

  /// Compressed local<->global vertex id map (DESIGN.md §17).
  CompressedLidMap lids;

  /// Local out-edges (local src -> local dst) and the transpose.
  Csr out_edges;
  Csr in_edges;

  /// Memoized sync plans, indexed by peer host (see file comment).
  CompressedPlan mirror_to_master;
  CompressedPlan master_to_mirror;

  /// Master-ownership block boundaries: owner of gid v is the unique h with
  /// master_bounds[h] <= v < master_bounds[h+1].
  std::vector<VertexId> master_bounds;

  /// Global out-degrees of local proxies (size num_local), needed by
  /// pagerank; filled by the partitioner from the global graph.
  std::vector<std::uint32_t> global_out_degree;

  bool is_master(VertexId local) const noexcept { return local < num_masters; }

  VertexId local_to_global(VertexId local) const {
    return lids.local_to_global(local);
  }

  /// Streaming walk of every local proxy in lid order: fn(lid, gid). Masters
  /// by arithmetic, then the mirror segment one decoded chunk at a time -
  /// the per-lid init loops' alternative to local_to_global per mirror.
  template <typename Fn>
  void for_each_local(Fn&& fn) const {
    const VertexId mlo = lids.master_lo();
    for (VertexId lid = 0; lid < lids.num_masters(); ++lid) fn(lid, mlo + lid);
    lids.visit_mirrors(fn);
  }

  /// Owner host of a global vertex.
  int owner_of(VertexId gid) const {
    int lo = 0;
    int hi = num_hosts;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      if (master_bounds[static_cast<std::size_t>(mid)] <= gid)
        lo = mid;
      else
        hi = mid;
    }
    return lo;
  }

  /// First global id of this host's master block.
  VertexId master_lo() const {
    return master_bounds[static_cast<std::size_t>(host_id)];
  }

  /// Local id of a global vertex, or kNoLocal if absent on this host.
  /// Masters resolve by pure arithmetic (the contiguous [mlo, mlo +
  /// num_masters) block), mirrors by chunk binary search - no hashing.
  static constexpr VertexId kNoLocal = CompressedLidMap::kNoLocal;
  VertexId global_to_local(VertexId gid) const {
    return lids.global_to_local(gid);
  }

  /// Heap bytes of this host's lid metadata (lid map + both sync plans +
  /// ownership bounds) in the compressed representation.
  std::size_t mem_bytes() const noexcept {
    return lids.mem_bytes() + mirror_to_master.mem_bytes() +
           master_to_mirror.mem_bytes() +
           master_bounds.capacity() * sizeof(VertexId);
  }

  /// What the same metadata cost in the seed representation (l2g vector +
  /// g2l unordered_map + vector<vector> plans); the model is documented at
  /// CompressedLidMap::mem_bytes_uncompressed.
  std::size_t mem_bytes_uncompressed() const noexcept {
    return lids.mem_bytes_uncompressed() +
           mirror_to_master.mem_bytes_uncompressed() +
           master_to_mirror.mem_bytes_uncompressed() +
           master_bounds.capacity() * sizeof(VertexId);
  }
};

}  // namespace lcr::graph
