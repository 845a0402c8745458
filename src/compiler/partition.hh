/**
 * @file
 * Live-range partitioning: the paper's "local scheduler" (§3.5).
 *
 * The local scheduler decides, for every local-register-candidate live
 * range, the cluster it should be assigned to, so that the run-time
 * instruction distribution is balanced in the vicinity of every
 * instruction while the number of dual-distributed instructions stays
 * small.
 *
 * Algorithm (paper §3.5):
 *  1. Sort all basic blocks by estimated executions of their first
 *     instruction (descending), breaking ties by static instruction count
 *     (descending).
 *  2. Remove the top block and traverse its instructions bottom-up,
 *     in order. For each instruction that writes an unassigned local
 *     live range, pick a cluster:
 *       - if the estimated instruction distribution in the vicinity of
 *         the instruction is unbalanced (spread greater than a
 *         compile-time threshold), pick the under-subscribed cluster;
 *       - otherwise pick the cluster preferred by the majority of the
 *         instructions that read or write the live range (an instruction
 *         prefers the cluster that lets it be single-distributed).
 *  3. Repeat until all blocks are visited.
 *
 * The imbalance estimate is per-basic-block (paper §3.3): within the
 * block being traversed, every other instruction with at least one
 * already-assigned operand is counted toward the cluster(s) it would be
 * distributed to.
 */

#ifndef MCA_COMPILER_PARTITION_HH
#define MCA_COMPILER_PARTITION_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "prog/cfg.hh"

namespace mca::compiler
{

/** Per-value cluster assignment produced by a partitioner. */
struct ClusterAssignment
{
    static constexpr std::int8_t kUnassigned = -1;
    /**
     * Hard ceiling on cluster indices: assignments are stored as
     * int8_t, so any partitioner accepts at most 127 clusters.
     * PartitionOptions::validate() enforces this before the storage
     * could silently wrap.
     */
    static constexpr unsigned kMaxClusters = 127;

    std::vector<std::int8_t> cluster;

    explicit ClusterAssignment(std::size_t nvalues = 0)
        : cluster(nvalues, kUnassigned)
    {}

    /**
     * Cluster of `v`, or kUnassigned. A ValueId past the end of the
     * table is deliberately reported as unassigned rather than
     * asserted: passes that grow the value table (spill temporaries)
     * query the pre-growth assignment for the new ids.
     */
    int
    clusterOf(prog::ValueId v) const
    {
        return v < cluster.size() ? cluster[v] : kUnassigned;
    }

    bool
    assigned(prog::ValueId v) const
    {
        return clusterOf(v) != kUnassigned;
    }
};

/** Tuning knobs shared by every partitioner. */
struct PartitionOptions
{
    unsigned numClusters = 2;
    /**
     * Distribution-imbalance threshold (instructions). The paper treats
     * this as a compile-time constant; DESIGN.md picks 4 and the
     * ablation bench sweeps it.
     */
    unsigned imbalanceThreshold = 4;

    /**
     * Throw std::runtime_error unless 1 <= numClusters <=
     * ClusterAssignment::kMaxClusters. Every partitioner calls this on
     * entry; the tools validate at parse time for a friendlier error.
     */
    void validate() const;
};

/** Record of the scheduler's decision order (Figure 6 reproduction). */
struct PartitionTrace
{
    /** Blocks in traversal order. */
    std::vector<std::pair<prog::FunctionId, prog::BlockId>> blockOrder;
    /** Live ranges in cluster-assignment order. */
    std::vector<prog::ValueId> assignmentOrder;
};

/**
 * Run the local scheduler over a whole program.
 *
 * Global-register candidates are left unassigned (they are replicated in
 * every cluster). Local values never written by any instruction (pure
 * live-ins) are assigned in a final majority-vote pass. Works for any
 * cluster count >= 1 (N = 1 degenerates to everything on cluster 0).
 */
ClusterAssignment localSchedule(const prog::Program &prog,
                                const PartitionOptions &options,
                                PartitionTrace *trace = nullptr);

/**
 * Round-robin partitioner: assigns live ranges to clusters in declaration
 * order with no balance or affinity analysis. Used as an ablation point
 * between "native binary" and "local scheduler".
 */
ClusterAssignment roundRobinSchedule(const prog::Program &prog,
                                     const PartitionOptions &options);

} // namespace mca::compiler

#endif // MCA_COMPILER_PARTITION_HH
