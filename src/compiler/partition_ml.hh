/**
 * @file
 * Multilevel N-way graph partitioner over the live-range affinity
 * graph (ROADMAP: "generalized N-cluster partitioning").
 *
 * The classic three-phase multilevel scheme used by MLPart-style
 * netlist partitioners, applied to the affinity graph of
 * compiler/affinity.hh:
 *
 *  1. Coarsen: heavy-edge matching collapses the heaviest-affinity
 *     pairs level by level until the graph is small.
 *  2. Initial partition: greedy balanced growth on the coarsest graph
 *     (nodes in descending weight order, each placed on the cluster
 *     with the strongest affinity that still fits the balance cap).
 *  3. Uncoarsen + refine: project each level's assignment down and
 *     run Fiduccia–Mattheyses refinement — hill-climbing moves with
 *     rollback to the best prefix — under the same balance cap.
 *
 * Everything is deterministic: node order breaks every tie, there is
 * no randomness, so equal inputs give bit-equal assignments at any
 * build parallelism.
 */

#ifndef MCA_COMPILER_PARTITION_ML_HH
#define MCA_COMPILER_PARTITION_ML_HH

#include <cstdint>

#include "compiler/affinity.hh"
#include "compiler/partition.hh"
#include "prog/cfg.hh"

namespace mca::compiler
{

/** Outcome metrics of one partitioning run (any partitioner). */
struct PartitionStats
{
    /** Weighted affinity edges cut by the final assignment. */
    std::uint64_t cutWeight = 0;
    /** Denominator: total affinity edge weight of the program. */
    std::uint64_t totalEdgeWeight = 0;
    /** Heaviest cluster / ideal cluster weight (1.0 = perfect). */
    double balance = 0.0;
    /** Cut after the initial partition, before any FM pass. */
    std::uint64_t initialCutWeight = 0;
    /** Total cut reduction achieved by FM refinement (>= 0). */
    std::uint64_t fmGain = 0;
    /** FM passes executed across all uncoarsening levels. */
    unsigned fmPasses = 0;
    /** Coarsening levels built (0 = partitioned the input graph). */
    unsigned coarsenLevels = 0;
    /** Affinity-graph nodes (referenced local live ranges). */
    std::uint64_t numNodes = 0;
    unsigned numClusters = 0;
};

/**
 * Balance cap of the multilevel partitioner: no cluster may exceed
 * (1 + tolerance) x the ideal weight total/N (relaxed to the heaviest
 * single node when that node alone is bigger). Node weights are
 * discrete, so the cap is best-effort: a cluster whose every node is
 * too heavy to fit anywhere else can stay above it, bounded by cap +
 * the heaviest node weight in practice.
 */
inline constexpr double kBalanceTolerance = 0.10;

/**
 * Partition a program's local live ranges into
 * `options.numClusters` clusters. Global candidates and unreferenced
 * values stay unassigned, like the other partitioners. N = 1 assigns
 * every referenced local value to cluster 0.
 *
 * Throws std::runtime_error via PartitionOptions::validate() on an
 * unsupported cluster count.
 */
ClusterAssignment multilevelPartition(const prog::Program &prog,
                                      const PartitionOptions &options,
                                      PartitionStats *stats = nullptr);

/**
 * Score any assignment against the program's affinity graph — the
 * shared cut/balance metric the partition pass reports for every
 * scheduler. FM fields are zero.
 */
PartitionStats scorePartition(const AffinityGraph &graph,
                              const ClusterAssignment &assignment,
                              unsigned num_clusters);

} // namespace mca::compiler

#endif // MCA_COMPILER_PARTITION_ML_HH
