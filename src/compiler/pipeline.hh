/**
 * @file
 * The six-step compilation pipeline (paper §3.1).
 *
 *  1. conventional optimizations on the IL;
 *  2. prepass code scheduling;
 *  3. global-register candidate designation (done by the program
 *     builder: SP/GP live ranges carry the globalCandidate flag);
 *  4. live-range partitioning (the local scheduler);
 *  5. register allocation (graph coloring with spilling);
 *  6. machine-code emission.
 *
 * Profiling (the source of the local scheduler's execution estimates)
 * runs between steps 2 and 4, mirroring the paper's profile-driven
 * estimates.
 */

#ifndef MCA_COMPILER_PIPELINE_HH
#define MCA_COMPILER_PIPELINE_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "compiler/optimize.hh"
#include "compiler/partition.hh"
#include "compiler/partition_ml.hh"
#include "compiler/regalloc.hh"
#include "compiler/schedule.hh"
#include "compiler/superblock.hh"
#include "compiler/unroll.hh"
#include "prog/cfg.hh"

namespace mca::compiler
{

/** Which live-range partitioner to run (step 4). */
enum class SchedulerKind
{
    /**
     * None: cluster-unaware allocation over the full register file.
     * This is the paper's baseline — the native binary, whose live
     * ranges land on clusters only through the even/odd register map.
     */
    Native,
    /** The paper's local scheduler (§3.5). */
    Local,
    /** Blind round-robin assignment (ablation). */
    RoundRobin,
    /**
     * Multilevel graph partitioner over the live-range affinity graph
     * (coarsen / partition / FM-refine, partition_ml.hh). Scales to
     * any cluster count.
     */
    Multilevel,
};

struct CompileOptions
{
    SchedulerKind scheduler = SchedulerKind::Native;
    /** Cluster count the binary is scheduled for (1 for Native). */
    unsigned numClusters = 1;
    unsigned imbalanceThreshold = 4;
    /** Unroll eligible counted self-loops by this factor (1 = off). */
    unsigned unrollFactor = 1;
    /** Form superblocks (tail duplication + straightening, §6). */
    bool superblocks = false;
    /** The profiling run that weighs blocks before a clustered
     *  scheduler partitions them. */
    std::uint64_t profileSeed = 1;

    /**
     * Run prog::verifyIR() between passes; a violation aborts the
     * compile with std::runtime_error. Defaults on in debug builds.
     * Diagnostic only — never changes the produced binary.
     */
#ifdef NDEBUG
    bool verifyIr = false;
#else
    bool verifyIr = true;
#endif
    /**
     * Pass names whose output to snapshot into CompileOutput::dumps
     * ("all" captures every pass). Diagnostic only.
     */
    std::vector<std::string> dumpAfter;

    /**
     * Canonical text form of every field that affects the produced
     * binary, in a fixed order (diagnostic fields excluded). Two
     * options with equal keys compile any program identically — this
     * is the compile-cache identity.
     */
    std::string canonicalKey() const;
};

/**
 * The canonical CompileOptions for a named scheduler ("native",
 * "local", "roundrobin", "multilevel") targeting a machine with
 * `machine_clusters` clusters — the one place the name-to-options
 * mapping lives, shared by the runner (and through it both tools),
 * the Table-2 harness and the examples. A "local" or "multilevel"
 * request on a single-cluster
 * machine degrades to Native (nothing to partition).
 * Throws std::runtime_error on an unknown scheduler name.
 */
CompileOptions compileOptionsFor(const std::string &scheduler,
                                 unsigned machine_clusters);

/** Every scheduler name compileOptionsFor() accepts, native first. */
const std::vector<std::string> &schedulerNames();

/**
 * The partitioner names `--partitioner` accepts: the clustered
 * schedulers, i.e. every SchedulerKind except Native.
 */
const std::vector<std::string> &partitionerNames();

/** Wall-clock and IR-delta record for one executed pass. */
struct PassStat
{
    std::string pass;
    double wallMs = 0.0;
    std::uint64_t blocksBefore = 0;
    std::uint64_t blocksAfter = 0;
    std::uint64_t instsBefore = 0;
    std::uint64_t instsAfter = 0;
    /** Live ranges (program value-table size). */
    std::uint64_t valuesBefore = 0;
    std::uint64_t valuesAfter = 0;
    /** Spill loads+stores inserted so far (regalloc onward). */
    std::uint64_t spillOpsBefore = 0;
    std::uint64_t spillOpsAfter = 0;
};

struct CompileOutput
{
    /** The executable (what the timing simulator runs). */
    prog::MachProgram binary;
    /** Allocator outcome (rewritten IL, registers, spill stats). */
    AllocResult alloc;
    /** Partitioner assignment (pre-allocation; empty for Native). */
    ClusterAssignment partition;
    /** Partitioner decision record (Figure-6 reproduction). */
    PartitionTrace partitionTrace;
    /**
     * Partition quality (affinity cut, balance, FM gain) for any
     * clustered scheduler; all-zero for Native.
     */
    PartitionStats partitionStats;
    OptStats optStats;
    UnrollStats unrollStats;
    SuperblockStats superblockStats;
    ScheduleStats scheduleStats;

    /** Per-pass timing and IR deltas, in execution order. */
    std::vector<PassStat> passStats;
    /** (pass name, snapshot) pairs captured for dumpAfter. */
    std::vector<std::pair<std::string, std::string>> dumps;

    /** The captured snapshot for `pass`, or nullptr. */
    const std::string *dumpFor(std::string_view pass) const;

    /**
     * Register map a machine with `num_clusters` clusters must use to run
     * this binary: the default local even/odd assignment plus the global
     * registers this binary's global candidates were precolored onto.
     */
    isa::RegisterMap hardwareMap(unsigned num_clusters) const;
};

/** Run the full pipeline. The input program is copied, never modified. */
CompileOutput compile(const prog::Program &prog,
                      const CompileOptions &options);

} // namespace mca::compiler

#endif // MCA_COMPILER_PIPELINE_HH
