#include "compiler/pass.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "compiler/affinity.hh"
#include "compiler/partition_ml.hh"
#include "exec/trace.hh"
#include "prof/prof.hh"
#include "support/panic.hh"

namespace mca::compiler
{

namespace
{

std::uint64_t
blockCount(const prog::Program &prog)
{
    std::uint64_t n = 0;
    for (const auto &fn : prog.functions)
        n += fn.blocks.size();
    return n;
}

std::uint64_t
spillOpCount(const CompileOutput &out)
{
    return out.alloc.spillLoadsInserted + out.alloc.spillStoresInserted;
}

/** Trace length of the profiling run that weighs blocks before a
 *  clustered scheduler partitions them. */
constexpr std::uint64_t kProfileMaxInsts = 200'000;

bool
always(const CompileOptions &)
{
    return true;
}

bool
clustered(const CompileOptions &options)
{
    return options.scheduler != SchedulerKind::Native;
}

void
runPartition(PassContext &ctx)
{
    PartitionOptions popt;
    popt.numClusters = ctx.options.numClusters;
    popt.imbalanceThreshold = ctx.options.imbalanceThreshold;
    popt.validate();
    MCA_ASSERT(ctx.options.numClusters >= 2,
               "partition pass needs a clustered target");
    switch (ctx.options.scheduler) {
      case SchedulerKind::Native:
        MCA_PANIC("partition pass scheduled for a native compile");
      case SchedulerKind::Local:
        ctx.out.partition =
            localSchedule(ctx.program, popt, &ctx.out.partitionTrace);
        break;
      case SchedulerKind::RoundRobin:
        ctx.out.partition = roundRobinSchedule(ctx.program, popt);
        break;
      case SchedulerKind::Multilevel:
        ctx.out.partition = multilevelPartition(ctx.program, popt,
                                                &ctx.out.partitionStats);
        break;
    }
    // One comparable quality record per compile, whichever
    // partitioner ran (the multilevel fills its FM fields above).
    if (ctx.options.scheduler != SchedulerKind::Multilevel) {
        const AffinityGraph graph = buildAffinityGraph(ctx.program);
        ctx.out.partitionStats = scorePartition(
            graph, ctx.out.partition, ctx.options.numClusters);
    }
    ctx.verify.clusterOf = &ctx.out.partition.cluster;
    ctx.verify.numClusters = ctx.options.numClusters;
}

void
runRegalloc(PassContext &ctx)
{
    AllocOptions aopt;
    aopt.regMap = isa::RegisterMap(
        ctx.options.scheduler == SchedulerKind::Native
            ? 1
            : ctx.options.numClusters);
    aopt.assignment = ctx.out.partition;
    ctx.out.alloc = allocateRegisters(ctx.program, aopt);
    // Later passes (and verification) see what will be emitted: the
    // spill-expanded rewrite, its final assignment extended to the
    // spill temporaries, and the coloring itself. A native compile has
    // no cluster assignment to check.
    ctx.program = ctx.out.alloc.rewritten;
    if (ctx.options.scheduler != SchedulerKind::Native) {
        ctx.verify.clusterOf = &ctx.out.alloc.finalAssignment.cluster;
        ctx.verify.numClusters = ctx.out.alloc.finalMap.numClusters();
    }
    ctx.verify.regOf = &ctx.out.alloc.regOf;
    ctx.verify.regMap = &ctx.out.alloc.finalMap;
}

/** The pipeline (§3.1), in pass order. */
constexpr Pass kPasses[] = {
    {"optimize", "conventional IL optimizations (step 1)", always,
     [](PassContext &ctx) {
         ctx.out.optStats = optimizeProgram(ctx.program);
     }},
    {"unroll", "unroll eligible counted self-loops (§6)",
     [](const CompileOptions &o) { return o.unrollFactor >= 2; },
     [](PassContext &ctx) {
         ctx.out.unrollStats =
             unrollLoops(ctx.program, ctx.options.unrollFactor);
     }},
    {"superblock",
     "superblock formation: tail duplication + straightening (§6)",
     [](const CompileOptions &o) { return o.superblocks; },
     [](PassContext &ctx) {
         ctx.out.superblockStats = formSuperblocks(ctx.program);
     }},
    {"schedule", "prepass list scheduling (step 2)", always,
     [](PassContext &ctx) {
         ctx.out.scheduleStats = listSchedule(ctx.program);
     }},
    {"profile",
     "profiling run: measured block/edge weights for the partitioner",
     clustered,
     [](PassContext &ctx) {
         const auto profile = exec::profileProgram(
             ctx.program, ctx.options.profileSeed, kProfileMaxInsts);
         exec::applyProfile(ctx.program, profile);
     }},
    {"partition", "live-range partitioning across clusters (step 4, §3.5)",
     clustered, runPartition},
    {"regalloc",
     "graph-coloring register allocation with spilling (step 5)", always,
     runRegalloc},
    {"emit", "machine-code emission (step 6)", always,
     [](PassContext &ctx) { ctx.out.binary = emitMachine(ctx.out.alloc); },
     true},
};

bool
wantsDump(const CompileOptions &options, std::string_view pass)
{
    for (const auto &want : options.dumpAfter)
        if (want == "all" || want == pass)
            return true;
    return false;
}

/**
 * Check the input program. Pre-existing def-before-use findings are an
 * input-program property (the random fuzzer emits them on purpose; the
 * trace interpreter zero-fills unwritten live ranges), not a pass bug:
 * downgrade that one check and hold the passes to every other
 * invariant. Anything else in the input is fatal.
 */
void
verifyInput(PassContext &ctx)
{
    const prog::VerifyResult input = prog::verifyIR(ctx.program, ctx.verify);
    if (input.ok())
        return;
    const bool onlyDefBeforeUse = std::all_of(
        input.errors.begin(), input.errors.end(),
        [](const prog::VerifyError &e) {
            return e.kind == prog::VerifyErrorKind::DefBeforeUse;
        });
    if (!onlyDefBeforeUse)
        throw std::runtime_error(
            "verify-ir: invariant violation in the input program:\n" +
            input.str());
    ctx.verify.checkDefBeforeUse = false;
}

} // namespace

std::span<const Pass>
allPasses()
{
    return kPasses;
}

bool
isPassName(std::string_view name)
{
    return std::any_of(std::begin(kPasses), std::end(kPasses),
                       [&](const Pass &p) { return p.name == name; });
}

void
runPass(const Pass &pass, PassContext &ctx)
{
    if (ctx.options.verifyIr && ctx.out.passStats.empty())
        verifyInput(ctx);

    PassStat stat;
    stat.pass = std::string(pass.name);
    stat.blocksBefore = blockCount(ctx.program);
    stat.instsBefore = ctx.program.staticInstCount();
    stat.valuesBefore = ctx.program.values.size();
    stat.spillOpsBefore = spillOpCount(ctx.out);

    const auto start = std::chrono::steady_clock::now();
    {
        // Region per pass, reusing the per-pass PassStat names so the
        // host profile and pass-stats dumps line up.
        prof::ScopeTimer prof_scope(
            prof::internRegion("compile." + stat.pass));
        pass.run(ctx);
    }
    stat.wallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();

    stat.blocksAfter = blockCount(ctx.program);
    stat.instsAfter = ctx.program.staticInstCount();
    stat.valuesAfter = ctx.program.values.size();
    stat.spillOpsAfter = spillOpCount(ctx.out);
    ctx.out.passStats.push_back(stat);

    if (wantsDump(ctx.options, pass.name))
        ctx.out.dumps.emplace_back(
            stat.pass, pass.dumpsBinary ? prog::dumpProgram(ctx.out.binary)
                                        : prog::dumpProgram(ctx.program));
    if (!ctx.options.verifyIr)
        return;
    const prog::VerifyResult res = prog::verifyIR(ctx.program, ctx.verify);
    if (!res.ok())
        throw std::runtime_error("verify-ir: invariant violation after "
                                 "pass '" + stat.pass + "':\n" + res.str());
}

void
exportPassStats(const std::vector<PassStat> &passes, StatGroup &group,
                const std::string &prefix)
{
    unsigned index = 0;
    for (const auto &stat : passes) {
        // Two-digit index keeps dump order == execution order (the
        // registry dumps sort by name).
        char head[64];
        std::snprintf(head, sizeof head, "%s.%02u_%s", prefix.c_str(),
                      index++, stat.pass.c_str());
        group.counter(std::string(head) + ".wall_us",
                      "pass wall clock (us)") +=
            static_cast<std::uint64_t>(stat.wallMs * 1000.0);
        group.counter(std::string(head) + ".blocks",
                      "basic blocks after the pass") += stat.blocksAfter;
        group.counter(std::string(head) + ".insts",
                      "IL instructions after the pass") +=
            stat.instsAfter;
        group.counter(std::string(head) + ".values",
                      "live ranges after the pass") += stat.valuesAfter;
        group.counter(std::string(head) + ".spill_ops",
                      "spill loads+stores inserted so far") +=
            stat.spillOpsAfter;
    }
}

void
exportPartitionStats(const PartitionStats &stats, StatGroup &group,
                     const std::string &prefix)
{
    group.counter(prefix + ".cut_weight",
                  "affinity edge weight cut by the partition") +=
        stats.cutWeight;
    group.counter(prefix + ".total_weight",
                  "total affinity edge weight") += stats.totalEdgeWeight;
    group.counter(prefix + ".balance_x1000",
                  "heaviest cluster / ideal weight, x1000") +=
        static_cast<std::uint64_t>(stats.balance * 1000.0);
    group.counter(prefix + ".fm_gain",
                  "cut reduction from FM refinement") += stats.fmGain;
    group.counter(prefix + ".fm_passes",
                  "FM refinement passes executed") += stats.fmPasses;
    group.counter(prefix + ".coarsen_levels",
                  "coarsening levels built") += stats.coarsenLevels;
    group.counter(prefix + ".nodes",
                  "affinity-graph nodes (local live ranges)") +=
        stats.numNodes;
    group.counter(prefix + ".clusters",
                  "clusters partitioned for") += stats.numClusters;
}

} // namespace mca::compiler
