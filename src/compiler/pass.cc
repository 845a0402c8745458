#include "compiler/pass.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
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

class OptimizePass : public Pass
{
  public:
    std::string_view name() const override { return "optimize"; }
    std::string_view
    description() const override
    {
        return "conventional IL optimizations (step 1)";
    }
    void
    run(PassContext &ctx) override
    {
        ctx.out.optStats = optimizeProgram(ctx.program);
    }
};

class UnrollPass : public Pass
{
  public:
    std::string_view name() const override { return "unroll"; }
    std::string_view
    description() const override
    {
        return "unroll eligible counted self-loops (§6)";
    }
    void
    run(PassContext &ctx) override
    {
        ctx.out.unrollStats =
            unrollLoops(ctx.program, ctx.options.unrollFactor);
    }
};

class SuperblockPass : public Pass
{
  public:
    std::string_view name() const override { return "superblock"; }
    std::string_view
    description() const override
    {
        return "superblock formation: tail duplication + straightening "
               "(§6)";
    }
    void
    run(PassContext &ctx) override
    {
        ctx.out.superblockStats = formSuperblocks(ctx.program);
    }
};

class SchedulePass : public Pass
{
  public:
    std::string_view name() const override { return "schedule"; }
    std::string_view
    description() const override
    {
        return "prepass list scheduling (step 2)";
    }
    void
    run(PassContext &ctx) override
    {
        ScheduleOptions sopt;
        sopt.width = ctx.options.listScheduleWidth;
        ctx.out.scheduleStats = listSchedule(ctx.program, sopt);
    }
};

class ProfilePass : public Pass
{
  public:
    std::string_view name() const override { return "profile"; }
    std::string_view
    description() const override
    {
        return "profiling run: measured block/edge weights for the "
               "partitioner";
    }
    void
    run(PassContext &ctx) override
    {
        const auto profile =
            exec::profileProgram(ctx.program, ctx.options.profileSeed,
                                 ctx.options.profileMaxInsts);
        exec::applyProfile(ctx.program, profile);
    }
};

class PartitionPass : public Pass
{
  public:
    std::string_view name() const override { return "partition"; }
    std::string_view
    description() const override
    {
        return "live-range partitioning across clusters (step 4, §3.5)";
    }
    void
    run(PassContext &ctx) override
    {
        PartitionOptions popt;
        popt.numClusters = ctx.options.numClusters;
        popt.imbalanceThreshold = ctx.options.imbalanceThreshold;
        popt.validate();
        switch (ctx.options.scheduler) {
          case SchedulerKind::Native:
            MCA_PANIC("partition pass scheduled for a native compile");
            break;
          case SchedulerKind::Local:
            MCA_ASSERT(ctx.options.numClusters >= 2,
                       "local scheduler needs a clustered target");
            ctx.out.partition = localSchedule(ctx.program, popt,
                                              &ctx.out.partitionTrace);
            break;
          case SchedulerKind::RoundRobin:
            MCA_ASSERT(ctx.options.numClusters >= 2,
                       "round-robin needs a clustered target");
            ctx.out.partition = roundRobinSchedule(ctx.program, popt);
            break;
          case SchedulerKind::Multilevel:
            MCA_ASSERT(ctx.options.numClusters >= 2,
                       "multilevel partitioner needs a clustered target");
            ctx.out.partition = multilevelPartition(
                ctx.program, popt, &ctx.out.partitionStats);
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
};

class RegallocPass : public Pass
{
  public:
    std::string_view name() const override { return "regalloc"; }
    std::string_view
    description() const override
    {
        return "graph-coloring register allocation with spilling "
               "(step 5)";
    }
    void
    run(PassContext &ctx) override
    {
        AllocOptions aopt;
        aopt.regMap = isa::RegisterMap(
            ctx.options.scheduler == SchedulerKind::Native
                ? 1
                : ctx.options.numClusters);
        aopt.assignment = ctx.out.partition;
        ctx.out.alloc = allocateRegisters(ctx.program, aopt);
        // Later passes (and verification) see what will be emitted:
        // the spill-expanded rewrite, its final assignment extended to
        // the spill temporaries, and the coloring itself. A native
        // compile has no cluster assignment to check.
        ctx.program = ctx.out.alloc.rewritten;
        if (ctx.options.scheduler != SchedulerKind::Native) {
            ctx.verify.clusterOf =
                &ctx.out.alloc.finalAssignment.cluster;
            ctx.verify.numClusters =
                ctx.out.alloc.finalMap.numClusters();
        }
        ctx.verify.regOf = &ctx.out.alloc.regOf;
        ctx.verify.regMap = &ctx.out.alloc.finalMap;
    }
};

class EmitPass : public Pass
{
  public:
    std::string_view name() const override { return "emit"; }
    std::string_view
    description() const override
    {
        return "machine-code emission (step 6)";
    }
    void
    run(PassContext &ctx) override
    {
        ctx.out.binary = emitMachine(ctx.out.alloc);
    }
    std::string
    dump(const PassContext &ctx) const override
    {
        return prog::dumpProgram(ctx.out.binary);
    }
};

bool
wantsDump(const CompileOptions &options, std::string_view pass)
{
    for (const auto &want : options.dumpAfter)
        if (want == "all" || want == pass)
            return true;
    return false;
}

void
verifyOrThrow(const PassContext &ctx, const std::string &when)
{
    const prog::VerifyResult res =
        prog::verifyIR(ctx.program, ctx.verify);
    if (!res.ok())
        throw std::runtime_error("verify-ir: invariant violation " +
                                 when + ":\n" + res.str());
}

} // namespace

std::string
Pass::dump(const PassContext &ctx) const
{
    return prog::dumpProgram(ctx.program);
}

const std::vector<PassInfo> &
allPasses()
{
    // Canonical pipeline order; buildPipeline() picks the subset the
    // options enable.
    static const std::vector<PassInfo> kPasses = [] {
        std::vector<PassInfo> infos;
        for (const auto &pass : buildPipeline([] {
                 CompileOptions all;
                 all.scheduler = SchedulerKind::Local;
                 all.numClusters = 2;
                 all.unrollFactor = 2;
                 all.superblocks = true;
                 return all;
             }()))
            infos.push_back({pass->name(), pass->description()});
        return infos;
    }();
    return kPasses;
}

bool
isPassName(std::string_view name)
{
    const auto &passes = allPasses();
    return std::any_of(passes.begin(), passes.end(),
                       [&](const PassInfo &p) { return p.name == name; });
}

std::vector<std::unique_ptr<Pass>>
buildPipeline(const CompileOptions &options)
{
    std::vector<std::unique_ptr<Pass>> passes;
    if (options.optimize)
        passes.push_back(std::make_unique<OptimizePass>());
    if (options.unrollFactor >= 2)
        passes.push_back(std::make_unique<UnrollPass>());
    if (options.superblocks)
        passes.push_back(std::make_unique<SuperblockPass>());
    if (options.listSchedule)
        passes.push_back(std::make_unique<SchedulePass>());
    if (options.profileFirst &&
        options.scheduler != SchedulerKind::Native)
        passes.push_back(std::make_unique<ProfilePass>());
    if (options.scheduler != SchedulerKind::Native)
        passes.push_back(std::make_unique<PartitionPass>());
    passes.push_back(std::make_unique<RegallocPass>());
    passes.push_back(std::make_unique<EmitPass>());
    return passes;
}

void
PassManager::run(PassContext &ctx) const
{
    if (verifyIr_) {
        // Pre-existing def-before-use findings are an input-program
        // property (the random fuzzer emits them on purpose; the trace
        // interpreter zero-fills unwritten live ranges), not a pass
        // bug: downgrade that one check and hold the passes to every
        // other invariant. Anything else in the input is fatal.
        const prog::VerifyResult input =
            prog::verifyIR(ctx.program, ctx.verify);
        if (!input.ok()) {
            const bool onlyDefBeforeUse = std::all_of(
                input.errors.begin(), input.errors.end(),
                [](const prog::VerifyError &e) {
                    return e.kind ==
                           prog::VerifyErrorKind::DefBeforeUse;
                });
            if (!onlyDefBeforeUse)
                throw std::runtime_error(
                    "verify-ir: invariant violation in the input "
                    "program:\n" +
                    input.str());
            ctx.verify.checkDefBeforeUse = false;
        }
    }

    for (const auto &pass : passes_) {
        PassStat stat;
        stat.pass = std::string(pass->name());
        stat.blocksBefore = blockCount(ctx.program);
        stat.instsBefore = ctx.program.staticInstCount();
        stat.valuesBefore = ctx.program.values.size();
        stat.spillOpsBefore = spillOpCount(ctx.out);

        const auto start = std::chrono::steady_clock::now();
        {
            // Region per pass, reusing the per-pass PassStat names so
            // the host profile and pass-stats dumps line up.
            prof::ScopeTimer prof_scope(
                prof::internRegion("compile." + stat.pass));
            pass->run(ctx);
        }
        stat.wallMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

        stat.blocksAfter = blockCount(ctx.program);
        stat.instsAfter = ctx.program.staticInstCount();
        stat.valuesAfter = ctx.program.values.size();
        stat.spillOpsAfter = spillOpCount(ctx.out);
        ctx.out.passStats.push_back(stat);

        if (wantsDump(ctx.options, pass->name()))
            ctx.out.dumps.emplace_back(std::string(pass->name()),
                                       pass->dump(ctx));
        if (verifyIr_)
            verifyOrThrow(ctx, "after pass '" + stat.pass + "'");
    }
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
