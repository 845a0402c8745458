/**
 * @file
 * End-to-end integration tests: workload -> compiler -> trace ->
 * timing model, across machine configurations.
 */

#include <gtest/gtest.h>

#include "compiler/pipeline.hh"
#include "exec/trace.hh"
#include "harness/experiment.hh"
#include "table2_row.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

/** Compile + simulate a benchmark on a machine; sanity-check results. */
harness::RunStats
runOn(const prog::Program &program, compiler::SchedulerKind sched,
      unsigned clusters, std::uint64_t max_insts)
{
    compiler::CompileOptions copt;
    copt.scheduler = sched;
    copt.numClusters = sched == compiler::SchedulerKind::Native
                           ? 1
                           : clusters;
    const auto out = compiler::compile(program, copt);
    const auto cfg = clusters == 1
                         ? core::ProcessorConfig::singleCluster8()
                         : core::ProcessorConfig::dualCluster8();
    return harness::simulate(out.binary, out.hardwareMap(clusters), cfg,
                             7, max_insts);
}

TEST(Integration, CompressRunsOnSingleCluster)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.05});
    const auto stats =
        runOn(program, compiler::SchedulerKind::Native, 1, 50'000);
    EXPECT_TRUE(stats.completed);
    EXPECT_GT(stats.retired, 1'000u);
    EXPECT_GT(stats.ipc, 0.1);
    EXPECT_LE(stats.ipc, 8.0);
    // A single-cluster machine never dual-distributes.
    EXPECT_EQ(stats.distDual, 0u);
    EXPECT_EQ(stats.operandForwards, 0u);
    EXPECT_EQ(stats.resultForwards, 0u);
}

TEST(Integration, CompressNativeOnDualClusterDualDistributes)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.05});
    const auto stats =
        runOn(program, compiler::SchedulerKind::Native, 2, 50'000);
    EXPECT_TRUE(stats.completed);
    EXPECT_GT(stats.retired, 1'000u);
    // The cluster-unaware binary scatters live ranges across both
    // clusters, so dual distribution must occur.
    EXPECT_GT(stats.distDual, 0u);
}

TEST(Integration, LocalSchedulerReducesDualDistribution)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.05});
    const auto none =
        runOn(program, compiler::SchedulerKind::Native, 2, 50'000);
    const auto local =
        runOn(program, compiler::SchedulerKind::Local, 2, 50'000);
    EXPECT_TRUE(local.completed);
    // The paper's key mechanism: rescheduling cuts dual distribution.
    EXPECT_LT(local.distDual, none.distDual);
}

TEST(Integration, DualClusterSlowerInCyclesThanSingle)
{
    const auto program =
        workloads::makeSu2cor(workloads::WorkloadParams{0.05});
    const auto single =
        runOn(program, compiler::SchedulerKind::Native, 1, 50'000);
    const auto dual =
        runOn(program, compiler::SchedulerKind::Native, 2, 50'000);
    // Partitioning costs cycles (the common trend of §4.2).
    EXPECT_GE(dual.cycles, single.cycles);
}

TEST(Integration, AllBenchmarksDrainOnBothMachines)
{
    for (const auto &bench : workloads::allBenchmarks()) {
        SCOPED_TRACE(bench.name);
        const auto program =
            bench.make(workloads::WorkloadParams{0.02});
        const auto single =
            runOn(program, compiler::SchedulerKind::Native, 1, 20'000);
        const auto dual =
            runOn(program, compiler::SchedulerKind::Local, 2, 20'000);
        EXPECT_TRUE(single.completed);
        EXPECT_TRUE(dual.completed);
        EXPECT_GT(single.retired, 100u);
        // Both machines retire the same dynamic instruction stream only
        // if the binaries are identical; local rescheduling adds spill
        // code, so allow the dual count to be >= single's.
        EXPECT_GE(dual.retired, single.retired / 2);
    }
}

TEST(Integration, Table2RowComputesPercentages)
{
    harness::ExperimentOptions opt;
    opt.workload.scale = 0.02;
    opt.maxInsts = 20'000;
    const auto row = test::table2Row("compress", opt);
    EXPECT_GT(row.single.cycles, 0u);
    EXPECT_GT(row.dualNone.cycles, 0u);
    EXPECT_GT(row.dualLocal.cycles, 0u);
    // Percentage definition: positive = dual-cluster speedup.
    const double expect_none =
        100.0 - 100.0 * static_cast<double>(row.dualNone.cycles) /
                    static_cast<double>(row.single.cycles);
    EXPECT_NEAR(row.pctNone, expect_none, 1e-9);
}

TEST(Integration, TraceIsDeterministic)
{
    const auto program =
        workloads::makeGcc1(workloads::WorkloadParams{0.02});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(program, copt);

    auto runOnce = [&] {
        const auto cfg = core::ProcessorConfig::singleCluster8();
        return harness::simulate(out.binary, out.hardwareMap(1), cfg, 99,
                                 20'000);
    };
    const auto a = runOnce();
    const auto b = runOnce();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.retired, b.retired);
}

} // namespace
