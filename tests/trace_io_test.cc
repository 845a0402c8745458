/**
 * @file
 * Tests for trace-file I/O: roundtrip fidelity, header validation,
 * replay equivalence on the timing model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "compiler/pipeline.hh"
#include "exec/trace.hh"
#include "exec/trace_io.hh"
#include "harness/experiment.hh"
#include "trace_records.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

struct TraceIoFixture : ::testing::Test
{
    std::string path;

    void
    SetUp() override
    {
        path = (std::filesystem::temp_directory_path() /
                ("mca_trace_test_" +
                 std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name()))
                   .string();
    }

    void TearDown() override { std::remove(path.c_str()); }

    static compiler::CompileOutput
    compiledCompress()
    {
        const auto p =
            workloads::makeCompress(workloads::WorkloadParams{0.02});
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Native;
        copt.numClusters = 1;
        return compiler::compile(p, copt);
    }
};

TEST_F(TraceIoFixture, RoundtripPreservesEveryField)
{
    const auto out = compiledCompress();
    exec::ProgramTrace source(out.binary, 7, 5'000);
    const auto written = exec::writeTrace(path, source);
    EXPECT_EQ(written, 5'000u);

    // The file, drained into one reused record, must reproduce the
    // program trace field by field.
    exec::ProgramTrace reference(out.binary, 7, 5'000);
    exec::FileTrace replay(path);
    EXPECT_EQ(replay.count(), 5'000u);
    const auto records = test::drainReused(replay, reference);
    EXPECT_EQ(records.size(), 5'000u);
    EXPECT_FALSE(replay.next().has_value());

    std::size_t after_load = 0;
    for (std::size_t i = 1; i < records.size(); ++i) {
        if (isa::isLoad(records[i - 1].mi.op) &&
            !isa::isMemOp(records[i].mi.op)) {
            EXPECT_EQ(records[i].effAddr, 0u) << "seq " << i;
            ++after_load;
        }
    }
    EXPECT_GT(after_load, 0u);
}

TEST_F(TraceIoFixture, ReplayedTraceSimulatesIdentically)
{
    const auto out = compiledCompress();
    {
        exec::ProgramTrace source(out.binary, 7, 10'000);
        exec::writeTrace(path, source);
    }

    auto runWith = [&](exec::TraceSource &trace) {
        StatGroup stats("t");
        core::Processor cpu(core::ProcessorConfig::singleCluster8(),
                            trace, stats);
        return cpu.run().cycles;
    };
    exec::ProgramTrace live(out.binary, 7, 10'000);
    exec::FileTrace replay(path);
    EXPECT_EQ(runWith(live), runWith(replay));
}

TEST_F(TraceIoFixture, ShortTraceStopsAtSourceEnd)
{
    const auto out = compiledCompress();
    exec::ProgramTrace source(out.binary, 7, 123);
    const auto written = exec::writeTrace(path, source, {}, 1'000'000);
    EXPECT_EQ(written, 123u);
    exec::FileTrace replay(path);
    EXPECT_EQ(replay.count(), 123u);
}

TEST_F(TraceIoFixture, RejectsForeignFiles)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_DEATH({ exec::FileTrace t(path); },
                 "not a multicluster trace");
}

TEST_F(TraceIoFixture, RejectsMissingFile)
{
    EXPECT_DEATH({ exec::FileTrace t("/nonexistent/nope.mct"); },
                 "cannot open");
}

TEST_F(TraceIoFixture, GlobalRegistersRoundtripThroughTheHeader)
{
    const auto out = compiledCompress();
    {
        exec::ProgramTrace source(out.binary, 7, 500);
        // compress precolors SP (r30) and GP (r29) as globals.
        exec::writeTrace(path, source, out.alloc.globalRegs);
    }
    exec::FileTrace replay(path);
    ASSERT_EQ(replay.globalRegs().size(), out.alloc.globalRegs.size());
    isa::RegisterMap map(2);
    map.setLocal(isa::intReg(isa::kStackPointer));
    map.setLocal(isa::intReg(isa::kGlobalPointer));
    replay.applyGlobals(map);
    EXPECT_TRUE(map.isGlobal(isa::intReg(isa::kStackPointer)));
    EXPECT_TRUE(map.isGlobal(isa::intReg(isa::kGlobalPointer)));
}

TEST(OccupancyStats, DistributionsArePopulated)
{
    const auto p =
        workloads::makeCompress(workloads::WorkloadParams{0.02});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(p, copt);
    StatGroup stats("occ");
    exec::ProgramTrace trace(out.binary, 7, 20'000);
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = out.hardwareMap(2);
    core::Processor cpu(cfg, trace, stats);
    const auto result = cpu.run();

    const auto &rob = stats.distribution("rob.occupancy", 16, 32);
    EXPECT_EQ(rob.samples(), result.cycles);
    EXPECT_GT(rob.mean(), 0.0);
    const auto &q0 = stats.distribution("queue.occupancy.c0", 8, 32);
    const auto &q1 = stats.distribution("queue.occupancy.c1", 8, 32);
    EXPECT_EQ(q0.samples(), result.cycles);
    EXPECT_LE(q0.max(), 64u);
    EXPECT_LE(q1.max(), 64u);
    const auto &wait = stats.distribution("issue.wait_cycles", 4, 32);
    EXPECT_GT(wait.samples(), 0u);
    EXPECT_GE(wait.mean(), 1.0); // issue is at least a cycle after dispatch
}

} // namespace
