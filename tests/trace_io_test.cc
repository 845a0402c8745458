/**
 * @file
 * Tests for trace-file I/O: roundtrip fidelity, header and record
 * validation, replay equivalence on the timing model.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "compiler/pipeline.hh"
#include "exec/dyninst_io.hh"
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

    /** Open and drain a trace file; its error, or "" when it reads. */
    static std::string
    replayError(const std::string &file)
    {
        try {
            exec::FileTrace trace(file);
            exec::DynInst di;
            while (trace.next(di)) {
            }
        } catch (const std::runtime_error &e) {
            return e.what();
        }
        return "";
    }

    static std::string
    fileBytes(const std::string &file)
    {
        std::ifstream in(file, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    static void
    writeFile(const std::string &file, const std::string &bytes)
    {
        std::ofstream(file, std::ios::binary | std::ios::trunc) << bytes;
    }

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
    EXPECT_EQ(std::filesystem::file_size(path),
              exec::kTraceHeaderBytes + 5'000 * exec::kDynInstBytes);
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
    EXPECT_THROW(exec::FileTrace{path}, std::runtime_error);
    EXPECT_EQ(replayError(path),
              "trace: bad magic, not an MCATRC03 trace file: " + path);
}

TEST_F(TraceIoFixture, RejectsMissingFile)
{
    const std::string missing = "/nonexistent/nope.mct";
    EXPECT_THROW(exec::FileTrace{missing}, std::runtime_error);
    EXPECT_EQ(replayError(missing), "trace: cannot open: " + missing);
}

TEST_F(TraceIoFixture, CorruptFieldsFailByName)
{
    // One clean 200-record file, then one corruption per case: bytes
    // written at an offset of a record (or the header), or the file cut
    // short. Every case must throw a "trace:" error naming the field.
    const auto out = compiledCompress();
    {
        exec::ProgramTrace source(out.binary, 7, 200);
        ASSERT_EQ(exec::writeTrace(path, source), 200u);
    }
    const std::string clean = fileBytes(path);
    ASSERT_EQ(clean.size(),
              exec::kTraceHeaderBytes + 200 * exec::kDynInstBytes);
    EXPECT_EQ(replayError(path), "");

    // Field offsets within a record (exec/dyninst_io.hh).
    constexpr std::size_t kOp = 40, kFlags = 41, kDest = 42, kSrc0 = 44,
                          kSrc1 = 46, kRemap = 48;
    const auto record = [](std::size_t i, std::size_t offset) {
        return exec::kTraceHeaderBytes + i * exec::kDynInstBytes + offset;
    };
    const struct
    {
        const char *name;
        std::size_t at;
        std::string bytes;
        const char *field;
    } cases[] = {
        {"opcode 250", record(100, kOp), "\xfa", "opcode"},
        {"dest class 7", record(0, kDest), "\x03\x07", "dest class"},
        {"dest index 200", record(0, kDest), std::string("\xc8\0", 2),
         "dest index"},
        {"src0 class 7", record(0, kSrc0), "\x03\x07", "src0 class"},
        {"src0 index 200", record(0, kSrc0), std::string("\xc8\0", 2),
         "src0 index"},
        {"src1 class 7", record(0, kSrc1), "\x03\x07", "src1 class"},
        {"src1 index 200", record(0, kSrc1), std::string("\xc8\0", 2),
         "src1 index"},
        {"flag bits 0xf8", record(0, kFlags), "\xf8", "flags"},
        {"seq out of order", record(5, 0), "\x07", "seq"},
        {"remapIndex set", record(0, kRemap), std::string(4, '\0'),
         "remapIndex"},
        {"header count past the file", 8, "\xc9", "count"},
        {"old magic", 0, "MCATRC02", "magic"},
    };
    for (const auto &c : cases) {
        std::string bytes = clean;
        bytes.replace(c.at, c.bytes.size(), c.bytes);
        writeFile(path, bytes);
        const std::string error = replayError(path);
        EXPECT_EQ(error.rfind("trace: ", 0), 0u) << c.name << ": " << error;
        EXPECT_NE(error.find(c.field), std::string::npos)
            << c.name << ": " << error;
    }
    writeFile(path, clean.substr(0, clean.size() - 1));
    const std::string cut = replayError(path);
    EXPECT_EQ(cut.rfind("trace: file size does not match the header's "
                        "count", 0),
              0u)
        << "truncated last record: " << cut;
}

TEST_F(TraceIoFixture, IllFormedOperandShapesFailByName)
{
    // Records whose every field decodes but whose operands do not fit
    // their opcode: each must throw a "trace:" error naming the opcode
    // and the operand.
    const auto out = compiledCompress();
    {
        exec::ProgramTrace source(out.binary, 7, 200);
        ASSERT_EQ(exec::writeTrace(path, source), 200u);
    }
    const std::string clean = fileBytes(path);
    constexpr std::size_t kOp = 40, kDest = 42, kSrc0 = 44, kSrc1 = 46;
    const auto record = [](std::size_t i, std::size_t offset) {
        return exec::kTraceHeaderBytes + i * exec::kDynInstBytes + offset;
    };
    // The first record with opcode `op` (and src1 set, if asked).
    const auto first = [&](isa::Op op, bool with_src1) {
        for (std::size_t i = 0; i < 200; ++i)
            if (clean[record(i, kOp)] == static_cast<char>(op) &&
                (!with_src1 || clean.substr(record(i, kSrc1), 2) !=
                                   "\xff\xff"))
                return i;
        ADD_FAILURE() << "no " << isa::opName(op) << " record";
        return std::size_t{0};
    };
    const std::string none = "\xff\xff";
    const struct
    {
        const char *name;
        std::size_t at;
        std::string bytes;
        const char *error;
    } cases[] = {
        {"store with no sources", record(first(isa::Op::Stl, true), kSrc0),
         none + none, "operand src0 does not fit opcode stl"},
        {"load with no destination",
         record(first(isa::Op::Ldl, false), kDest), none,
         "operand dest does not fit opcode ldl"},
        {"src1 without src0", record(first(isa::Op::Add, true), kSrc0),
         none, "operand src0 does not fit opcode add"},
        {"fp destination on an integer add",
         record(first(isa::Op::Add, false), kDest + 1), "\x01",
         "operand dest does not fit opcode add"},
    };
    for (const auto &c : cases) {
        std::string bytes = clean;
        bytes.replace(c.at, c.bytes.size(), c.bytes);
        writeFile(path, bytes);
        EXPECT_EQ(replayError(path), std::string("trace: record ") + c.error)
            << c.name;
    }
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
