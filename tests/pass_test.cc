/**
 * @file
 * Pass-table tests: registry contents, per-pass stats, dump capture
 * (including the golden-text regression for every pass on a small
 * fixed program), between-pass verification, and the canonical
 * compile-options key.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "compiler/pass.hh"
#include "compiler/pipeline.hh"
#include "obs/json.hh"
#include "prog/builder.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using isa::Op;
using isa::RegClass;

/** Small fixed two-function program the golden dumps are pinned to. */
prog::Program
goldenProgram()
{
    prog::Builder b("golden");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    const auto b1 = b.block(fn, 4, "loop");
    const auto b2 = b.block(fn, 1, "exit");

    b.setInsertPoint(fn, b0);
    const auto n = b.emitConst(RegClass::Int, 8, "n");
    const auto acc = b.emitConst(RegClass::Int, 0, "acc");
    b.edge(fn, b0, b1);

    b.setInsertPoint(fn, b1);
    const auto next = b.emitRRR(Op::Add, acc, n, "next");
    b.emitRRITo(acc, Op::Mov, next, 0);
    const auto t = b.emitRRI(Op::Sub, n, 1, "t");
    b.emitRRITo(n, Op::Mov, t, 0);
    b.emitBranch(Op::Bne, n, b.branch(prog::BranchModel::loop(8)));
    b.edge(fn, b1, b2);
    b.edge(fn, b1, b1);

    b.setInsertPoint(fn, b2);
    const auto st = b.stream(prog::AddrStream::fixed(0x1000));
    b.emitStore(Op::Stl, acc, st, acc);
    b.emitRet();
    return b.build();
}

compiler::CompileOptions
goldenOptions()
{
    compiler::CompileOptions copt = compiler::compileOptionsFor("local", 2);
    copt.dumpAfter = {"all"};
    return copt;
}

TEST(PassRegistry, ListsPipelineInCanonicalOrder)
{
    const std::vector<std::string> expected = {
        "optimize", "unroll",    "superblock", "schedule",
        "profile",  "partition", "regalloc",   "emit",
    };
    const auto &passes = compiler::allPasses();
    ASSERT_EQ(passes.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(passes[i].name, expected[i]);
        EXPECT_FALSE(passes[i].description.empty());
    }
}

TEST(PassRegistry, IsPassName)
{
    for (const auto &info : compiler::allPasses())
        EXPECT_TRUE(compiler::isPassName(info.name));
    EXPECT_FALSE(compiler::isPassName("bogus"));
    EXPECT_FALSE(compiler::isPassName(""));
    EXPECT_FALSE(compiler::isPassName("all"));
}

TEST(BuildPipeline, MatchesOptions)
{
    // The passes a compile runs, read back from its pass records.
    auto names = [](const compiler::CompileOptions &copt) {
        std::vector<std::string> out;
        for (const auto &stat :
             compiler::compile(goldenProgram(), copt).passStats)
            out.push_back(stat.pass);
        return out;
    };

    const auto native = compiler::compileOptionsFor("native", 1);
    EXPECT_EQ(names(native),
              (std::vector<std::string>{"optimize", "schedule",
                                        "regalloc", "emit"}));

    const auto local = compiler::compileOptionsFor("local", 2);
    EXPECT_EQ(names(local),
              (std::vector<std::string>{"optimize", "schedule",
                                        "profile", "partition",
                                        "regalloc", "emit"}));

    auto everything = compiler::compileOptionsFor("local", 2);
    everything.unrollFactor = 2;
    everything.superblocks = true;
    EXPECT_EQ(names(everything),
              (std::vector<std::string>{"optimize", "unroll",
                                        "superblock", "schedule",
                                        "profile", "partition",
                                        "regalloc", "emit"}));
}

TEST(PassStats, RecordedPerPass)
{
    const auto p =
        workloads::makeCompress(workloads::WorkloadParams{0.05});
    const auto copt = compiler::compileOptionsFor("local", 2);
    const auto out = compiler::compile(p, copt);

    ASSERT_EQ(out.passStats.size(), 6u);
    const std::vector<std::string> expected = {
        "optimize", "schedule", "profile", "partition", "regalloc",
        "emit",
    };
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(out.passStats[i].pass, expected[i]);

    // Deltas line up between adjacent passes.
    for (std::size_t i = 1; i < out.passStats.size(); ++i) {
        EXPECT_EQ(out.passStats[i].instsBefore,
                  out.passStats[i - 1].instsAfter);
        EXPECT_EQ(out.passStats[i].blocksBefore,
                  out.passStats[i - 1].blocksAfter);
        EXPECT_EQ(out.passStats[i].valuesBefore,
                  out.passStats[i - 1].valuesAfter);
    }
    // Optimize only removes instructions; spills only appear at
    // regalloc; wall clocks are non-negative.
    EXPECT_LE(out.passStats[0].instsAfter,
              out.passStats[0].instsBefore);
    for (const auto &ps : out.passStats) {
        EXPECT_GE(ps.wallMs, 0.0);
        if (ps.pass != "regalloc") {
            EXPECT_EQ(ps.spillOpsAfter, ps.spillOpsBefore);
        }
    }
    EXPECT_EQ(out.passStats.back().spillOpsAfter,
              out.alloc.spillLoadsInserted +
                  out.alloc.spillStoresInserted);
}

TEST(PassStats, ExportedCountersMakeValidJson)
{
    const auto out = compiler::compile(
        goldenProgram(), compiler::compileOptionsFor("local", 2));
    StatGroup group("compile");
    compiler::exportPassStats(out.passStats, group, "compile.pass");
    EXPECT_TRUE(group.hasCounter("compile.pass.00_optimize.insts"));
    EXPECT_TRUE(group.hasCounter("compile.pass.05_emit.spill_ops"));
    std::ostringstream oss;
    group.dumpJson(oss);
    EXPECT_TRUE(obs::isValidJson(oss.str())) << oss.str();
}

TEST(Dumps, CapturedOnlyForRequestedPasses)
{
    auto copt = compiler::compileOptionsFor("local", 2);
    copt.dumpAfter = {"regalloc"};
    const auto out = compiler::compile(goldenProgram(), copt);
    ASSERT_EQ(out.dumps.size(), 1u);
    EXPECT_EQ(out.dumps[0].first, "regalloc");
    EXPECT_NE(out.dumpFor("regalloc"), nullptr);
    EXPECT_EQ(out.dumpFor("optimize"), nullptr);

    const auto none =
        compiler::compile(goldenProgram(),
                          compiler::compileOptionsFor("local", 2));
    EXPECT_TRUE(none.dumps.empty());
}

TEST(Dumps, ByteStableAcrossRunsAndThreads)
{
    const auto reference =
        compiler::compile(goldenProgram(), goldenOptions()).dumps;
    ASSERT_EQ(reference.size(), 6u);

    // Re-run serially and 4-wide: every dump must be byte-identical.
    const auto again =
        compiler::compile(goldenProgram(), goldenOptions()).dumps;
    EXPECT_EQ(again, reference);

    std::vector<std::vector<std::pair<std::string, std::string>>>
        parallel(4);
    {
        std::vector<std::thread> threads;
        for (auto &slot : parallel)
            threads.emplace_back([&slot] {
                slot = compiler::compile(goldenProgram(),
                                         goldenOptions())
                           .dumps;
            });
        for (auto &t : threads)
            t.join();
    }
    for (const auto &dumps : parallel)
        EXPECT_EQ(dumps, reference);
}

TEST(Dumps, EmitPassDumpsTheBinary)
{
    const auto out =
        compiler::compile(goldenProgram(), goldenOptions());
    const std::string *emitted = out.dumpFor("emit");
    ASSERT_NE(emitted, nullptr);
    EXPECT_EQ(*emitted, prog::dumpProgram(out.binary));
    // IL dumps name live ranges; the machine dump names registers.
    EXPECT_NE(out.dumpFor("regalloc"), nullptr);
    EXPECT_NE(*out.dumpFor("regalloc"), *emitted);
}

TEST(PassManager, VerifyCatchesCorruptingPass)
{
    const compiler::Pass evil = {
        "evil", "corrupts the CFG (test only)",
        [](const compiler::CompileOptions &) { return true; },
        [](compiler::PassContext &ctx) {
            ctx.program.functions[0].blocks[0].succs.push_back(99);
        }};

    const auto p = goldenProgram();
    auto copt = compiler::compileOptionsFor("local", 2);
    copt.verifyIr = true;
    compiler::CompileOutput out;
    compiler::PassContext ctx(p, copt, out);
    try {
        compiler::runPass(evil, ctx);
        FAIL() << "corrupt IR passed verification";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("after pass 'evil'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("dangling CFG edge"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PassManager, VerifyIrDoesNotPerturbTheBinary)
{
    const auto p =
        workloads::makeCompress(workloads::WorkloadParams{0.05});
    for (const char *scheduler : {"native", "local", "roundrobin"}) {
        auto on = compiler::compileOptionsFor(scheduler, 2);
        on.unrollFactor = 3;
        on.superblocks = true;
        auto off = on;
        on.verifyIr = true;
        off.verifyIr = false;
        const auto a = compiler::compile(p, on);
        const auto b = compiler::compile(p, off);
        EXPECT_EQ(prog::dumpProgram(a.binary),
                  prog::dumpProgram(b.binary))
            << scheduler;
    }
}

TEST(CompileOptions, CanonicalKeyTracksBinaryAffectingFieldsOnly)
{
    const auto base = compiler::compileOptionsFor("local", 2);
    auto diagnostic = base;
    diagnostic.verifyIr = !diagnostic.verifyIr;
    diagnostic.dumpAfter = {"all"};
    EXPECT_EQ(base.canonicalKey(), diagnostic.canonicalKey());

    auto unrolled = base;
    unrolled.unrollFactor = 4;
    EXPECT_NE(base.canonicalKey(), unrolled.canonicalKey());
    EXPECT_NE(base.canonicalKey(),
              compiler::compileOptionsFor("native", 2).canonicalKey());
    EXPECT_NE(base.canonicalKey(),
              compiler::compileOptionsFor("roundrobin", 2)
                  .canonicalKey());

    auto threshold = base;
    threshold.imbalanceThreshold = 9;
    EXPECT_NE(base.canonicalKey(), threshold.canonicalKey());
}

} // namespace
