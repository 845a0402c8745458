/**
 * @file
 * Unit tests for the trace interpreter: CFG walking, branch resolution,
 * calls/returns, profiling, and trace sources.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/io.hh"
#include "compiler/pipeline.hh"
#include "exec/trace.hh"
#include "exec/walker.hh"
#include "prog/builder.hh"
#include "trace_records.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using isa::Op;
using isa::RegClass;

/** Loop program: entry -> body (x trip) -> exit. */
prog::Program
loopProgram(std::uint64_t trip)
{
    prog::Builder b("loop");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    const auto b1 = b.block(fn, static_cast<double>(trip), "body");
    const auto b2 = b.block(fn, 1, "exit");
    b.setInsertPoint(fn, b0);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 100, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(trip)));
    b.edge(fn, b1, b2);
    b.edge(fn, b1, b1);
    b.setInsertPoint(fn, b2);
    b.emitRet();
    return b.build();
}

/** Program with a call: main calls callee twice. */
prog::Program
callProgram()
{
    prog::Builder b("calls");
    const auto fn = b.function("main");
    const auto callee = b.function("callee");

    const auto m0 = b.block(fn, 1, "m0");
    const auto m1 = b.block(fn, 1, "m1");
    const auto m2 = b.block(fn, 1, "m2");
    b.setInsertPoint(fn, m0);
    b.emitConst(RegClass::Int, 1, "x");
    b.emitJsr(callee);
    b.edge(fn, m0, m1);
    b.setInsertPoint(fn, m1);
    b.emitJsr(callee);
    b.edge(fn, m1, m2);
    b.setInsertPoint(fn, m2);
    b.emitRet();

    const auto c0 = b.block(callee, 2, "c0");
    b.setInsertPoint(callee, c0);
    b.emitConst(RegClass::Int, 9, "y");
    b.emitConst(RegClass::Int, 10, "z");
    b.emitRet();
    return b.build();
}

/** Walk an IL program and collect (fn, blk, op) triples. */
std::vector<std::tuple<prog::FunctionId, prog::BlockId, isa::Op>>
walkAll(const prog::Program &p, std::uint64_t seed,
        std::size_t cap = 100000)
{
    exec::CfgWalker<prog::Program> walker(p, seed);
    exec::WalkSite site;
    std::vector<std::tuple<prog::FunctionId, prog::BlockId, isa::Op>> out;
    while (out.size() < cap && walker.step(site)) {
        const auto &in =
            p.functions[site.fn].blocks[site.blk].instrs[site.idx];
        out.emplace_back(site.fn, site.blk, in.op);
    }
    return out;
}

// --- CfgWalker -----------------------------------------------------------

TEST(Walker, LoopExecutesBodyTripTimes)
{
    const auto p = loopProgram(7);
    const auto trace = walkAll(p, 1);
    std::size_t body_entries = 0;
    for (const auto &[fn, blk, op] : trace)
        if (blk == 1 && op == Op::Add)
            ++body_entries;
    EXPECT_EQ(body_entries, 7u);
    // 1 (entry) + 7*3 (body) + 1 (ret) instructions.
    EXPECT_EQ(trace.size(), 23u);
}

TEST(Walker, EndsAfterMainReturns)
{
    const auto p = loopProgram(2);
    exec::CfgWalker<prog::Program> walker(p, 1);
    exec::WalkSite site;
    std::size_t n = 0;
    while (walker.step(site))
        ++n;
    EXPECT_FALSE(walker.step(site)); // stays ended
    EXPECT_EQ(n, 8u);
}

TEST(Walker, CallsEnterAndReturn)
{
    const auto p = callProgram();
    const auto trace = walkAll(p, 1);
    // main: const, jsr | callee: const, const, ret | main: jsr |
    // callee again | main: ret.
    std::vector<prog::FunctionId> fns;
    for (const auto &[fn, blk, op] : trace)
        fns.push_back(fn);
    EXPECT_EQ(fns, (std::vector<prog::FunctionId>{0, 0, 1, 1, 1, 0, 1, 1,
                                                  1, 0}));
}

TEST(Walker, NextPcFollowsTakenBranches)
{
    const auto p = loopProgram(3);
    exec::CfgWalker<prog::Program> walker(p, 1);
    exec::WalkSite site;
    // entry const.
    ASSERT_TRUE(walker.step(site));
    const Addr body_pc = site.nextPc;
    // body: add, cmp, bne (taken, back to body start).
    ASSERT_TRUE(walker.step(site));
    EXPECT_EQ(site.pc, body_pc);
    ASSERT_TRUE(walker.step(site));
    ASSERT_TRUE(walker.step(site));
    EXPECT_TRUE(site.taken);
    EXPECT_EQ(site.nextPc, body_pc);
}

TEST(Walker, DeterministicAcrossRuns)
{
    const auto p = workloads::makeGcc1(workloads::WorkloadParams{0.01});
    const auto a = walkAll(p, 77, 5000);
    const auto bb = walkAll(p, 77, 5000);
    EXPECT_EQ(a, bb);
}

TEST(Walker, SeedChangesBernoulliPath)
{
    const auto p = workloads::makeGcc1(workloads::WorkloadParams{0.01});
    const auto a = walkAll(p, 1, 3000);
    const auto bb = walkAll(p, 2, 3000);
    EXPECT_NE(a, bb);
}

TEST(Walker, NestedCallsUnwindCorrectly)
{
    // main -> a -> b, with work after each return.
    prog::Builder b("nested");
    const auto fm = b.function("main");
    const auto fa = b.function("a");
    const auto fb = b.function("b");

    const auto m0 = b.block(fm, 1);
    const auto m1 = b.block(fm, 1);
    b.setInsertPoint(fm, m0);
    b.emitConst(RegClass::Int, 1, "m");
    b.emitJsr(fa);
    b.edge(fm, m0, m1);
    b.setInsertPoint(fm, m1);
    b.emitConst(RegClass::Int, 2, "after_a");
    b.emitRet();

    const auto a0 = b.block(fa, 1);
    const auto a1 = b.block(fa, 1);
    b.setInsertPoint(fa, a0);
    b.emitConst(RegClass::Int, 3, "a_pre");
    b.emitJsr(fb);
    b.edge(fa, a0, a1);
    b.setInsertPoint(fa, a1);
    b.emitConst(RegClass::Int, 4, "a_post");
    b.emitRet();

    const auto b0 = b.block(fb, 1);
    b.setInsertPoint(fb, b0);
    b.emitConst(RegClass::Int, 5, "b_body");
    b.emitRet();

    const auto p = b.build();
    const auto trace = walkAll(p, 1);
    std::vector<prog::FunctionId> fns;
    for (const auto &[fn, blk, op] : trace)
        fns.push_back(fn);
    // main(2) -> a(2) -> b(2) -> a(2) -> main(2)
    EXPECT_EQ(fns, (std::vector<prog::FunctionId>{0, 0, 1, 1, 2, 2, 1,
                                                  1, 0, 0}));
    exec::CfgWalker<prog::Program> w(p, 1);
    exec::WalkSite site;
    std::size_t max_depth = 0;
    while (w.step(site))
        max_depth = std::max(max_depth, w.stackDepth());
    EXPECT_EQ(max_depth, 2u);
}

TEST(Walker, IndirectJumpFollowsWeights)
{
    // A Jmp with 3 targets weighted 8:1:1 visited many times.
    prog::Builder b("switchy");
    const auto fn = b.function("main");
    const auto head = b.block(fn, 100, "head");
    const auto t0 = b.block(fn, 80, "t0");
    const auto t1 = b.block(fn, 10, "t1");
    const auto t2 = b.block(fn, 10, "t2");
    const auto latch = b.block(fn, 100, "latch");
    const auto done = b.block(fn, 1, "done");
    b.setInsertPoint(fn, head);
    const auto sel = b.emitConst(RegClass::Int, 0, "sel");
    b.emitJmp(sel);
    b.edge(fn, head, t0);
    b.edge(fn, head, t1);
    b.edge(fn, head, t2);
    b.succWeights(fn, head, {8, 1, 1});
    for (auto t : {t0, t1, t2}) {
        b.setInsertPoint(fn, t);
        b.emitRRI(Op::Add, sel, 1);
        b.emitBr();
        b.edge(fn, t, latch);
    }
    b.setInsertPoint(fn, latch);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 4000, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(4000)));
    b.edge(fn, latch, done);
    b.edge(fn, latch, head);
    b.setInsertPoint(fn, done);
    b.emitRet();
    const auto p = b.build();

    const auto prof = exec::profileProgram(p, 3, 10'000'000);
    ASSERT_TRUE(prof.completed);
    const double v0 = static_cast<double>(prof.visits[0][t0]);
    const double v1 = static_cast<double>(prof.visits[0][t1]);
    const double v2 = static_cast<double>(prof.visits[0][t2]);
    EXPECT_NEAR(v0 / 4000.0, 0.8, 0.03);
    EXPECT_NEAR(v1 / 4000.0, 0.1, 0.02);
    EXPECT_NEAR(v2 / 4000.0, 0.1, 0.02);
}

TEST(Walker, BlockStepStopsAtTheLimitInsideABlock)
{
    const auto p = loopProgram(3);
    exec::CfgWalker<prog::Program> walker(p, 1);
    exec::WalkSite site;
    // Entry holds one instruction; the body holds three.
    EXPECT_EQ(walker.stepBlock(site, 100), 1u);
    EXPECT_EQ(walker.stepBlock(site, 2), 2u);
    EXPECT_EQ(site.blk, 1u);
    EXPECT_EQ(site.idx, 0u);
    EXPECT_FALSE(site.taken);
    EXPECT_EQ(site.nextPc, site.pc + 8);
    // The rest of the body is its branch, taken back to the body.
    EXPECT_EQ(walker.stepBlock(site, 100), 1u);
    EXPECT_EQ(site.idx, 2u);
    EXPECT_TRUE(site.taken);
    EXPECT_EQ(walker.stepBlock(site, 0), 0u);
}

// --- profiling --------------------------------------------------------

TEST(Profile, CountsBlockVisits)
{
    const auto p = loopProgram(5);
    const auto prof = exec::profileProgram(p, 1, 100000);
    EXPECT_TRUE(prof.completed);
    EXPECT_EQ(prof.visits[0][0], 1u); // entry
    EXPECT_EQ(prof.visits[0][1], 5u); // body
    EXPECT_EQ(prof.visits[0][2], 1u); // exit
}

TEST(Profile, ApplyProfileOverwritesWeights)
{
    auto p = loopProgram(9);
    const auto prof = exec::profileProgram(p, 1, 100000);
    exec::applyProfile(p, prof);
    EXPECT_DOUBLE_EQ(p.functions[0].blocks[1].weight, 9.0);
}

TEST(Profile, InstCapMarksIncomplete)
{
    const auto p = loopProgram(1000);
    const auto prof = exec::profileProgram(p, 1, 50);
    EXPECT_FALSE(prof.completed);
    EXPECT_EQ(prof.totalInsts, 50u);
}

TEST(Profile, CompletedWhenMainReturnsOnTheCap)
{
    const auto p = loopProgram(5);
    const std::uint64_t n = exec::profileProgram(p, 1, 100000).totalInsts;
    const auto on_cap = exec::profileProgram(p, 1, n);
    EXPECT_TRUE(on_cap.completed);
    EXPECT_EQ(on_cap.totalInsts, n);
    const auto below_cap = exec::profileProgram(p, 1, n - 1);
    EXPECT_FALSE(below_cap.completed);
    EXPECT_EQ(below_cap.totalInsts, n - 1);
}

/** Empty blocks at the entry, on a loop exit and before the return. */
prog::Program
emptyBlockProgram()
{
    prog::Builder b("empty");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "empty_entry");
    const auto b1 = b.block(fn, 4, "body");
    const auto b2 = b.block(fn, 1, "empty_exit");
    const auto b3 = b.block(fn, 1, "empty_tail");
    const auto b4 = b.block(fn, 1, "ret");
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    const auto c = b.emitRRI(Op::CmpLt, i, 4, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(4)));
    b.edge(fn, b1, b2);
    b.edge(fn, b1, b1);
    b.edge(fn, b2, b3);
    b.edge(fn, b3, b4);
    b.setInsertPoint(fn, b4);
    b.emitRet();
    return b.build();
}

/** The walker's checkpoint bytes: cursors, stack, model and RNG states. */
std::string
walkerState(const exec::CfgWalker<prog::Program> &walker)
{
    ckpt::Writer w;
    walker.saveState(w);
    return w.data();
}

/**
 * Reference profile: step one instruction at a time and count a visit
 * at each block's first instruction. Also returns the walker's state.
 */
std::pair<exec::ProfileResult, std::string>
profileByInstruction(const prog::Program &p, std::uint64_t seed,
                     std::uint64_t cap)
{
    exec::ProfileResult r;
    for (const auto &fn : p.functions)
        r.visits.emplace_back(fn.blocks.size(), 0);
    exec::CfgWalker<prog::Program> walker(p, seed);
    exec::WalkSite site;
    while (r.totalInsts < cap && walker.step(site)) {
        if (site.idx == 0)
            ++r.visits[site.fn][site.blk];
        ++r.totalInsts;
    }
    r.completed = walker.ended();
    return {r, walkerState(walker)};
}

/** A walker's state after passing `cap` instructions by block steps. */
std::string
stateAfterBlockSteps(const prog::Program &p, std::uint64_t seed,
                     std::uint64_t cap)
{
    exec::CfgWalker<prog::Program> walker(p, seed);
    exec::WalkSite site;
    std::uint64_t n = 0;
    while (n < cap) {
        const std::uint64_t k = walker.stepBlock(site, cap - n);
        if (k == 0)
            break;
        n += k;
    }
    return walkerState(walker);
}

TEST(Profile, BlockWalkMatchesInstructionWalk)
{
    std::vector<std::pair<std::string, prog::Program>> inputs;
    for (const double scale : {0.05, 1.0})
        for (const auto &bench : workloads::allBenchmarks())
            inputs.emplace_back(bench.name + "@" + std::to_string(scale),
                                bench.make(workloads::WorkloadParams{scale}));
    inputs.emplace_back("chase", workloads::makePointerChase());
    inputs.emplace_back("loop", loopProgram(5));
    inputs.emplace_back("calls", callProgram());
    inputs.emplace_back("empty", emptyBlockProgram());
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        workloads::RandomProgramParams rp;
        rp.seed = seed;
        inputs.emplace_back("random" + std::to_string(seed),
                            workloads::makeRandomProgram(rp));
    }

    for (const auto &[name, p] : inputs)
        for (const std::uint64_t seed : {1ull, 42ull}) {
            // The fixed caps, plus caps on and just before main's return.
            std::vector<std::uint64_t> caps = {1,    7,       50,
                                               1000, 200'000, 10'000'000};
            const std::uint64_t length =
                profileByInstruction(p, seed, caps.back()).first.totalInsts;
            caps.insert(caps.end(), {length, length - 1});
            for (const std::uint64_t cap : caps) {
                SCOPED_TRACE(name + " cap " + std::to_string(cap) +
                             " seed " + std::to_string(seed));
                const auto [ref, ref_state] =
                    profileByInstruction(p, seed, cap);
                const auto prof = exec::profileProgram(p, seed, cap);
                ASSERT_EQ(prof.visits, ref.visits);
                ASSERT_EQ(prof.totalInsts, ref.totalInsts);
                ASSERT_EQ(prof.completed, ref.completed);
                ASSERT_EQ(stateAfterBlockSteps(p, seed, cap), ref_state);
            }
        }
}

// --- ProgramTrace -----------------------------------------------------

TEST(ProgramTrace, EmitsMachineInstructionsWithAddresses)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(p, copt);

    exec::ProgramTrace trace(out.binary, 5, 2000);
    std::size_t n = 0, mem_with_addr = 0;
    while (auto di = trace.next()) {
        ++n;
        if (isa::isMemOp(di->mi.op)) {
            EXPECT_NE(di->effAddr, 0u);
            ++mem_with_addr;
        }
        EXPECT_EQ(di->seq, n - 1);
    }
    EXPECT_EQ(n, 2000u);
    EXPECT_GT(mem_with_addr, 100u);
}

TEST(ProgramTrace, SpillCodeIsMarked)
{
    // A block with 40 simultaneously live values guarantees spills.
    // They derive from a live-in value, which the optimizer cannot
    // fold the way it folds constants, and their sum is stored, so
    // dead-code elimination keeps them.
    prog::Builder b("pressure");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto in = b.liveInValue(RegClass::Int, "in");
    std::vector<prog::ValueId> vals;
    for (int i = 0; i < 40; ++i)
        vals.push_back(b.emitRRI(Op::Add, in, i, "v"));
    auto acc = vals[0];
    for (int i = 1; i < 40; ++i)
        acc = b.emitRRR(Op::Add, acc, vals[i], "s");
    b.emitStore(Op::Stl, acc, b.stream(prog::AddrStream::fixed(0x100)), in);
    b.emitRet();
    const auto p = b.build();

    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(p, copt);
    ASSERT_GT(out.alloc.spillLoadsInserted, 0u);
    exec::ProgramTrace trace(out.binary, 5, 20000);
    std::size_t spills = 0;
    while (auto di = trace.next())
        spills += di->isSpill ? 1 : 0;
    EXPECT_GT(spills, 0u);
}

TEST(ProgramTrace, FillsEveryFieldOfAReusedRecord)
{
    // A loop that loads, stores and keeps 40 values derived from a
    // live-in value live across its back edge, so the trace also
    // carries spill code.
    prog::Builder b("fill");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    const auto b1 = b.block(fn, 8, "body");
    const auto b2 = b.block(fn, 1, "exit");
    const auto arr = b.stream(prog::AddrStream::strided(0x8000, 8, 512));
    b.setInsertPoint(fn, b0);
    const auto base = b.emitConst(RegClass::Int, 0x8000, "base");
    const auto in = b.liveInValue(RegClass::Int, "in");
    std::vector<prog::ValueId> vals;
    for (int i = 0; i < 40; ++i)
        vals.push_back(b.emitRRI(Op::Add, in, i, "v"));
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    auto acc = b.emitLoad(Op::Ldl, arr, base, "x");
    for (const auto v : vals)
        acc = b.emitRRR(Op::Add, acc, v, "s");
    b.emitStore(Op::Stl, acc, arr, base);
    const auto c = b.emitRRI(Op::CmpLt, acc, 100, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(8)));
    b.edge(fn, b1, b2);
    b.edge(fn, b1, b1);
    b.setInsertPoint(fn, b2);
    b.emitRet();
    const auto p = b.build();

    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(p, copt);
    exec::ProgramTrace filled(out.binary, 5, 20000);
    exec::ProgramTrace reference(out.binary, 5, 20000);
    const auto records = test::drainReused(filled, reference);

    std::size_t loads = 0, stores = 0, spills = 0, branches = 0;
    std::size_t after_load = 0;
    bool load_seen = false;
    for (const auto &di : records) {
        loads += isa::isLoad(di.mi.op) ? 1 : 0;
        stores += isa::isStore(di.mi.op) ? 1 : 0;
        spills += di.isSpill ? 1 : 0;
        branches += isa::isCondBranch(di.mi.op) ? 1 : 0;
        EXPECT_EQ(di.remapIndex, exec::DynInst::kNoRemap);
        if (isa::isMemOp(di.mi.op)) {
            load_seen = load_seen || isa::isLoad(di.mi.op);
        } else if (load_seen) {
            // The first non-memory op after a load: no stale address.
            EXPECT_EQ(di.effAddr, 0u) << "seq " << di.seq;
            ++after_load;
            load_seen = false;
        }
    }
    EXPECT_GT(loads, 0u);
    EXPECT_GT(stores, 0u);
    EXPECT_GT(spills, 0u);
    EXPECT_GT(branches, 0u);
    EXPECT_GT(after_load, 0u);
}

/** The saved state of `trace`. */
std::string
traceBytes(const exec::ProgramTrace &trace)
{
    ckpt::Writer w;
    trace.saveState(w);
    return w.take();
}

/**
 * Drain `by_runs` a block run at a time with limits cycling through
 * `limits`, rebuild every instruction's record from the runs, and
 * require each to equal what `by_insts` (the same trace) passes
 * through next(); the two saved states must agree after every run.
 */
void
expectRunsMatchNext(exec::ProgramTrace &by_runs, exec::ProgramTrace &by_insts,
                    const std::vector<std::uint64_t> &limits)
{
    exec::BlockRun run;
    InstSeq seq = 0;
    for (std::size_t r = 0;; ++r) {
        const std::uint64_t limit = limits[r % limits.size()];
        const std::uint64_t k = by_runs.nextRun(run, limit);
        if (k == 0)
            break;
        ASSERT_EQ(k, run.count);
        ASSERT_LE(k, limit);
        std::size_t m = 0;
        for (std::uint32_t i = 0; i < k; ++i) {
            const prog::MachEntry &entry = run.entries[i];
            const bool last = i + 1 == k;
            exec::DynInst got;
            got.seq = seq++;
            got.pc = run.pc + 4 * i;
            got.mi = entry.mi;
            if (m < run.mem.size() && run.mem[m].offset == i)
                got.effAddr = run.mem[m++].addr;
            got.taken = last && run.taken;
            got.nextPc = last ? run.nextPc : got.pc + 4;
            got.isSpill = entry.isSpill;
            const auto want = by_insts.next();
            ASSERT_TRUE(want.has_value()) << "seq " << got.seq;
            test::expectSameRecord(got, *want);
        }
        EXPECT_EQ(m, run.mem.size());
        ASSERT_EQ(traceBytes(by_runs), traceBytes(by_insts))
            << "after run " << r;
    }
    EXPECT_FALSE(by_insts.next().has_value());
}

TEST(ProgramTrace, BlockRunsPassWhatNextPasses)
{
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto out =
            compiler::compile(bench.make({0.05}), compiler::CompileOptions{});
        // To the program's end and to a cap, one block at a time and
        // with limits that stop inside blocks.
        for (const std::uint64_t cap :
             {~std::uint64_t{0}, std::uint64_t{5001}}) {
            for (const std::vector<std::uint64_t> &limits :
                 {std::vector<std::uint64_t>{~std::uint64_t{0}},
                  std::vector<std::uint64_t>{1},
                  std::vector<std::uint64_t>{3, 1, 7, 2, 1000}}) {
                SCOPED_TRACE(bench.name + " cap " + std::to_string(cap) +
                             " limits from " + std::to_string(limits[0]));
                exec::ProgramTrace byRuns(out.binary, 5, cap);
                exec::ProgramTrace byInsts(out.binary, 5, cap);
                expectRunsMatchNext(byRuns, byInsts, limits);
            }
        }
    }
}

TEST(ProgramTrace, BlockRunLimitZeroPassesNothing)
{
    const auto out =
        compiler::compile(loopProgram(3), compiler::CompileOptions{});
    exec::ProgramTrace trace(out.binary, 5);
    const std::string before = traceBytes(trace);
    exec::BlockRun run;
    EXPECT_EQ(trace.nextRun(run, 0), 0u);
    EXPECT_EQ(run.entries, nullptr);
    EXPECT_EQ(traceBytes(trace), before);
}

/** Entry, a loop body that loads, and an exit. */
prog::MachProgram
loadLoopBinary()
{
    prog::Builder b("loadloop");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    const auto b1 = b.block(fn, 4, "body");
    const auto b2 = b.block(fn, 1, "exit");
    const auto arr = b.stream(prog::AddrStream::strided(0x8000, 8, 512));
    b.setInsertPoint(fn, b0);
    const auto base = b.emitConst(RegClass::Int, 0x8000, "base");
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    const auto x = b.emitLoad(Op::Ldl, arr, base, "x");
    const auto c = b.emitRRI(Op::CmpLt, x, 100, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(4)));
    b.edge(fn, b1, b2);
    b.edge(fn, b1, b1);
    b.setInsertPoint(fn, b2);
    b.emitRet();
    return compiler::compile(b.build(), compiler::CompileOptions{}).binary;
}

/** What draining `binary` throws (by next() or by block runs), or "". */
std::string
drainError(const prog::MachProgram &binary, bool by_runs)
{
    exec::ProgramTrace trace(binary, 5, 10000);
    try {
        exec::DynInst di;
        exec::BlockRun run;
        while (by_runs ? trace.nextRun(run, ~std::uint64_t{0}) != 0
                       : trace.next(di)) {
        }
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ProgramTrace, ModelIdBeyondItsTableFailsByName)
{
    const prog::MachProgram good = loadLoopBinary();
    ASSERT_EQ(good.streams.size(), 1u);
    ASSERT_EQ(good.branchModels.size(), 1u);
    EXPECT_EQ(drainError(good, false), "");
    EXPECT_EQ(drainError(good, true), "");

    // Point the load at stream 1 and, in another copy, the branch at
    // model 1: one past the end of each one-entry table.
    prog::MachProgram badStream = good, badModel = good;
    bool load = false, branch = false;
    for (auto &blk : badStream.functions[0].blocks)
        for (auto &e : blk.instrs)
            if (isa::isMemOp(e.mi.op)) {
                e.stream = 1;
                load = true;
            }
    for (auto &blk : badModel.functions[0].blocks)
        for (auto &e : blk.instrs)
            if (isa::isCondBranch(e.mi.op)) {
                e.branchModel = 1;
                branch = true;
            }
    ASSERT_TRUE(load && branch);
    for (const bool byRuns : {false, true}) {
        EXPECT_EQ(drainError(badStream, byRuns),
                  "trace: address stream 1 out of range (the program has "
                  "1)");
        EXPECT_EQ(drainError(badModel, byRuns),
                  "trace: branch model 1 out of range (the program has 1)");
    }
}

// --- VectorTrace ---------------------------------------------------------

TEST(VectorTrace, NormalizeAssignsSequentialSeqAndPcs)
{
    std::vector<exec::DynInst> insts(3);
    insts[0].mi = isa::makeRRR(Op::Add, isa::intReg(1), isa::intReg(2),
                               isa::intReg(3));
    insts[1].mi = insts[0].mi;
    insts[2].mi = insts[0].mi;
    const auto norm = exec::VectorTrace::normalize(insts);
    EXPECT_EQ(norm[0].seq, 0u);
    EXPECT_EQ(norm[2].seq, 2u);
    EXPECT_EQ(norm[0].nextPc, norm[1].pc);
    EXPECT_EQ(norm[1].nextPc, norm[2].pc);
    EXPECT_EQ(norm[2].nextPc, 0u);
}

TEST(VectorTrace, DrainsThenEnds)
{
    std::vector<exec::DynInst> insts(2);
    exec::VectorTrace trace(exec::VectorTrace::normalize(insts));
    EXPECT_TRUE(trace.next().has_value());
    EXPECT_TRUE(trace.next().has_value());
    EXPECT_FALSE(trace.next().has_value());
}

TEST(VectorTrace, FillsEveryFieldOfAReusedRecord)
{
    std::vector<exec::DynInst> insts(6);
    for (auto &di : insts)
        di.mi = isa::makeRRR(Op::Add, isa::intReg(1), isa::intReg(2),
                             isa::intReg(3));
    insts[1].mi = isa::makeLoad(Op::Ldl, isa::intReg(4), isa::intReg(5), 8);
    insts[1].effAddr = 0x2000;
    insts[1].isSpill = true;
    insts[3].remapIndex = 0;
    const auto norm = exec::VectorTrace::normalize(insts);
    exec::VectorTrace filled(norm), reference(norm);
    const auto records = test::drainReused(filled, reference);

    ASSERT_EQ(records.size(), insts.size());
    EXPECT_EQ(records[1].effAddr, 0x2000u);
    EXPECT_EQ(records[2].effAddr, 0u);
    EXPECT_FALSE(records[2].isSpill);
    EXPECT_EQ(records[3].remapIndex, 0u);
    for (std::size_t i = 4; i < records.size(); ++i)
        EXPECT_EQ(records[i].remapIndex, exec::DynInst::kNoRemap);
}

} // namespace
