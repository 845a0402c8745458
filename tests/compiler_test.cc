/**
 * @file
 * Unit tests for the compiler stack: liveness, interference, the local
 * scheduler (including the paper's Figure-6 example), register
 * allocation with cluster-aware spilling, list scheduling, and the
 * local optimizations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/io.hh"
#include "compiler/interference.hh"
#include "compiler/liveness.hh"
#include "compiler/optimize.hh"
#include "compiler/partition.hh"
#include "compiler/pipeline.hh"
#include "compiler/regalloc.hh"
#include "compiler/schedule.hh"
#include "exec/trace.hh"
#include "harness/figure6.hh"
#include "prog/builder.hh"
#include "prog/verify.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using isa::Op;
using isa::RegClass;

/** Diamond: x defined at entry, used in both arms and after the join. */
prog::Program
diamondProgram(prog::ValueId *x_out = nullptr)
{
    prog::Builder b("diamond");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    const auto bt = b.block(fn, 1, "then");
    const auto be = b.block(fn, 1, "else");
    const auto bj = b.block(fn, 1, "join");

    b.setInsertPoint(fn, b0);
    const auto x = b.emitConst(RegClass::Int, 1, "x");
    const auto c = b.emitConst(RegClass::Int, 0, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::bernoulli(0.5)));
    b.edge(fn, b0, be);
    b.edge(fn, b0, bt);

    b.setInsertPoint(fn, bt);
    b.emitRRI(Op::Add, x, 1, "t");
    b.emitBr();
    b.edge(fn, bt, bj);

    b.setInsertPoint(fn, be);
    b.emitRRI(Op::Sub, x, 1, "e");
    b.edge(fn, be, bj);

    b.setInsertPoint(fn, bj);
    b.emitRRI(Op::Add, x, 5, "j");
    b.emitRet();

    if (x_out)
        *x_out = x;
    return b.build();
}

// --- liveness ------------------------------------------------------------

TEST(Liveness, ValueLiveAcrossDiamond)
{
    prog::ValueId x;
    const auto p = diamondProgram(&x);
    const auto live = compiler::computeLiveness(p);
    const auto &fl = live.functions[0];
    // x is live out of entry and into all three later blocks.
    EXPECT_TRUE(fl.liveOut[0].test(x));
    EXPECT_TRUE(fl.liveIn[1].test(x));
    EXPECT_TRUE(fl.liveIn[2].test(x));
    EXPECT_TRUE(fl.liveIn[3].test(x));
    // x is dead after its last use in the join block.
    EXPECT_FALSE(fl.liveOut[3].test(x));
}

TEST(Liveness, DefKillsLiveness)
{
    prog::Builder b("kill");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    const auto b1 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.emitConst(RegClass::Int, 1, "x");
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    // x redefined before any use: not live into b1.
    prog::Instr redef;
    redef.op = Op::Lda;
    redef.dest = x;
    redef.imm = 7;
    b.emitRaw(redef);
    b.emitRRI(Op::Add, x, 1, "y");
    b.emitRet();
    const auto p = b.build();
    const auto live = compiler::computeLiveness(p);
    EXPECT_FALSE(live.functions[0].liveIn[1].test(x));
}

TEST(Liveness, LoopKeepsCarriedValueLive)
{
    prog::Builder b("loop");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    const auto b1 = b.block(fn, 10);
    const auto b2 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto acc = b.emitConst(RegClass::Int, 0, "acc");
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    b.emitRRITo(acc, Op::Add, acc, 1);
    const auto c = b.emitRRI(Op::CmpLt, acc, 10, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(10)));
    b.edge(fn, b1, b2);
    b.edge(fn, b1, b1);
    b.setInsertPoint(fn, b2);
    b.emitRRI(Op::Add, acc, 0, "out");
    b.emitRet();
    const auto p = b.build();
    const auto live = compiler::computeLiveness(p);
    // acc is live around the back edge.
    EXPECT_TRUE(live.functions[0].liveOut[1].test(acc));
    EXPECT_TRUE(live.functions[0].liveIn[1].test(acc));
}

TEST(Liveness, CallCrossingValuesDetected)
{
    const auto p = workloads::makeDoduc(workloads::WorkloadParams{0.01});
    const auto live = compiler::computeLiveness(p);
    const auto crossing = compiler::callCrossingValues(p, live);
    // doduc keeps fp values live across its kernel calls.
    EXPECT_GT(crossing.count(), 0u);
}

TEST(LivenessDeath, CrossFunctionLocalValuePanics)
{
    prog::Builder b("bad");
    const auto f0 = b.function("a");
    const auto f1 = b.function("b");
    const auto b0 = b.block(f0, 1);
    const auto b1 = b.block(f1, 1);
    b.setInsertPoint(f0, b0);
    const auto x = b.emitConst(RegClass::Int, 1, "x");
    b.emitRet();
    b.setInsertPoint(f1, b1);
    b.emitRRI(Op::Add, x, 1, "y");
    b.emitRet();
    const auto p = b.build();
    EXPECT_DEATH(compiler::checkValueLocality(p), "function-local");
}

// --- interference ------------------------------------------------------

TEST(Interference, SimultaneouslyLiveValuesInterfere)
{
    prog::Builder b("intf");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.emitConst(RegClass::Int, 1, "x");
    const auto y = b.emitConst(RegClass::Int, 2, "y");
    b.emitRRR(Op::Add, x, y, "z");
    b.emitRet();
    const auto p = b.build();
    const auto live = compiler::computeLiveness(p);
    BitSet none(p.values.size());
    const auto g = compiler::buildInterference(p, 0, RegClass::Int, live,
                                               none);
    EXPECT_TRUE(g.interferes(x, y));
}

TEST(Interference, SerialChainDoesNotInterfere)
{
    prog::Builder b("chain");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto a = b.emitConst(RegClass::Int, 1, "a");
    const auto c = b.emitRRI(Op::Add, a, 1, "c");   // a dies here
    const auto d = b.emitRRI(Op::Add, c, 1, "d");   // c dies here
    b.emitRRI(Op::Add, d, 1, "e");
    b.emitRet();
    const auto p = b.build();
    const auto live = compiler::computeLiveness(p);
    BitSet none(p.values.size());
    const auto g = compiler::buildInterference(p, 0, RegClass::Int, live,
                                               none);
    EXPECT_FALSE(g.interferes(a, c));
    EXPECT_FALSE(g.interferes(c, d));
}

TEST(Interference, ClassesAreSeparate)
{
    prog::Builder b("cls");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.emitConst(RegClass::Int, 1, "x");
    const auto f = b.emitConst(RegClass::Fp, 2, "f");
    b.emitRRR(Op::Add, x, x, "y");
    b.emitRRR(Op::AddF, f, f, "g");
    b.emitRet();
    const auto p = b.build();
    const auto live = compiler::computeLiveness(p);
    BitSet none(p.values.size());
    const auto g = compiler::buildInterference(p, 0, RegClass::Int, live,
                                               none);
    // The fp value is not even a node of the int graph.
    EXPECT_EQ(g.nodeOf(f), ~std::size_t{0});
}

// --- the local scheduler and Figure 6 -----------------------------------

TEST(Figure6, BlockTraversalOrderMatchesPaper)
{
    const auto fig = harness::makeFigure6();
    compiler::PartitionOptions opt;
    compiler::PartitionTrace trace;
    compiler::localSchedule(fig.program, opt, &trace);
    // Paper: blocks visited in the order 4, 1, 5, 3, 2.
    ASSERT_GE(trace.blockOrder.size(), 5u);
    EXPECT_EQ(trace.blockOrder[0].second, fig.blocks.at(4));
    EXPECT_EQ(trace.blockOrder[1].second, fig.blocks.at(1));
    EXPECT_EQ(trace.blockOrder[2].second, fig.blocks.at(5));
    EXPECT_EQ(trace.blockOrder[3].second, fig.blocks.at(3));
    EXPECT_EQ(trace.blockOrder[4].second, fig.blocks.at(2));
}

TEST(Figure6, AssignmentOrderMatchesPaper)
{
    const auto fig = harness::makeFigure6();
    compiler::PartitionOptions opt;
    compiler::PartitionTrace trace;
    compiler::localSchedule(fig.program, opt, &trace);
    // Paper: live ranges assigned in the order C, G, B, A, E, D, H.
    const std::vector<std::string> expected = {"C", "G", "B", "A",
                                               "E", "D", "H"};
    ASSERT_GE(trace.assignmentOrder.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(fig.program.values[trace.assignmentOrder[i]].name,
                  expected[i])
            << "position " << i;
}

TEST(Figure6, GlobalCandidateSIsNeverAssigned)
{
    const auto fig = harness::makeFigure6();
    compiler::PartitionOptions opt;
    const auto assignment = compiler::localSchedule(fig.program, opt);
    EXPECT_FALSE(assignment.assigned(fig.values.at("S")));
}

TEST(LocalScheduler, EveryWrittenLocalValueGetsACluster)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::PartitionOptions opt;
    const auto assignment = compiler::localSchedule(p, opt);
    for (prog::ValueId v = 0; v < p.values.size(); ++v) {
        if (p.values[v].globalCandidate)
            continue;
        // Written values must be assigned.
        bool written = false;
        for (const auto &fn : p.functions)
            for (const auto &blk : fn.blocks)
                for (const auto &in : blk.instrs)
                    written |= (in.dest == v);
        if (written) {
            EXPECT_TRUE(assignment.assigned(v)) << "value " << v;
        }
    }
}

TEST(LocalScheduler, ImbalanceForcesUnderSubscribedCluster)
{
    // One big block whose first values all vote for cluster 0; once the
    // spread exceeds the threshold, new live ranges must go to the
    // under-subscribed cluster.
    prog::Builder b("imb");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 100, "big");
    b.setInsertPoint(fn, b0);
    const auto seedv = b.emitConst(RegClass::Int, 1, "seed");
    std::vector<prog::ValueId> chain = {seedv};
    for (int i = 0; i < 12; ++i)
        chain.push_back(
            b.emitRRI(Op::Add, chain.back(), 1, "v" + std::to_string(i)));
    b.emitRet();
    const auto p = b.build();
    compiler::PartitionOptions opt;
    opt.imbalanceThreshold = 3;
    const auto assignment = compiler::localSchedule(p, opt);
    bool used[2] = {false, false};
    for (auto v : chain)
        if (assignment.assigned(v))
            used[assignment.clusterOf(v)] = true;
    EXPECT_TRUE(used[0]);
    EXPECT_TRUE(used[1]);
}

TEST(RoundRobin, AlternatesClusters)
{
    const auto p = workloads::makeOra(workloads::WorkloadParams{0.01});
    compiler::PartitionOptions opt;
    const auto assignment = compiler::roundRobinSchedule(p, opt);
    std::size_t c0 = 0, c1 = 0;
    for (prog::ValueId v = 0; v < p.values.size(); ++v) {
        if (assignment.clusterOf(v) == 0)
            ++c0;
        else if (assignment.clusterOf(v) == 1)
            ++c1;
    }
    EXPECT_NEAR(static_cast<double>(c0),
                static_cast<double>(c1), 2.0);
}

// --- register allocation ---------------------------------------------------

TEST(Regalloc, NoInterferingValuesShareARegister)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.02});
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(1);
    const auto result = compiler::allocateRegisters(p, opt);

    const auto live = compiler::computeLiveness(result.rewritten);
    BitSet spilled(result.rewritten.values.size());
    for (std::size_t ci = 0; ci < 2; ++ci) {
        const auto cls = static_cast<RegClass>(ci);
        const auto g = compiler::buildInterference(result.rewritten, 0,
                                                   cls, live, spilled);
        for (std::size_t i = 0; i < g.numNodes(); ++i) {
            const auto vi = g.valueOf(i);
            g.forEachNeighbor(i, [&](std::size_t j) {
                const auto vj = g.valueOf(j);
                EXPECT_FALSE(result.regOf[vi] == result.regOf[vj])
                    << "values " << vi << " and " << vj << " share "
                    << isa::regName(result.regOf[vi]);
            });
        }
    }
}

TEST(Regalloc, SerialChainCollapsesToOneRegister)
{
    prog::Builder b("chain");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto a = b.emitConst(RegClass::Int, 1, "a");
    auto prev = a;
    std::vector<prog::ValueId> links;
    for (int i = 0; i < 6; ++i) {
        prev = b.emitRRI(Op::Add, prev, 1, "l" + std::to_string(i));
        links.push_back(prev);
    }
    b.emitRet();
    const auto p = b.build();
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(1);
    const auto result = compiler::allocateRegisters(p, opt);
    for (auto v : links)
        EXPECT_TRUE(result.regOf[v] == result.regOf[links[0]]);
}

TEST(Regalloc, GlobalCandidatesPrecoloredDescending)
{
    prog::Builder b("glob");
    const auto sp = b.globalValue(RegClass::Int, "sp");
    const auto gp = b.globalValue(RegClass::Int, "gp");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    b.emitRRR(Op::Add, sp, gp, "x");
    b.emitRet();
    const auto p = b.build();
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(2);
    const auto result = compiler::allocateRegisters(p, opt);
    EXPECT_TRUE(result.regOf[sp] == isa::intReg(isa::kStackPointer));
    EXPECT_TRUE(result.regOf[gp] == isa::intReg(isa::kGlobalPointer));
    ASSERT_EQ(result.globalRegs.size(), 2u);
    EXPECT_TRUE(result.finalMap.isGlobal(isa::intReg(30)));
}

TEST(Regalloc, ClusterAssignmentRespectedByParity)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.02});
    compiler::PartitionOptions popt;
    const auto assignment = compiler::localSchedule(p, popt);
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(2);
    opt.assignment = assignment;
    const auto result = compiler::allocateRegisters(p, opt);
    for (prog::ValueId v = 0; v < p.values.size(); ++v) {
        if (p.values[v].globalCandidate || result.spilledToMemory[v])
            continue;
        const int cluster = result.finalAssignment.clusterOf(v);
        if (cluster < 0)
            continue;
        const auto reg = result.regOf[v];
        if (reg.isZero())
            continue;
        EXPECT_EQ(reg.index % 2, static_cast<unsigned>(cluster))
            << "value " << v << " reg " << isa::regName(reg);
    }
}

TEST(Regalloc, HighPressureSpillsToMemory)
{
    // More than 32 simultaneously live values cannot fit one class.
    prog::Builder b("pressure");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    std::vector<prog::ValueId> vals;
    for (int i = 0; i < 40; ++i)
        vals.push_back(b.emitConst(RegClass::Int, i, "v"));
    // Use them all afterwards so they are simultaneously live.
    auto acc = vals[0];
    for (int i = 1; i < 40; ++i)
        acc = b.emitRRR(Op::Add, acc, vals[i], "s");
    b.emitRet();
    const auto p = b.build();
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(1);
    const auto result = compiler::allocateRegisters(p, opt);
    EXPECT_GT(result.memorySpills, 0u);
    EXPECT_GT(result.spillLoadsInserted, 0u);
    EXPECT_GT(result.spillStoresInserted, 0u);
    EXPECT_GT(result.rounds, 1u);
    // The rewritten program still validates and has more instructions.
    EXPECT_GT(result.rewritten.staticInstCount(), p.staticInstCount());
}

TEST(Regalloc, CallCrossingValuesAreForceSpilled)
{
    const auto p = workloads::makeDoduc(workloads::WorkloadParams{0.01});
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(1);
    const auto result = compiler::allocateRegisters(p, opt);
    EXPECT_GT(result.callCrossingSpills, 0u);
    EXPECT_GT(result.spillLoadsInserted, 0u);
}

TEST(Regalloc, SpillSlotsAreUniquePerValue)
{
    prog::Builder b("slots");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    std::vector<prog::ValueId> vals;
    for (int i = 0; i < 40; ++i)
        vals.push_back(b.emitConst(RegClass::Int, i, "v"));
    auto acc = vals[0];
    for (int i = 1; i < 40; ++i)
        acc = b.emitRRR(Op::Add, acc, vals[i], "s");
    b.emitRet();
    const auto p = b.build();
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(1);
    const auto result = compiler::allocateRegisters(p, opt);
    // All fixed spill streams must target distinct slots.
    std::vector<Addr> slots;
    for (const auto &s : result.rewritten.streams)
        if (s.kind == prog::AddrStream::Kind::Fixed &&
            s.base >= result.rewritten.spillBase)
            slots.push_back(s.base);
    std::sort(slots.begin(), slots.end());
    EXPECT_TRUE(std::adjacent_find(slots.begin(), slots.end()) ==
                slots.end());
}

// --- emitMachine ------------------------------------------------------------

TEST(EmitMachine, PreservesShapeAndStreams)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::AllocOptions opt;
    opt.regMap = isa::RegisterMap(1);
    const auto alloc = compiler::allocateRegisters(p, opt);
    const auto mp = compiler::emitMachine(alloc);
    ASSERT_EQ(mp.functions.size(), alloc.rewritten.functions.size());
    EXPECT_EQ(mp.staticInstCount(), alloc.rewritten.staticInstCount());
    EXPECT_EQ(mp.streams.size(), alloc.rewritten.streams.size());
    // Every memory op has a base register slot (zero reg if none).
    for (const auto &fn : mp.functions)
        for (const auto &blk : fn.blocks)
            for (const auto &e : blk.instrs) {
                if (isa::isLoad(e.mi.op)) {
                    EXPECT_TRUE(e.mi.srcs[0].has_value());
                }
                if (isa::isStore(e.mi.op)) {
                    EXPECT_TRUE(e.mi.srcs[1].has_value());
                }
            }
}

// --- list scheduler ---------------------------------------------------------

TEST(ListSchedule, PreservesDataDependences)
{
    auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::listSchedule(p);
    // In every block, no use may precede its in-block def, stores stay
    // ordered relative to each other, and terminators stay last.
    for (const auto &fn : p.functions) {
        for (const auto &blk : fn.blocks) {
            std::map<prog::ValueId, std::size_t> def_pos;
            std::size_t last_store = 0;
            bool seen_store = false;
            for (std::size_t i = 0; i < blk.instrs.size(); ++i) {
                const auto &in = blk.instrs[i];
                for (auto s : in.srcs)
                    if (s != prog::kNoValue && def_pos.count(s)) {
                        EXPECT_LT(def_pos[s], i + 1);
                    }
                if (in.dest != prog::kNoValue)
                    def_pos[in.dest] = i;
                if (isa::isStore(in.op)) {
                    if (seen_store) {
                        EXPECT_GT(i, last_store);
                    }
                    last_store = i;
                    seen_store = true;
                }
                if (isa::isCtrlFlow(in.op)) {
                    EXPECT_EQ(i, blk.instrs.size() - 1);
                }
            }
        }
    }
}

TEST(ListSchedule, HoistsLongLatencyOps)
{
    prog::Builder b("hoist");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto a = b.liveInValue(RegClass::Fp, "a");
    // Cheap independent work first in program order...
    const auto x = b.emitConst(RegClass::Int, 1, "x");
    b.emitRRI(Op::Add, x, 1, "y");
    // ...then a divide chain that dominates the critical path.
    const auto d = b.emitRRR(Op::DivD, a, a, "d");
    b.emitRRR(Op::AddF, d, a, "e");
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::listSchedule(p);
    EXPECT_GT(stats.instsMoved, 0u);
    // The divide's operand def (a) and the divide must now come before
    // the cheap adds that have no consumers on the critical path.
    const auto &instrs = p.functions[0].blocks[0].instrs;
    std::size_t div_pos = 99, add_pos = 99;
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].op == Op::DivD)
            div_pos = i;
        if (instrs[i].op == Op::Add)
            add_pos = i;
    }
    EXPECT_LT(div_pos, add_pos);
}

// --- optimizations ------------------------------------------------------------

TEST(Optimize, ConstantFoldingCollapsesArithmetic)
{
    prog::Builder b("fold");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto a = b.emitConst(RegClass::Int, 6, "a");
    const auto c = b.emitConst(RegClass::Int, 7, "c");
    const auto d = b.emitRRR(Op::Mull, a, c, "d"); // 42, foldable
    b.emitStore(Op::Stl, d, b.stream(prog::AddrStream::fixed(0x100)), a);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::optimizeProgram(p);
    EXPECT_GE(stats.constantsFolded, 1u);
    // The multiply became an Lda of 42.
    bool found = false;
    for (const auto &in : p.functions[0].blocks[0].instrs)
        if (in.op == Op::Lda && in.imm == 42)
            found = true;
    EXPECT_TRUE(found);
}

TEST(Optimize, ImmediatePropagation)
{
    prog::Builder b("imm");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.liveInValue(RegClass::Int, "x");
    const auto k = b.emitConst(RegClass::Int, 3, "k");
    const auto y = b.emitRRR(Op::Add, x, k, "y"); // -> add x, #3
    b.emitStore(Op::Stl, y, b.stream(prog::AddrStream::fixed(0x100)), x);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::optimizeProgram(p);
    EXPECT_GE(stats.immediatesPropagated, 1u);
}

TEST(Optimize, CseReplacesRepeatWithMove)
{
    prog::Builder b("cse");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.liveInValue(RegClass::Int, "x");
    const auto y = b.liveInValue(RegClass::Int, "y");
    const auto s1 = b.emitRRR(Op::Mull, x, y, "s1");
    const auto s2 = b.emitRRR(Op::Mull, x, y, "s2"); // same expression
    const auto st = b.stream(prog::AddrStream::fixed(0x100));
    b.emitStore(Op::Stl, s1, st, x);
    b.emitStore(Op::Stl, s2, st, x);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::localCse(p);
    EXPECT_EQ(stats.cseReplaced, 1u);
    EXPECT_EQ(p.functions[0].blocks[0].instrs[1].op, Op::Mov);
}

TEST(Optimize, CseRespectsRedefinition)
{
    prog::Builder b("csekill");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.liveInValue(RegClass::Int, "x");
    const auto y = b.liveInValue(RegClass::Int, "y");
    const auto s1 = b.emitRRR(Op::Add, x, y, "s1");
    prog::Instr redef; // x changes between the two adds
    redef.op = Op::Lda;
    redef.dest = x;
    redef.imm = 9;
    b.emitRaw(redef);
    const auto s2 = b.emitRRR(Op::Add, x, y, "s2");
    const auto st = b.stream(prog::AddrStream::fixed(0x100));
    b.emitStore(Op::Stl, s1, st, x);
    b.emitStore(Op::Stl, s2, st, x);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::localCse(p);
    EXPECT_EQ(stats.cseReplaced, 0u);
}

TEST(Optimize, DeadCodeRemovedTransitively)
{
    prog::Builder b("dce");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto a = b.emitConst(RegClass::Int, 1, "a");
    const auto bb = b.emitRRI(Op::Add, a, 1, "b"); // only feeds dead c
    b.emitRRI(Op::Add, bb, 1, "c");                // dead
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::deadCodeElim(p);
    EXPECT_EQ(stats.deadRemoved, 3u);
    EXPECT_EQ(p.functions[0].blocks[0].instrs.size(), 1u); // just ret
}

TEST(Optimize, StoresAndBranchesNeverRemoved)
{
    auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    const auto before_stores = [&] {
        std::size_t n = 0;
        for (const auto &fn : p.functions)
            for (const auto &blk : fn.blocks)
                for (const auto &in : blk.instrs)
                    n += isa::isStore(in.op) || isa::isCtrlFlow(in.op);
        return n;
    }();
    compiler::optimizeProgram(p);
    std::size_t after = 0;
    for (const auto &fn : p.functions)
        for (const auto &blk : fn.blocks)
            for (const auto &in : blk.instrs)
                after += isa::isStore(in.op) || isa::isCtrlFlow(in.op);
    EXPECT_EQ(after, before_stores);
}

// --- pipeline ------------------------------------------------------------

TEST(Pipeline, NativeBinaryUsesFullRegisterFile)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(p, copt);
    // Some value must have landed in each parity class.
    bool even = false, odd = false;
    for (const auto &reg : out.alloc.regOf) {
        if (reg.isZero())
            continue;
        (reg.index % 2 == 0 ? even : odd) = true;
    }
    EXPECT_TRUE(even);
    EXPECT_TRUE(odd);
}

TEST(Pipeline, HardwareMapCarriesGlobals)
{
    const auto p = workloads::makeCompress(workloads::WorkloadParams{0.01});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(p, copt);
    const auto map = out.hardwareMap(2);
    EXPECT_EQ(map.numClusters(), 2u);
    EXPECT_TRUE(map.isGlobal(isa::intReg(30)));
    EXPECT_TRUE(map.isGlobal(isa::intReg(29)));
}

/**
 * FNV-1a digests of prog::dumpProgram() of every benchmark's binary
 * under seven compile configurations: five at scale 0.05, where the
 * profiling run reaches the end of main, and two at scale 4, where the
 * profiling run's instruction cap stops it. A refactor of the compiler
 * driver must leave every entry unchanged; an intended change to code
 * generation updates the table and says why.
 */
struct BinaryDigest
{
    const char *benchmark;
    const char *config;
    std::uint64_t digest;
};

constexpr BinaryDigest kBinaryDigests[] = {
    {"compress", "native/1", 0xf0bd8a57b059126bull},
    {"compress", "local/2", 0xea15c9f3faa025c3ull},
    {"compress", "roundrobin/2", 0x150b5a80795998cdull},
    {"compress", "multilevel/4", 0x76276c6fccce3bf3ull},
    {"compress", "local/2+unroll2+sb", 0x0f70f25cfd7672cbull},
    {"compress", "local/2@4", 0x87a8c11eb9949ec0ull},
    {"compress", "multilevel/4@4", 0x5e0dc5ae9b15b886ull},
    {"doduc", "native/1", 0x12f76c64286f0213ull},
    {"doduc", "local/2", 0xc114c44a7c3adbd3ull},
    {"doduc", "roundrobin/2", 0x663c02cc3c65b71dull},
    {"doduc", "multilevel/4", 0x99bf199266180140ull},
    {"doduc", "local/2+unroll2+sb", 0x964b5d18a28904faull},
    {"doduc", "local/2@4", 0x5d0b96105fc01d5eull},
    {"doduc", "multilevel/4@4", 0xd5c1857c506d6a5bull},
    {"gcc1", "native/1", 0x081a799a2f02863cull},
    {"gcc1", "local/2", 0xf944c08820391788ull},
    {"gcc1", "roundrobin/2", 0xcf7467ff7c283a64ull},
    {"gcc1", "multilevel/4", 0x79b19fc3b091e6b6ull},
    {"gcc1", "local/2+unroll2+sb", 0x9d58c6b710fa86e2ull},
    {"gcc1", "local/2@4", 0x046509fc45eee918ull},
    {"gcc1", "multilevel/4@4", 0x39e19f8bef6c4df3ull},
    {"ora", "native/1", 0x9fcc945d998a313eull},
    {"ora", "local/2", 0x3a472ff9147c287dull},
    {"ora", "roundrobin/2", 0xf0b20b417e03c5cfull},
    {"ora", "multilevel/4", 0x27a5f9750308756eull},
    {"ora", "local/2+unroll2+sb", 0xb798ba13a66f8a70ull},
    {"ora", "local/2@4", 0x7dff5690393e78efull},
    {"ora", "multilevel/4@4", 0x72c5394b9d895ac5ull},
    {"su2cor", "native/1", 0x53ad50aa1cec3989ull},
    {"su2cor", "local/2", 0x4f02c375db7e8ff8ull},
    {"su2cor", "roundrobin/2", 0x2caa8cda631c5ce4ull},
    {"su2cor", "multilevel/4", 0xa0bfe38e1479a476ull},
    {"su2cor", "local/2+unroll2+sb", 0xaf976615db653de7ull},
    {"su2cor", "local/2@4", 0x7c41d2b408b60e4full},
    {"su2cor", "multilevel/4@4", 0x58852cf11b56cfabull},
    {"tomcatv", "native/1", 0x7afe452214fb52e5ull},
    {"tomcatv", "local/2", 0x568e7762b60353c7ull},
    {"tomcatv", "roundrobin/2", 0xed7c502fe3dd5368ull},
    {"tomcatv", "multilevel/4", 0xc08b27462da55da0ull},
    {"tomcatv", "local/2+unroll2+sb", 0x76522507386edd32ull},
    {"tomcatv", "local/2@4", 0x04ef9c713fe1c2b5ull},
    {"tomcatv", "multilevel/4@4", 0xec8e741894f7918aull},
};

/** The compile configurations kBinaryDigests pins, in table order. */
struct PinnedConfig
{
    const char *name;
    const char *scheduler;
    unsigned clusters;
    unsigned unrollFactor;
    bool superblocks;
    double scale;
};

constexpr PinnedConfig kPinnedConfigs[] = {
    {"native/1", "native", 1, 1, false, 0.05},
    {"local/2", "local", 2, 1, false, 0.05},
    {"roundrobin/2", "roundrobin", 2, 1, false, 0.05},
    {"multilevel/4", "multilevel", 4, 1, false, 0.05},
    {"local/2+unroll2+sb", "local", 2, 2, true, 0.05},
    {"local/2@4", "local", 2, 1, false, 4.0},
    {"multilevel/4@4", "multilevel", 4, 1, false, 4.0},
};

/** The profiling run's instruction cap (kProfileMaxInsts in
 *  src/compiler/pass.cc). */
constexpr std::uint64_t kProfileCap = 200'000;

TEST(CompilerOutput, BinariesMatchPinnedDigests)
{
    std::size_t row = 0;
    for (const auto &bench : workloads::allBenchmarks()) {
        for (const auto &config : kPinnedConfigs) {
            const auto p = bench.make(workloads::WorkloadParams{config.scale});
            auto copt = compiler::compileOptionsFor(config.scheduler,
                                                    config.clusters);
            copt.unrollFactor = config.unrollFactor;
            copt.superblocks = config.superblocks;
            // Scale 4 pins the partition of a profile the cap cut short.
            EXPECT_EQ(exec::profileProgram(p, copt.profileSeed, kProfileCap)
                          .completed,
                      config.scale < 1.0)
                << bench.name << " " << config.name;
            const std::string text =
                prog::dumpProgram(compiler::compile(p, copt).binary);
            const std::uint64_t digest =
                ckpt::fnv1a(text.data(), text.size());
            ASSERT_LT(row, std::size(kBinaryDigests))
                << "    {\"" << bench.name << "\", \"" << config.name
                << "\", 0x" << std::hex << digest << "ull},";
            EXPECT_EQ(kBinaryDigests[row].benchmark, bench.name);
            EXPECT_STREQ(kBinaryDigests[row].config, config.name);
            EXPECT_EQ(kBinaryDigests[row].digest, digest)
                << bench.name << " " << config.name << ": 0x" << std::hex
                << digest;
            ++row;
        }
    }
    EXPECT_EQ(row, std::size(kBinaryDigests));
}

TEST(CompilerOutput, EveryEmittedInstructionFitsItsOpcodeShape)
{
    std::vector<std::pair<std::string, prog::Program>> programs;
    for (const auto &bench : workloads::allBenchmarks())
        programs.emplace_back(bench.name,
                              bench.make(workloads::WorkloadParams{0.05}));
    programs.emplace_back("pointer-chase",
                          workloads::makePointerChase(
                              workloads::WorkloadParams{0.05}));
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        workloads::RandomProgramParams rp;
        rp.seed = seed;
        rp.fpFraction = 0.2 * static_cast<double>(seed % 4);
        rp.memFraction = 0.1 * static_cast<double>(seed % 5);
        programs.emplace_back("random " + std::to_string(seed),
                              workloads::makeRandomProgram(rp));
    }

    const auto check = [](const prog::MachProgram &binary,
                          const std::string &what) {
        for (const auto &fn : binary.functions)
            for (const auto &blk : fn.blocks)
                for (const auto &e : blk.instrs)
                    if (const char *operand = isa::illFormedOperand(e.mi))
                        ADD_FAILURE() << what << ": " << e.mi.toString()
                                      << ": operand " << operand;
    };
    for (const auto &[name, p] : programs) {
        for (const char *scheduler :
             {"native", "local", "roundrobin", "multilevel"})
            for (unsigned clusters : {1u, 2u, 4u})
                check(compiler::compile(p, compiler::compileOptionsFor(
                                               scheduler, clusters))
                          .binary,
                      name + " " + scheduler + "/" +
                          std::to_string(clusters));
        auto copt = compiler::compileOptionsFor("local", 2);
        copt.unrollFactor = 2;
        copt.superblocks = true;
        check(compiler::compile(p, copt).binary,
              name + " local/2 unroll 2 + superblocks");
    }
}

TEST(Pipeline, LocalSchedulerProfilesFirst)
{
    const auto p = workloads::makeGcc1(workloads::WorkloadParams{0.01});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(p, copt);
    EXPECT_GT(out.partitionTrace.blockOrder.size(), 10u);
    EXPECT_GT(out.binary.staticInstCount(), 0u);
}

} // namespace

// --- copy propagation -----------------------------------------------------

namespace copyprop
{

using namespace mca;
using isa::Op;
using isa::RegClass;

TEST(CopyPropagate, CseMovesAreForwardedAndDied)
{
    prog::Builder b("cp");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.liveInValue(RegClass::Int, "x");
    const auto y = b.liveInValue(RegClass::Int, "y");
    const auto s1 = b.emitRRR(Op::Mull, x, y, "s1");
    const auto s2 = b.emitRRR(Op::Mull, x, y, "s2"); // CSE -> Mov
    const auto st = b.stream(prog::AddrStream::fixed(0x100));
    b.emitStore(Op::Stl, s1, st, x);
    b.emitStore(Op::Stl, s2, st, x);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::optimizeProgram(p);
    EXPECT_GE(stats.cseReplaced, 1u);
    EXPECT_GE(stats.copiesPropagated, 1u);
    // After propagation + DCE the Mov itself is gone: both stores read
    // s1 directly.
    for (const auto &in : p.functions[0].blocks[0].instrs) {
        EXPECT_NE(in.op, Op::Mov);
        if (isa::isStore(in.op)) {
            EXPECT_EQ(in.srcs[0], s1);
        }
    }
}

TEST(CopyPropagate, MultiplyDefinedCopiesStayBlockLocal)
{
    prog::Builder b("cp2");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    const auto b1 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.liveInValue(RegClass::Int, "x");
    const auto d = b.value(RegClass::Int, "d");
    b.emitRRITo(d, Op::Mov, x, 0);     // d = x
    b.emitRRITo(d, Op::Add, d, 1);     // d redefined
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    const auto st = b.stream(prog::AddrStream::fixed(0x200));
    b.emitStore(Op::Stl, d, st, x);    // must still read d, not x
    b.emitRet();
    auto p = b.build();
    compiler::copyPropagate(p);
    EXPECT_EQ(p.functions[0].blocks[1].instrs[0].srcs[0], d);
}

TEST(CopyPropagate, KillsOnSourceRedefinition)
{
    prog::Builder b("cp3");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.value(RegClass::Int, "x");
    prog::Instr init;
    init.op = Op::Lda;
    init.dest = x;
    init.imm = 1;
    b.emitRaw(init);
    const auto d = b.value(RegClass::Int, "d");
    b.emitRRITo(d, Op::Mov, x, 0); // d = x (x == 1)
    prog::Instr redef;             // x changes afterwards
    redef.op = Op::Lda;
    redef.dest = x;
    redef.imm = 9;
    b.emitRaw(redef);
    const auto st = b.stream(prog::AddrStream::fixed(0x300));
    b.emitStore(Op::Stl, d, st, x); // d must NOT become x here
    b.emitRet();
    auto p = b.build();
    compiler::copyPropagate(p);
    const auto &instrs = p.functions[0].blocks[0].instrs;
    EXPECT_EQ(instrs[3].srcs[0], d);
}

TEST(CopyPropagate, ChainsOfSingleDefCopiesResolve)
{
    prog::Builder b("cp4");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1);
    const auto b1 = b.block(fn, 1);
    b.setInsertPoint(fn, b0);
    const auto x = b.liveInValue(RegClass::Int, "x");
    const auto c1 = b.value(RegClass::Int, "c1");
    const auto c2 = b.value(RegClass::Int, "c2");
    b.emitRRITo(c1, Op::Mov, x, 0);
    b.emitRRITo(c2, Op::Mov, c1, 0);
    b.edge(fn, b0, b1);
    b.setInsertPoint(fn, b1);
    const auto st = b.stream(prog::AddrStream::fixed(0x400));
    b.emitStore(Op::Stl, c2, st, x);
    b.emitRet();
    auto p = b.build();
    compiler::copyPropagate(p);
    // The store in the *other* block reads x directly (single-def chain).
    EXPECT_EQ(p.functions[0].blocks[1].instrs[0].srcs[0], x);
}

} // namespace copyprop

// --- verifyIR ------------------------------------------------------------

namespace verify_ir
{

TEST(VerifyIR, CleanProgramsPass)
{
    EXPECT_TRUE(prog::verifyIR(diamondProgram()).ok());
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto p = bench.make(workloads::WorkloadParams{0.02});
        const auto res = prog::verifyIR(p);
        EXPECT_TRUE(res.ok()) << bench.name << ":\n" << res.str();
    }
}

TEST(VerifyIR, UseBeforeDefReported)
{
    prog::Builder b("udef");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    b.setInsertPoint(fn, b0);
    const auto ghost = b.value(RegClass::Int, "ghost");
    b.emitRRI(Op::Add, ghost, 1, "y");
    b.emitRet();
    const auto res = prog::verifyIR(b.build());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.errors[0].kind, prog::VerifyErrorKind::DefBeforeUse);
    EXPECT_NE(res.str().find("'ghost'"), std::string::npos) << res.str();
    EXPECT_NE(res.str().find("before any definition"),
              std::string::npos);
    EXPECT_NE(res.str().find("bb0 inst 0"), std::string::npos)
        << "message should locate the offending use: " << res.str();
}

TEST(VerifyIR, DefOnOnePathOnlyReported)
{
    // Diamond where the def happens only in the 'then' arm: the join's
    // use is not reached by a definition on the 'else' path.
    prog::Builder b("halfdef");
    const auto fn = b.function("main");
    const auto b0 = b.block(fn, 1, "entry");
    const auto bt = b.block(fn, 1, "then");
    const auto be = b.block(fn, 1, "else");
    const auto bj = b.block(fn, 1, "join");
    const auto part = b.value(RegClass::Int, "part");

    b.setInsertPoint(fn, b0);
    const auto c = b.emitConst(RegClass::Int, 0, "c");
    b.emitBranch(Op::Bne, c,
                 b.branch(prog::BranchModel::bernoulli(0.5)));
    b.edge(fn, b0, be);
    b.edge(fn, b0, bt);

    b.setInsertPoint(fn, bt);
    b.emitRRITo(part, Op::Mov, c, 1);
    b.emitBr();
    b.edge(fn, bt, bj);

    b.setInsertPoint(fn, be);
    b.emitRRI(Op::Add, c, 1, "e");
    b.edge(fn, be, bj);

    b.setInsertPoint(fn, bj);
    b.emitRRI(Op::Add, part, 5, "j");
    b.emitRet();

    const auto res = prog::verifyIR(b.build());
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.errors[0].kind, prog::VerifyErrorKind::DefBeforeUse);
    EXPECT_NE(res.str().find("'part'"), std::string::npos) << res.str();
}

TEST(VerifyIR, DanglingEdgeReported)
{
    auto p = diamondProgram();
    p.functions[0].blocks[1].succs[0] = 99;
    const auto res = prog::verifyIR(p);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.errors[0].kind, prog::VerifyErrorKind::Structure);
    EXPECT_NE(res.str().find("dangling CFG edge"), std::string::npos)
        << res.str();
    EXPECT_NE(res.str().find("bb99"), std::string::npos) << res.str();
}

TEST(VerifyIR, PartitionIllegalClusterReported)
{
    const auto p =
        workloads::makeCompress(workloads::WorkloadParams{0.02});
    compiler::PartitionOptions popt;
    auto assignment = compiler::localSchedule(p, popt);
    prog::VerifyOptions vo;
    vo.clusterOf = &assignment.cluster;
    vo.numClusters = 2;
    ASSERT_TRUE(prog::verifyIR(p, vo).ok());

    for (auto &c : assignment.cluster)
        if (c >= 0) {
            c = 5;
            break;
        }
    const auto res = prog::verifyIR(p, vo);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.errors[0].kind, prog::VerifyErrorKind::Partition);
    EXPECT_NE(res.str().find("outside [-1, 2)"), std::string::npos)
        << res.str();
}

TEST(VerifyIR, CrossClusterLocalRegisterReported)
{
    const auto p =
        workloads::makeCompress(workloads::WorkloadParams{0.02});
    compiler::PartitionOptions popt;
    const auto assignment = compiler::localSchedule(p, popt);
    compiler::AllocOptions aopt;
    aopt.regMap = isa::RegisterMap(2);
    aopt.assignment = assignment;
    auto result = compiler::allocateRegisters(p, aopt);

    prog::VerifyOptions vo;
    vo.clusterOf = &result.finalAssignment.cluster;
    vo.numClusters = 2;
    vo.regOf = &result.regOf;
    vo.regMap = &result.finalMap;
    const auto clean = prog::verifyIR(result.rewritten, vo);
    ASSERT_TRUE(clean.ok()) << clean.str();

    // Move every assigned local value to the other cluster: its
    // register parity no longer matches its home, which is exactly the
    // cross-cluster read the partitioning exists to prevent.
    for (std::size_t v = 0; v < result.finalAssignment.cluster.size();
         ++v) {
        auto &c = result.finalAssignment.cluster[v];
        if (c >= 0 && !result.regOf[v].isZero() &&
            !result.finalMap.isGlobal(result.regOf[v]))
            c = static_cast<std::int8_t>(c ^ 1);
    }
    const auto res = prog::verifyIR(result.rewritten, vo);
    ASSERT_FALSE(res.ok());
    EXPECT_EQ(res.errors[0].kind, prog::VerifyErrorKind::Allocation);
    EXPECT_NE(res.str().find("cross-cluster local register"),
              std::string::npos)
        << res.str();
}

TEST(VerifyIR, UncoloredReferencedValueReported)
{
    const auto p = diamondProgram();
    compiler::AllocOptions aopt;
    aopt.regMap = isa::RegisterMap(1);
    auto result = compiler::allocateRegisters(p, aopt);

    prog::VerifyOptions vo;
    vo.regOf = &result.regOf;
    vo.regMap = &result.finalMap;
    ASSERT_TRUE(prog::verifyIR(result.rewritten, vo).ok());

    // Uncolor the first referenced value.
    const auto victim =
        result.rewritten.functions[0].blocks[0].instrs[0].dest;
    ASSERT_NE(victim, prog::kNoValue);
    result.regOf[victim] = isa::RegId();
    const auto res = prog::verifyIR(result.rewritten, vo);
    ASSERT_FALSE(res.ok());
    EXPECT_NE(res.str().find("never colored"), std::string::npos)
        << res.str();
}

} // namespace verify_ir
