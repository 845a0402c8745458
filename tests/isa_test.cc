/**
 * @file
 * Unit tests for the ISA layer: opcode classes, the Table-1 latency and
 * issue rules, register-to-cluster mapping, and the distribution rule
 * (the paper's five scenarios as pure decisions).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <random>
#include <sstream>
#include <type_traits>
#include <vector>

#include "isa/distribution.hh"
#include "isa/inst.hh"
#include "isa/issue_rules.hh"
#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace
{

using namespace mca;
using isa::fpReg;
using isa::intReg;
using isa::Op;
using isa::OpClass;

// --- opcode classes and latencies (paper Table 1 row 3) -------------------

// gtest prints a parameter it has no printer for as a dump of its bytes, and
// the ctest names carry that dump. Implicit padding holds whatever the stack
// held when the parameter was built, so those names changed from one test
// discovery to the next; the zeroed bytes stand where the padding was, so
// every byte of the dump is a value and the names are stable.
struct OpExpectation
{
    OpExpectation(Op op, OpClass cls, unsigned latency, bool pipelined)
        : op(op), cls(cls), latency(latency), pipelined(pipelined)
    {
    }

    Op op;
    OpClass cls;
    std::uint8_t zero0[2]{};
    unsigned latency;
    bool pipelined;
    std::uint8_t zero1[3]{};
};
static_assert(std::has_unique_object_representations_v<OpExpectation>,
              "OpExpectation must have no padding");

class OpTableTest : public ::testing::TestWithParam<OpExpectation>
{
};

TEST_P(OpTableTest, ClassLatencyPipelining)
{
    const auto &e = GetParam();
    EXPECT_EQ(isa::opClass(e.op), e.cls);
    EXPECT_EQ(isa::opLatency(e.op), e.latency);
    EXPECT_EQ(isa::opPipelined(e.op), e.pipelined);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, OpTableTest,
    ::testing::Values(
        OpExpectation{Op::Add, OpClass::IntOther, 1, true},
        OpExpectation{Op::Sub, OpClass::IntOther, 1, true},
        OpExpectation{Op::And, OpClass::IntOther, 1, true},
        OpExpectation{Op::Xor, OpClass::IntOther, 1, true},
        OpExpectation{Op::Sll, OpClass::IntOther, 1, true},
        OpExpectation{Op::CmpEq, OpClass::IntOther, 1, true},
        OpExpectation{Op::Lda, OpClass::IntOther, 1, true},
        OpExpectation{Op::Mov, OpClass::IntOther, 1, true},
        OpExpectation{Op::Mull, OpClass::IntMul, 6, true},
        OpExpectation{Op::AddF, OpClass::FpOther, 3, true},
        OpExpectation{Op::MulF, OpClass::FpOther, 3, true},
        OpExpectation{Op::CmpF, OpClass::FpOther, 3, true},
        OpExpectation{Op::DivF, OpClass::FpDiv, 8, false},
        OpExpectation{Op::DivD, OpClass::FpDiv, 16, false},
        OpExpectation{Op::SqrtD, OpClass::FpDiv, 16, false},
        OpExpectation{Op::Ldl, OpClass::LoadStore, 2, true},
        OpExpectation{Op::Ldt, OpClass::LoadStore, 2, true},
        OpExpectation{Op::Stl, OpClass::LoadStore, 1, true},
        OpExpectation{Op::Stt, OpClass::LoadStore, 1, true},
        OpExpectation{Op::Br, OpClass::CtrlFlow, 1, true},
        OpExpectation{Op::Beq, OpClass::CtrlFlow, 1, true},
        OpExpectation{Op::FBne, OpClass::CtrlFlow, 1, true},
        OpExpectation{Op::Jsr, OpClass::CtrlFlow, 1, true},
        OpExpectation{Op::Ret, OpClass::CtrlFlow, 1, true}));

TEST(Opcodes, Predicates)
{
    EXPECT_TRUE(isa::isLoad(Op::Ldl));
    EXPECT_TRUE(isa::isStore(Op::Stt));
    EXPECT_TRUE(isa::isMemOp(Op::Ldt));
    EXPECT_FALSE(isa::isMemOp(Op::Add));
    EXPECT_TRUE(isa::isCondBranch(Op::FBeq));
    EXPECT_FALSE(isa::isCondBranch(Op::Br));
    EXPECT_TRUE(isa::isCtrlFlow(Op::Jmp));
    EXPECT_TRUE(isa::isCall(Op::Jsr));
    EXPECT_TRUE(isa::isReturn(Op::Ret));
}

// --- MachInst builders -------------------------------------------------

TEST(MachInst, BuildersPopulateOperands)
{
    const auto add = isa::makeRRR(Op::Add, intReg(3), intReg(1), intReg(2));
    EXPECT_EQ(add.numSrcs(), 2u);
    EXPECT_TRUE(add.hasDest());
    EXPECT_EQ(add.dest->index, 3);

    const auto ld = isa::makeLoad(Op::Ldl, intReg(4), intReg(5), 16);
    EXPECT_EQ(ld.numSrcs(), 1u);
    EXPECT_EQ(ld.imm, 16);

    const auto st = isa::makeStore(Op::Stl, intReg(1), intReg(2), -8);
    EXPECT_FALSE(st.hasDest());
    EXPECT_EQ(st.numSrcs(), 2u);

    const auto br = isa::makeBranch(Op::Bne, intReg(7));
    EXPECT_EQ(br.numSrcs(), 1u);
}

TEST(MachInst, ToStringDisassembles)
{
    const auto add = isa::makeRRR(Op::Add, intReg(3), intReg(1), intReg(2));
    EXPECT_EQ(add.toString(), "add r3, r1, r2");
    const auto ld = isa::makeLoad(Op::Ldt, fpReg(2), intReg(30), 24);
    EXPECT_EQ(ld.toString(), "ldt f2, r30, #24");
}

TEST(MachInst, ShapeRuleNamesTheOperandThatDoesNotFit)
{
    // What the make* helpers build fits, the link register included.
    const isa::MachInst built[] = {
        isa::makeRRR(Op::Mull, intReg(3), intReg(1), intReg(2)),
        isa::makeRRR(Op::DivD, fpReg(3), fpReg(1), fpReg(2)),
        isa::makeLoad(Op::Ldt, fpReg(2), intReg(30), 24),
        isa::makeStore(Op::Stt, fpReg(2), intReg(31), 0),
        isa::makeBranch(Op::FBne, fpReg(4)),
        isa::makeJump(Op::Jsr),
        isa::makeJump(Op::Ret),
        isa::makeJump(Op::Br),
    };
    for (const auto &mi : built)
        EXPECT_EQ(isa::illFormedOperand(mi), nullptr) << mi.toString();

    auto add = isa::makeRRR(Op::Add, intReg(3), intReg(1), intReg(2));
    add.srcs[1].reset(); // the immediate form
    EXPECT_EQ(isa::illFormedOperand(add), nullptr);
    add.dest = fpReg(3);
    EXPECT_STREQ(isa::illFormedOperand(add), "dest");

    auto store = isa::makeStore(Op::Stl, intReg(1), intReg(2), 0);
    store.srcs[0].reset();
    EXPECT_STREQ(isa::illFormedOperand(store), "src0");

    isa::MachInst lda;
    lda.op = Op::Lda;
    lda.dest = intReg(1);
    EXPECT_EQ(isa::illFormedOperand(lda), nullptr);
    lda.srcs[1] = intReg(2);
    EXPECT_STREQ(isa::illFormedOperand(lda), "src1");
}

TEST(MachInstDeath, WrongBuilderOpPanics)
{
    EXPECT_DEATH(isa::makeLoad(Op::Add, intReg(1), intReg(2), 0),
                 "non-load");
    EXPECT_DEATH(isa::makeBranch(Op::Br, intReg(1)), "non-branch");
}

// --- RegisterMap ---------------------------------------------------------

TEST(RegisterMap, DefaultDualClusterEvenOdd)
{
    isa::RegisterMap map(2);
    EXPECT_EQ(map.homeCluster(intReg(0)), 0u);
    EXPECT_EQ(map.homeCluster(intReg(1)), 1u);
    EXPECT_EQ(map.homeCluster(fpReg(6)), 0u);
    EXPECT_EQ(map.homeCluster(fpReg(7)), 1u);
}

TEST(RegisterMap, StackAndGlobalPointersAreGlobal)
{
    isa::RegisterMap map(2);
    EXPECT_TRUE(map.isGlobal(intReg(isa::kStackPointer)));
    EXPECT_TRUE(map.isGlobal(intReg(isa::kGlobalPointer)));
    EXPECT_FALSE(map.isGlobal(intReg(4)));
}

TEST(RegisterMap, ZeroRegistersReadableEverywhere)
{
    isa::RegisterMap map(2);
    EXPECT_TRUE(map.isGlobal(intReg(isa::kIntZeroReg)));
    EXPECT_TRUE(map.isGlobal(fpReg(isa::kFpZeroReg)));
    EXPECT_TRUE(map.accessibleFrom(intReg(31), 0));
    EXPECT_TRUE(map.accessibleFrom(intReg(31), 1));
}

TEST(RegisterMap, SingleClusterEverythingAccessible)
{
    isa::RegisterMap map(1);
    for (unsigned i = 0; i < isa::kNumArchRegs; ++i)
        EXPECT_TRUE(map.accessibleFrom(intReg(i), 0));
}

TEST(RegisterMap, SetGlobalAndLocal)
{
    isa::RegisterMap map(2);
    map.setGlobal(intReg(8));
    EXPECT_TRUE(map.isGlobal(intReg(8)));
    map.setLocal(intReg(8));
    EXPECT_FALSE(map.isGlobal(intReg(8)));
}

TEST(RegisterMap, LocalRegCountExcludesGlobalsAndZero)
{
    isa::RegisterMap map(2);
    // Even registers minus r30 (global): 0..30 even = 16, minus r30.
    EXPECT_EQ(map.localRegCount(isa::RegClass::Int, 0), 15u);
    // Odd minus r31 (zero is odd? r31 is odd) and r29 (global).
    EXPECT_EQ(map.localRegCount(isa::RegClass::Int, 1), 14u);
    // FP: no globals; f31 is the zero register (odd).
    EXPECT_EQ(map.localRegCount(isa::RegClass::Fp, 0), 16u);
    EXPECT_EQ(map.localRegCount(isa::RegClass::Fp, 1), 15u);
}

TEST(RegisterMap, FourClusters)
{
    isa::RegisterMap map(4);
    EXPECT_EQ(map.homeCluster(intReg(5)), 1u);
    EXPECT_EQ(map.homeCluster(intReg(6)), 2u);
    EXPECT_EQ(map.homeCluster(intReg(7)), 3u);
    EXPECT_TRUE(map.isGlobal(intReg(isa::kStackPointer)));
}

constexpr unsigned kGlobal = isa::RegisterMap::kGlobal;

/** Register i of both classes in turn, i < 2 * kNumArchRegs. */
isa::RegId
nthReg(unsigned i)
{
    return isa::RegId(static_cast<isa::RegClass>(i / isa::kNumArchRegs),
                      i % isa::kNumArchRegs);
}

/**
 * A register's home read from the map's raw state rather than its
 * lookup table: the global mask, then the home override, then the mod
 * rule; kGlobal for global and zero registers.
 */
unsigned
rawHome(const isa::RegisterMap &map, isa::RegId reg)
{
    if (reg.isZero() || map.numClusters() == 1 ||
        (map.globalMask(reg.cls) >> reg.index & 1u))
        return kGlobal;
    const std::int8_t over = map.homeOverride(reg);
    return over >= 0 ? static_cast<unsigned>(over)
                     : reg.index % map.numClusters();
}

/** Every register's homeOrGlobal() against the raw state and against
 *  isGlobal()/homeCluster(). */
void
expectHomeTableMatches(const isa::RegisterMap &map)
{
    for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i) {
        const isa::RegId reg = nthReg(i);
        const unsigned home = map.homeOrGlobal(reg);
        EXPECT_EQ(home, rawHome(map, reg)) << isa::regName(reg);
        EXPECT_EQ(home == kGlobal, map.isGlobal(reg)) << isa::regName(reg);
        if (home != kGlobal) {
            EXPECT_EQ(map.homeCluster(reg), home) << isa::regName(reg);
        }
    }
}

/** Apply one random mutator to a random register of `map`. */
void
mutateRandomly(isa::RegisterMap &map, std::mt19937 &rng)
{
    const isa::RegId reg(static_cast<isa::RegClass>(rng() % 2),
                         rng() % isa::kNumArchRegs);
    switch (rng() % 4) {
      case 0: map.setGlobal(reg); break;
      case 1: map.setLocal(reg); break;
      case 2: map.setHome(reg, rng() % map.numClusters()); break;
      default: map.clearHome(reg); break;
    }
}

TEST(RegisterMap, HomeTableFollowsEveryMutator)
{
    std::mt19937 rng(3);
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        isa::RegisterMap map(n);
        expectHomeTableMatches(map);
        for (int step = 0; step < 100; ++step) {
            mutateRandomly(map, rng);
            expectHomeTableMatches(map);
        }
        // The snapshot restore's sequence: overwrite every register's
        // global bit, then its home override, from another map.
        isa::RegisterMap saved(n);
        for (int step = 0; step < 100; ++step)
            mutateRandomly(saved, rng);
        for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i) {
            const isa::RegId reg = nthReg(i);
            if (saved.globalMask(reg.cls) >> reg.index & 1u)
                map.setGlobal(reg);
            else
                map.setLocal(reg);
        }
        for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i) {
            const isa::RegId reg = nthReg(i);
            if (saved.homeOverride(reg) >= 0)
                map.setHome(reg, saved.homeOverride(reg));
            else
                map.clearHome(reg);
        }
        expectHomeTableMatches(map);
        EXPECT_EQ(map.differingHomes(saved), 0u);
    }
}

// --- IssueSlots (Table 1 rows 1-2) ---------------------------------------

TEST(IssueSlots, AllCapBindsFirst)
{
    isa::IssueSlots slots(isa::IssueRules::singleCluster8Way());
    slots.newCycle();
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(slots.tryConsume(OpClass::IntOther));
    EXPECT_FALSE(slots.tryConsume(OpClass::IntOther));
    EXPECT_FALSE(slots.tryConsume(OpClass::CtrlFlow));
}

TEST(IssueSlots, FpAllSharedBetweenDivAndOther)
{
    isa::IssueSlots slots(isa::IssueRules::singleCluster8Way());
    slots.newCycle();
    EXPECT_TRUE(slots.tryConsume(OpClass::FpDiv));
    EXPECT_TRUE(slots.tryConsume(OpClass::FpDiv));
    EXPECT_TRUE(slots.tryConsume(OpClass::FpOther));
    EXPECT_TRUE(slots.tryConsume(OpClass::FpOther));
    // fpAll = 4 exhausted even though fpOther alone allows 4.
    EXPECT_FALSE(slots.tryConsume(OpClass::FpOther));
    EXPECT_FALSE(slots.tryConsume(OpClass::FpDiv));
    // Integer slots unaffected.
    EXPECT_TRUE(slots.tryConsume(OpClass::IntOther));
}

TEST(IssueSlots, LoadStoreAndCtrlCaps)
{
    isa::IssueSlots slots(isa::IssueRules::singleCluster8Way());
    slots.newCycle();
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(slots.tryConsume(OpClass::LoadStore));
    EXPECT_FALSE(slots.tryConsume(OpClass::LoadStore));
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(slots.tryConsume(OpClass::CtrlFlow));
    EXPECT_FALSE(slots.tryConsume(OpClass::CtrlFlow));
}

TEST(IssueSlots, DualClusterHalvesEverything)
{
    const auto rules = isa::IssueRules::dualClusterPerCluster();
    EXPECT_EQ(rules.all, 4u);
    EXPECT_EQ(rules.fpAll, 2u);
    EXPECT_EQ(rules.loadStore, 2u);
    isa::IssueSlots slots(rules);
    slots.newCycle();
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(slots.tryConsume(OpClass::IntOther));
    EXPECT_FALSE(slots.tryConsume(OpClass::IntOther));
}

TEST(IssueSlots, NewCycleReplenishes)
{
    isa::IssueSlots slots(isa::IssueRules::dualClusterPerCluster());
    slots.newCycle();
    for (int i = 0; i < 4; ++i)
        slots.tryConsume(OpClass::IntOther);
    slots.newCycle();
    EXPECT_TRUE(slots.tryConsume(OpClass::IntOther));
}

TEST(IssueSlots, SlaveConsumesFilePortClass)
{
    isa::IssueSlots slots(isa::IssueRules::dualClusterPerCluster());
    slots.newCycle();
    EXPECT_TRUE(slots.tryConsumeSlave(isa::RegClass::Fp));
    EXPECT_TRUE(slots.tryConsumeSlave(isa::RegClass::Fp));
    // fpAll = 2 consumed by the two slaves.
    EXPECT_FALSE(slots.tryConsume(OpClass::FpOther));
    EXPECT_TRUE(slots.tryConsumeSlave(isa::RegClass::Int));
}

TEST(IssueRules, DividedByScalesWithFloor)
{
    const auto r = isa::IssueRules::singleCluster8Way().dividedBy(4);
    EXPECT_EQ(r.all, 2u);
    EXPECT_EQ(r.fpAll, 1u);
    EXPECT_EQ(r.fpDiv, 1u); // floor at 1
}

// --- decideDistribution (the five scenarios) -----------------------------

TEST(Distribution, Scenario1AllLocalOneCluster)
{
    isa::RegisterMap map(2);
    const auto mi = isa::makeRRR(Op::Add, intReg(2), intReg(4), intReg(6));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_FALSE(d.isDual());
    EXPECT_EQ(d.masterCluster, 0u);
    EXPECT_TRUE(d.masterWritesDest);
}

TEST(Distribution, Scenario2OperandForward)
{
    isa::RegisterMap map(2);
    // dest and one source in cluster 0, other source in cluster 1.
    const auto mi = isa::makeRRR(Op::Add, intReg(2), intReg(3), intReg(4));
    const auto d = isa::decideDistribution(mi, map);
    ASSERT_TRUE(d.isDual());
    EXPECT_EQ(d.masterCluster, 0u);
    EXPECT_TRUE(d.masterWritesDest);
    ASSERT_EQ(d.slaves.size(), 1u);
    EXPECT_EQ(d.slaves[0].cluster, 1u);
    EXPECT_TRUE(d.slaves[0].forwardsOperand);
    EXPECT_FALSE(d.slaves[0].receivesResult);
    EXPECT_EQ(d.slaves[0].srcMask, 1u); // srcs[0] = r3
}

TEST(Distribution, Scenario3ResultForward)
{
    isa::RegisterMap map(2);
    // Both sources cluster 0; destination cluster 1.
    const auto mi = isa::makeRRR(Op::Add, intReg(3), intReg(2), intReg(4));
    const auto d = isa::decideDistribution(mi, map);
    ASSERT_TRUE(d.isDual());
    EXPECT_EQ(d.masterCluster, 0u);
    EXPECT_FALSE(d.masterWritesDest);
    ASSERT_EQ(d.slaves.size(), 1u);
    EXPECT_EQ(d.slaves[0].cluster, 1u);
    EXPECT_FALSE(d.slaves[0].forwardsOperand);
    EXPECT_TRUE(d.slaves[0].receivesResult);
}

TEST(Distribution, Scenario4GlobalDestination)
{
    isa::RegisterMap map(2);
    map.setGlobal(intReg(8));
    const auto mi = isa::makeRRR(Op::Add, intReg(8), intReg(2), intReg(4));
    const auto d = isa::decideDistribution(mi, map);
    ASSERT_TRUE(d.isDual());
    EXPECT_EQ(d.masterCluster, 0u);
    EXPECT_TRUE(d.masterWritesDest); // master writes its own copy
    ASSERT_EQ(d.slaves.size(), 1u);
    EXPECT_TRUE(d.slaves[0].receivesResult);
    EXPECT_FALSE(d.slaves[0].forwardsOperand);
}

TEST(Distribution, Scenario5OperandAndResultForward)
{
    isa::RegisterMap map(2);
    map.setGlobal(intReg(8));
    // Sources split across clusters, destination global. The tie breaks
    // to the lowest cluster (matching the paper's Figure 5).
    const auto mi = isa::makeRRR(Op::Add, intReg(8), intReg(2), intReg(3));
    const auto d = isa::decideDistribution(mi, map);
    ASSERT_TRUE(d.isDual());
    EXPECT_EQ(d.masterCluster, 0u);
    EXPECT_TRUE(d.masterWritesDest);
    ASSERT_EQ(d.slaves.size(), 1u);
    EXPECT_EQ(d.slaves[0].cluster, 1u);
    EXPECT_TRUE(d.slaves[0].forwardsOperand);
    EXPECT_TRUE(d.slaves[0].receivesResult);
    EXPECT_EQ(d.slaves[0].srcMask, 2u); // srcs[1] = r3
}

TEST(Distribution, ZeroRegistersImposeNoConstraint)
{
    isa::RegisterMap map(2);
    const auto mi =
        isa::makeRRR(Op::Add, intReg(2), intReg(31), intReg(31));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_FALSE(d.isDual());
    EXPECT_EQ(d.masterCluster, 0u);
}

TEST(Distribution, WriteToZeroRegisterAllocatesNothing)
{
    isa::RegisterMap map(2);
    const auto mi =
        isa::makeRRR(Op::Add, intReg(31), intReg(2), intReg(4));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_FALSE(d.isDual());
    EXPECT_FALSE(d.masterWritesDest);
}

TEST(Distribution, AllGlobalUsesTieBreak)
{
    isa::RegisterMap map(2);
    const auto mi = isa::makeRRR(Op::Add, intReg(30), intReg(30),
                                 intReg(29));
    const auto d0 = isa::decideDistribution(mi, map, 0);
    const auto d1 = isa::decideDistribution(mi, map, 1);
    EXPECT_EQ(d0.masterCluster, 0u);
    EXPECT_EQ(d1.masterCluster, 1u);
    // Global destination still replicates to the other cluster.
    EXPECT_TRUE(d0.isDual());
}

TEST(Distribution, MajorityRulePicksMaster)
{
    isa::RegisterMap map(2);
    // Two cluster-1 registers vs one cluster-0 register.
    const auto mi = isa::makeRRR(Op::Add, intReg(3), intReg(5), intReg(2));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_EQ(d.masterCluster, 1u);
    ASSERT_EQ(d.slaves.size(), 1u);
    EXPECT_EQ(d.slaves[0].cluster, 0u);
    EXPECT_TRUE(d.slaves[0].forwardsOperand);
}

TEST(Distribution, StoreWithSplitOperands)
{
    isa::RegisterMap map(2);
    // Store: data in cluster 0, base in cluster 1, no destination.
    const auto mi = isa::makeStore(Op::Stl, intReg(2), intReg(3), 0);
    const auto d = isa::decideDistribution(mi, map);
    ASSERT_TRUE(d.isDual());
    EXPECT_FALSE(d.masterWritesDest);
    EXPECT_EQ(d.slaves.size(), 1u);
    EXPECT_TRUE(d.slaves[0].forwardsOperand);
}

TEST(Distribution, SingleClusterMachineNeverDual)
{
    isa::RegisterMap map(1);
    const auto mi = isa::makeRRR(Op::Add, intReg(3), intReg(2), intReg(5));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_FALSE(d.isDual());
    EXPECT_TRUE(d.masterWritesDest);
}

TEST(Distribution, FourClustersMultipleSlaves)
{
    isa::RegisterMap map(4);
    // Sources in clusters 1 and 2, dest in cluster 3.
    const auto mi = isa::makeRRR(Op::Add, intReg(7), intReg(5), intReg(6));
    const auto d = isa::decideDistribution(mi, map);
    ASSERT_TRUE(d.isDual());
    EXPECT_EQ(d.width(), 3u);
    // Master is the lowest tied cluster (1); slaves at 2 (operand) and
    // 3 (result).
    EXPECT_EQ(d.masterCluster, 1u);
    ASSERT_EQ(d.slaves.size(), 2u);
    EXPECT_EQ(d.slaves[0].cluster, 2u);
    EXPECT_TRUE(d.slaves[0].forwardsOperand);
    EXPECT_EQ(d.slaves[1].cluster, 3u);
    EXPECT_TRUE(d.slaves[1].receivesResult);
}

TEST(Distribution, GlobalDestFourClustersReplicatesEverywhere)
{
    isa::RegisterMap map(4);
    map.setGlobal(intReg(8));
    const auto mi = isa::makeRRR(Op::Add, intReg(8), intReg(4), intReg(4));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_EQ(d.width(), 4u);
    for (const auto &s : d.slaves)
        EXPECT_TRUE(s.receivesResult);
}

/**
 * The distribution rule written out plainly: count the named local
 * registers per cluster (homes from the raw map state), take the
 * majority with ties to the lowest cluster, merge the slaves per
 * cluster, then sort them by cluster.
 */
isa::Distribution
referenceDistribution(const isa::MachInst &mi, const isa::RegisterMap &map,
                      unsigned tie_break)
{
    const unsigned n = map.numClusters();
    const auto home = [&](const std::optional<isa::RegId> &reg) {
        return reg ? rawHome(map, *reg) : kGlobal;
    };
    std::array<unsigned, 8> count{};
    bool any_local = false;
    for (const auto &reg : {mi.srcs[0], mi.srcs[1], mi.dest})
        if (home(reg) != kGlobal) {
            ++count[home(reg)];
            any_local = true;
        }
    isa::Distribution d;
    d.masterCluster =
        any_local ? static_cast<unsigned>(
                        std::max_element(count.begin(), count.begin() + n) -
                        count.begin())
                  : tie_break % n;
    const unsigned master = d.masterCluster;
    const bool has_dest = mi.dest && !mi.dest->isZero();
    const bool dest_global = has_dest && home(mi.dest) == kGlobal;
    d.masterWritesDest =
        has_dest && (dest_global || home(mi.dest) == master);
    const auto slaveFor = [&](unsigned c) -> isa::SlaveRole & {
        for (auto &s : d.slaves)
            if (s.cluster == c)
                return s;
        d.slaves.push_back(isa::SlaveRole{c, false, false, 0});
        return d.slaves.back();
    };
    for (unsigned i = 0; i < 2; ++i) {
        const unsigned h = home(mi.srcs[i]);
        if (h == kGlobal || h == master)
            continue;
        slaveFor(h).forwardsOperand = true;
        slaveFor(h).srcMask |= 1u << i;
    }
    if (dest_global) {
        for (unsigned c = 0; c < n; ++c)
            if (c != master)
                slaveFor(c).receivesResult = true;
    } else if (has_dest && home(mi.dest) != master) {
        slaveFor(home(mi.dest)).receivesResult = true;
    }
    std::sort(d.slaves.begin(), d.slaves.end(),
              [](const isa::SlaveRole &a, const isa::SlaveRole &b) {
                  return a.cluster < b.cluster;
              });
    return d;
}

TEST(Distribution, MatchesReferenceOnEveryOperandTriple)
{
    // Every register of both classes (zero registers included) and an
    // absent operand, in each of src0, src1 and dest.
    std::vector<std::optional<isa::RegId>> regs{std::nullopt};
    for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i)
        regs.push_back(nthReg(i));
    std::mt19937 rng(11);
    for (unsigned n : {1u, 2u, 4u, 8u}) {
        isa::RegisterMap map(n);
        for (int step = 0; step < 48; ++step)
            mutateRandomly(map, rng);
        for (unsigned tie_break : {0u, n - 1}) {
            std::uint64_t checked = 0, mismatched = 0;
            std::ostringstream first;
            isa::MachInst mi;
            for (const auto &a : regs)
                for (const auto &b : regs)
                    for (const auto &dest : regs) {
                        mi.srcs = {a, b};
                        mi.dest = dest;
                        const auto got =
                            isa::decideDistribution(mi, map, tie_break);
                        const auto want =
                            referenceDistribution(mi, map, tie_break);
                        ++checked;
                        if (got.masterCluster == want.masterCluster &&
                            got.masterWritesDest == want.masterWritesDest &&
                            std::equal(got.slaves.begin(), got.slaves.end(),
                                       want.slaves.begin(),
                                       want.slaves.end()))
                            continue;
                        if (mismatched++ == 0)
                            first << mi.toString();
                    }
            EXPECT_EQ(checked, regs.size() * regs.size() * regs.size());
            EXPECT_EQ(mismatched, 0u)
                << n << " clusters, tie-break " << tie_break
                << ", first mismatch: " << first.str();
        }
    }
}

TEST(Distribution, DoublyReadSourceAttractsMaster)
{
    isa::RegisterMap map(2);
    // B = A * A with A odd: both read ports are in cluster 1, so the
    // majority rule executes there and forwards the result to B's home.
    const auto mi = isa::makeRRR(Op::Mull, intReg(2), intReg(3), intReg(3));
    const auto d = isa::decideDistribution(mi, map);
    EXPECT_EQ(d.masterCluster, 1u);
    ASSERT_EQ(d.slaves.size(), 1u);
    EXPECT_EQ(d.slaves[0].cluster, 0u);
    EXPECT_TRUE(d.slaves[0].receivesResult);
    EXPECT_FALSE(d.slaves[0].forwardsOperand);
    EXPECT_EQ(d.slaves[0].srcMask, 0u);
}

} // namespace
