/**
 * @file
 * Tests for the synthetic SPEC92-like workload generators: structural
 * validity, determinism, scaling, and the per-benchmark instruction-mix
 * characteristics the evaluation depends on.
 */

#include <gtest/gtest.h>

#include <map>

#include "compiler/liveness.hh"
#include "exec/trace.hh"
#include "exec/walker.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

/** Dynamic op-class mix of an IL program, by walking it. */
struct Mix
{
    std::map<isa::OpClass, std::uint64_t> byClass;
    std::uint64_t total = 0;

    double
    fraction(isa::OpClass cls) const
    {
        const auto it = byClass.find(cls);
        return total == 0 || it == byClass.end()
                   ? 0.0
                   : static_cast<double>(it->second) /
                         static_cast<double>(total);
    }
};

Mix
dynamicMix(const prog::Program &p, std::uint64_t cap = 60'000)
{
    Mix mix;
    exec::CfgWalker<prog::Program> walker(p, 99);
    exec::WalkSite site;
    while (mix.total < cap && walker.step(site)) {
        const auto &in =
            p.functions[site.fn].blocks[site.blk].instrs[site.idx];
        ++mix.byClass[isa::opClass(in.op)];
        ++mix.total;
    }
    return mix;
}

class BenchmarkTest
    : public ::testing::TestWithParam<workloads::BenchmarkInfo>
{
};

} // namespace

namespace mca::workloads
{

/**
 * Print a registered benchmark by name, so parameterized test names are
 * stable; gtest's default dumps the object's bytes, heap pointers included.
 */
void
PrintTo(const BenchmarkInfo &info, std::ostream *os)
{
    *os << '"' << info.name << '"';
}

} // namespace mca::workloads

namespace
{

using namespace mca;

TEST_P(BenchmarkTest, BuildsAndValidates)
{
    const auto p = GetParam().make(workloads::WorkloadParams{0.05});
    EXPECT_GT(p.staticInstCount(), 10u);
    EXPECT_GT(p.values.size(), 5u);
    compiler::checkValueLocality(p); // panics on violation
}

TEST_P(BenchmarkTest, DeterministicConstruction)
{
    const auto a = GetParam().make(workloads::WorkloadParams{0.05});
    const auto b = GetParam().make(workloads::WorkloadParams{0.05});
    EXPECT_EQ(a.staticInstCount(), b.staticInstCount());
    EXPECT_EQ(a.values.size(), b.values.size());
    // Same dynamic behaviour too.
    EXPECT_EQ(exec::profileProgram(a, 7, 50'000).totalInsts,
              exec::profileProgram(b, 7, 50'000).totalInsts);
}

TEST_P(BenchmarkTest, ScaleGrowsDynamicLength)
{
    const auto small = GetParam().make(workloads::WorkloadParams{0.02});
    const auto large = GetParam().make(workloads::WorkloadParams{0.1});
    const auto ps = exec::profileProgram(small, 7, 10'000'000);
    const auto pl = exec::profileProgram(large, 7, 10'000'000);
    ASSERT_TRUE(ps.completed);
    ASSERT_TRUE(pl.completed);
    EXPECT_GT(pl.totalInsts, ps.totalInsts * 2);
}

TEST_P(BenchmarkTest, TerminatesWithinBudget)
{
    const auto p = GetParam().make(workloads::WorkloadParams{1.0});
    const auto prof = exec::profileProgram(p, 7, 3'000'000);
    EXPECT_TRUE(prof.completed)
        << "default-scale benchmark exceeded 3M instructions";
    EXPECT_GT(prof.totalInsts, 80'000u)
        << "default-scale benchmark suspiciously short";
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, BenchmarkTest,
    ::testing::ValuesIn(workloads::allBenchmarks()),
    [](const ::testing::TestParamInfo<workloads::BenchmarkInfo> &info) {
        return info.param.name;
    });

// --- per-benchmark characters ------------------------------------------

TEST(WorkloadCharacter, CompressIsIntegerOnly)
{
    const auto mix = dynamicMix(
        workloads::makeCompress(workloads::WorkloadParams{0.05}));
    EXPECT_EQ(mix.fraction(isa::OpClass::FpOther), 0.0);
    EXPECT_EQ(mix.fraction(isa::OpClass::FpDiv), 0.0);
    EXPECT_GT(mix.fraction(isa::OpClass::IntOther), 0.3);
    EXPECT_GT(mix.fraction(isa::OpClass::LoadStore), 0.15);
}

TEST(WorkloadCharacter, DoducIsFpHeavyWithDivides)
{
    const auto mix = dynamicMix(
        workloads::makeDoduc(workloads::WorkloadParams{0.05}));
    EXPECT_GT(mix.fraction(isa::OpClass::FpOther) +
                  mix.fraction(isa::OpClass::FpDiv),
              0.3);
    EXPECT_GT(mix.fraction(isa::OpClass::FpDiv), 0.05);
}

TEST(WorkloadCharacter, Gcc1IsBranchy)
{
    const auto mix = dynamicMix(
        workloads::makeGcc1(workloads::WorkloadParams{0.05}));
    EXPECT_GT(mix.fraction(isa::OpClass::CtrlFlow), 0.12);
    EXPECT_EQ(mix.fraction(isa::OpClass::FpOther), 0.0);
}

TEST(WorkloadCharacter, OraIsDivideDominatedWithFewMemOps)
{
    const auto mix =
        dynamicMix(workloads::makeOra(workloads::WorkloadParams{0.05}));
    EXPECT_GT(mix.fraction(isa::OpClass::FpDiv), 0.3);
    EXPECT_LT(mix.fraction(isa::OpClass::LoadStore), 0.1);
}

TEST(WorkloadCharacter, Su2corIsMemoryHeavy)
{
    const auto mix = dynamicMix(
        workloads::makeSu2cor(workloads::WorkloadParams{0.05}));
    EXPECT_GT(mix.fraction(isa::OpClass::LoadStore), 0.3);
    EXPECT_GT(mix.fraction(isa::OpClass::FpOther), 0.15);
}

TEST(WorkloadCharacter, TomcatvIsStencilFp)
{
    const auto mix = dynamicMix(
        workloads::makeTomcatv(workloads::WorkloadParams{0.05}));
    EXPECT_GT(mix.fraction(isa::OpClass::LoadStore), 0.3);
    EXPECT_GT(mix.fraction(isa::OpClass::FpOther), 0.2);
    // Near-perfectly predictable control flow: only loop latches.
    EXPECT_LT(mix.fraction(isa::OpClass::CtrlFlow), 0.15);
}

TEST(WorkloadRegistry, ContainsTheSixPaperBenchmarks)
{
    const auto &all = workloads::allBenchmarks();
    ASSERT_EQ(all.size(), 6u);
    EXPECT_EQ(all[0].name, "compress");
    EXPECT_EQ(all[1].name, "doduc");
    EXPECT_EQ(all[2].name, "gcc1");
    EXPECT_EQ(all[3].name, "ora");
    EXPECT_EQ(all[4].name, "su2cor");
    EXPECT_EQ(all[5].name, "tomcatv");
    EXPECT_EQ(workloads::benchmarkByName("ora").name, "ora");
}

// --- random program generator ------------------------------------------

TEST(RandomProgram, ValidAndDeterministic)
{
    workloads::RandomProgramParams rp;
    rp.seed = 5;
    const auto a = workloads::makeRandomProgram(rp);
    const auto b = workloads::makeRandomProgram(rp);
    EXPECT_EQ(a.staticInstCount(), b.staticInstCount());
    compiler::checkValueLocality(a);
}

TEST(RandomProgram, DifferentSeedsDiffer)
{
    workloads::RandomProgramParams rp;
    rp.seed = 5;
    const auto a = workloads::makeRandomProgram(rp);
    rp.seed = 6;
    const auto b = workloads::makeRandomProgram(rp);
    EXPECT_NE(a.staticInstCount(), b.staticInstCount());
}

TEST(RandomProgram, WalksToCompletion)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        workloads::RandomProgramParams rp;
        rp.seed = seed;
        const auto p = workloads::makeRandomProgram(rp);
        const auto prof = exec::profileProgram(p, seed, 1'000'000);
        EXPECT_TRUE(prof.completed) << "seed " << seed;
    }
}

} // namespace
