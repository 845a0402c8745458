/**
 * @file
 * Differential lockstep tests: the issue scheduler's wake-gated mode
 * and the idle fast-forward must be cycle-exact against the reference
 * mode that scans every cluster and steps every cycle (skipping work
 * may change *when* the issue logic looks at instructions, never
 * *what* it decides).
 *
 * Coverage: the six Table-2 benchmarks, a random fuzzer program, and
 * the pointer-chase stress workload (all on the dual-cluster machine
 * that exercises every transfer scenario), the single-cluster machine,
 * gcc1 and the pointer chase across machine modes (reservation-station
 * queues, the reserved oldest buffer entry, an explicit MSHR file, four
 * and eight clusters), and the five §2.1 scenario reproductions. The
 * lockstep harness (src/harness/lockstep.hh) compares per-cycle retire
 * decisions, full event timelines (per-cycle issue decisions),
 * statistics JSON, and cycle-stack attributions.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <tuple>

#include "compiler/pipeline.hh"
#include "harness/lockstep.hh"
#include "harness/scenarios.hh"
#include "runner/jobspec.hh"
#include "workloads/workloads.hh"

#include "table2_reference.hh"

namespace
{

using namespace mca;

constexpr std::uint64_t kTraceSeed = 42;
constexpr std::uint64_t kMaxInsts = 40'000;

harness::LockstepResult
lockstepBenchmark(const std::string &name, bool dual)
{
    const auto &bench = workloads::benchmarkByName(name);
    const prog::Program program = bench.make({});
    compiler::CompileOptions copt = compiler::compileOptionsFor("native", 1);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    const auto cfg = dual ? core::ProcessorConfig::dualCluster8()
                          : core::ProcessorConfig::singleCluster8();
    return harness::runLockstep(out.binary,
                                out.hardwareMap(dual ? 2 : 1), cfg,
                                kTraceSeed, kMaxInsts);
}

class LockstepBenchmark : public testing::TestWithParam<const char *>
{
};

TEST_P(LockstepBenchmark, DualClusterEnginesAreCycleExact)
{
    const auto r = lockstepBenchmark(GetParam(), /*dual=*/true);
    EXPECT_TRUE(r.identical) << r.divergence;
    EXPECT_GT(r.retired, 0u);
}

INSTANTIATE_TEST_SUITE_P(Table2, LockstepBenchmark,
                         testing::Values("compress", "doduc", "gcc1",
                                         "ora", "su2cor", "tomcatv"));

TEST(Lockstep, SingleClusterEnginesAreCycleExact)
{
    // numClusters == 1 keeps scenarios 2-5 out of the picture; this
    // pins the wakeup bookkeeping on the degenerate machine.
    const auto r = lockstepBenchmark("compress", /*dual=*/false);
    EXPECT_TRUE(r.identical) << r.divergence;
}

TEST(Lockstep, RandomProgramIsCycleExact)
{
    workloads::RandomProgramParams rp;
    rp.seed = 7;
    rp.numFunctions = 4;
    rp.segmentsPerFunction = 8;
    rp.loopTrip = 20;
    const prog::Program program = workloads::makeRandomProgram(rp);
    compiler::CompileOptions copt = compiler::compileOptionsFor("local", 2);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    const auto r = harness::runLockstep(
        out.binary, out.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), kTraceSeed, kMaxInsts);
    EXPECT_TRUE(r.identical) << r.divergence;
    EXPECT_GT(r.retired, 0u);
}

TEST(Lockstep, PointerChaseIsCycleExact)
{
    // Memory-latency-bound serial load misses: the heaviest idle-skip
    // user after ora (the bench/e2e detail_idle workload), so pin its
    // exactness.
    const prog::Program program =
        workloads::makePointerChase(workloads::WorkloadParams{0.1});
    compiler::CompileOptions copt = compiler::compileOptionsFor("local", 2);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    const auto r = harness::runLockstep(
        out.binary, out.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), kTraceSeed, kMaxInsts);
    EXPECT_TRUE(r.identical) << r.divergence;
    EXPECT_GT(r.retired, 0u);
    EXPECT_GT(r.cyclesSkipped, 0u);
}

TEST(Lockstep, FastForwardActuallySkipsCycles)
{
    // Guard against the idle fast-forward silently never firing: ora's
    // long fp-divide chains leave plenty of dead cycles to skip.
    const auto r = lockstepBenchmark("ora", /*dual=*/true);
    ASSERT_TRUE(r.identical) << r.divergence;
    EXPECT_GT(r.cyclesSkipped, 0u)
        << "idle fast-forward never skipped a cycle";
}

/** Machine axes of one lockstep mode, as the tools' flags set them. */
struct MachineMode
{
    const char *name;
    const char *machine;
    const char *queueMode; // "" keeps the machine's window mode
    unsigned mshrEntries;  // 0 keeps the inverted MSHR
    bool reserveOldest;
};

const MachineMode kMachineModes[] = {
    {"dual8_rs", "dual8", "rs", 0, false},
    {"dual8_reserve_oldest", "dual8", "", 0, true},
    {"dual8_mshr2", "dual8", "", 2, false},
    {"quad8", "quad8", "", 0, false},
    {"octa8", "octa8", "", 0, false},
    {"quad8_rs_mshr2_reserve_oldest", "quad8", "rs", 2, true},
};

/** Prints the mode's name, so ctest names carry no pointer bytes. */
void
PrintTo(const MachineMode &mode, std::ostream *os)
{
    *os << mode.name;
}

class LockstepMachineMode
    : public testing::TestWithParam<std::tuple<std::string, MachineMode>>
{
};

TEST_P(LockstepMachineMode, EnginesAreCycleExact)
{
    // The counted MSHR poll and the oldest-entry reservation sit behind
    // the register checks the scan skips, so pin them against the
    // reference on every machine shape.
    const auto &[workload, mode] = GetParam();
    runner::JobSpec spec;
    spec.machine = mode.machine;
    spec.queueMode = mode.queueMode;
    spec.mshrEntries = mode.mshrEntries;
    spec.reserveOldest = mode.reserveOldest;
    const core::ProcessorConfig cfg = runner::machineConfigFor(spec);
    const prog::Program program =
        workload == "chase"
            ? workloads::makePointerChase(workloads::WorkloadParams{0.1})
            : workloads::benchmarkByName(workload).make({});
    compiler::CompileOptions copt =
        compiler::compileOptionsFor("local", cfg.numClusters);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    const auto r = harness::runLockstep(out.binary,
                                        out.hardwareMap(cfg.numClusters),
                                        cfg, kTraceSeed, 20'000);
    EXPECT_TRUE(r.identical) << r.divergence;
    EXPECT_GT(r.retired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    MachineModes, LockstepMachineMode,
    testing::Combine(testing::Values("gcc1", "chase"),
                     testing::ValuesIn(kMachineModes)),
    [](const testing::TestParamInfo<LockstepMachineMode::ParamType> &i) {
        return std::get<0>(i.param) + "_" + std::get<1>(i.param).name;
    });

TEST(Lockstep, PaperModeMatchesPreRefactorTable2Reference)
{
    // Checked-in pre-MemorySystem-refactor results: default (paper
    // mode) MemoryParams must keep every Table-2 job bit-identical —
    // cycle count, retired count, and the full cycle stack. The old
    // dcache_miss cause maps to dcache_mem; dcache_l2 must stay zero
    // without an L2 (tests/table2_reference.hh).
    static_assert(obs::kNumStallCauses ==
                      std::tuple_size_v<decltype(
                          tests::Table2Reference{}.stackSlotCycles)>,
                  "taxonomy changed: regenerate tests/table2_reference.hh "
                  "with a mapping from the checked-in causes");
    for (const auto &ref : tests::kTable2Reference) {
        SCOPED_TRACE(std::string(ref.benchmark) + "/" + ref.machine +
                     "/" + ref.scheduler);
        runner::JobSpec spec;
        spec.benchmark = ref.benchmark;
        spec.machine = ref.machine;
        spec.scheduler = ref.scheduler;
        spec.scale = 0.05;
        spec.maxInsts = 20'000;
        spec.threshold = 4;
        spec.traceSeed = 42;
        spec.profileSeed = 42;
        const runner::JobResult r = runner::runJob(spec);
        ASSERT_EQ(r.status, runner::JobStatus::Ok) << r.error;
        EXPECT_EQ(r.cycles, ref.cycles);
        EXPECT_EQ(r.retired, ref.retired);
        EXPECT_EQ(r.stackSlots, ref.stackSlots);
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
            EXPECT_EQ(r.stackSlotCycles[i], ref.stackSlotCycles[i])
                << "stack cause "
                << obs::stallCauseName(static_cast<obs::StallCause>(i));
    }
}

TEST(Lockstep, ScenariosBitIdenticalAcrossEngines)
{
    const auto ref = harness::runScenarios(/*idle_skip=*/false);
    const auto wake = harness::runScenarios(/*idle_skip=*/true);
    ASSERT_EQ(ref.size(), wake.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE("scenario " + std::to_string(ref[i].number));
        EXPECT_EQ(ref[i].totalCycles, wake[i].totalCycles);
        EXPECT_EQ(ref[i].dual, wake[i].dual);
        auto sameStream =
            [](const std::vector<core::TimelineRecord> &a,
               const std::vector<core::TimelineRecord> &b) {
                if (a.size() != b.size())
                    return false;
                for (std::size_t j = 0; j < a.size(); ++j)
                    if (a[j].cycle != b[j].cycle ||
                        a[j].seq != b[j].seq ||
                        a[j].cluster != b[j].cluster ||
                        a[j].event != b[j].event)
                        return false;
                return true;
            };
        EXPECT_TRUE(
            sameStream(ref[i].addEvents, wake[i].addEvents));
        EXPECT_TRUE(sameStream(ref[i].producerEvents,
                               wake[i].producerEvents));
        EXPECT_EQ(ref[i].stack.slotCycles, wake[i].stack.slotCycles);
        EXPECT_EQ(ref[i].stack.cycles, wake[i].stack.cycles);
        EXPECT_TRUE(wake[i].stack.conserved());
    }
}

} // namespace
