/**
 * @file
 * Sampled-simulation tests (src/sample).
 *
 * The contracts under test:
 *  - a plan's validation rejects infeasible plans;
 *  - sampled CPI tracks the full detailed run's CPI closely;
 *  - a sampled run is deterministic, and parallel measurement
 *    (jobs > 1) is bit-identical to serial (jobs = 1);
 *  - every measured interval's cycle stack conserves retire slots;
 *  - functional warming a basic block at a time leaves the machine
 *    byte-identical to warming an instruction at a time, and it reads
 *    only program traces.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "bpred/predictors.hh"
#include "ckpt/snapshot.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "isa/opcodes.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "runner/jobspec.hh"
#include "sample/driver.hh"
#include "sample/functional.hh"
#include "sample/spec.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

constexpr std::uint64_t kTraceSeed = 42;
constexpr std::uint64_t kMaxInsts = 120'000;

struct Compiled
{
    prog::MachProgram binary;
    isa::RegisterMap map;
};

Compiled
compileBenchmark(const std::string &name, unsigned clusters)
{
    const auto &bench = workloads::benchmarkByName(name);
    const prog::Program program = bench.make({});
    compiler::CompileOptions copt =
        compiler::compileOptionsFor(clusters > 1 ? "local" : "native",
                                    clusters);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    return Compiled{out.binary, out.hardwareMap(clusters)};
}

core::ProcessorConfig
dualConfig(const isa::RegisterMap &map)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = map;
    return cfg;
}

/** Full detailed run: exact CPI to compare the estimate against. */
double
fullRunCpi(const Compiled &c, std::uint64_t *insts_out = nullptr)
{
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    const auto res = proc.run();
    if (insts_out)
        *insts_out = res.instructions;
    return static_cast<double>(res.cycles) /
           static_cast<double>(res.instructions);
}

sample::SampleSpec
testSpec(unsigned jobs = 1)
{
    sample::SampleSpec spec;
    spec.period = 15'000;
    spec.detail = 3'000;
    spec.warmup = 1'000;
    spec.jobs = jobs;
    return spec;
}

// --- plan validation -------------------------------------------------

TEST(SampleSpec, RejectsBadInput)
{
    const auto plan = [](std::uint64_t period, std::uint64_t detail,
                         std::uint64_t warmup, unsigned jobs = 1) {
        return sample::SampleSpec{.period = period,
                                  .detail = detail,
                                  .warmup = warmup,
                                  .jobs = jobs};
    };
    EXPECT_NO_THROW(plan(1000, 800, 200).validate());
    EXPECT_THROW(plan(0, 1, 0).validate(), std::runtime_error);
    EXPECT_THROW(plan(1000, 0, 0).validate(), std::runtime_error);
    EXPECT_THROW(plan(1000, 800, 200, 0).validate(), std::runtime_error);
    // warmup + detail must fit inside one period, also where the sum
    // wraps past 2^64.
    EXPECT_THROW(plan(1000, 900, 200).validate(), std::runtime_error);
    EXPECT_THROW(plan(1000, 1001, 0).validate(), std::runtime_error);
    EXPECT_THROW(plan(20000, 1, UINT64_MAX).validate(), std::runtime_error);
}

// --- sampled execution ----------------------------------------------

TEST(SampledRun, CpiTracksFullRun)
{
    const auto c = compileBenchmark("compress", 2);
    std::uint64_t fullInsts = 0;
    const double fullCpi = fullRunCpi(c, &fullInsts);

    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto rep = driver.run(testSpec());

    ASSERT_GE(rep.intervals.size(), 4u);
    EXPECT_EQ(rep.totalInsts, fullInsts);
    EXPECT_GT(rep.cpiMean, 0.0);
    const double relErr = std::fabs(rep.cpiMean - fullCpi) / fullCpi;
    EXPECT_LT(relErr, 0.10) << "sampled " << rep.cpiMean << " vs full "
                            << fullCpi;
    // The estimate pays far fewer detailed instructions than the run
    // it predicts.
    EXPECT_LT(rep.detailedInsts, rep.totalInsts / 2);
}

TEST(SampledRun, DeterministicAcrossRuns)
{
    const auto c = compileBenchmark("ora", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto a = driver.run(testSpec());
    const auto b = driver.run(testSpec());

    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    EXPECT_EQ(a.cpiMean, b.cpiMean);
    EXPECT_EQ(a.estTotalCycles, b.estTotalCycles);
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        EXPECT_EQ(a.intervals[i].startInst, b.intervals[i].startInst);
        EXPECT_EQ(a.intervals[i].cycles, b.intervals[i].cycles);
        EXPECT_EQ(a.intervals[i].instructions, b.intervals[i].instructions);
    }
}

TEST(SampledRun, ParallelMatchesSerial)
{
    const auto c = compileBenchmark("gcc1", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto serial = driver.run(testSpec(1));
    const auto parallel = driver.run(testSpec(4));

    ASSERT_EQ(serial.intervals.size(), parallel.intervals.size());
    EXPECT_EQ(serial.cpiMean, parallel.cpiMean);
    EXPECT_EQ(serial.cpiStdDev, parallel.cpiStdDev);
    EXPECT_EQ(serial.estTotalCycles, parallel.estTotalCycles);
    for (std::size_t i = 0; i < serial.intervals.size(); ++i) {
        EXPECT_EQ(serial.intervals[i].cycles, parallel.intervals[i].cycles);
        EXPECT_EQ(serial.intervals[i].stack.totalSlotCycles(),
                  parallel.intervals[i].stack.totalSlotCycles());
    }
}

TEST(SampledRun, EveryIntervalConservesCycleStack)
{
    const auto c = compileBenchmark("su2cor", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto rep = driver.run(testSpec());

    ASSERT_FALSE(rep.intervals.empty());
    EXPECT_TRUE(rep.allConserved);
    for (const auto &iv : rep.intervals) {
        EXPECT_TRUE(iv.conserved) << "interval " << iv.index;
        EXPECT_EQ(iv.stack.totalSlotCycles(),
                  static_cast<std::uint64_t>(iv.stack.slots) *
                      iv.stack.cycles);
        EXPECT_GT(iv.instructions, 0u);
        EXPECT_GT(iv.cycles, 0u);
    }
}

TEST(SampledRun, SingleClusterAlsoSamples)
{
    const auto c = compileBenchmark("compress", 1);
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.regMap = c.map;
    const double fullCpi = [&] {
        StatGroup sg("mca");
        exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
        core::Processor proc(cfg, trace, sg);
        const auto res = proc.run();
        return static_cast<double>(res.cycles) /
               static_cast<double>(res.instructions);
    }();

    sample::SampledDriver driver(c.binary, cfg, kTraceSeed, kMaxInsts);
    const auto rep = driver.run(testSpec());
    ASSERT_FALSE(rep.intervals.empty());
    const double relErr = std::fabs(rep.cpiMean - fullCpi) / fullCpi;
    EXPECT_LT(relErr, 0.10);
}

// --- functional warming ---------------------------------------------

/**
 * Reference: the instruction-at-a-time warm loop that FunctionalWarmer
 * replaced. Every instruction comes through TraceSource::next; it
 * touches the I-cache when its fetch block differs from the last one
 * touched, the D-cache if it is a memory op, and trains the predictor
 * if it is a conditional branch, each at its own synthetic cycle.
 */
class InstructionWarmer
{
  public:
    explicit InstructionWarmer(core::Processor &proc)
        : proc_(proc),
          blockBytes_(proc.memorySystem().icache().params().blockBytes)
    {
    }

    std::uint64_t
    advance(std::uint64_t n)
    {
        mem::Cache &icache = proc_.memorySystem().icache();
        mem::Cache &dcache = proc_.memorySystem().dcache();
        bpred::Predictor &pred = proc_.predictor();
        exec::DynInst di;
        std::uint64_t done = 0;
        while (done < n) {
            if (!proc_.trace().next(di)) {
                ended_ = true;
                break;
            }
            ++now_;
            const Addr block = di.pc / blockBytes_;
            if (block != lastFetchBlock_) {
                icache.accessFast(di.pc, /*is_write=*/false, now_);
                lastFetchBlock_ = block;
            }
            if (isa::isMemOp(di.mi.op))
                dcache.accessFast(di.effAddr, isa::isStore(di.mi.op), now_);
            if (isa::isCondBranch(di.mi.op))
                pred.update(di.pc, di.taken);
            if (isa::isCtrlFlow(di.mi.op) && di.taken)
                lastFetchBlock_ = ~Addr{0};
            ++consumed_;
            ++done;
        }
        return done;
    }

    std::uint64_t consumed() const { return consumed_; }
    bool ended() const { return ended_; }

  private:
    core::Processor &proc_;
    unsigned blockBytes_;
    Addr lastFetchBlock_ = ~Addr{0};
    Cycle now_ = 0;
    std::uint64_t consumed_ = 0;
    bool ended_ = false;
};

/** The payload the sampled driver would snapshot from `proc` now. */
std::string
warmPayload(core::Processor &proc)
{
    proc.memorySystem().settle();
    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    return b.finish().payload;
}

/**
 * Warm one machine with each warmer over a trace of `binary` capped at
 * `max_insts`, stopping at each of `cuts` (ascending positions; one
 * past the trace's end asks for more than is left), and require equal
 * results, counts, end flags and snapshot payloads at every stop.
 */
void
expectSameWarming(const prog::MachProgram &binary,
                  const core::ProcessorConfig &cfg, std::uint64_t max_insts,
                  const std::vector<std::uint64_t> &cuts,
                  const std::string &where)
{
    StatGroup refStats("mca"), blockStats("mca");
    exec::ProgramTrace refTrace(binary, kTraceSeed, max_insts);
    exec::ProgramTrace blockTrace(binary, kTraceSeed, max_insts);
    core::Processor refProc(cfg, refTrace, refStats);
    core::Processor blockProc(cfg, blockTrace, blockStats);
    InstructionWarmer ref(refProc);
    sample::FunctionalWarmer block(blockProc);
    for (const std::uint64_t cut : cuts) {
        SCOPED_TRACE(where + " cut " + std::to_string(cut));
        const std::uint64_t n = cut - ref.consumed();
        EXPECT_EQ(block.advance(n), ref.advance(n));
        EXPECT_EQ(block.consumed(), ref.consumed());
        EXPECT_EQ(block.ended(), ref.ended());
        EXPECT_TRUE(warmPayload(blockProc) == warmPayload(refProc));
    }
}

TEST(FunctionalWarming, BlockWarmingMatchesInstructionWarming)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.2;
    for (const char *name :
         {"compress", "doduc", "gcc1", "ora", "su2cor", "tomcatv"}) {
        const prog::Program program =
            workloads::benchmarkByName(name).make(wp);
        for (const char *machine : {"dual8", "quad8"}) {
            runner::JobSpec spec;
            spec.machine = machine;
            core::ProcessorConfig cfg = runner::machineConfigFor(spec);
            compiler::CompileOptions copt =
                compiler::compileOptionsFor("local", cfg.numClusters);
            copt.profileSeed = kTraceSeed;
            const auto out = compiler::compile(program, copt);

            // Where each block run of the whole program ends, and the
            // program's length.
            std::vector<std::uint64_t> runEnds;
            std::vector<std::uint64_t> runLengths;
            {
                exec::ProgramTrace walk(out.binary, kTraceSeed);
                exec::BlockRun run;
                std::uint64_t n = 0;
                while (const std::uint64_t k =
                           walk.nextRun(run, ~std::uint64_t{0})) {
                    n += k;
                    runEnds.push_back(n);
                    runLengths.push_back(k);
                }
            }
            ASSERT_GT(runEnds.size(), 4u) << name;
            const std::uint64_t length = runEnds.back();
            // The first block end from position `from` on that a block
            // of at least two instructions follows.
            const auto blockEndBefore2 = [&](std::uint64_t from) {
                for (std::size_t j = 0; j + 1 < runEnds.size(); ++j)
                    if (runEnds[j] >= from && runLengths[j + 1] >= 2)
                        return runEnds[j];
                ADD_FAILURE() << name << ": no block of 2+ instructions";
                return runEnds[0];
            };
            const std::uint64_t mid = blockEndBefore2(length / 3) + 1;
            const std::uint64_t end = blockEndBefore2(2 * length / 3);
            ASSERT_LT(mid, end);
            const std::uint64_t cap = blockEndBefore2(length / 2) + 1;

            for (const unsigned l2Kb : {0u, 256u}) {
                spec.l2Kb = l2Kb;
                cfg = runner::machineConfigFor(spec);
                cfg.regMap = out.hardwareMap(cfg.numClusters);
                const std::string where = std::string(name) + "/" +
                                          machine + "/l2=" +
                                          std::to_string(l2Kb);
                // Uncapped: small steps, a cut inside a block, one at a
                // block end, one just before and one exactly at the
                // program's end, then past it.
                expectSameWarming(out.binary, cfg, ~std::uint64_t{0},
                                  {1, 3, 10, mid, end, length - 1, length,
                                   length + 1000},
                                  where);
                // A max_insts cap inside a block: reached exactly, then
                // asked past, and crossed in a single advance.
                expectSameWarming(out.binary, cfg, cap,
                                  {cap - 1, cap, cap + 100}, where + "/cap");
                expectSameWarming(out.binary, cfg, cap, {cap + 100},
                                  where + "/cap in one step");
            }
        }
    }
}

TEST(FunctionalWarming, RejectsATraceThatIsNotAProgram)
{
    std::vector<exec::DynInst> insts(4);
    exec::VectorTrace trace(exec::VectorTrace::normalize(insts));
    StatGroup sg("mca");
    core::Processor proc(core::ProcessorConfig::singleCluster8(), trace, sg);
    try {
        sample::FunctionalWarmer warmer(proc);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ(e.what(),
                     "FunctionalWarmer: warming reads a program trace, and "
                     "this processor's trace is another source");
    }
}

} // namespace
