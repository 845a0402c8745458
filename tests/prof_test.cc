/**
 * @file
 * Host-profiler tests (src/prof).
 *
 * The contracts under test:
 *  - disabled scopes record nothing (and stay recording-free after a
 *    reset), so the default path carries no profile state;
 *  - nested scopes account self vs total time correctly: a region's
 *    total includes its children, self = total - children, and every
 *    call is counted;
 *  - the merged snapshot is deterministic across worker widths: the
 *    same sampled run at jobs=1 and jobs=3 yields trees with
 *    identical structure and call counts (only nanoseconds differ);
 *  - requesting hardware counters never breaks time profiling: when
 *    perf_event_open is unavailable the profile is still complete and
 *    says so in its header;
 *  - the JSON export is well-formed and carries the whole tree;
 *  - profiling enabled vs disabled does not perturb simulated results
 *    (bit-identical cycle and instruction counts and statistics, the
 *    cache counters included), on a cache-friendly program and on one
 *    that misses or merges on nearly every access.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "prof/prof.hh"
#include "sample/driver.hh"
#include "sample/spec.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

/** Every test leaves the profiler the way the suite found it: off and
 *  empty. The fixture enforces that even on assertion failure. */
class ProfTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        prof::setEnabled(false);
        prof::setHwEnabled(false);
        prof::reset();
    }
};

/** Spin until the steady clock visibly advances, so a region's time is
 *  reliably nonzero without sleeping. */
void
burnClock()
{
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::microseconds(50)) {
    }
}

TEST_F(ProfTest, DisabledScopesRecordNothing)
{
    prof::reset();
    ASSERT_FALSE(prof::enabled());
    {
        PROF_SCOPE("prof_test.off");
        burnClock();
    }
    const prof::Profile p = prof::snapshot();
    EXPECT_EQ(p.threads, 0u);
    EXPECT_TRUE(p.root.children.empty());
    EXPECT_EQ(p.root.totalNs, 0u);
}

TEST_F(ProfTest, NestedScopesAccountSelfAndTotal)
{
    prof::reset();
    prof::setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        PROF_SCOPE("prof_test.outer");
        burnClock();
        {
            PROF_SCOPE("prof_test.inner");
            burnClock();
        }
        {
            PROF_SCOPE("prof_test.inner");
            burnClock();
        }
    }
    prof::setEnabled(false);
    const prof::Profile p = prof::snapshot();

    const prof::ProfileNode *outer = p.root.child("prof_test.outer");
    ASSERT_NE(outer, nullptr);
    EXPECT_EQ(outer->calls, 3u);
    const prof::ProfileNode *inner = outer->child("prof_test.inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->calls, 6u);
    // find() walks the same path.
    EXPECT_EQ(p.root.find({"prof_test.outer", "prof_test.inner"}),
              inner);

    // total = self + children, and the burn loops guarantee both self
    // and child time are visible.
    EXPECT_EQ(outer->totalNs, outer->selfNs() + outer->childNs);
    EXPECT_EQ(outer->childNs, inner->totalNs);
    EXPECT_GT(outer->selfNs(), 0u);
    EXPECT_GT(inner->totalNs, 0u);
    EXPECT_GE(outer->totalNs, inner->totalNs);

    // The root aggregates every top-level region and the wall clock
    // spans at least the instrumented time.
    EXPECT_GE(p.root.totalNs, outer->totalNs);
    EXPECT_GE(p.wallNs, p.root.totalNs);
    EXPECT_EQ(p.threads, 1u);
}

/** Structure and call counts (not nanoseconds) of two trees match. */
void
expectSameShape(const prof::ProfileNode &a, const prof::ProfileNode &b,
                const std::string &path)
{
    EXPECT_EQ(a.name, b.name) << "at " << path;
    EXPECT_EQ(a.calls, b.calls) << "at " << path << "/" << a.name;
    ASSERT_EQ(a.children.size(), b.children.size())
        << "at " << path << "/" << a.name;
    for (std::size_t i = 0; i < a.children.size(); ++i)
        expectSameShape(a.children[i], b.children[i],
                        path + "/" + a.name);
}

TEST_F(ProfTest, MergeIsDeterministicAcrossThreadPoolWidths)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.1});
    compiler::CompileOptions copt =
        compiler::compileOptionsFor("local", 2);
    const auto out = compiler::compile(program, copt);
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = out.hardwareMap(2);

    sample::SampledDriver driver(out.binary, cfg, 42, 40'000);

    auto profiledRun = [&](unsigned jobs) {
        const sample::SampleSpec spec = {
            .period = 8000, .detail = 1000, .warmup = 200, .jobs = jobs};
        prof::reset();
        prof::setEnabled(true);
        const auto rep = driver.run(spec);
        prof::setEnabled(false);
        EXPECT_GT(rep.intervals.size(), 1u);
        return prof::snapshot();
    };

    const prof::Profile serial = profiledRun(1);
    const prof::Profile parallel = profiledRun(3);

    // jobs=1 runs everything on one worker; jobs=3 spreads the same
    // intervals across three. The merged tree must not care.
    expectSameShape(serial.root, parallel.root, "");
    EXPECT_GE(parallel.threads, serial.threads);
}

TEST_F(ProfTest, HwCountersDegradeGracefully)
{
    prof::reset();
    prof::setHwEnabled(true);
    prof::setEnabled(true);
    {
        PROF_SCOPE("prof_test.hw");
        burnClock();
    }
    prof::setEnabled(false);
    const prof::Profile p = prof::snapshot();

    // Whatever the kernel said, time profiling worked...
    const prof::ProfileNode *node = p.root.child("prof_test.hw");
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->calls, 1u);
    EXPECT_GT(node->totalNs, 0u);
    // ...and the availability bit is consistent with the data: no hw
    // samples unless the group opened.
    EXPECT_EQ(p.hwAvailable, prof::hwAvailable());
    if (!p.hwAvailable)
        EXPECT_FALSE(node->hw.valid);
    else
        EXPECT_GT(node->hw.cycles, 0u);
}

TEST_F(ProfTest, JsonExportIsWellFormed)
{
    prof::reset();
    prof::setEnabled(true);
    {
        PROF_SCOPE("prof_test.json \"quoted\"");
        burnClock();
        PROF_SCOPE("prof_test.json_child");
        burnClock();
    }
    prof::setEnabled(false);
    const std::string json = prof::snapshot().jsonString();

    // Structural sanity; the full round-trip through a JSON parser is
    // exercised by scripts/prof_report.py in ci.sh.
    EXPECT_EQ(json.front(), '{');
    long depth = 0;
    for (const char c : json) {
        if (c == '{') ++depth;
        if (c == '}') --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_NE(json.find("\"version\""), std::string::npos);
    EXPECT_NE(json.find("\"wall_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"root\""), std::string::npos);
    EXPECT_NE(json.find("prof_test.json \\\"quoted\\\""),
              std::string::npos);
    EXPECT_NE(json.find("prof_test.json_child"), std::string::npos);
}

/** Calls recorded for region `name` anywhere below `node`. */
std::uint64_t
callsOf(const prof::ProfileNode &node, const std::string &name)
{
    std::uint64_t calls = node.name == name ? node.calls : 0;
    for (const auto &child : node.children)
        calls += callsOf(child, name);
    return calls;
}

TEST_F(ProfTest, ProfilingDoesNotPerturbSimulation)
{
    // compress hits in the L1s on most accesses; the pointer chase
    // misses or merges with an in-flight fill on nearly every load.
    const workloads::WorkloadParams wp{0.1};
    for (const prog::Program &program :
         {workloads::makeCompress(wp), workloads::makePointerChase(wp)}) {
        SCOPED_TRACE(program.name);
        compiler::CompileOptions copt =
            compiler::compileOptionsFor("local", 2);
        const auto out = compiler::compile(program, copt);

        struct Run
        {
            core::SimResult result;
            std::string statsJson;
        };
        auto simulate = [&] {
            auto cfg = core::ProcessorConfig::dualCluster8();
            cfg.regMap = out.hardwareMap(2);
            StatGroup stats("prof_test");
            exec::ProgramTrace trace(out.binary, 42, 40'000);
            core::Processor cpu(cfg, trace, stats);
            Run run{cpu.run(), {}};
            std::ostringstream json;
            stats.dumpJson(json);
            run.statsJson = json.str();
            return run;
        };

        const Run plain = simulate();
        prof::reset();
        prof::setEnabled(true);
        const Run profiled = simulate();
        prof::setEnabled(false);

        // Bit-identical simulated results: the profiler observes the
        // simulator, never the other way around, and a profiled run
        // runs the same cache code as a plain one.
        EXPECT_EQ(plain.result.cycles, profiled.result.cycles);
        EXPECT_EQ(plain.result.instructions, profiled.result.instructions);
        EXPECT_EQ(plain.result.completed, profiled.result.completed);
        EXPECT_EQ(plain.statsJson, profiled.statsJson);

        // And the profiled run did record the hot stages and every
        // access to both L1s.
        const prof::Profile p = prof::snapshot();
        EXPECT_NE(p.root.child("core.dispatch"), nullptr);
        EXPECT_NE(p.root.child("core.retire"), nullptr);
        EXPECT_GT(callsOf(p.root, "mem.icache"), 0u);
        EXPECT_GT(callsOf(p.root, "mem.dcache"), 0u);
    }
}

} // namespace
