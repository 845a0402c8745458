#include "sample/driver.hh"

#include <chrono>
#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "ckpt/snapshot.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "exec/walker.hh"
#include "mem/memory.hh"
#include "prof/prof.hh"
#include "sample/functional.hh"
#include "support/stats.hh"

namespace mca::sample
{

namespace
{

/** Salt decorrelating the systematic phase from the trace streams. */
constexpr std::uint64_t kPhaseSalt = 0x5a3f1e;

/**
 * Restore `snap` into a fresh machine, run the detailed warmup, then
 * measure `spec.detail` instructions with a cycle stack attached.
 */
IntervalResult
measureInterval(const prog::MachProgram &binary,
                const core::ProcessorConfig &config, std::uint64_t seed,
                std::uint64_t max_insts, const ckpt::Snapshot &snap,
                std::uint64_t start_inst, std::uint64_t index,
                const SampleSpec &spec)
{
    PROF_SCOPE("sample.measure");
    IntervalResult out;
    out.index = index;
    out.startInst = start_inst;

    const auto t0 = std::chrono::steady_clock::now();
    StatGroup sg("mca");
    exec::ProgramTrace trace(binary, seed, max_insts);
    core::Processor proc(config, trace, sg);
    {
        PROF_SCOPE("sample.restore");
        ckpt::SnapshotParser parser(snap, proc.configHash());
        proc.loadState(parser);
    }
    out.restoreHostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());

    obs::CycleStack stack;
    proc.attachCycleStack(&stack);

    // The warming pass never stepped the pipeline, so the restored
    // retired-count starts at zero and targets are interval-relative.
    proc.runUntilRetired(spec.warmup);
    out.warmupInsts = proc.retiredInstructions();

    const Cycle measureFrom = proc.now();
    stack.reset();
    proc.runUntilRetired(spec.warmup + spec.detail);

    out.instructions = proc.retiredInstructions() - out.warmupInsts;
    out.cycles = proc.now() - measureFrom;
    out.cpi = out.instructions != 0
                  ? static_cast<double>(out.cycles) /
                        static_cast<double>(out.instructions)
                  : 0.0;
    out.stack = stack;
    out.conserved = stack.conserved();
    out.hostNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    return out;
}

} // namespace

void
SampleReport::dumpJson(std::ostream &os) const
{
    os << "{\"period\": " << spec.period << ", \"detail\": " << spec.detail
       << ", \"warmup\": " << spec.warmup
       << ", \"total_insts\": " << totalInsts
       << ", \"detailed_insts\": " << detailedInsts
       << ", \"intervals\": " << intervals.size()
       << ", \"cpi_mean\": " << cpiMean
       << ", \"cpi_stddev\": " << cpiStdDev
       << ", \"cpi_ci95\": " << cpiCi95
       << ", \"est_total_cycles\": " << estTotalCycles
       << ", \"all_conserved\": " << (allConserved ? "true" : "false")
       << ", \"interval_table\": [";
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        const IntervalResult &iv = intervals[i];
        os << (i ? ", " : "") << "{\"start\": " << iv.startInst
           << ", \"insts\": " << iv.instructions
           << ", \"cycles\": " << iv.cycles << ", \"cpi\": " << iv.cpi
           << ", \"conserved\": " << (iv.conserved ? "true" : "false")
           << ", \"restore_ms\": "
           << static_cast<double>(iv.restoreHostNs) / 1e6 << "}";
    }
    os << "]}\n";
}

SampledDriver::SampledDriver(prog::MachProgram binary,
                             const core::ProcessorConfig &config,
                             std::uint64_t trace_seed,
                             std::uint64_t max_insts)
    : binary_(std::move(binary)), config_(config), seed_(trace_seed),
      maxInsts_(max_insts)
{
}

SampleReport
SampledDriver::run(const SampleSpec &spec) const
{
    spec.validate();

    SampleReport rep;
    rep.spec = spec;

    const std::uint64_t phase =
        exec::hashSeed(seed_, kPhaseSalt, 0) % spec.period;

    // Both passes run as one task graph: warm_k advances the shared
    // warmer to interval k's start and snapshots it, warm_k → warm_k+1
    // chain edges serialize the shared state (every edge is a
    // happens-before through the executor), and measure_k depends only
    // on warm_k — so window k measures while window k+1 warms. The
    // node count is the static upper bound on interval starts
    // (s_k = phase + k*period <= maxInsts); windows past the actual
    // trace end warm to nothing and their default slots are trimmed
    // below, exactly like the old sequential loop's break.
    const std::uint64_t nWindows =
        phase <= maxInsts_ ? (maxInsts_ - phase) / spec.period + 1 : 0;

    StatGroup sg("mca");
    exec::ProgramTrace trace(binary_, seed_, maxInsts_);
    core::Processor proc(config_, trace, sg);
    FunctionalWarmer warmer(proc);
    bool traceDone = false; // touched only by chain-ordered warm nodes

    std::vector<ckpt::Snapshot> snaps(nWindows);
    std::vector<char> hasSnap(nWindows, 0);
    std::vector<std::uint64_t> starts(nWindows, 0);
    rep.intervals.resize(nWindows);

    taskgraph::TaskGraph graph;
    std::vector<taskgraph::NodeId> warmNodes(nWindows);
    std::vector<taskgraph::NodeId> measureNodes(nWindows);
    for (std::uint64_t k = 0; k < nWindows; ++k) {
        const std::uint64_t target = phase + k * spec.period;
        warmNodes[k] = graph.add(
            "warm " + std::to_string(k), "warm", [&, k, target] {
                if (traceDone)
                    return;
                PROF_SCOPE("sample.warm");
                warmer.advance(target - warmer.consumed());
                if (warmer.ended()) {
                    traceDone = true;
                    return;
                }
                // Snapshots must capture quiescent hierarchies: retire
                // all in-flight fills so restore needs no event replay.
                proc.memorySystem().settle();
                PROF_SCOPE("sample.snapshot");
                ckpt::SnapshotBuilder b(proc.configHash());
                proc.saveState(b);
                snaps[k] = b.finish();
                starts[k] = warmer.consumed();
                hasSnap[k] = 1;
            });
        measureNodes[k] = graph.add(
            "measure " + std::to_string(k), "measure", [&, k] {
                if (!hasSnap[k])
                    return; // past trace end; slot trimmed below
                rep.intervals[k] = measureInterval(
                    binary_, config_, seed_, maxInsts_, snaps[k],
                    starts[k], k, spec);
                snaps[k] = ckpt::Snapshot{}; // free the payload early
            });
        if (k > 0)
            graph.addEdge(warmNodes[k - 1], warmNodes[k]);
        graph.addEdge(warmNodes[k], measureNodes[k]);
    }
    // The warming pass always consumes the full trace (totalInsts is
    // the extrapolation base), even when the last interval start falls
    // short of the end.
    const taskgraph::NodeId drain =
        graph.add("warm drain", "warm", [&] {
            PROF_SCOPE("sample.warm");
            while (!warmer.ended())
                warmer.advance(spec.period);
            rep.totalInsts = warmer.consumed();
        });
    if (nWindows > 0)
        graph.addEdge(warmNodes[nWindows - 1], drain);

    const taskgraph::Executor executor(spec.jobs);
    rep.taskSpans = executor.run(graph).spans;

    // Surface node failures with the same messages the sequential
    // driver threw: warming errors propagate as-is, measurement errors
    // name the lowest failing interval.
    for (std::uint64_t k = 0; k < nWindows; ++k)
        if (graph.status(warmNodes[k]) == taskgraph::NodeStatus::Failed)
            throw std::runtime_error(graph.error(warmNodes[k]));
    if (graph.status(drain) == taskgraph::NodeStatus::Failed)
        throw std::runtime_error(graph.error(drain));
    for (std::uint64_t k = 0; k < nWindows; ++k)
        if (graph.status(measureNodes[k]) ==
            taskgraph::NodeStatus::Failed)
            throw std::runtime_error("sample: interval " +
                                     std::to_string(k) + " failed: " +
                                     graph.error(measureNodes[k]));

    // Trim windows past the trace end (never snapshotted), then any
    // interval snapshotted too close to the end to retire anything
    // inside the measured window.
    std::size_t snapCount = 0;
    while (snapCount < nWindows && hasSnap[snapCount])
        ++snapCount;
    rep.intervals.resize(snapCount);
    while (!rep.intervals.empty() &&
           rep.intervals.back().instructions == 0)
        rep.intervals.pop_back();

    // --- Extrapolate.
    double sum = 0.0;
    for (const IntervalResult &iv : rep.intervals) {
        sum += iv.cpi;
        rep.detailedInsts += iv.warmupInsts + iv.instructions;
        rep.allConserved = rep.allConserved && iv.conserved;
    }
    const std::size_t k = rep.intervals.size();
    if (k > 0) {
        rep.cpiMean = sum / static_cast<double>(k);
        if (k > 1) {
            double ss = 0.0;
            for (const IntervalResult &iv : rep.intervals) {
                const double d = iv.cpi - rep.cpiMean;
                ss += d * d;
            }
            rep.cpiStdDev = std::sqrt(ss / static_cast<double>(k - 1));
            rep.cpiCi95 =
                1.96 * rep.cpiStdDev / std::sqrt(static_cast<double>(k));
        }
        rep.estTotalCycles =
            rep.cpiMean * static_cast<double>(rep.totalInsts);
    }
    return rep;
}

} // namespace mca::sample
