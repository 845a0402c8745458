/**
 * @file
 * mcasim — the command-line driver for the multicluster simulator.
 *
 * Covers the full workflow from one binary: generate or load a
 * workload, compile it with any scheduler, save/replay trace files,
 * pick a machine, override the major configuration knobs, and dump
 * statistics or per-instruction timelines.
 *
 *   mcasim --benchmark compress --machine dual8 --scheduler local
 *   mcasim --benchmark ora --save-trace ora.mct
 *   mcasim --load-trace ora.mct --machine single8 --dump-stats
 *   mcasim --random-seed 7 --machine dual8 --timeline 40
 *   mcasim --benchmark gcc1 --scale 10 --sample-period 400000 --jobs 4
 *
 * A flag the chosen run would not read (say, --cycle-stacks on a
 * sampled run, or --scheduler on a --load-trace replay) is a usage
 * error naming it, never silently ignored. A run that spends its
 * --max-cycles budget prints what it ran, then exits 1.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ckpt/snapshot.hh"
#include "compiler/pass.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "exec/trace_io.hh"
#include "obs/cycle_stack.hh"
#include "obs/perfetto.hh"
#include "obs/sampler.hh"
#include "obs/snapshot.hh"
#include "prof/prof.hh"
#include "runner/flags.hh"
#include "runner/jobspec.hh"
#include "sample/driver.hh"
#include "support/log.hh"
#include "support/panic.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

struct Options
{
    /** The point: workload, compile and machine, as one campaign job. */
    runner::JobSpec spec;
    std::optional<std::uint64_t> randomSeed;
    bool paranoid = false;
    bool noIdleSkip = false;
    std::string saveTrace;
    std::string loadTrace;
    bool dumpStats = false;
    bool jsonStats = false;
    bool dumpBinary = false;
    bool verifyIr = false;
    bool passStats = false;
    std::vector<std::string> dumpAfter;
    unsigned timeline = 0; // print the first N instructions' events
    bool quiet = false;

    // Checkpoint/restore + sampling (docs/sampling.md).
    unsigned jobs = 1;      // sampled-window workers
    std::string ckptOut;    // write one snapshot here
    Cycle ckptAt = 0;       // cycle to take it at (0 = end of run)
    std::string ckptIn;     // restore this snapshot before running
    Cycle ckptEvery = 0;    // periodic snapshot cadence (0 = off)
    std::string ckptDir = "."; // directory for periodic snapshots

    // Observability (all off by default: the plain path is untouched).
    bool cycleStacks = false;
    Cycle intervalStats = 0; // interval length; 0 = no sampling
    std::string statsOut;    // interval rows (.csv => CSV, else JSONL)
    std::string traceOut;    // Chrome trace-event JSON
    unsigned traceInsts = 2000; // slice cap for --trace-out

    // Host-side self-profiling (docs/profiling.md).
    bool prof = false;       // record host-time regions
    std::string profOut;     // write the profile JSON here
    bool profHw = false;     // sample perf_event hardware counters
};

/**
 * Refuse by name a flag that the run `opt` describes would never read:
 * a sampled run and a full one, a trace save, a trace replay and a
 * random program each skip some, and four flags only qualify a partner
 * flag.
 */
void
refuseUnread(const Options &opt, const std::vector<std::string> &given)
{
    using runner::UsageError;
    const auto refuse = [&](std::initializer_list<std::string_view> flags,
                            const std::string &why) {
        for (const auto &flag : given)
            if (std::find(flags.begin(), flags.end(), flag) != flags.end())
                throw UsageError(flag, why);
    };
    const auto was = [&](std::string_view flag) {
        return std::find(given.begin(), given.end(), flag) != given.end();
    };
    if (opt.spec.samplePeriod > 0)
        refuse({"--max-cycles", "--cycle-stacks", "--interval-stats",
                "--stats-out", "--trace-insts", "--timeline", "--pass-stats",
                "--dump-stats", "--ckpt-out", "--ckpt-at", "--ckpt-in",
                "--ckpt-every", "--ckpt-dir"},
               "a sampled run does not read it");
    else
        refuse({"--sample-detail", "--sample-warmup", "--jobs", "-j"},
               "only a sampled run (--sample-period N) reads it");
    if (!opt.saveTrace.empty())
        refuse({"--sample-period", "--max-cycles", "--dump-binary",
                "--dump-stats", "--json", "--timeline", "--pass-stats",
                "--ckpt-out", "--ckpt-at", "--ckpt-in", "--ckpt-every",
                "--ckpt-dir", "--cycle-stacks", "--interval-stats",
                "--stats-out", "--trace-out", "--trace-insts", "--prof",
                "--prof-out", "--prof-hw", "--paranoid", "--no-idle-skip",
                "--predictor", "--l2-kb", "--l2-lat", "--mem-lat",
                "--fill-ports", "--icache-kb", "--dcache-kb", "--dq", "--otb",
                "--rtb", "--mshr", "--queue-mode", "--spec-history",
                "--reserve-oldest"},
               "a --save-trace run writes the trace and simulates nothing");
    if (!opt.loadTrace.empty())
        refuse({"--save-trace", "--sample-period", "--random-seed",
                "--verify-ir", "--dump-after", "--pass-stats", "--dump-binary",
                "--benchmark", "--scheduler", "--partitioner", "--threshold",
                "--scale", "--unroll", "--trace-seed", "--max-insts"},
               "a --load-trace run replays the file and compiles nothing");
    if (opt.randomSeed)
        refuse({"--benchmark", "--scale"},
               "--random-seed generates the program");
    for (const auto &[flag, partner] :
         {std::pair{"--stats-out", "--interval-stats"},
          {"--trace-insts", "--trace-out"},
          {"--ckpt-at", "--ckpt-out"},
          {"--ckpt-dir", "--ckpt-every"}})
        if (was(flag) && !was(partner))
            throw UsageError(flag, std::string("needs ") + partner);
}

/** Parse the command line; a mistake exits with status 2. */
Options
parse(int argc, char **argv)
{
    using namespace runner;
    Options opt;
    FlagTable table = pointFlags(opt.spec);
    const FlagTable jobs = jobsFlags(opt.jobs);
    table.insert(table.end(), jobs.begin(), jobs.end());
    table.insert(table.end(), {
        {"", "", "workload source (instead of --benchmark)", {}},
        {"--random-seed", "N", "random fuzzer program",
         [&](auto &v) { opt.randomSeed = parseUnsigned(v, 0, UINT64_MAX); }},
        {"--load-trace", "FILE", "replay a trace file", store(opt.loadTrace)},
        {"--save-trace", "FILE", "write the trace, exit", store(opt.saveTrace)},
        {"", "", "checks and diagnostics", {}},
        {"--no-idle-skip", "", "reference mode, no skips", set(opt.noIdleSkip)},
        {"--paranoid", "", "check invariants every cycle", set(opt.paranoid)},
        {"--verify-ir", "", "check IR between passes", set(opt.verifyIr)},
        {"--dump-after", "LIST", "print IR after these passes, or all",
         [&](const std::string &v) {
             for (const auto &pass : parseList(v)) {
                 if (pass != "all" && !compiler::isPassName(pass))
                     throw std::runtime_error("unknown pass " + pass +
                                              " (see --list-passes)");
                 opt.dumpAfter.push_back(pass);
             }
         }},
        {"--pass-stats", "", "per-pass time and IR deltas", set(opt.passStats)},
        {"--list-passes", "", "print the passes and exit",
         [](const std::string &) {
             for (const auto &info : compiler::allPasses())
                 std::printf("%-11s %s\n", std::string(info.name).c_str(),
                             std::string(info.description).c_str());
             std::exit(0);
         }},
        {"", "", "results", {}},
        {"--dump-stats", "", "dump the statistics", set(opt.dumpStats)},
        {"--json", "", "dump the statistics as JSON", set(opt.jsonStats)},
        {"--dump-binary", "", "print the compiled binary", set(opt.dumpBinary)},
        {"--timeline", "N", "first N insts' events", number(opt.timeline)},
        {"", "", "checkpoints (docs/sampling.md)", {}},
        {"--ckpt-out", "FILE", "snapshot at --ckpt-at", store(opt.ckptOut)},
        {"--ckpt-at", "N", "cycle of --ckpt-out [end]", number(opt.ckptAt)},
        {"--ckpt-in", "FILE", "restore a snapshot first", store(opt.ckptIn)},
        {"--ckpt-every", "N", "snapshot every N cycles",
         number(opt.ckptEvery, Cycle{1})},
        {"--ckpt-dir", "DIR", "--ckpt-every directory [.]", store(opt.ckptDir)},
        {"", "", "observability (docs/observability.md)", {}},
        {"--cycle-stacks", "", "stall cause per slot", set(opt.cycleStacks)},
        {"--interval-stats", "N", "time-series row every N cycles",
         number(opt.intervalStats, Cycle{1})},
        {"--stats-out", "FILE", "rows (JSONL; .csv: CSV)", store(opt.statsOut)},
        {"--trace-out", "FILE", "Perfetto trace JSON", store(opt.traceOut)},
        {"--trace-insts", "N", "trace slices [2000]", number(opt.traceInsts)},
        {"", "", "host profiling (docs/profiling.md)", {}},
        {"--prof", "", "profile host time by region", set(opt.prof)},
        {"--prof-out", "FILE", "profile JSON (implies --prof)",
         [&](auto &v) { opt.profOut = v; opt.prof = true; }},
        {"--prof-hw", "", "hardware counters (implies --prof)",
         [&](auto &) { opt.profHw = opt.prof = true; }},
    });
    // Note each flag given, so a run can refuse the ones it would not
    // read instead of ignoring them.
    std::vector<std::string> given;
    recordGiven(table, given);
    parseCommandLine("mcasim — multicluster architecture simulator",
                     std::move(table), opt.quiet, argc, argv, [&] {
                         checkPoint(opt.spec);
                         refuseUnread(opt, given);
                     });
    return opt;
}

/**
 * Close out a profiled run: snapshot the merged region tree, write the
 * JSON document to --prof-out, merge a host-profile flame track into
 * the Perfetto trace (when one is being written), and log a one-line
 * digest. Call only after every instrumented scope has closed.
 */
void
finishProfile(const Options &opt, obs::PerfettoExporter *exporter,
              unsigned host_pid)
{
    const prof::Profile profile = prof::snapshot();
    if (!opt.profOut.empty()) {
        std::ofstream out(opt.profOut, std::ios::trunc);
        if (!out)
            MCA_FATAL("cannot write --prof-out file '", opt.profOut,
                      "'");
        profile.dumpJson(out);
    }
    if (exporter)
        exporter->addHostProfile(profile.root, host_pid);
    if (!opt.quiet) {
        const double coverage =
            profile.wallNs != 0
                ? 100.0 * static_cast<double>(profile.root.totalNs) /
                      static_cast<double>(profile.wallNs)
                : 0.0;
        char digest[160];
        std::snprintf(digest, sizeof digest,
                      "%.1f ms wall, %.1f%% in regions, %u thread%s, "
                      "hw counters %s",
                      static_cast<double>(profile.wallNs) / 1e6, coverage,
                      profile.threads, profile.threads == 1 ? "" : "s",
                      prof::hwRequested()
                          ? (profile.hwAvailable ? "on" : "unavailable")
                          : "off");
        MCA_LOG_INFO("prof", digest);
        if (!opt.profOut.empty())
            MCA_LOG_INFO("prof", "wrote profile to ", opt.profOut,
                         " (render with scripts/prof_report.py)");
    }
}

/** One mcasim run; main reports what it throws (a malformed trace
 *  file, say, at open or at its first corrupt record). */
int
simulate(const Options &opt)
{
    core::ProcessorConfig cfg = runner::machineConfigFor(opt.spec);
    cfg.paranoid = opt.paranoid;
    cfg.idleSkip = !opt.noIdleSkip;
    const runner::JobSpec &spec = opt.spec;

    // Enable recording before any instrumented work so Profile::wallNs
    // spans (and the coverage check is honest about) the whole run.
    if (opt.prof) {
        if (opt.profHw)
            prof::setHwEnabled(true);
        prof::setEnabled(true);
    }

    std::unique_ptr<exec::TraceSource> trace;
    std::string source_desc;
    // Kept alive for the whole run: ProgramTrace references the binary.
    std::optional<compiler::CompileOutput> compiled;

    if (!opt.loadTrace.empty()) {
        auto ft = std::make_unique<exec::FileTrace>(opt.loadTrace);
        source_desc = opt.loadTrace + " (" +
                      std::to_string(ft->count()) + " records)";
        // Reconstruct the producing binary's global registers so the
        // replay models them correctly.
        ft->applyGlobals(cfg.regMap);
        trace = std::move(ft);
    } else {
        prog::Program program = [&] {
            PROF_SCOPE("workload");
            if (opt.randomSeed) {
                workloads::RandomProgramParams rp;
                rp.seed = *opt.randomSeed;
                return workloads::makeRandomProgram(rp);
            }
            workloads::WorkloadParams wp;
            wp.scale = spec.scale;
            return workloads::benchmarkByName(spec.benchmark).make(wp);
        }();

        compiler::CompileOptions copt =
            runner::jobCompileOptions(spec, cfg.numClusters);
        copt.verifyIr |= opt.verifyIr;
        copt.dumpAfter = opt.dumpAfter;
        try {
            PROF_SCOPE("compile");
            compiled = compiler::compile(program, copt);
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
        for (const auto &[pass, text] : compiled->dumps)
            std::cout << "=== after pass '" << pass << "' ===\n"
                      << text;
        cfg.regMap = compiled->hardwareMap(cfg.numClusters);
        source_desc = program.name + " / " + spec.scheduler;

        if (!opt.saveTrace.empty()) {
            exec::ProgramTrace pt(compiled->binary, spec.traceSeed,
                                  spec.maxInsts);
            const auto n = exec::writeTrace(opt.saveTrace, pt,
                                            compiled->alloc.globalRegs,
                                            spec.maxInsts);
            if (!opt.quiet)
                std::cout << "wrote " << n << " instructions to "
                          << opt.saveTrace << "\n";
            return 0;
        }
        if (opt.dumpBinary)
            std::cout << prog::dumpProgram(compiled->binary);
        trace = std::make_unique<exec::ProgramTrace>(
            compiled->binary, spec.traceSeed, spec.maxInsts);
    }

    if (spec.samplePeriod > 0) {
        // Sampled run: the driver replays the compiled binary itself
        // (one functional warming pass + K detailed intervals), so it
        // needs the program, not a pre-opened trace.
        sample::SampleReport rep;
        {
            PROF_SCOPE("simulate");
            rep = runner::runSampled(spec, *compiled, cfg, opt.jobs);
        }
        std::cout << source_desc << " on " << spec.machine
                  << " [sampled: period " << spec.samplePeriod << ", detail "
                  << spec.sampleDetail << ", warmup " << spec.sampleWarmup
                  << "]: " << rep.totalInsts
                  << " instructions, est " << rep.estTotalCycles
                  << " cycles (cpi " << rep.cpiMean << " +/- "
                  << rep.cpiCi95 << ", " << rep.intervals.size()
                  << " intervals, " << rep.detailedInsts
                  << " detailed insts)\n";
        if (opt.jsonStats)
            rep.dumpJson(std::cout);

        // Per-window trace: one slice per measured interval placed at
        // its estimated position in the full run (start instruction x
        // mean CPI), with measured-CPI and snapshot-restore-time
        // counter tracks alongside, plus the host profile when --prof.
        if (!opt.traceOut.empty()) {
            obs::PerfettoExporter exporter;
            exporter.nameProcess(0, "sampled windows");
            for (const auto &iv : rep.intervals) {
                const Cycle ts = static_cast<Cycle>(
                    static_cast<double>(iv.startInst) * rep.cpiMean);
                exporter.addSlice("window " + std::to_string(iv.index),
                                  0, 1, ts,
                                  std::max<Cycle>(iv.cycles, 1));
                exporter.addCounterValue("measured CPI", 0, ts, iv.cpi);
                exporter.addCounterValue(
                    "restore ms", 0, ts,
                    static_cast<double>(iv.restoreHostNs) / 1e6);
            }
            // The executor's schedule as its own process: one slice
            // per warm/measure node on its assigned lane, in host
            // microseconds — the picture of window i measuring while
            // window i+1 warms (src/taskgraph/taskgraph.hh).
            exporter.nameProcess(1, "task graph");
            for (const auto &span : rep.taskSpans) {
                const std::uint64_t dur =
                    (span.endNs - span.startNs) / 1000;
                exporter.addSlice(span.name, 1,
                                  static_cast<int>(span.lane) + 1,
                                  span.startNs / 1000,
                                  std::max<std::uint64_t>(dur, 1));
            }
            if (opt.prof)
                finishProfile(opt, &exporter, 2);
            std::ofstream out(opt.traceOut, std::ios::trunc);
            if (!out)
                MCA_FATAL("cannot write --trace-out file '",
                          opt.traceOut, "'");
            exporter.write(out);
            if (!opt.quiet)
                std::cout << "wrote trace to " << opt.traceOut
                          << " (open in ui.perfetto.dev)\n";
        } else if (opt.prof) {
            finishProfile(opt, nullptr, 0);
        }
        return 0;
    }

    StatGroup stats("mcasim");
    core::Processor cpu(cfg, *trace, stats);
    core::TimelineRecorder recorder;
    if (opt.timeline > 0 || !opt.traceOut.empty())
        cpu.attachTimeline(&recorder);

    obs::CycleStack cstack;
    if (opt.cycleStacks)
        cpu.attachCycleStack(&cstack);

    if (!opt.ckptIn.empty()) {
        try {
            const auto snap = ckpt::Snapshot::loadFile(opt.ckptIn);
            ckpt::SnapshotParser parser(snap, cpu.configHash());
            cpu.loadState(parser);
        } catch (const std::exception &e) {
            MCA_FATAL("--ckpt-in '", opt.ckptIn, "': ", e.what());
        }
        if (!opt.quiet)
            std::cout << "restored " << opt.ckptIn << " (cycle "
                      << cpu.now() << ", "
                      << cpu.retiredInstructions() << " retired)\n";
    }

    auto saveSnapshot = [&](const std::string &path) {
        ckpt::SnapshotBuilder builder(cpu.configHash());
        cpu.saveState(builder);
        try {
            builder.finish().saveFile(path);
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
        if (!opt.quiet)
            std::cout << "wrote checkpoint " << path << " (cycle "
                      << cpu.now() << ")\n";
    };
    auto periodicPath = [&](Cycle cycle) {
        char name[32];
        std::snprintf(name, sizeof name, "ckpt_%012llu.mck",
                      static_cast<unsigned long long>(cycle));
        return opt.ckptDir + "/" + name;
    };
    constexpr Cycle kNever = ~Cycle{0};
    Cycle nextEvery = opt.ckptEvery > 0 ? cpu.now() + opt.ckptEvery : kNever;
    // --ckpt-at 0 means "at the end of the run" (saved after the loop).
    const Cycle ckptAt = opt.ckptAt > 0 ? opt.ckptAt : kNever;
    bool ckptOutSaved = opt.ckptOut.empty();

    // Per-cycle observation is needed only for the sampler and the
    // counter tracks; without them the run loop is cpu.run() between
    // stops (zero overhead on the default path).
    const bool per_cycle =
        opt.intervalStats > 0 || !opt.traceOut.empty();
    // Counter tracks sample at the interval period (or a small fixed
    // stride) so long runs do not drown the trace.
    const Cycle counter_stride =
        opt.intervalStats > 0 ? opt.intervalStats : 16;
    obs::PeriodicSampler sampler(
        opt.intervalStats > 0 ? opt.intervalStats : 1);
    obs::PerfettoExporter exporter;
    obs::CycleObs snap;
    core::SimResult result;
    // One top-level region spanning the detailed run (and the
    // checkpoint saves riding on it); closed explicitly below, before
    // the profiler snapshot.
    std::optional<prof::ScopeTimer> simScope(
        std::in_place, prof::internRegion("simulate"));
    // One loop: run to the first of the next checkpoint boundary,
    // --ckpt-at and the cycle budget, then snapshot (between cycles,
    // where saveState is legal) and continue. The resumed segments are
    // bit-identical to one uninterrupted run() (tests/ckpt_test.cc), so
    // checkpoints are free of timing perturbation.
    while (true) {
        const Cycle stop = std::min(
            {nextEvery, ckptOutSaved ? kNever : ckptAt, spec.maxCycles});
        if (per_cycle) {
            // step() never fast-forwards, so every cycle is observed.
            while (cpu.now() < stop && cpu.step()) {
                cpu.observe(snap);
                if (opt.intervalStats > 0)
                    sampler.tick(snap);
                if (!opt.traceOut.empty() &&
                    snap.cycle % counter_stride == 0)
                    exporter.addCounters(snap);
            }
            // At its bound already, run() steps nothing and reports
            // where the run stands.
            result = cpu.run(cpu.now());
        } else {
            result = cpu.run(stop);
        }
        if (result.completed || cpu.now() >= spec.maxCycles)
            break;
        if (!ckptOutSaved && cpu.now() >= ckptAt) {
            saveSnapshot(opt.ckptOut);
            ckptOutSaved = true;
        }
        if (cpu.now() >= nextEvery) {
            saveSnapshot(periodicPath(cpu.now()));
            nextEvery += opt.ckptEvery;
        }
    }
    sampler.finish();
    // --ckpt-at 0 (or a bound past the run's end): snapshot the final
    // state, which restores as a completed machine.
    if (!ckptOutSaved)
        saveSnapshot(opt.ckptOut);
    simScope.reset();

    if (opt.cycleStacks) {
        MCA_ASSERT(cstack.conserved(),
                   "cycle-stack conservation violated: ",
                   cstack.totalSlotCycles(), " slot-cycles != ",
                   cstack.slots, " slots x ", cstack.cycles, " cycles");
        // Expose the stack through the stats registry so --dump-stats
        // and --json carry it.
        stats.counter("cstack.slots", "retire slots per cycle") +=
            cstack.slots;
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i) {
            const auto cause = static_cast<obs::StallCause>(i);
            stats.counter(std::string("cstack.") +
                              obs::stallCauseName(cause),
                          obs::stallCauseDesc(cause)) += cstack.at(cause);
        }
    }

    std::cout << source_desc << " on " << spec.machine << ": "
              << result.instructions << " instructions, "
              << result.cycles << " cycles (ipc "
              << (result.cycles ? static_cast<double>(
                                      result.instructions) /
                                      static_cast<double>(result.cycles)
                                : 0.0)
              << ")\n";

    if (opt.passStats && compiled) {
        // Expose the per-pass record through the stats registry so
        // --dump-stats and --json carry it alongside the run stats.
        compiler::exportPassStats(compiled->passStats, stats,
                                  "compile.pass");
        compiler::exportPartitionStats(compiled->partitionStats, stats,
                                       "compile.partition");
        if (!opt.quiet && compiled->partitionStats.numClusters > 1) {
            const auto &ps = compiled->partitionStats;
            std::printf("partition quality: cut %llu / %llu affinity "
                        "weight, balance %.3f, fm gain %llu "
                        "(%u clusters, %llu nodes)\n",
                        static_cast<unsigned long long>(ps.cutWeight),
                        static_cast<unsigned long long>(
                            ps.totalEdgeWeight),
                        ps.balance,
                        static_cast<unsigned long long>(ps.fmGain),
                        ps.numClusters,
                        static_cast<unsigned long long>(ps.numNodes));
        }
        if (!opt.quiet) {
            std::cout << "compiler passes:\n";
            std::printf("  %-10s %10s %8s %8s %8s %10s\n", "pass",
                        "wall(ms)", "blocks", "insts", "values",
                        "spill-ops");
            for (const auto &ps : compiled->passStats)
                std::printf(
                    "  %-10s %10.3f %8llu %8llu %8llu %10llu\n",
                    ps.pass.c_str(), ps.wallMs,
                    static_cast<unsigned long long>(ps.blocksAfter),
                    static_cast<unsigned long long>(ps.instsAfter),
                    static_cast<unsigned long long>(ps.valuesAfter),
                    static_cast<unsigned long long>(ps.spillOpsAfter));
        }
    }

    if (opt.timeline > 0) {
        for (InstSeq seq = 0; seq < opt.timeline; ++seq) {
            const auto events = recorder.forInst(seq);
            if (events.empty())
                break;
            std::cout << "inst " << seq << ":\n";
            for (const auto &ev : events)
                std::cout << "  cycle " << ev.cycle << "  cluster "
                          << ev.cluster << "  "
                          << core::timelineEventName(ev.event) << "\n";
        }
    }
    if (opt.cycleStacks && !opt.quiet) {
        std::cout << "cycle stack (" << cstack.slots << " retire slots x "
                  << cstack.cycles << " cycles):\n";
        const double total =
            static_cast<double>(cstack.totalSlotCycles());
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i) {
            const auto cause = static_cast<obs::StallCause>(i);
            if (cstack.at(cause) == 0)
                continue;
            char pct[16];
            std::snprintf(pct, sizeof pct, "%5.1f%%",
                          total == 0.0 ? 0.0
                                       : 100.0 *
                                             static_cast<double>(
                                                 cstack.at(cause)) /
                                             total);
            std::printf("  %-12s %12llu slot-cycles %s  (%s)\n",
                        obs::stallCauseName(cause),
                        static_cast<unsigned long long>(cstack.at(cause)),
                        pct, obs::stallCauseDesc(cause));
        }
    }

    if (opt.intervalStats > 0) {
        if (opt.statsOut.empty()) {
            sampler.writeJsonl(std::cout);
        } else {
            std::ofstream out(opt.statsOut, std::ios::trunc);
            if (!out)
                MCA_FATAL("cannot write --stats-out file '", opt.statsOut,
                          "'");
            const bool csv =
                opt.statsOut.size() >= 4 &&
                opt.statsOut.compare(opt.statsOut.size() - 4, 4,
                                     ".csv") == 0;
            csv ? sampler.writeCsv(out) : sampler.writeJsonl(out);
            if (!opt.quiet)
                std::cout << "wrote " << sampler.rows().size()
                          << " intervals to " << opt.statsOut << "\n";
        }
    }

    // The host profile rides in the Perfetto trace (as a flame-graph
    // process after the clusters and the memory system) when one is
    // being written, so guest cycles and host time open side by side.
    if (opt.prof)
        finishProfile(opt, opt.traceOut.empty() ? nullptr : &exporter,
                      cfg.numClusters + 1);

    if (!opt.traceOut.empty()) {
        // Cap the instruction slices so long runs stay loadable; the
        // counter tracks still cover the whole run.
        core::TimelineRecorder capped;
        for (const auto &rec : recorder.records())
            if (rec.seq < opt.traceInsts)
                capped.record(rec.cycle, rec.seq, rec.cluster, rec.event);
        exporter.addTimeline(capped, cfg.numClusters);
        std::ofstream out(opt.traceOut, std::ios::trunc);
        if (!out)
            MCA_FATAL("cannot write --trace-out file '", opt.traceOut,
                      "'");
        exporter.write(out);
        if (!opt.quiet)
            std::cout << "wrote trace to " << opt.traceOut
                      << " (open in ui.perfetto.dev)\n";
    }

    if (opt.dumpStats && !opt.quiet)
        stats.dump(std::cout);
    if (opt.jsonStats)
        stats.dumpJson(std::cout);
    if (!result.completed)
        throw std::runtime_error(runner::cycleBudgetError(spec.maxCycles));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    try {
        return simulate(opt);
    } catch (const std::exception &e) {
        MCA_FATAL(e.what());
    }
}
