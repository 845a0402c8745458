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
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
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
#include "runner/jobspec.hh"
#include "sample/driver.hh"
#include "sample/spec.hh"
#include "support/log.hh"
#include "support/panic.hh"
#include "workloads/workloads.hh"

#ifndef MCA_VERSION_STRING
#define MCA_VERSION_STRING "unknown"
#endif

namespace
{

using namespace mca;

struct Options
{
    std::string benchmark;
    std::optional<std::uint64_t> randomSeed;
    std::string machine = "dual8";
    std::string scheduler = "local";
    double scale = 0.2;
    std::uint64_t maxInsts = 300'000;
    std::uint64_t traceSeed = 42;
    unsigned threshold = 4;
    unsigned unroll = 1;
    unsigned clusters = 0; // 0 = implied by machine
    bool machineSet = false; // --machine given explicitly
    std::optional<unsigned> dqEntries;
    std::optional<unsigned> otbEntries;
    std::optional<unsigned> rtbEntries;
    std::optional<unsigned> mshrEntries;
    // Memory hierarchy (defaults = paper mode; docs/memory.md).
    std::optional<unsigned> icacheKb;
    std::optional<unsigned> dcacheKb;
    std::optional<unsigned> l2Kb;
    std::optional<unsigned> l2Lat;
    std::optional<unsigned> memLat;
    std::optional<unsigned> fillPorts;
    std::string queueMode;
    std::string predictor;
    bool specHistory = false;
    bool reserveOldest = false;
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
    std::string sampleSpec; // --sample plan; empty = full detailed run
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

void
usage()
{
    std::cout <<
        "mcasim — multicluster architecture simulator\n\n"
        "workload (choose one):\n"
        "  --benchmark NAME     compress|doduc|gcc1|ora|su2cor|tomcatv\n"
        "  --random-seed N      random fuzzer program\n"
        "  --load-trace FILE    replay a saved trace file\n\n"
        "compilation:\n"
        "  --scheduler KIND     native|local|roundrobin|multilevel "
        "[local]\n"
        "  --partitioner KIND   local|roundrobin|multilevel — alias of\n"
        "                       --scheduler restricted to the clustered\n"
        "                       partitioners (docs/compiler.md)\n"
        "  --threshold N        local-scheduler imbalance threshold [4]\n"
        "  --unroll N           unroll counted self-loops [1]\n"
        "  --scale X            workload scale [0.2]\n"
        "  --verify-ir          check IR invariants between passes\n"
        "  --dump-after LIST    print the IR after these passes\n"
        "                       (comma-separated names or 'all')\n"
        "  --pass-stats         per-pass wall clock + IR deltas\n"
        "  --list-passes        print the pass registry and exit\n\n"
        "machine:\n"
        "  --machine NAME       single8|dual8|single4|dual4|quad8|octa8\n"
        "                       [dual8]\n"
        "  --clusters N         N-cluster split of the 8-way machine\n"
        "                       (1|2|4|8, = multiCluster8(N)); must agree\n"
        "                       with --machine when both are given\n"
        "  --dq N               dispatch-queue entries per cluster\n"
        "  --otb N --rtb N      transfer-buffer entries per cluster\n"
        "  --mshr N             explicit MSHR entries (0 = inverted)\n"
        "  --queue-mode KIND    window|rs (hold entries to retire/issue)\n"
        "  --predictor KIND     mcfarling|gshare|bimodal|taken|nottaken\n"
        "  --spec-history       speculative global history\n"
        "  --reserve-oldest     reserve a buffer entry for the oldest\n"
        "  --no-idle-skip       reference mode: scan every cluster and\n"
        "                       step every cycle\n"
        "  --paranoid           check core invariants every cycle (slow)\n\n"
        "memory hierarchy (docs/memory.md; defaults = paper mode):\n"
        "  --icache-kb N        L1 instruction-cache size in KB [64]\n"
        "  --dcache-kb N        L1 data-cache size in KB [64]\n"
        "  --l2-kb N            shared L2 size in KB (0 = no L2) [0]\n"
        "  --l2-lat N           L2 hit latency in cycles [6]\n"
        "  --mem-lat N          memory backside latency in cycles [16]\n"
        "  --fill-ports N       fills/cycle per level (0 = unlimited) [0]\n\n"
        "run control:\n"
        "  --max-insts N        trace length cap [300000]\n"
        "  --trace-seed N       trace interpreter seed [42]\n"
        "  --save-trace FILE    write the trace file and exit\n"
        "  --dump-stats         dump the full statistics registry\n"
        "  --json               dump statistics as JSON\n"
        "  --dump-binary        print the compiled binary's disassembly\n"
        "  --timeline N         print events for the first N instructions\n"
        "  --quiet              only the one-line summary\n\n"
        "checkpoint & sampling (docs/sampling.md):\n"
        "  --sample SPEC        sampled run: mode:period=N,detail=N,\n"
        "                       warmup=N[,offset=N][,jobs=N]; mode is\n"
        "                       systematic or periodic\n"
        "  --ckpt-out FILE      write a snapshot (at --ckpt-at, or at\n"
        "                       the end of the run)\n"
        "  --ckpt-at N          cycle to take the --ckpt-out snapshot\n"
        "  --ckpt-in FILE       restore a snapshot, then run to the end\n"
        "  --ckpt-every N       write a snapshot every N cycles\n"
        "  --ckpt-dir DIR       directory for --ckpt-every files [.]\n\n"
        "observability (docs/observability.md):\n"
        "  --cycle-stacks       per-cause retire-slot stall attribution\n"
        "  --interval-stats N   close a time-series interval every N cycles\n"
        "  --stats-out FILE     interval rows (JSONL; *.csv writes CSV)\n"
        "  --trace-out FILE     Chrome trace-event JSON (Perfetto)\n"
        "  --trace-insts N      instruction slices in the trace [2000]\n\n"
        "host profiling (docs/profiling.md):\n"
        "  --prof               profile host time by simulator region\n"
        "  --prof-out FILE      write the profile as JSON (implies --prof;\n"
        "                       render with scripts/prof_report.py)\n"
        "  --prof-hw            also sample hardware counters per region\n"
        "                       (perf_event_open; falls back to time-only)\n"
        "  --log-level LVL      debug|info|warn|error|off [info; or env\n"
        "                       MCA_LOG_LEVEL]\n\n"
        "introspection:\n"
        "  --version            print the version string and exit\n"
        "  --list-benchmarks    print the benchmark names, one per line\n";
}

/**
 * Reject an unknown value for an enumerated flag at parse time, before
 * any compilation or configuration work, with the valid choices spelled
 * out (scripts should not have to parse --help to recover them).
 */
void
checkChoice(const std::string &value,
            const std::vector<std::string> &valid, const char *flag)
{
    if (std::find(valid.begin(), valid.end(), value) != valid.end())
        return;
    std::string choices;
    for (const auto &c : valid)
        choices += (choices.empty() ? "" : ", ") + c;
    MCA_FATAL("unknown value '", value, "' for ", flag,
              " (valid: ", choices, ")");
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= args.size())
                MCA_FATAL("missing value for ", what);
            return args[++i];
        };
        if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (a == "--version") {
            std::cout << "mcasim " << MCA_VERSION_STRING << "\n";
            std::exit(0);
        } else if (a == "--list-benchmarks") {
            for (const auto &name : runner::validBenchmarks())
                std::cout << name << "\n";
            std::exit(0);
        } else if (a == "--benchmark") {
            opt.benchmark = need("--benchmark");
            checkChoice(opt.benchmark, runner::validBenchmarks(),
                        "--benchmark");
        } else if (a == "--random-seed") {
            opt.randomSeed = std::strtoull(
                need("--random-seed").c_str(), nullptr, 10);
        } else if (a == "--machine") {
            opt.machine = need("--machine");
            checkChoice(opt.machine, runner::validMachines(),
                        "--machine");
            opt.machineSet = true;
        } else if (a == "--scheduler") {
            opt.scheduler = need("--scheduler");
            checkChoice(opt.scheduler, runner::validSchedulers(),
                        "--scheduler");
        } else if (a == "--partitioner") {
            opt.scheduler = need("--partitioner");
            checkChoice(opt.scheduler, compiler::partitionerNames(),
                        "--partitioner");
        } else if (a == "--clusters") {
            const long n = std::atol(need("--clusters").c_str());
            // Parse-time guard for the partitioner's int8_t assignment
            // storage; the machine factory narrows further to 1|2|4|8.
            if (n <= 0 ||
                n > static_cast<long>(
                        compiler::ClusterAssignment::kMaxClusters))
                MCA_FATAL("--clusters: cluster count ", n,
                          " out of range (accepted: 1, 2, 4, or 8)");
            opt.clusters = static_cast<unsigned>(n);
        } else if (a == "--scale") {
            opt.scale = std::atof(need("--scale").c_str());
        } else if (a == "--max-insts") {
            opt.maxInsts = std::strtoull(need("--max-insts").c_str(),
                                         nullptr, 10);
        } else if (a == "--trace-seed") {
            opt.traceSeed = std::strtoull(need("--trace-seed").c_str(),
                                          nullptr, 10);
        } else if (a == "--threshold") {
            opt.threshold = static_cast<unsigned>(
                std::atoi(need("--threshold").c_str()));
        } else if (a == "--unroll") {
            opt.unroll = static_cast<unsigned>(
                std::atoi(need("--unroll").c_str()));
        } else if (a == "--dq") {
            opt.dqEntries = static_cast<unsigned>(
                std::atoi(need("--dq").c_str()));
        } else if (a == "--otb") {
            opt.otbEntries = static_cast<unsigned>(
                std::atoi(need("--otb").c_str()));
        } else if (a == "--rtb") {
            opt.rtbEntries = static_cast<unsigned>(
                std::atoi(need("--rtb").c_str()));
        } else if (a == "--queue-mode") {
            opt.queueMode = need("--queue-mode");
            checkChoice(opt.queueMode, {"window", "rs"}, "--queue-mode");
        } else if (a == "--mshr") {
            opt.mshrEntries = static_cast<unsigned>(
                std::atoi(need("--mshr").c_str()));
        } else if (a == "--icache-kb") {
            opt.icacheKb = static_cast<unsigned>(
                std::atoi(need("--icache-kb").c_str()));
        } else if (a == "--dcache-kb") {
            opt.dcacheKb = static_cast<unsigned>(
                std::atoi(need("--dcache-kb").c_str()));
        } else if (a == "--l2-kb") {
            opt.l2Kb = static_cast<unsigned>(
                std::atoi(need("--l2-kb").c_str()));
        } else if (a == "--l2-lat") {
            opt.l2Lat = static_cast<unsigned>(
                std::atoi(need("--l2-lat").c_str()));
        } else if (a == "--mem-lat") {
            opt.memLat = static_cast<unsigned>(
                std::atoi(need("--mem-lat").c_str()));
        } else if (a == "--fill-ports") {
            opt.fillPorts = static_cast<unsigned>(
                std::atoi(need("--fill-ports").c_str()));
        } else if (a == "--predictor") {
            opt.predictor = need("--predictor");
            checkChoice(opt.predictor, runner::validPredictors(),
                        "--predictor");
        } else if (a == "--spec-history") {
            opt.specHistory = true;
        } else if (a == "--reserve-oldest") {
            opt.reserveOldest = true;
        } else if (a == "--paranoid") {
            opt.paranoid = true;
        } else if (a == "--no-idle-skip") {
            opt.noIdleSkip = true;
        } else if (a == "--save-trace") {
            opt.saveTrace = need("--save-trace");
        } else if (a == "--load-trace") {
            opt.loadTrace = need("--load-trace");
        } else if (a == "--verify-ir") {
            opt.verifyIr = true;
        } else if (a == "--pass-stats") {
            opt.passStats = true;
        } else if (a == "--list-passes") {
            for (const auto &info : compiler::allPasses())
                std::printf("%-11s %s\n",
                            std::string(info.name).c_str(),
                            std::string(info.description).c_str());
            std::exit(0);
        } else if (a == "--dump-after") {
            std::string list = need("--dump-after");
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string name = list.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                if (name != "all" && !compiler::isPassName(name))
                    MCA_FATAL("--dump-after: unknown pass '", name,
                              "' (see --list-passes)");
                opt.dumpAfter.push_back(name);
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
        } else if (a == "--dump-stats") {
            opt.dumpStats = true;
        } else if (a == "--json") {
            opt.jsonStats = true;
        } else if (a == "--dump-binary") {
            opt.dumpBinary = true;
        } else if (a == "--timeline") {
            opt.timeline = static_cast<unsigned>(
                std::atoi(need("--timeline").c_str()));
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else if (a == "--sample") {
            opt.sampleSpec = need("--sample");
        } else if (a == "--ckpt-out") {
            opt.ckptOut = need("--ckpt-out");
        } else if (a == "--ckpt-at") {
            opt.ckptAt = std::strtoull(need("--ckpt-at").c_str(),
                                       nullptr, 10);
        } else if (a == "--ckpt-in") {
            opt.ckptIn = need("--ckpt-in");
        } else if (a == "--ckpt-every") {
            opt.ckptEvery = std::strtoull(need("--ckpt-every").c_str(),
                                          nullptr, 10);
            if (opt.ckptEvery == 0)
                MCA_FATAL("--ckpt-every must be >= 1");
        } else if (a == "--ckpt-dir") {
            opt.ckptDir = need("--ckpt-dir");
        } else if (a == "--cycle-stacks") {
            opt.cycleStacks = true;
        } else if (a == "--interval-stats") {
            opt.intervalStats = std::strtoull(
                need("--interval-stats").c_str(), nullptr, 10);
            if (opt.intervalStats == 0)
                MCA_FATAL("--interval-stats must be >= 1");
        } else if (a == "--stats-out") {
            opt.statsOut = need("--stats-out");
        } else if (a == "--trace-out") {
            opt.traceOut = need("--trace-out");
        } else if (a == "--trace-insts") {
            opt.traceInsts = static_cast<unsigned>(
                std::atoi(need("--trace-insts").c_str()));
        } else if (a == "--prof") {
            opt.prof = true;
        } else if (a == "--prof-out") {
            opt.profOut = need("--prof-out");
            opt.prof = true;
        } else if (a == "--prof-hw") {
            opt.profHw = true;
            opt.prof = true;
        } else if (a == "--log-level") {
            const std::string text = need("--log-level");
            log::Level level;
            if (!log::parseLevel(text, level))
                MCA_FATAL("unknown log level '", text,
                          "' (valid: debug, info, warn, error, off)");
            log::setThreshold(level);
        } else {
            usage();
            MCA_FATAL("unknown argument: ", a);
        }
    }
    if (opt.clusters > 0 && !opt.machineSet)
        opt.machine = "multi8x" + std::to_string(opt.clusters);
    return opt;
}

core::ProcessorConfig
machineConfig(const Options &opt, unsigned *clusters)
{
    static const std::map<std::string,
                          core::ProcessorConfig (*)()>
        kMachines = {
            {"single8", &core::ProcessorConfig::singleCluster8},
            {"dual8", &core::ProcessorConfig::dualCluster8},
            {"single4", &core::ProcessorConfig::singleCluster4},
            {"dual4", &core::ProcessorConfig::dualCluster4},
        };
    core::ProcessorConfig cfg;
    if (opt.clusters > 0 && !opt.machineSet) {
        // --clusters alone selects the N-cluster 8-way machine.
        try {
            cfg = core::ProcessorConfig::multiCluster8(opt.clusters,
                                                       "--clusters");
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
    } else if (opt.machine == "quad8") {
        cfg = core::ProcessorConfig::multiCluster8(4);
    } else if (opt.machine == "octa8") {
        cfg = core::ProcessorConfig::multiCluster8(8);
    } else {
        auto it = kMachines.find(opt.machine);
        if (it == kMachines.end())
            MCA_FATAL("unknown machine '", opt.machine, "'");
        cfg = it->second();
    }
    // Cross-check: the binary is partitioned for the machine's cluster
    // count, so an explicit --clusters must agree with --machine.
    if (opt.clusters > 0 && opt.machineSet &&
        cfg.numClusters != opt.clusters)
        MCA_FATAL("--clusters ", opt.clusters, " disagrees with --machine ",
                  opt.machine, " (", cfg.numClusters,
                  " clusters); the compiled binary is partitioned for "
                  "the machine's cluster count");
    *clusters = cfg.numClusters;
    if (opt.dqEntries)
        cfg.dispatchQueueEntries = *opt.dqEntries;
    if (opt.otbEntries)
        cfg.operandBufferEntries = *opt.otbEntries;
    if (opt.rtbEntries)
        cfg.resultBufferEntries = *opt.rtbEntries;
    if (opt.mshrEntries)
        cfg.memory.dcache.mshrEntries = *opt.mshrEntries;
    if (opt.icacheKb)
        cfg.memory.icache.sizeBytes = *opt.icacheKb * 1024ull;
    if (opt.dcacheKb)
        cfg.memory.dcache.sizeBytes = *opt.dcacheKb * 1024ull;
    if (opt.l2Kb)
        cfg.memory.l2SizeBytes = *opt.l2Kb * 1024ull;
    if (opt.l2Lat)
        cfg.memory.l2HitLatency = *opt.l2Lat;
    if (opt.memLat)
        cfg.memory.memLatency = *opt.memLat;
    if (opt.fillPorts) {
        cfg.memory.icache.fillPorts = *opt.fillPorts;
        cfg.memory.dcache.fillPorts = *opt.fillPorts;
        cfg.memory.l2FillPorts = *opt.fillPorts;
        cfg.memory.memPorts = *opt.fillPorts;
    }
    cfg.speculativeHistory = opt.specHistory;
    cfg.reserveOldestEntry = opt.reserveOldest;
    cfg.paranoid = opt.paranoid;
    cfg.idleSkip = !opt.noIdleSkip;
    if (opt.queueMode == "window")
        cfg.holdQueueUntilRetire = true;
    else if (opt.queueMode == "rs")
        cfg.holdQueueUntilRetire = false;
    else if (!opt.queueMode.empty())
        MCA_FATAL("unknown queue mode '", opt.queueMode, "'");
    if (!opt.predictor.empty()) {
        using Kind = core::ProcessorConfig::PredictorKind;
        if (opt.predictor == "mcfarling")
            cfg.predictor = Kind::McFarling;
        else if (opt.predictor == "gshare")
            cfg.predictor = Kind::Gshare;
        else if (opt.predictor == "bimodal")
            cfg.predictor = Kind::Bimodal;
        else if (opt.predictor == "taken")
            cfg.predictor = Kind::StaticTaken;
        else if (opt.predictor == "nottaken")
            cfg.predictor = Kind::StaticNotTaken;
        else
            MCA_FATAL("unknown predictor '", opt.predictor, "'");
    }
    // Surface bad knob combinations (cache geometry, zero widths) as a
    // one-line parse-time error instead of a mid-run assertion.
    try {
        cfg.validate();
    } catch (const std::exception &e) {
        MCA_FATAL(e.what());
    }
    return cfg;
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

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    // Enable recording before any instrumented work so Profile::wallNs
    // spans (and the coverage check is honest about) the whole run.
    if (opt.prof) {
        if (opt.profHw)
            prof::setHwEnabled(true);
        prof::setEnabled(true);
    }

    unsigned clusters = 2;
    core::ProcessorConfig cfg = machineConfig(opt, &clusters);

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
            const std::string name =
                opt.benchmark.empty() ? "compress" : opt.benchmark;
            workloads::WorkloadParams wp;
            wp.scale = opt.scale;
            return workloads::benchmarkByName(name).make(wp);
        }();

        compiler::CompileOptions copt;
        try {
            copt = compiler::compileOptionsFor(opt.scheduler, clusters);
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
        copt.imbalanceThreshold = opt.threshold;
        copt.unrollFactor = opt.unroll;
        if (opt.verifyIr)
            copt.verifyIr = true;
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
        cfg.regMap = compiled->hardwareMap(clusters);
        source_desc = program.name + " / " + opt.scheduler;

        if (!opt.saveTrace.empty()) {
            exec::ProgramTrace pt(compiled->binary, opt.traceSeed,
                                  opt.maxInsts);
            const auto n = exec::writeTrace(opt.saveTrace, pt,
                                            compiled->alloc.globalRegs,
                                            opt.maxInsts);
            std::cout << "wrote " << n << " instructions to "
                      << opt.saveTrace << "\n";
            return 0;
        }
        if (opt.dumpBinary)
            std::cout << prog::dumpProgram(compiled->binary);
        trace = std::make_unique<exec::ProgramTrace>(
            compiled->binary, opt.traceSeed, opt.maxInsts);
    }

    if (!opt.sampleSpec.empty()) {
        // Sampled run: the driver replays the compiled binary itself
        // (one functional warming pass + K detailed intervals), so it
        // needs the program, not a pre-opened trace.
        if (!compiled)
            MCA_FATAL("--sample requires a compiled workload "
                      "(--benchmark or --random-seed, not --load-trace)");
        sample::SampleSpec spec;
        try {
            spec = sample::SampleSpec::parse(opt.sampleSpec);
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
        sample::SampleReport rep;
        try {
            PROF_SCOPE("simulate");
            sample::SampledDriver driver(compiled->binary, cfg,
                                         opt.traceSeed, opt.maxInsts);
            rep = driver.run(spec);
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
        if (!rep.allConserved)
            MCA_FATAL("cycle-stack conservation violated in a sampled "
                      "interval");
        std::cout << source_desc << " on " << opt.machine << " [sampled "
                  << spec.canonical() << "]: " << rep.totalInsts
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
    Cycle nextEvery =
        opt.ckptEvery > 0 ? cpu.now() + opt.ckptEvery : ~Cycle{0};
    // --ckpt-at 0 means "at the end of the run" (saved after the loop).
    bool ckptOutSaved = opt.ckptOut.empty() || opt.ckptAt == 0;

    // Per-cycle observation is needed only for the sampler and the
    // counter tracks; without them the run loop is exactly cpu.run()
    // (zero overhead on the default path).
    const bool per_cycle =
        opt.intervalStats > 0 || !opt.traceOut.empty();
    obs::PeriodicSampler sampler(
        opt.intervalStats > 0 ? opt.intervalStats : 1);
    obs::PerfettoExporter exporter;
    core::SimResult result;
    // One top-level region spanning the detailed run (and the
    // checkpoint saves riding on it); closed explicitly below, before
    // the profiler snapshot.
    std::optional<prof::ScopeTimer> simScope(
        std::in_place, prof::internRegion("simulate"));
    if (per_cycle) {
        // Counter tracks sample at the interval period (or a small
        // fixed stride) so long runs do not drown the trace.
        const Cycle counter_stride =
            opt.intervalStats > 0 ? opt.intervalStats : 16;
        obs::CycleObs snap;
        while (cpu.step()) {
            cpu.observe(snap);
            if (opt.intervalStats > 0)
                sampler.tick(snap);
            if (!opt.traceOut.empty() &&
                snap.cycle % counter_stride == 0)
                exporter.addCounters(snap);
            // step() never fast-forwards, so every boundary is seen.
            if (!ckptOutSaved && cpu.now() >= opt.ckptAt) {
                saveSnapshot(opt.ckptOut);
                ckptOutSaved = true;
            }
            if (cpu.now() >= nextEvery) {
                saveSnapshot(periodicPath(cpu.now()));
                nextEvery += opt.ckptEvery;
            }
        }
        sampler.finish();
        result.cycles = cpu.now();
        result.instructions = cpu.retiredInstructions();
        result.completed = true;
    } else if (opt.ckptEvery > 0 || !ckptOutSaved) {
        // Segmented run: stop at each checkpoint boundary (between
        // cycles, where saveState is legal), snapshot, continue. The
        // resumed segments are bit-identical to one uninterrupted
        // run() (tests/ckpt_test.cc), so checkpoints are free of
        // timing perturbation.
        while (true) {
            const Cycle bound =
                std::min(nextEvery, ckptOutSaved ? ~Cycle{0} : opt.ckptAt);
            result = cpu.run(bound);
            if (result.completed)
                break;
            if (!ckptOutSaved && cpu.now() >= opt.ckptAt) {
                saveSnapshot(opt.ckptOut);
                ckptOutSaved = true;
            }
            if (cpu.now() >= nextEvery) {
                saveSnapshot(periodicPath(cpu.now()));
                nextEvery += opt.ckptEvery;
            }
        }
    } else {
        result = cpu.run();
    }
    if (!opt.ckptOut.empty() && !ckptOutSaved)
        saveSnapshot(opt.ckptOut);
    // --ckpt-at 0 (or a bound past the run's end): snapshot the final
    // state, which restores as a completed machine.
    if (!opt.ckptOut.empty() && opt.ckptAt == 0)
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

    std::cout << source_desc << " on " << opt.machine << ": "
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
                      clusters + 1);

    if (!opt.traceOut.empty()) {
        // Cap the instruction slices so long runs stay loadable; the
        // counter tracks still cover the whole run.
        core::TimelineRecorder capped;
        for (const auto &rec : recorder.records())
            if (rec.seq < opt.traceInsts)
                capped.record(rec.cycle, rec.seq, rec.cluster, rec.event);
        exporter.addTimeline(capped, clusters);
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
    return 0;
}
