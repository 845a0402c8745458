/**
 * @file
 * mcabench: one workload of the end-to-end benchmark, in one process
 * (README.md in this directory). run.py builds and drives it; it
 * prints one JSON object on stdout and diagnostics on stderr.
 *
 * Modes:
 *  - timed:  set up, run one untimed warm-up trial (peak_rss_mb is
 *            read here), set up kSetupReps more times, then time
 *            trials for --seconds (at least kMinTrials) and report the
 *            end-to-end metrics. Every timed set-up and trial is
 *            bracketed by runs of the Probe, and the gated times are
 *            in reference seconds (bench.hh, Probe);
 *  - traced: untraced trials for an eighth of --seconds, at least one
 *            (the baseline the traced trial is compared with), one
 *            traced layer-ledger trial, and one trial under the host
 *            profiler; reports the per-layer metrics;
 *  - check:  one trial, checked, no timing.
 *
 * Usage: mcabench --workload NAME --work-dir DIR [--seed N]
 *                 [--seconds S] [--mode timed|traced|check]
 *                 [--trace-out FILE] [--expect-digest HEX]
 *                 [--expect-full-digest HEX]
 *
 * --expect-full-digest pins the sampled workload's full reference runs.
 * DIR receives the sweep's artifact store and the ledger's.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hh"
#include "prof/prof.hh"

namespace
{

using namespace mcabench;
using Clock = std::chrono::steady_clock;

/** Setup repetitions per timed run (setup_s is their first quartile). */
constexpr unsigned kSetupReps = 20;
/** Floor on timed trials, so a quartile exists on the slowest workload. */
constexpr std::size_t kMinTrials = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 12.0;
    std::string mode = "timed";
    std::string workDir;
    std::string traceOut;
    std::string expectDigest;
    std::string expectFullDigest;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mcabench: " << why
              << "\nusage: mcabench --workload NAME --work-dir DIR "
                 "[--seed N] [--seconds S] [--mode timed|traced|check] "
                 "[--trace-out FILE] [--expect-digest HEX] "
                 "[--expect-full-digest HEX]\n";
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            o.workload = next();
        else if (arg == "--seed")
            o.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            o.seconds = std::atof(next().c_str());
        else if (arg == "--mode")
            o.mode = next();
        else if (arg == "--work-dir")
            o.workDir = next();
        else if (arg == "--trace-out")
            o.traceOut = next();
        else if (arg == "--expect-digest")
            o.expectDigest = next();
        else if (arg == "--expect-full-digest")
            o.expectFullDigest = next();
        else
            usage("unknown argument " + arg);
    }
    if (o.workload.empty() || o.workDir.empty())
        usage("--workload and --work-dir are required");
    if (o.mode != "timed" && o.mode != "traced" && o.mode != "check")
        usage("unknown mode " + o.mode);
    if (!(o.seconds > 0.0))
        usage("--seconds must be positive");
    return o;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Shortest round-trip decimal; null for a non-finite value. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

/** Unit of a metric, from its name's suffix. */
std::string
unitOf(const std::string &name)
{
    auto ends = [&](const char *suffix) {
        const std::string s(suffix);
        return name.size() >= s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
    };
    if (ends("_ms"))
        return "ms";
    if (ends("_s") || ends("_s_p25") || ends("_s_median") || ends("_s_p75"))
        return "s";
    if (name.find("ns_per_") != std::string::npos)
        return "ns";
    if (ends("_kb"))
        return "KB";
    if (ends("_mb"))
        return "MB";
    if (ends("_mips"))
        return "MIPS";
    if (ends("_pct"))
        return "%";
    if (ends("_pts"))
        return "pts";
    if (ends("_frac") || ends("_rate") || ends("accuracy"))
        return "ratio";
    return "count";
}

struct Metric
{
    double value;
    std::size_t samples;
};

/** Collects trial outcomes and the digest every trial must share. */
struct Checker
{
    std::string expect;
    std::string digest;
    Outcome outcome;

    void
    account(Outcome trial, const std::string &d, const std::string &what)
    {
        if (!expect.empty() && d != expect)
            trial.failAll(what + " digest " + d +
                          " differs from the reference " + expect);
        if (!digest.empty() && d != digest)
            trial.failAll(what + " digest " + d +
                          " differs from the first trial's " + digest);
        if (digest.empty())
            digest = d;
        outcome.merge(trial);
    }
};

double
peakRssMb()
{
    // VmHWM, the peak of this process image alone: Linux carries
    // ru_maxrss across exec, so getrusage would report the parent's
    // footprint at fork (run.py's interpreter) whenever that is larger.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // KB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

/**
 * Wall seconds of repeated work, each with the mean of the probe runs
 * right before and right after it.
 */
struct Samples
{
    std::vector<double> wall;
    std::vector<double> probe;

    void
    add(double wall_s, double probe_before, double probe_after)
    {
        wall.push_back(wall_s);
        probe.push_back((probe_before + probe_after) / 2);
    }

    /** Each sample in reference seconds: wall x reference / probe. */
    std::vector<double>
    reference() const
    {
        std::vector<double> out;
        for (std::size_t i = 0; i < wall.size(); ++i)
            out.push_back(wall[i] * Probe::kReferenceS / probe[i]);
        return out;
    }
};

/** Time trials until `seconds` have passed and `min_trials` ran. */
Samples
timedTrials(const Workload &w, const Compiled &c, const Options &o,
            Probe &probe, double seconds, std::size_t min_trials,
            Checker &checker, std::uint64_t &insts)
{
    Samples s;
    const auto start = Clock::now();
    double before = probe.run();
    while (s.wall.size() < min_trials || secondsSince(start) < seconds) {
        TrialResult t = runTrial(w, c, o.workDir);
        const double after = probe.run();
        s.add(t.wallS, before, after);
        before = after;
        insts = t.insts;
        checker.account(std::move(t.outcome), digestOf(t.records),
                        "trial " + std::to_string(s.wall.size()));
    }
    return s;
}

std::string
numList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + num(values[i]);
    return out + "]";
}

void
writeJson(const Options &o, const Checker &checker, std::size_t trials,
          const std::map<std::string, Metric> &metrics,
          const std::string &extra)
{
    std::ostringstream os;
    os << "{\"workload\": " << jsonQuote(o.workload)
       << ", \"seed\": " << o.seed << ", \"mode\": " << jsonQuote(o.mode)
       << ", \"build\": {\"type\": " << jsonQuote(MCABENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonQuote(MCABENCH_COMPILER " " __VERSION__)
       << ", \"flags\": " << jsonQuote(MCABENCH_CXX_FLAGS) << "}"
       << ", \"digest\": " << jsonQuote(checker.digest)
       << ", \"ops\": " << checker.outcome.ops()
       << ", \"wrong\": " << checker.outcome.wrong()
       << ", \"trials\": " << trials << ", \"failures\": [";
    const auto &failures = checker.outcome.failures();
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? ", " : "") << jsonQuote(failures[i]);
    os << "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        os << (first ? "" : ", ") << jsonQuote(name)
           << ": {\"value\": " << num(m.value)
           << ", \"unit\": " << jsonQuote(unitOf(name))
           << ", \"samples\": " << m.samples << "}";
        first = false;
    }
    os << "}" << extra << "}\n";
    std::cout << os.str();
}

int
run(const Options &o)
{
    const Workload w = makeWorkload(o.workload, o.seed);
    Checker checker;
    checker.expect = o.expectDigest;
    std::map<std::string, Metric> metrics;
    std::ostringstream extra;
    std::size_t trials = 0;

    if (o.mode == "traced") {
        const Compiled c = setUp(w);
        // Untraced baseline: an eighth of the seconds, at least one
        // trial. No separate warm-up: the run is fixed work beyond
        // this, and each pass grows with host load.
        Probe probe;
        std::uint64_t insts = 0;
        const std::vector<double> walls =
            timedTrials(w, c, o, probe, o.seconds / 8, 1, checker, insts)
                .wall;
        trials = walls.size();

        Tracer tracer;
        Ledger ledger = runLedger(w, tracer, o.workDir);
        checker.account(std::move(ledger.outcome), digestOf(ledger.records),
                        "traced");

        // The stage regions already exist in the cycle kernel; the
        // profiler only switches them on (and the L1 hit fast path
        // off), so this pass is distorted and labelled as such.
        mca::prof::reset();
        mca::prof::setEnabled(true);
        TrialResult profiled = runTrial(w, c, o.workDir);
        mca::prof::setEnabled(false);
        const mca::prof::Profile profile = mca::prof::snapshot();
        mca::prof::reset();
        const std::string profDigest = digestOf(profiled.records);
        checker.account(std::move(profiled.outcome), profDigest, "prof");

        for (const auto &[name, v] : ledger.metrics)
            metrics[name] = {v, 1};
        for (const auto &[name, v] : profStages(profile))
            metrics[name] = {v, 1};

        if (!o.traceOut.empty()) {
            std::ofstream out(o.traceOut, std::ios::trunc);
            if (!out) {
                std::cerr << "mcabench: cannot write " << o.traceOut << "\n";
                return 1;
            }
            tracer.writeChromeTrace(out);
        }
        const double median = quartiles(walls).median;
        extra << ", \"untraced_median_s\": " << num(median)
              << ", \"traced_s\": " << num(ledger.wallS)
              << ", \"traced_over_untraced\": "
              << num(ledger.wallS / median)
              << ", \"prof_s\": " << num(profiled.wallS)
              << ", \"prof_over_untraced\": " << num(profiled.wallS / median)
              << ", \"spans\": " << tracer.spans().size()
              << ", \"digests\": {\"traced\": "
              << jsonQuote(digestOf(ledger.records))
              << ", \"prof\": " << jsonQuote(profDigest) << "}";
        writeJson(o, checker, trials, metrics, extra.str());
        return 0;
    }

    // timed and check: set up once and run the untimed warm-up trial.
    // peak_rss_mb is read right after, before the probe and the
    // repeated set-ups allocate anything, so it is the simulator's own
    // memory for one set-up and one trial.
    Compiled c = setUp(w);
    TrialResult warm = runTrial(w, c, o.workDir);
    const double rssMb = peakRssMb();
    const double table2ErrPts = warm.table2ErrPts;
    const std::vector<double> estCycles = warm.estCycles;
    checker.account(std::move(warm.outcome), digestOf(warm.records),
                    "warm-up");

    if (o.mode == "timed") {
        Probe probe;
        Samples setup;
        double before = probe.run();
        for (unsigned r = 0; r < kSetupReps; ++r) {
            c = {}; // one set of compile outputs alive at a time
            const auto t0 = Clock::now();
            c = setUp(w);
            const double wall = secondsSince(t0);
            const double after = probe.run();
            setup.add(wall, before, after);
            before = after;
        }
        std::uint64_t insts = 0;
        const Samples s = timedTrials(w, c, o, probe, o.seconds, kMinTrials,
                                      checker, insts);
        trials = s.wall.size();
        const double refS = quartiles(s.reference()).q1;
        const Quartiles wall = quartiles(s.wall);
        metrics["ref_s_p25"] = {refS, trials};
        metrics["sim_mips"] = {static_cast<double>(insts) / refS / 1e6,
                               trials};
        metrics["setup_s"] = {quartiles(setup.reference()).q1,
                              setup.wall.size()};
        metrics["wall_s_p25"] = {wall.q1, trials};
        metrics["wall_s_median"] = {wall.median, trials};
        metrics["wall_s_p75"] = {wall.q3, trials};
        metrics["probe_median_ms"] = {1e3 * quartiles(s.probe).median,
                                      trials};
        extra << ", \"samples\": {\"wall_s\": " << numList(s.wall)
              << ", \"probe_s\": " << numList(s.probe)
              << ", \"setup_wall_s\": " << numList(setup.wall)
              << ", \"setup_probe_s\": " << numList(setup.probe) << "}";
    }

    if (w.kind == Kind::Table2)
        metrics["table2_err_pts"] = {table2ErrPts, 1};
    if (w.kind == Kind::Sampled) {
        // The full detailed run: untimed, once per run, the reference
        // the sampled estimate is judged against.
        std::vector<bool> completed;
        const std::vector<SimRecord> full = simulatePoints(w, c, completed);
        // Each is one more operation, and at the reference seed their
        // digest is pinned too, so cpi_err_pct is pinned on both sides.
        const std::string fullDigest = digestOf(full);
        extra << ", \"full_digest\": " << jsonQuote(fullDigest);
        const std::size_t first = checker.outcome.add(full.size());
        double err = 0.0;
        for (std::size_t i = 0; i < full.size(); ++i) {
            if (!o.expectFullDigest.empty() &&
                fullDigest != o.expectFullDigest)
                checker.outcome.fail(first + i,
                                     w.points[i].benchmark +
                                         ": full reference runs' digest " +
                                         fullDigest + " differs from " +
                                         o.expectFullDigest);
            if (!completed[i])
                checker.outcome.fail(first + i,
                                     w.points[i].benchmark +
                                         ": reference run did not complete");
            err += std::fabs(estCycles.at(i) -
                             static_cast<double>(full[i].cycles)) /
                   static_cast<double>(full[i].cycles);
        }
        metrics["cpi_err_pct"] = {100.0 * err / full.size(), full.size()};
    }
    metrics["error_rate"] = {
        static_cast<double>(checker.outcome.wrong()) /
            static_cast<double>(checker.outcome.ops()),
        checker.outcome.ops()};
    metrics["peak_rss_mb"] = {rssMb, 1};
    writeJson(o, checker, trials, metrics, extra.str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parse(argc, argv);
    // Keep every thread on the CPU the process started on, so the
    // campaign's worker thread and the probe share one core's
    // contention and nothing migrates mid-trial.
    cpu_set_t one;
    CPU_ZERO(&one);
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
    }
    try {
        return run(o);
    } catch (const std::exception &e) {
        std::cerr << "mcabench: " << e.what() << "\n";
        return 1;
    }
}
