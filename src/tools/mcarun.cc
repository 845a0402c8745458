/**
 * @file
 * mcarun — parallel experiment-campaign driver.
 *
 * Expands a parameter grid (benchmarks × machines × schedulers ×
 * thresholds × trace seeds) into independent compile-and-simulate
 * jobs, shards them across worker threads, serves repeated points from
 * an on-disk result cache, and emits JSON-lines and/or CSV results.
 *
 * `--study NAME` runs a named study (runner/study.hh) in place of the
 * grid: Table 2, the cycle-time analysis, or an ablation, extension or
 * sweep, at the grid's --scale, --max-insts and trace seed.
 *
 * Results are bit-identical at any --jobs width: each job owns all of
 * its state and results are emitted in grid order, never completion
 * order. Failed or timed-out jobs are recorded in the output (status
 * column) and never abort the campaign; the exit code is 0 as long as
 * the campaign itself ran, unless a study's gate fails: then each
 * failure is printed on stderr and the exit code is 1.
 *
 *   mcarun --benchmarks all --machines single8,dual8 \
 *          --schedulers native,local --jobs 8 --out results.jsonl
 *   mcarun --study table2 --scale 1.0 --jobs $(nproc) --csv table2.csv
 *   mcarun --benchmarks compress --thresholds 1,2,4,8,16,32 --csv -
 *
 * A results sink of `-` (stdout) implies --no-table, so what stdout
 * carries parses as JSON lines or CSV; only one sink can be stdout.
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "runner/emit.hh"
#include "runner/flags.hh"
#include "runner/study.hh"
#include "runner/telemetry.hh"
#include "support/log.hh"
#include "support/panic.hh"

namespace
{

using namespace mca;

/** The record columns a grid's table prints. */
const std::vector<std::string> kGridColumns = {
    "benchmark", "machine", "scheduler", "threshold", "trace_seed", "status",
    "cycles",    "retired", "ipc",       "replays",   "from_cache"};

/** The grid flags a study reads; it takes one trace seed. */
const std::vector<std::string> kStudyFlags = {"--scale", "--max-insts",
                                              "--trace-seeds"};

struct Options
{
    runner::CampaignGrid grid;
    /** --study: the named study run in place of the grid. */
    const runner::Study *study = nullptr;
    unsigned jobs = 1;
    std::string cacheDir = ".mcarun-cache";
    bool noCache = false;
    std::string jsonOut;
    std::string csvOut;
    std::string telemetryOut;
    bool quiet = false;
    bool noTable = false;
};

/** The campaign's jobs: the study's, built from the grid's scale,
 *  length and trace seed, or else the grid's. */
std::vector<runner::JobSpec>
jobsOf(const Options &opt)
{
    if (!opt.study)
        return runner::expandGrid(opt.grid);
    runner::JobSpec base;
    base.scale = opt.grid.scale;
    base.maxInsts = opt.grid.maxInsts;
    base.traceSeed = base.profileSeed = opt.grid.traceSeeds.front();
    return opt.study->jobs(base);
}

/** Parse the command line; a mistake exits with status 2. */
Options
parse(int argc, char **argv)
{
    using namespace runner;
    Options opt;
    // Note each grid flag given, so a study can refuse the ones it does
    // not read instead of ignoring them.
    FlagTable table = gridFlags(opt.grid);
    std::vector<std::string> given;
    recordGiven(table, given);
    table.insert(table.end(), {
        {"", "", "campaign", {}},
        {"--study", "NAME",
         joinChoices(studyNames()) + ": run a study, not the grid",
         [&](const std::string &v) { opt.study = &studyNamed(v); }},
        {"--cache", "DIR", "result cache [.mcarun-cache]", store(opt.cacheDir)},
        {"--no-cache", "", "disable the result cache", set(opt.noCache)},
        {"--out", "FILE", "JSON-lines results (-: stdout, no table)",
         store(opt.jsonOut)},
        {"--csv", "FILE", "CSV results (-: stdout, no table)",
         store(opt.csvOut)},
        {"--telemetry", "FILE", "JSONL progress", store(opt.telemetryOut)},
        {"--no-table", "", "no human-readable table", set(opt.noTable)},
    });
    const FlagTable jobs = jobsFlags(opt.jobs);
    table.insert(table.end(), jobs.begin(), jobs.end());
    const auto check = [&] {
        if (opt.study) {
            for (const auto &flag : given)
                if (std::find(kStudyFlags.begin(), kStudyFlags.end(),
                              flag) == kStudyFlags.end())
                    throw UsageError(flag, "--study " + opt.study->name +
                                               " does not read it");
            if (opt.grid.traceSeeds.size() != 1)
                throw UsageError("--trace-seeds", "a study takes one seed");
        }
        // Records on stdout stay parseable: one sink there, no table.
        if (opt.jsonOut == "-" && opt.csvOut == "-")
            throw UsageError("--csv", "--out - already writes to stdout");
        if (opt.jsonOut == "-" || opt.csvOut == "-")
            opt.noTable = true;
        // Every point passes the runner's own validator before any
        // compile.
        for (const auto &spec : jobsOf(opt))
            checkPoint(spec);
    };
    parseCommandLine("mcarun — parallel experiment-campaign driver",
                     std::move(table), opt.quiet, argc, argv, check);
    return opt;
}

/** Open FILE for writing, with '-' standing for stdout. */
void
writeResults(const std::string &path,
             const std::vector<runner::JobResult> &results, bool csv)
{
    auto emit = [&](std::ostream &os) {
        if (csv)
            runner::emitCsv(os, results);
        else
            runner::emitJsonLines(os, results);
    };
    if (path == "-") {
        emit(std::cout);
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        MCA_FATAL("cannot open '", path, "' for writing");
    emit(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);

    runner::CampaignOptions campaign;
    campaign.jobs = opt.jobs;
    campaign.cacheDir = opt.noCache ? "" : opt.cacheDir;
    // The progress line goes to stderr so piped/captured results stay
    // clean; suppress it when stdout is the results sink anyway.
    runner::ProgressPrinter progress(std::cerr, !opt.quiet);
    campaign.onResult = std::ref(progress);

    // The telemetry stream shares the progress callback; runCampaign
    // invokes it under its own lock, so the JSONL records stay totally
    // ordered (done increments by exactly 1 per line).
    std::optional<runner::TelemetryWriter> telemetry;
    if (!opt.telemetryOut.empty()) {
        try {
            telemetry.emplace(opt.telemetryOut);
        } catch (const std::exception &e) {
            MCA_FATAL(e.what());
        }
        campaign.onResult = [&](std::size_t finished, std::size_t total,
                                const runner::JobResult &result) {
            progress(finished, total, result);
            telemetry->onResult(finished, total, result);
        };
    }

    runner::CampaignSummary summary;
    const auto specs = jobsOf(opt);
    if (telemetry)
        telemetry->start(specs.size(), opt.jobs);
    const auto results = runner::runCampaign(specs, campaign, &summary);
    progress.finish();
    if (telemetry)
        telemetry->finish(summary);

    if (!opt.jsonOut.empty())
        writeResults(opt.jsonOut, results, /*csv=*/false);
    if (!opt.csvOut.empty())
        writeResults(opt.csvOut, results, /*csv=*/true);

    if (!opt.noTable && opt.study)
        opt.study->print(std::cout, results);
    else if (!opt.noTable)
        runner::printColumns(std::cout, kGridColumns, results);

    for (const auto &r : results)
        if (r.status != runner::JobStatus::Ok)
            MCA_LOG_WARN("mcarun",
                         r.spec.benchmark, "/", r.spec.machine, "/",
                         r.spec.scheduler, " ",
                         runner::jobStatusName(r.status), ": ", r.error);
    if (!opt.quiet)
        runner::emitSummary(std::cerr, summary);

    if (!opt.study || !opt.study->check)
        return 0;
    const auto failures = opt.study->check(results);
    for (const auto &failure : failures)
        std::cerr << "mcarun: study " << opt.study->name
                  << ": FAIL: " << failure << "\n";
    return failures.empty() ? 0 : 1;
}
