/**
 * @file
 * mcarun — parallel experiment-campaign driver.
 *
 * Expands a parameter grid (benchmarks × machines × schedulers ×
 * thresholds × trace seeds) into independent compile-and-simulate
 * jobs, shards them across worker threads, serves repeated points from
 * an on-disk result cache, and emits JSON-lines and/or CSV results.
 *
 * Results are bit-identical at any --jobs width: each job owns all of
 * its state and results are emitted in grid order, never completion
 * order. Failed or timed-out jobs are recorded in the output (status
 * column) and never abort the campaign; the exit code is 0 as long as
 * the campaign itself ran.
 *
 *   mcarun --benchmarks all --machines single8,dual8 \
 *          --schedulers native,local --jobs 8 --out results.jsonl
 *   mcarun --table2 --scale 1.0 --jobs $(nproc) --csv table2.csv
 *   mcarun --benchmarks compress --thresholds 1,2,4,8,16,32 --csv -
 */

#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/cycle_stack.hh"
#include "runner/campaign.hh"
#include "runner/emit.hh"
#include "runner/flags.hh"
#include "runner/table2.hh"
#include "runner/telemetry.hh"
#include "support/log.hh"
#include "support/panic.hh"
#include "support/table.hh"

namespace
{

using namespace mca;

struct Options
{
    runner::CampaignGrid grid;
    bool table2 = false;
    unsigned jobs = 1;
    std::string cacheDir = ".mcarun-cache";
    bool noCache = false;
    std::string jsonOut;
    std::string csvOut;
    std::string telemetryOut;
    bool quiet = false;
    bool noTable = false;
};

/** Parse the command line; a mistake exits with status 2. */
Options
parse(int argc, char **argv)
{
    using namespace runner;
    Options opt;
    const Flag::Action jobs = [&](const std::string &v) {
        const unsigned hw = std::thread::hardware_concurrency();
        opt.jobs = v == "auto" ? std::max(hw, 1u)
                               : static_cast<unsigned>(
                                     parseUnsigned(v, 1, 4096));
    };
    FlagTable table = gridFlags(opt.grid);
    table.insert(table.end(), {
        {"", "", "campaign", {}},
        {"--table2", "", "run and print Table 2", set(opt.table2)},
        {"--jobs", "N|auto", "worker threads, 1..4096 or all [1]", jobs},
        {"-j", "N|auto", "same as --jobs", jobs},
        {"--cache", "DIR", "result cache [.mcarun-cache]", store(opt.cacheDir)},
        {"--no-cache", "", "disable the result cache", set(opt.noCache)},
        {"--out", "FILE", "JSON-lines results (-: stdout)", store(opt.jsonOut)},
        {"--csv", "FILE", "CSV results (-: stdout)", store(opt.csvOut)},
        {"--telemetry", "FILE", "JSONL progress", store(opt.telemetryOut)},
        {"--no-table", "", "no human-readable table", set(opt.noTable)},
    });
    // Every point passes the runner's own validator before any compile.
    parseCommandLine("mcarun — parallel experiment-campaign driver",
                     std::move(table), opt.quiet, argc, argv, [&] {
                         if (!opt.table2)
                             for (const auto &spec : expandGrid(opt.grid))
                                 checkPoint(spec);
                     });
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

void
printGridTable(const std::vector<runner::JobResult> &results)
{
    TextTable table;
    table.header({"benchmark", "machine", "scheduler", "thr", "seed",
                  "status", "cycles", "retired", "ipc", "replays",
                  "cache"});
    for (const auto &r : results)
        table.row({r.spec.benchmark, r.spec.machine, r.spec.scheduler,
                   std::to_string(r.spec.threshold),
                   std::to_string(r.spec.traceSeed),
                   runner::jobStatusName(r.status),
                   std::to_string(r.cycles), std::to_string(r.retired),
                   TextTable::num(r.ipc), std::to_string(r.replays),
                   r.fromCache ? "hit" : "miss"});
    table.print(std::cout);
}

void
printTable2(const std::vector<harness::Table2Row> &rows)
{
    std::cout << "Table 2: dual-cluster speedup ratios\n"
              << "  100 - 100*(cycles_dual / cycles_single); "
              << "positive = speedup\n\n";
    TextTable table;
    table.header({"benchmark", "none (paper)", "none (ours)",
                  "local (paper)", "local (ours)", "single cycles",
                  "dual-none cycles", "dual-local cycles", "replays(l)"});
    const auto &paper = harness::paperTable2();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        const bool havePaper = i < paper.size();
        table.row({row.benchmark,
                   havePaper ? TextTable::signedPercent(paper[i].pctNone)
                             : "-",
                   TextTable::signedPercent(row.pctNone),
                   havePaper ? TextTable::signedPercent(paper[i].pctLocal)
                             : "-",
                   TextTable::signedPercent(row.pctLocal),
                   std::to_string(row.single.cycles),
                   std::to_string(row.dualNone.cycles),
                   std::to_string(row.dualLocal.cycles),
                   std::to_string(row.dualLocal.replays)});
    }
    table.print(std::cout);
}

/**
 * Where did the dual-cluster machine lose its cycles? For each
 * benchmark, the per-cause cycle-stack delta between the dual-none run
 * and the single-cluster baseline: positive = cycles the dual machine
 * spends on that cause beyond the single machine. The cause columns sum
 * to the total cycle delta (conservation), so the table decomposes
 * Table 2's slowdown into the paper's §2.1 mechanisms.
 */
void
printTable2Attribution(const std::vector<harness::Table2Row> &rows)
{
    bool have = false;
    for (const auto &row : rows)
        have |= row.single.cycleStack.slots > 0 &&
                row.dualNone.cycleStack.slots > 0;
    if (!have)
        return; // stacks absent (e.g. stale cache entries)

    std::cout << "\nSlowdown attribution (dual/none minus single), "
                 "cycles by cause:\n";
    TextTable table;
    std::vector<std::string> header = {"benchmark", "dCycles"};
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        header.push_back(
            obs::stallCauseName(static_cast<obs::StallCause>(i)));
    table.header(header);
    for (const auto &row : rows) {
        if (row.single.cycleStack.slots == 0 ||
            row.dualNone.cycleStack.slots == 0)
            continue;
        std::vector<std::string> cells = {
            row.benchmark,
            std::to_string(static_cast<long long>(
                row.dualNone.cycles - row.single.cycles))};
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i) {
            const auto cause = static_cast<obs::StallCause>(i);
            const double delta =
                row.dualNone.cycleStack.cyclesOf(cause) -
                row.single.cycleStack.cyclesOf(cause);
            cells.push_back(TextTable::num(delta, 0));
        }
        table.row(cells);
    }
    table.print(std::cout);
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
    std::vector<runner::JobResult> results;
    std::vector<harness::Table2Row> table2Rows;

    if (opt.table2) {
        harness::ExperimentOptions exp;
        exp.workload.scale = opt.grid.scale;
        exp.maxInsts = opt.grid.maxInsts;
        if (!opt.grid.thresholds.empty())
            exp.imbalanceThreshold = opt.grid.thresholds.front();
        if (!opt.grid.traceSeeds.empty())
            exp.traceSeed = opt.grid.traceSeeds.front();
        auto result = runner::runTable2Campaign(exp, campaign);
        results = std::move(result.jobs);
        table2Rows = std::move(result.rows);
        summary = result.summary;
    } else {
        const auto specs = runner::expandGrid(opt.grid);
        if (telemetry)
            telemetry->start(specs.size(), opt.jobs);
        results = runner::runCampaign(specs, campaign, &summary);
    }
    progress.finish();
    if (telemetry)
        telemetry->finish(summary);

    if (!opt.jsonOut.empty())
        writeResults(opt.jsonOut, results, /*csv=*/false);
    if (!opt.csvOut.empty())
        writeResults(opt.csvOut, results, /*csv=*/true);

    if (!opt.noTable) {
        if (opt.table2) {
            printTable2(table2Rows);
            printTable2Attribution(table2Rows);
        } else {
            printGridTable(results);
        }
    }

    for (const auto &r : results)
        if (r.status != runner::JobStatus::Ok)
            MCA_LOG_WARN("mcarun",
                         r.spec.benchmark, "/", r.spec.machine, "/",
                         r.spec.scheduler, " ",
                         runner::jobStatusName(r.status), ": ", r.error);
    if (!opt.quiet)
        runner::emitSummary(std::cerr, summary);
    return 0;
}
