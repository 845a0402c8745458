#include "runner/study.hh"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "runner/emit.hh"
#include "runner/flags.hh"
#include "runner/table2.hh"
#include "support/table.hh"

namespace mca::runner
{

namespace
{

/**
 * A study's jobs as mcasim points: for each benchmark, one job per
 * variant, each `base` with the mcasim flags `common` and then the
 * variant's applied through the point flag table, so `mcasim
 * --benchmark B <common> <variant>` runs the same point by hand.
 */
std::function<std::vector<JobSpec>(const JobSpec &)>
points(std::vector<std::string> benchmarks, const std::string &common,
       std::vector<std::string> variants)
{
    return [=](const JobSpec &base) {
        std::vector<JobSpec> specs;
        for (const auto &benchmark : benchmarks)
            for (const auto &variant : variants) {
                JobSpec &spec = specs.emplace_back(base);
                spec.benchmark = benchmark;
                std::istringstream words(common + " " + variant);
                parseFlags(pointFlags(spec),
                           {std::istream_iterator<std::string>(words), {}});
            }
        return specs;
    };
}

/** The run `r` is compared with: its benchmark's single-cluster native
 *  job at the same unroll factor, or null if `results` has none. */
const JobResult *
singleClusterRun(const JobResult &r, const std::vector<JobResult> &results)
{
    for (const JobResult &b : results)
        if (b.status == JobStatus::Ok &&
            b.spec.benchmark == r.spec.benchmark &&
            b.spec.unroll == r.spec.unroll && b.spec.scheduler == "native" &&
            machineConfigFor(b.spec).numClusters == 1)
            return &b;
    return nullptr;
}

std::vector<Study>
makeStudies()
{
    const auto &all = validBenchmarks();
    const std::string single = "--machine single8 --scheduler native";
    const std::string dualNative = "--machine dual8 --scheduler native";
    const std::string dualLocal = "--machine dual8 --scheduler local";
    std::vector<Study> studies;
    // A study printed by the column printer.
    const auto add = [&studies](const char *name, const char *title,
                                auto jobs, std::vector<std::string> columns,
                                bool speedup = false) {
        const auto print = [=](std::ostream &os,
                               const std::vector<JobResult> &results) {
            os << title << "\n\n";
            printColumns(os, columns, results, speedup);
        };
        studies.push_back({name, title, std::move(jobs), columns, speedup,
                           print});
    };
    studies.push_back({"table2", "Table 2: dual-cluster speedup ratios",
                       [](const JobSpec &base) {
                           harness::ExperimentOptions options;
                           options.workload.scale = base.scale;
                           options.maxInsts = base.maxInsts;
                           options.traceSeed = base.traceSeed;
                           return table2Jobs(options);
                       },
                       {}, false, printTable2});
    add("threshold",
        "Ablation: the local scheduler's imbalance threshold (paper §3.5) "
        "on dual8, against single8",
        points(all, "",
               {single, dualLocal + " --threshold 1",
                dualLocal + " --threshold 2", dualLocal + " --threshold 4",
                dualLocal + " --threshold 8", dualLocal + " --threshold 16",
                dualLocal + " --threshold 32"}),
        {"benchmark", "machine", "scheduler", "threshold", "cycles",
         "dist_single", "dist_dual"},
        /*speedup=*/true);
    add("buffers",
        "Ablation: operand and result transfer-buffer entries per cluster "
        "(the paper's 8 + 8), native binary on dual8",
        points(all, dualNative,
               {"--otb 1 --rtb 1", "--otb 2 --rtb 2", "--otb 4 --rtb 4",
                "--otb 8 --rtb 8", "--otb 16 --rtb 16", "--otb 32 --rtb 32"}),
        {"benchmark", "otb_entries", "rtb_entries", "cycles", "replays"});
    add("queues",
        "Ablation: dispatch-queue entries on single8 (the paper's §4.2 "
        "compress discussion)",
        points(all, single,
               {"--dq 16", "--dq 32", "--dq 64", "--dq 128", "--dq 256"}),
        {"benchmark", "dq_entries", "cycles", "bpred_accuracy",
         "dcache_miss_rate", "issue_disorder"});
    add("mshr",
        "Ablation: data-cache MSHR entries on single8 (0 = the paper's "
        "inverted MSHR, no limit on misses in flight)",
        points(all, single,
               {"--mshr 0", "--mshr 1", "--mshr 2", "--mshr 4", "--mshr 8",
                "--mshr 16"}),
        {"benchmark", "mshr_entries", "cycles"});
    add("predictor",
        "Ablation: branch-predictor organization on single8 (mcfarling is "
        "the paper's)",
        points(all, single,
               {"--predictor mcfarling", "--predictor mcfarling --spec-history",
                "--predictor gshare", "--predictor gshare --spec-history",
                "--predictor bimodal", "--predictor taken"}),
        {"benchmark", "predictor", "spec_history", "cycles",
         "bpred_accuracy"});
    add("unroll",
        "Extension: loop unrolling (paper §6), dual8 against single8 "
        "running the same unrolled binary",
        points(all, "",
               {single, dualLocal, single + " --unroll 2",
                dualLocal + " --unroll 2", single + " --unroll 4",
                dualLocal + " --unroll 4"}),
        {"benchmark", "machine", "scheduler", "unroll", "cycles"},
        /*speedup=*/true);
    add("compress_anomaly",
        "Study: the compress anomaly (paper §4.2), queue size and "
        "predictor staleness on single8 against dual8",
        points({"compress"}, "",
               {single + " --dq 32", single + " --dq 64",
                single + " --dq 128", single + " --dq 256",
                single + " --dq 128 --spec-history", dualLocal,
                dualLocal + " --spec-history"}),
        {"benchmark", "machine", "scheduler", "dq_entries", "spec_history",
         "cycles", "bpred_accuracy", "dcache_miss_rate", "issue_disorder"});
    return studies;
}

} // namespace

const std::vector<Study> &
studies()
{
    static const std::vector<Study> kStudies = makeStudies();
    return kStudies;
}

std::vector<std::string>
studyNames()
{
    std::vector<std::string> names;
    for (const Study &study : studies())
        names.push_back(study.name);
    return names;
}

const Study &
studyNamed(const std::string &name)
{
    requireOneOf(name, studyNames(), "study");
    return *std::find_if(studies().begin(), studies().end(),
                         [&](const Study &s) { return s.name == name; });
}

void
printColumns(std::ostream &os, const std::vector<std::string> &columns,
             const std::vector<JobResult> &results, bool speedup)
{
    TextTable table;
    std::vector<std::string> header = columns;
    if (speedup)
        header.push_back("speedup_pct");
    table.header(header);
    for (const JobResult &r : results) {
        std::vector<std::string> cells(header.size());
        forEachColumn(r, [&](std::string_view name, const auto &value) {
            const auto at = std::find(columns.begin(), columns.end(), name);
            if (at == columns.end())
                return;
            if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                         double>)
                cells[at - columns.begin()] = TextTable::num(value, 4);
            else
                cells[at - columns.begin()] = fieldText(value);
        });
        if (speedup) {
            const JobResult *single = singleClusterRun(r, results);
            cells.back() = single && r.status == JobStatus::Ok
                               ? TextTable::signedPercent(
                                     speedupPct(single->cycles, r.cycles), 1)
                               : "-";
        }
        table.row(std::move(cells));
    }
    table.print(os);
}

} // namespace mca::runner
