#include "runner/study.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "obs/cycle_stack.hh"
#include "runner/emit.hh"
#include "runner/flags.hh"
#include "runner/table2.hh"
#include "support/table.hh"
#include "timing/delay_model.hh"

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

/** The Ok job at `r`'s point under `scheduler`, or null if `results`
 *  has none. */
const JobResult *
atScheduler(const JobResult &r, const std::vector<JobResult> &results,
            const std::string &scheduler)
{
    JobSpec spec = r.spec;
    spec.scheduler = scheduler;
    const std::string key = spec.canonicalKey();
    for (const JobResult &b : results)
        if (b.status == JobStatus::Ok && b.spec.canonicalKey() == key)
            return &b;
    return nullptr;
}

/** The Ok multilevel jobs without an L2: the partitioner sweep the
 *  `clusters` gates read. */
std::vector<const JobResult *>
multilevelSweep(const std::vector<JobResult> &results)
{
    std::vector<const JobResult *> jobs;
    for (const JobResult &r : results)
        if (r.status == JobStatus::Ok && r.spec.scheduler == "multilevel" &&
            r.spec.l2Kb == 0)
            jobs.push_back(&r);
    return jobs;
}

/**
 * The geometric mean over benchmarks of multilevel IPC / local IPC on
 * `machine` without an L2, or 0 if no benchmark has both runs.
 */
double
mlLocalIpcGeomean(const std::vector<JobResult> &results,
                  const std::string &machine)
{
    double logSum = 0.0;
    std::size_t n = 0;
    for (const JobResult *ml : multilevelSweep(results)) {
        if (ml->spec.machine != machine)
            continue;
        const JobResult *local = atScheduler(*ml, results, "local");
        if (!local || local->ipc <= 0.0 || ml->ipc <= 0.0)
            continue;
        logSum += std::log(ml->ipc / local->ipc);
        ++n;
    }
    return n == 0 ? 0.0 : std::exp(logSum / static_cast<double>(n));
}

/** `benchmark/machine/scheduler, l2_kb N, mem_lat N`: a point of the
 *  gated studies, which vary the memory hierarchy. */
std::string
pointName(const JobSpec &spec)
{
    return spec.benchmark + "/" + spec.machine + "/" + spec.scheduler +
           ", l2_kb " + std::to_string(spec.l2Kb) + ", mem_lat " +
           std::to_string(spec.memLat);
}

/** Gate: every job is ok. */
std::vector<std::string>
everyJobOk(const std::vector<JobResult> &results)
{
    std::vector<std::string> failures;
    for (const JobResult &r : results)
        if (r.status != JobStatus::Ok)
            failures.push_back("every job is ok: " + pointName(r.spec) +
                               " " + jobStatusName(r.status) + ": " +
                               r.error);
    return failures;
}

/**
 * The `clusters` gates, over the partitioner sweep without an L2: every
 * job is ok; the multilevel partitioner cuts no more affinity weight
 * than round-robin on each benchmark and machine (both score the same
 * affinity graph); its geomean IPC over local's is at least 1 at 4 and
 * at 8 clusters.
 */
std::vector<std::string>
checkClusters(const std::vector<JobResult> &results)
{
    std::vector<std::string> failures = everyJobOk(results);
    for (const JobResult *ml : multilevelSweep(results)) {
        const JobResult *rr = atScheduler(*ml, results, "roundrobin");
        if (rr && ml->partitionCut > rr->partitionCut)
            failures.push_back(
                "multilevel cut <= round-robin: " + ml->spec.benchmark +
                "/" + ml->spec.machine + " cuts " +
                std::to_string(ml->partitionCut) + " > " +
                std::to_string(rr->partitionCut));
    }
    for (const std::string machine : {"quad8", "octa8"}) {
        const double geomean = mlLocalIpcGeomean(results, machine);
        // The margin absorbs the last bits of the log sum.
        if (geomean < 1.0 - 1e-9)
            failures.push_back("multilevel/local IPC geomean >= 1: " +
                               machine + " reads " +
                               TextTable::num(geomean, 4));
    }
    return failures;
}

/** The `memory` gates: every job is ok, and a job without an L2
 *  attributes no stall to one. */
std::vector<std::string>
checkMemory(const std::vector<JobResult> &results)
{
    std::vector<std::string> failures = everyJobOk(results);
    const auto l2 = static_cast<std::size_t>(obs::StallCause::DcacheL2);
    for (const JobResult &r : results)
        if (r.spec.l2Kb == 0 && r.stackSlotCycles[l2] != 0)
            failures.push_back("no dcache_l2 stall without an L2: " +
                               pointName(r.spec) + " reads " +
                               stackFieldName(l2) + " " +
                               std::to_string(r.stackSlotCycles[l2]));
    return failures;
}

/**
 * The paper's §4.2 cycle-time analysis: the critical-path delay model
 * at five feature sizes, the break-even clock-reduction rule (a 25%
 * slowdown needs a 20% smaller period), and each benchmark's net
 * run-time speedup of its dual-cluster run over its single-cluster one
 * at three feature sizes, the argument that the multicluster
 * architecture wins below 0.35 um.
 */
void
printCycleTime(std::ostream &os, const std::vector<JobResult> &results)
{
    timing::DelayModel model;

    os << "Critical-path delay model (calibrated to Palacharla et al.)\n\n";
    TextTable delays;
    delays.header({"feature size", "4-way delay (ps)", "8-way delay (ps)",
                   "8/4 growth", "wire share (4-way)"});
    for (double f : {0.8, 0.35, 0.25, 0.18, 0.13}) {
        delays.row({TextTable::num(f, 2) + " um",
                    TextTable::num(model.criticalPathPs(4, f), 0),
                    TextTable::num(model.criticalPathPs(8, f), 0),
                    TextTable::num(model.widthGrowthRatio(4, 8, f), 2),
                    TextTable::num(model.wireShare(f), 3)});
    }
    delays.print(os);
    os << "\nPaper anchors: 1248 ps -> 1484 ps (+18%) at 0.35 um; "
          "+82% at 0.18 um.\n";

    os << "\nBreak-even clock reduction (1 - 1/(1 + slowdown)):\n";
    TextTable brk;
    brk.header({"cycle slowdown", "required period reduction"});
    for (double s : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
        brk.row({TextTable::num(s, 0) + "%",
                 TextTable::num(
                     100.0 * timing::DelayModel::requiredClockReduction(s),
                     1) +
                     "%"});
    }
    brk.print(os);

    os << "\nNet run-time speedup of the dual-cluster machine (local "
          "scheduler),\ncombining the measured cycle ratio with the clock "
          "advantage of 4-way\nclusters over an 8-way single cluster:\n";
    TextTable net;
    net.header({"benchmark", "cycle ratio", "net @ 0.35um", "net @ 0.25um",
                "net @ 0.18um"});
    double worstRatio = 1.0;
    for (const JobResult &dual : results) {
        const JobResult *single = singleClusterRun(dual, results);
        if (!single || single == &dual || dual.status != JobStatus::Ok)
            continue;
        const double ratio = static_cast<double>(dual.cycles) /
                             static_cast<double>(single->cycles);
        worstRatio = std::max(worstRatio, ratio);
        net.row({dual.spec.benchmark, TextTable::num(ratio, 3),
                 TextTable::signedPercent(
                     model.netSpeedupPercent(ratio, 8, 4, 0.35), 1),
                 TextTable::signedPercent(
                     model.netSpeedupPercent(ratio, 8, 4, 0.25), 1),
                 TextTable::signedPercent(
                     model.netSpeedupPercent(ratio, 8, 4, 0.18), 1)});
    }
    net.print(os);

    os << "\nWorst-case cycle ratio " << TextTable::num(worstRatio, 2)
       << ": net effect "
       << TextTable::signedPercent(
              model.netSpeedupPercent(worstRatio, 8, 4, 0.35), 1)
       << "% at 0.35 um vs "
       << TextTable::signedPercent(
              model.netSpeedupPercent(worstRatio, 8, 4, 0.18), 1)
       << "% at 0.18 um — partitioning pays off as features "
          "shrink\n(the paper's conclusion).\n";
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
                                bool speedup = false) -> Study & {
        const auto print = [=](std::ostream &os,
                               const std::vector<JobResult> &results) {
            os << title << "\n\n";
            printColumns(os, columns, results, speedup);
        };
        return studies.emplace_back(Study{name, title, std::move(jobs),
                                          columns, speedup, print, {}});
    };
    studies.push_back({"table2", "Table 2: dual-cluster speedup ratios",
                       [](const JobSpec &base) {
                           harness::ExperimentOptions options;
                           options.workload.scale = base.scale;
                           options.maxInsts = base.maxInsts;
                           options.traceSeed = base.traceSeed;
                           return table2Jobs(options);
                       },
                       {}, false, printTable2, {}});
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
    add("table2_4way",
        "Table 2 on 4-way machines: single4 against dual4, two 2-way "
        "clusters (the paper ran them but reported only the 8-way data)",
        points(all, "",
               {"--machine single4 --scheduler native",
                "--machine dual4 --scheduler native",
                "--machine dual4 --scheduler local"}),
        {"benchmark", "machine", "scheduler", "cycles"}, /*speedup=*/true);
    studies.push_back({"cycletime",
                       "Cycle-time analysis (paper §4.2): the delay model "
                       "and the net run-time speedup of dual8/local over "
                       "single8",
                       points(all, "", {single, dualLocal}), {}, false,
                       printCycleTime, {}});

    // The 8-way resource pool split 1, 2, 4 and 8 ways under each
    // partitioner, then quad8 again with a shared L2.
    std::vector<std::string> partitioned = {single};
    for (const std::string machine :
         {"--machine dual8", "--machine quad8", "--machine octa8",
          "--machine quad8 --l2-kb 256"})
        for (const char *partitioner : {"local", "roundrobin", "multilevel"})
            partitioned.push_back(machine + " --scheduler " + partitioner);
    Study &clusters = add(
        "clusters",
        "Cluster count x partitioner (paper §6): the 8-way machine split "
        "1, 2, 4 and 8 ways, and quad8 with a 256 KB L2; cut = affinity "
        "weight split across clusters, balance = heaviest/ideal",
        points(all, "", partitioned),
        {"benchmark", "machine", "scheduler", "l2_kb", "cycles", "ipc",
         "l2_miss_rate", "partition_cut", "partition_balance"});
    clusters.print = [table = clusters.print](
                         std::ostream &os,
                         const std::vector<JobResult> &results) {
        table(os, results);
        const char *separator = "\nmultilevel/local IPC geomean: ";
        for (const char *machine : {"dual8", "quad8", "octa8"}) {
            os << separator << machine << " "
               << mlLocalIpcGeomean(results, machine);
            separator = ", ";
        }
        os << "\n";
    };
    clusters.check = checkClusters;

    // compress is branchy and memory-light, su2cor the vector code whose
    // misses in flight the paper's inverted MSHR exists for; l2_kb 0,
    // mem_lat 16 is paper mode.
    std::vector<std::string> hierarchies;
    for (const std::string l2 : {"0", "256"})
        for (const std::string lat : {"8", "16", "32"})
            hierarchies.push_back("--l2-kb " + l2 + " --mem-lat " + lat);
    add("memory",
        "Memory hierarchy: dual8/local with no L2 or a 256 KB L2 and 8-, "
        "16- or 32-cycle memory (paper mode: l2_kb 0, mem_lat 16)",
        points({"compress", "su2cor"}, dualLocal, hierarchies),
        {"benchmark", "l2_kb", "mem_lat", "cycles", "ipc",
         "dcache_miss_rate", "l2_miss_rate", "stack_dcache_l2",
         "stack_dcache_mem"})
        .check = checkMemory;
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
