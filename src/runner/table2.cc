#include "runner/table2.hh"

#include "obs/cycle_stack.hh"
#include "support/panic.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

namespace mca::runner
{

namespace
{

harness::RunStats
toRunStats(const JobResult &result)
{
    harness::RunStats stats;
    stats.cycles = result.cycles;
    stats.retired = result.retired;
    stats.ipc = result.ipc;
    stats.distSingle = result.distSingle;
    stats.distDual = result.distDual;
    stats.operandForwards = result.operandForwards;
    stats.resultForwards = result.resultForwards;
    stats.replays = result.replays;
    stats.issueDisorder = result.issueDisorder;
    stats.bpredAccuracy = result.bpredAccuracy;
    stats.dcacheMissRate = result.dcacheMissRate;
    stats.icacheMissRate = result.icacheMissRate;
    stats.l2MissRate = result.l2MissRate;
    stats.completed = result.status == JobStatus::Ok;
    stats.cycleStack.slotCycles = result.stackSlotCycles;
    stats.cycleStack.slots = result.stackSlots;
    stats.cycleStack.cycles = result.cycles;
    return stats;
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
printTable2Attribution(std::ostream &os,
                       const std::vector<harness::Table2Row> &rows)
{
    bool have = false;
    for (const auto &row : rows)
        have |= row.single.cycleStack.slots > 0 &&
                row.dualNone.cycleStack.slots > 0;
    if (!have)
        return; // stacks absent (e.g. stale cache entries)

    os << "\nSlowdown attribution (dual/none minus single), "
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
    table.print(os);
}

} // namespace

std::vector<JobSpec>
table2Jobs(const harness::ExperimentOptions &options)
{
    std::vector<JobSpec> jobs;
    jobs.reserve(3 * workloads::allBenchmarks().size());
    for (const auto &bench : workloads::allBenchmarks()) {
        JobSpec base;
        base.benchmark = bench.name;
        base.scale = options.workload.scale;
        base.traceSeed = options.traceSeed;
        // The profiling run uses the trace seed, as in every campaign.
        base.profileSeed = options.traceSeed;
        base.maxInsts = options.maxInsts;

        JobSpec singleNative = base;
        singleNative.machine = "single8";
        singleNative.scheduler = "native";
        jobs.push_back(singleNative);

        JobSpec dualNative = base;
        dualNative.machine = "dual8";
        dualNative.scheduler = "native";
        jobs.push_back(dualNative);

        JobSpec dualLocal = base;
        dualLocal.machine = "dual8";
        dualLocal.scheduler = "local";
        jobs.push_back(dualLocal);
    }
    return jobs;
}

std::vector<harness::Table2Row>
assembleTable2Rows(const std::vector<JobResult> &jobs)
{
    MCA_ASSERT(jobs.size() % 3 == 0,
               "table-2 job list must hold three jobs per benchmark");
    std::vector<harness::Table2Row> rows;
    rows.reserve(jobs.size() / 3);
    for (std::size_t i = 0; i + 2 < jobs.size(); i += 3) {
        const JobResult &single = jobs[i];
        const JobResult &dualNone = jobs[i + 1];
        const JobResult &dualLocal = jobs[i + 2];

        harness::Table2Row row;
        row.benchmark = single.spec.benchmark;
        row.single = toRunStats(single);
        row.dualNone = toRunStats(dualNone);
        row.dualLocal = toRunStats(dualLocal);
        row.pctNone = speedupPct(single.cycles, dualNone.cycles);
        row.pctLocal = speedupPct(single.cycles, dualLocal.cycles);
        rows.push_back(std::move(row));
    }
    return rows;
}

double
speedupPct(Cycle single, Cycle dual)
{
    if (single == 0)
        return 0.0;
    return 100.0 - 100.0 * (static_cast<double>(dual) /
                            static_cast<double>(single));
}

Table2CampaignResult
runTable2Campaign(const harness::ExperimentOptions &options,
                  const CampaignOptions &campaign)
{
    Table2CampaignResult out;
    const auto jobs = table2Jobs(options);
    out.jobs = runCampaign(jobs, campaign, &out.summary);
    out.rows = assembleTable2Rows(out.jobs);
    return out;
}

void
printTable2(std::ostream &os, const std::vector<JobResult> &jobs)
{
    const auto rows = assembleTable2Rows(jobs);
    os << "Table 2: dual-cluster speedup ratios\n"
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
    table.print(os);
    printTable2Attribution(os, rows);
}

} // namespace mca::runner
