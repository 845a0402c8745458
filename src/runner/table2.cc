#include "runner/table2.hh"

#include "support/panic.hh"
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

} // namespace

std::vector<JobSpec>
table2Jobs(const harness::ExperimentOptions &options)
{
    const std::string single = options.eightWay ? "single8" : "single4";
    const std::string dual = options.eightWay ? "dual8" : "dual4";

    std::vector<JobSpec> jobs;
    jobs.reserve(3 * workloads::allBenchmarks().size());
    for (const auto &bench : workloads::allBenchmarks()) {
        JobSpec base;
        base.benchmark = bench.name;
        base.scale = options.workload.scale;
        base.threshold = options.imbalanceThreshold;
        base.traceSeed = options.traceSeed;
        // The profiling run uses the trace seed, as in every campaign.
        base.profileSeed = options.traceSeed;
        base.maxInsts = options.maxInsts;

        JobSpec singleNative = base;
        singleNative.machine = single;
        singleNative.scheduler = "native";
        jobs.push_back(singleNative);

        JobSpec dualNative = base;
        dualNative.machine = dual;
        dualNative.scheduler = "native";
        jobs.push_back(dualNative);

        JobSpec dualLocal = base;
        dualLocal.machine = dual;
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
        row.spillLoadsLocal = dualLocal.spillLoads;
        row.spillStoresLocal = dualLocal.spillStores;
        row.otherClusterSpills = dualLocal.otherClusterSpills;

        auto pct = [&](const harness::RunStats &dual) {
            if (row.single.cycles == 0)
                return 0.0;
            return 100.0 -
                   100.0 * (static_cast<double>(dual.cycles) /
                            static_cast<double>(row.single.cycles));
        };
        row.pctNone = pct(row.dualNone);
        row.pctLocal = pct(row.dualLocal);
        rows.push_back(std::move(row));
    }
    return rows;
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

} // namespace mca::runner
