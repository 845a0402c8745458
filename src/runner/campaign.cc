#include "runner/campaign.hh"

#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "compiler/pipeline.hh"
#include "prof/prof.hh"
#include "taskgraph/taskgraph.hh"
#include "workloads/workloads.hh"

namespace mca::runner
{

std::vector<JobSpec>
expandGrid(const CampaignGrid &grid)
{
    auto requireAxis = [](bool nonempty, const char *axis) {
        if (!nonempty)
            throw std::runtime_error(std::string("campaign grid axis '") +
                                     axis + "' is empty");
    };
    requireAxis(!grid.benchmarks.empty(), "benchmarks");
    requireAxis(!grid.machines.empty(), "machines");
    requireAxis(!grid.schedulers.empty(), "schedulers");
    requireAxis(!grid.thresholds.empty(), "thresholds");
    requireAxis(!grid.traceSeeds.empty(), "traceSeeds");
    requireAxis(!grid.l2Kbs.empty(), "l2Kbs");
    requireAxis(!grid.l2Lats.empty(), "l2Lats");
    requireAxis(!grid.memLats.empty(), "memLats");
    requireAxis(!grid.samplePeriods.empty(), "samplePeriods");

    // The values every job shares, set once.
    JobSpec shared;
    shared.sampleDetail = grid.sampleDetail;
    shared.sampleWarmup = grid.sampleWarmup;
    shared.fillPorts = grid.fillPorts;
    shared.scale = grid.scale;
    shared.unroll = grid.unroll;
    shared.predictor = grid.predictor;
    shared.maxInsts = grid.maxInsts;
    shared.maxCycles = grid.maxCycles;
    shared.icacheKb = grid.icacheKb;
    shared.dcacheKb = grid.dcacheKb;
    shared.dqEntries = grid.dqEntries;
    shared.otbEntries = grid.otbEntries;
    shared.rtbEntries = grid.rtbEntries;
    shared.mshrEntries = grid.mshrEntries;
    shared.queueMode = grid.queueMode;
    shared.specHistory = grid.specHistory;
    shared.reserveOldest = grid.reserveOldest;

    std::vector<JobSpec> specs;
    specs.reserve(grid.benchmarks.size() * grid.machines.size() *
                  grid.schedulers.size() * grid.thresholds.size() *
                  grid.traceSeeds.size() * grid.l2Kbs.size() *
                  grid.l2Lats.size() * grid.memLats.size() *
                  grid.samplePeriods.size());
    for (const auto &benchmark : grid.benchmarks)
      for (const auto &machine : grid.machines)
        for (const auto &scheduler : grid.schedulers)
          for (unsigned threshold : grid.thresholds)
            for (std::uint64_t seed : grid.traceSeeds)
              for (unsigned l2kb : grid.l2Kbs)
                for (unsigned l2lat : grid.l2Lats)
                  for (unsigned memlat : grid.memLats)
                    for (std::uint64_t period : grid.samplePeriods) {
                      JobSpec spec = shared;
                      spec.benchmark = benchmark;
                      spec.machine = machine;
                      spec.scheduler = scheduler;
                      spec.threshold = threshold;
                      spec.traceSeed = seed;
                      spec.l2Kb = l2kb;
                      spec.l2Lat = l2lat;
                      spec.memLat = memlat;
                      spec.samplePeriod = period;
                      spec.profileSeed = seed;
                      specs.push_back(std::move(spec));
                    }
    return specs;
}

CampaignSummary
summarize(const std::vector<JobResult> &results, double wall_ms)
{
    CampaignSummary summary;
    summary.total = results.size();
    summary.wallMs = wall_ms;
    for (const auto &result : results) {
        switch (result.status) {
        case JobStatus::Ok: ++summary.ok; break;
        case JobStatus::TimedOut: ++summary.timedOut; break;
        case JobStatus::Failed: ++summary.failed; break;
        }
        if (result.fromCache)
            ++summary.fromCache;
    }
    return summary;
}

std::vector<JobResult>
runCampaign(const std::vector<JobSpec> &specs,
            const CampaignOptions &options, CampaignSummary *summary)
{
    const auto start = std::chrono::steady_clock::now();
    ArtifactStore store(options.cacheDir);
    ArtifactStore *const compileStore =
        options.compileCache ? &store : nullptr;

    std::vector<JobResult> results(specs.size());
    std::mutex progressMutex;
    std::size_t finished = 0;

    auto settle = [&](std::size_t index, JobResult result) {
        // Slot assignment keeps output order == spec order no matter
        // which worker finishes first.
        results[index] = std::move(result);
        std::lock_guard<std::mutex> lock(progressMutex);
        ++finished;
        if (options.onResult)
            options.onResult(finished, specs.size(), results[index]);
    };

    // --- Graph construction. Store hits settle immediately; every
    // other spec becomes one simulation node, preceded by one shared
    // compile node per distinct compile key. The compile edge replaces
    // the old blocking-future path: a job whose binary is still
    // compiling is simply not ready yet, so its worker slot simulates
    // some other point instead of sleeping in future.get().
    taskgraph::TaskGraph graph;
    std::map<std::string, taskgraph::NodeId> compileNodes;
    std::vector<std::pair<std::size_t, taskgraph::NodeId>> simNodes;
    std::uint64_t keyedJobs = 0; // sim jobs routed through a compile key

    for (std::size_t i = 0; i < specs.size(); ++i) {
        const JobSpec &spec = specs[i];
        std::optional<JobResult> stored;
        {
            PROF_SCOPE("runner.artifacts.lookup");
            stored = store.loadResult(spec);
        }
        if (stored) {
            PROF_SCOPE("runner.artifacts.hit");
            settle(i, std::move(*stored));
            continue;
        }

        const taskgraph::NodeId sim = graph.add(
            spec.benchmark + "/" + spec.machine + "/" + spec.scheduler,
            spec.samplePeriod > 0 ? "sample" : "sim", [&, i] {
                JobResult result = runJob(specs[i], compileStore);
                store.storeResult(result);
                settle(i, std::move(result));
            });
        simNodes.emplace_back(i, sim);

        if (!compileStore)
            continue;
        // Keying needs the validated machine shape; a spec that fails
        // here will fail identically inside runJob, which owns the
        // error reporting — leave its node without a compile edge.
        std::string key;
        try {
            spec.validate();
            const core::ProcessorConfig cfg = machineConfigFor(spec);
            const compiler::CompileOptions copt =
                jobCompileOptions(spec, cfg.numClusters);
            key = ArtifactStore::compileKeyFor(spec, copt);
        } catch (const std::exception &) {
            continue;
        }
        ++keyedJobs;
        auto it = compileNodes.find(key);
        if (it == compileNodes.end()) {
            const taskgraph::NodeId compile = graph.add(
                "compile " + spec.benchmark + "/" + spec.scheduler,
                "compile", [&, i, key] {
                    const JobSpec &cspec = specs[i];
                    const core::ProcessorConfig cfg =
                        machineConfigFor(cspec);
                    const compiler::CompileOptions copt =
                        jobCompileOptions(cspec, cfg.numClusters);
                    store.getOrCompile(key, [&] {
                        PROF_SCOPE("runner.compile");
                        workloads::WorkloadParams wp;
                        wp.scale = cspec.scale;
                        const prog::Program program =
                            workloads::benchmarkByName(cspec.benchmark)
                                .make(wp);
                        return compiler::compile(program, copt);
                    });
                });
            it = compileNodes.emplace(key, compile).first;
        }
        graph.addEdge(it->second, sim);
    }

    taskgraph::ExecStats estats;
    if (graph.size() > 0) {
        const taskgraph::Executor executor(options.jobs);
        estats = executor.run(graph);
    }

    // Simulation nodes cancelled by a failed compile never ran their
    // body; settle them now (in spec order) with the compiler's error
    // text — the same message the blocking path used to rethrow.
    for (const auto &node : simNodes) {
        if (graph.status(node.second) != taskgraph::NodeStatus::Cancelled)
            continue;
        JobResult result;
        result.spec = specs[node.first];
        result.status = JobStatus::Failed;
        result.error = graph.error(node.second);
        settle(node.first, std::move(result));
    }

    const double wallMs = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (summary) {
        *summary = summarize(results, wallMs);
        summary->compiles = store.stats().compiles;
        // Shared = keyed jobs minus the distinct keys they resolved
        // to; single-flight in the store guarantees the distinct-key
        // count is exactly the builder-invocation count.
        summary->compileHits =
            keyedJobs - static_cast<std::uint64_t>(compileNodes.size());
        summary->jobs = options.jobs ? options.jobs : 1;
        summary->criticalPathMs = estats.criticalPathMs;
        summary->maxQueueDepth = estats.maxQueueDepth;
    }
    return results;
}

} // namespace mca::runner
