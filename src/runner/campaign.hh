/**
 * @file
 * Experiment campaigns: parameter-grid expansion and parallel execution.
 *
 * A CampaignGrid is the cross product of benchmark × machine ×
 * scheduler × threshold × trace-seed lists over a shared set of
 * run-control bounds; expandGrid() flattens it into JobSpecs in a
 * deterministic order (the nesting order documented on the struct).
 *
 * runCampaign() is graph construction: each spec not served by the
 * ArtifactStore becomes a simulation node in a taskgraph::TaskGraph,
 * with one deduplicated compile node per distinct compile key feeding
 * its simulation nodes, and the whole DAG runs N-wide on the
 * taskgraph::Executor. Because the compile dependency is an edge
 * rather than a blocking future inside the job body, a compile only
 * ever occupies one worker while sibling workers simulate other
 * points (CampaignSummary::criticalPathMs reports the schedule).
 *
 * Determinism guarantee: results are written into their spec's slot
 * (never in completion order), each job owns all of its state, and
 * `harness::simulate` is single-threaded internally — so the emitted
 * results are bit-identical for any `jobs` width. A job that throws or
 * exhausts its cycle budget is recorded (status Failed / TimedOut) and
 * the campaign continues; a failed compile fails exactly the jobs that
 * depended on it, with the compiler's error text.
 */

#ifndef MCA_RUNNER_CAMPAIGN_HH
#define MCA_RUNNER_CAMPAIGN_HH

#include <functional>
#include <string>
#include <vector>

#include "runner/artifact_store.hh"
#include "runner/jobspec.hh"

namespace mca::runner
{

/** Parameter grid; expansion nests benchmark(outer) → machine →
 *  scheduler → threshold → traceSeed → l2Kb → l2Lat → memLat →
 *  samplePeriod(inner). Each spec's profileSeed is its traceSeed. */
struct CampaignGrid
{
    std::vector<std::string> benchmarks = {"compress"};
    std::vector<std::string> machines = {"dual8"};
    std::vector<std::string> schedulers = {"local"};
    std::vector<unsigned> thresholds = {4};
    std::vector<std::uint64_t> traceSeeds = {42};
    // Memory-hierarchy axes (defaults = paper mode; docs/memory.md).
    std::vector<unsigned> l2Kbs = {0};
    std::vector<unsigned> l2Lats = {6};
    std::vector<unsigned> memLats = {16};
    /** Sampled-simulation axis: 0 = full detailed run (the default),
     *  > 0 = systematic sampling with this period (docs/sampling.md). */
    std::vector<std::uint64_t> samplePeriods = {0};

    // Shared run-control bounds (copied into every spec).
    double scale = 0.2;
    unsigned unroll = 1;
    std::string predictor;
    /** Fill ports per memory level; 0 = unlimited (paper mode). */
    unsigned fillPorts = 0;
    // Machine overrides (JobSpec's); 0, empty or false keeps the
    // machine's own value.
    unsigned icacheKb = 0;
    unsigned dcacheKb = 0;
    unsigned dqEntries = 0;
    unsigned otbEntries = 0;
    unsigned rtbEntries = 0;
    unsigned mshrEntries = 0;
    std::string queueMode;
    bool specHistory = false;
    bool reserveOldest = false;
    /** Per-interval sizes for the samplePeriods axis. */
    std::uint64_t sampleDetail = 10'000;
    std::uint64_t sampleWarmup = 2'000;
    std::uint64_t maxInsts = 300'000;
    Cycle maxCycles = 100'000'000;
};

/** Flatten the grid. Throws std::runtime_error if any axis is empty. */
std::vector<JobSpec> expandGrid(const CampaignGrid &grid);

/** Aggregate campaign outcome. */
struct CampaignSummary
{
    std::size_t total = 0;
    std::size_t ok = 0;
    std::size_t timedOut = 0;
    std::size_t failed = 0;
    std::size_t fromCache = 0;
    double wallMs = 0.0; ///< whole-campaign wall clock

    // Compile-cache outcome (zero when the cache is disabled).
    /** Compiler invocations == distinct (workload, compile-config)
     *  pairs among the jobs that actually ran. */
    std::uint64_t compiles = 0;
    /** Jobs that shared a compile instead of running their own. */
    std::uint64_t compileHits = 0;

    // Executor outcome (zero when every job came from the store).
    /** Resolved worker width the campaign ran at. */
    unsigned jobs = 0;
    /** Longest compile→simulate chain in host ms (taskgraph.hh). */
    double criticalPathMs = 0.0;
    /** Peak ready-queue depth inside the executor. */
    std::size_t maxQueueDepth = 0;
};

struct CampaignOptions
{
    /** Worker width (1 = serial; results are identical either way). */
    unsigned jobs = 1;
    /** Cache directory; empty disables caching. */
    std::string cacheDir;
    /** Share compiles across jobs with equal (workload, compile-config)
     *  keys (see artifact_store.hh). Results are identical either way. */
    bool compileCache = true;
    /**
     * Called after each job settles, under a lock (safe to write to a
     * stream), with (finished-count, total, just-finished result).
     * Used for the live progress line.
     */
    std::function<void(std::size_t, std::size_t, const JobResult &)>
        onResult;
};

/**
 * Run every spec (cache-first), return results in spec order.
 * Never throws for per-job errors; see JobResult::status.
 */
std::vector<JobResult> runCampaign(const std::vector<JobSpec> &specs,
                                   const CampaignOptions &options,
                                   CampaignSummary *summary = nullptr);

/** Summarize an already-run result list (plus wall time if known). */
CampaignSummary summarize(const std::vector<JobResult> &results,
                          double wall_ms = 0.0);

} // namespace mca::runner

#endif // MCA_RUNNER_CAMPAIGN_HH
