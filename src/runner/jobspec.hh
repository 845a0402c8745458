/**
 * @file
 * Campaign job specification and result.
 *
 * A JobSpec names one compile-and-simulate point: workload, compile
 * options, machine, and run-control bounds. Every field that can change
 * the simulation outcome participates in the spec's canonical key, and
 * the 64-bit content hash of that key is the identity the on-disk
 * result cache is keyed by — re-running a sweep only simulates points
 * whose spec changed.
 *
 * forEachField() is the record's one field list: the canonical key,
 * the JSONL and CSV emitters and the artifact store all loop over it,
 * so they name the same fields in the same order.
 *
 * Jobs are validated before they run (unknown benchmark / machine /
 * scheduler / predictor names throw std::runtime_error rather than
 * taking down the process), and a job whose simulation exhausts its
 * cycle budget is recorded as TimedOut. Both outcomes are campaign
 * *results*, not campaign failures.
 */

#ifndef MCA_RUNNER_JOBSPEC_HH
#define MCA_RUNNER_JOBSPEC_HH

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hh"
#include "obs/cycle_stack.hh"
#include "support/format.hh"
#include "support/types.hh"

namespace mca::compiler
{
struct CompileOptions;
}

namespace mca::runner
{

/** One compile-and-simulate point in a campaign. */
struct JobSpec
{
    /** Benchmark name (workloads::allBenchmarks() registry). */
    std::string benchmark = "compress";
    /** Workload scale (loop trip counts). */
    double scale = 0.2;

    /** Machine name (validMachines()). */
    std::string machine = "dual8";
    /** Scheduler/partitioner name: native|local|roundrobin|multilevel. */
    std::string scheduler = "local";
    /** Local-scheduler imbalance threshold. */
    unsigned threshold = 4;
    /** Unroll factor for counted self-loops (1 = off). */
    unsigned unroll = 1;
    /** Branch predictor override (empty = machine default). */
    std::string predictor;

    // Memory-hierarchy axes (defaults = paper mode; docs/memory.md).
    /** Shared-L2 size in KB; 0 = no L2 (paper mode). */
    unsigned l2Kb = 0;
    /** L1-miss-to-L2-hit latency in cycles. */
    unsigned l2Lat = 6;
    /** Memory backside latency in cycles. */
    unsigned memLat = 16;
    /** Fill ports per memory level; 0 = unlimited (paper mode). */
    unsigned fillPorts = 0;

    // Machine overrides (mcasim's flags); 0, empty or false keeps the
    // machine's own value.
    unsigned dqEntries = 0;     ///< dispatch-queue entries per cluster
    unsigned otbEntries = 0;    ///< operand transfer-buffer entries
    unsigned rtbEntries = 0;    ///< result transfer-buffer entries
    unsigned mshrEntries = 0;   ///< data-cache MSHR entries
    unsigned icacheKb = 0;      ///< L1 instruction-cache size in KB
    unsigned dcacheKb = 0;      ///< L1 data-cache size in KB
    std::string queueMode;      ///< validQueueModes()
    bool specHistory = false;   ///< speculative global branch history
    bool reserveOldest = false; ///< transfer-buffer entry for the oldest

    // Sampled-simulation axes (docs/sampling.md). samplePeriod = 0
    // runs the full detailed simulation; > 0 switches the job to the
    // systematic sampled driver with this interval period.
    std::uint64_t samplePeriod = 0;
    /** Detailed instructions measured per interval. */
    std::uint64_t sampleDetail = 10'000;
    /** Detailed warmup instructions discarded per interval. */
    std::uint64_t sampleWarmup = 2'000;

    std::uint64_t traceSeed = 42;
    /** Seed for the profiling run (campaigns tie it to traceSeed). */
    std::uint64_t profileSeed = 42;
    std::uint64_t maxInsts = 300'000;
    /**
     * Simulation cycle budget. A run that hits this bound without
     * retiring the full trace is recorded as JobStatus::TimedOut. The
     * budget is deterministic (simulated cycles, not wall clock), so
     * timeout behaviour is identical at any --jobs width.
     */
    Cycle maxCycles = 100'000'000;

    /**
     * Canonical key: `name=value;` for every field of forEachField(), in
     * list order. Two specs with equal keys produce bit-identical
     * results.
     */
    std::string canonicalKey() const;

    /** FNV-1a 64-bit hash of canonicalKey(), as 16 lowercase hex digits. */
    std::string contentHash() const;

    /**
     * Throw std::runtime_error naming the offending field and the valid
     * choices if any enumerated field holds an unknown value.
     */
    void validate() const;
};

/** Terminal state of one job. */
enum class JobStatus
{
    Ok,       ///< simulation retired the full trace
    TimedOut, ///< cycle budget exhausted before completion
    Failed,   ///< spec rejected or an exception escaped the pipeline
};

const char *jobStatusName(JobStatus status);

/** Everything one job produced (flat, serializable). */
struct JobResult
{
    JobSpec spec;
    JobStatus status = JobStatus::Failed;
    /** Populated when status == Failed. */
    std::string error;

    // Simulation statistics (valid for Ok; best-effort for TimedOut).
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    double ipc = 0.0;
    std::uint64_t distSingle = 0;
    std::uint64_t distDual = 0;
    std::uint64_t operandForwards = 0;
    std::uint64_t resultForwards = 0;
    std::uint64_t replays = 0;
    std::uint64_t issueDisorder = 0;
    double bpredAccuracy = 0.0;
    double dcacheMissRate = 0.0;
    double icacheMissRate = 0.0;
    /** Shared-L2 local miss rate; 0 when the machine has no L2. */
    double l2MissRate = 0.0;

    // Compiler-side statistics.
    std::uint64_t spillLoads = 0;
    std::uint64_t spillStores = 0;
    std::uint64_t otherClusterSpills = 0;
    /** Affinity edge weight the partition cut (0 for native). */
    std::uint64_t partitionCut = 0;
    /** Heaviest cluster / ideal cluster weight (0 for native). */
    double partitionBalance = 0.0;

    /**
     * Cycle-stack stall attribution: slot-cycles per cause, in
     * obs::StallCause order. stackSlots is the machine's retire width;
     * the entries sum to stackSlots * cycles (conservation).
     */
    std::array<std::uint64_t, obs::kNumStallCauses> stackSlotCycles{};
    unsigned stackSlots = 0;

    // Sampled-run extras (zero/false for full detailed runs). For a
    // sampled job, `cycles` is the extrapolated total (rounded),
    // `retired` is the full trace length, and the cycle stack is the
    // sum over the measured windows only.
    bool sampled = false;
    std::uint64_t sampledIntervals = 0;
    /** 95% CI half-width on the per-interval CPI mean. */
    double cpiCi95 = 0.0;

    /** Wall-clock milliseconds spent (informational; not cached identity). */
    double wallMs = 0.0;
    /** True when this result was served from the on-disk cache. */
    bool fromCache = false;
};

/** `stack_<cause>`: the record name of one cycle-stack entry. */
const std::string &stackFieldName(std::size_t cause);

/**
 * The record's field list, spec part: `f(name, member)` once for each
 * outcome-affecting JobSpec field, in record order. The name is the
 * field's JSONL key, CSV column and canonical-key name.
 */
template <class Spec, class F>
    requires std::same_as<std::remove_const_t<Spec>, JobSpec>
void
forEachField(Spec &spec, F &&f)
{
    f("benchmark", spec.benchmark);
    f("machine", spec.machine);
    f("scheduler", spec.scheduler);
    f("threshold", spec.threshold);
    f("unroll", spec.unroll);
    f("predictor", spec.predictor);
    f("scale", spec.scale);
    f("trace_seed", spec.traceSeed);
    f("profile_seed", spec.profileSeed);
    f("max_insts", spec.maxInsts);
    f("max_cycles", spec.maxCycles);
    f("l2_kb", spec.l2Kb);
    f("l2_lat", spec.l2Lat);
    f("mem_lat", spec.memLat);
    f("fill_ports", spec.fillPorts);
    f("sample_period", spec.samplePeriod);
    f("sample_detail", spec.sampleDetail);
    f("sample_warmup", spec.sampleWarmup);
    f("dq_entries", spec.dqEntries);
    f("otb_entries", spec.otbEntries);
    f("rtb_entries", spec.rtbEntries);
    f("mshr_entries", spec.mshrEntries);
    f("icache_kb", spec.icacheKb);
    f("dcache_kb", spec.dcacheKb);
    f("queue_mode", spec.queueMode);
    f("spec_history", spec.specHistory);
    f("reserve_oldest", spec.reserveOldest);
}

/**
 * The record's field list, result part: `f(name, member)` once for
 * each measurement, in record order (the spec and fromCache, which
 * says where the record came from, are not measurements). The name is
 * the field's JSONL key, CSV column and artifact-store line.
 */
template <class Result, class F>
    requires std::same_as<std::remove_const_t<Result>, JobResult>
void
forEachField(Result &result, F &&f)
{
    f("status", result.status);
    f("error", result.error);
    f("cycles", result.cycles);
    f("retired", result.retired);
    f("ipc", result.ipc);
    f("dist_single", result.distSingle);
    f("dist_dual", result.distDual);
    f("operand_forwards", result.operandForwards);
    f("result_forwards", result.resultForwards);
    f("replays", result.replays);
    f("issue_disorder", result.issueDisorder);
    f("bpred_accuracy", result.bpredAccuracy);
    f("dcache_miss_rate", result.dcacheMissRate);
    f("icache_miss_rate", result.icacheMissRate);
    f("l2_miss_rate", result.l2MissRate);
    f("spill_loads", result.spillLoads);
    f("spill_stores", result.spillStores);
    f("other_cluster_spills", result.otherClusterSpills);
    f("partition_cut", result.partitionCut);
    f("partition_balance", result.partitionBalance);
    f("stack_slots", result.stackSlots);
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        f(stackFieldName(i), result.stackSlotCycles[i]);
    f("sampled", result.sampled);
    f("sampled_intervals", result.sampledIntervals);
    f("cpi_ci95", result.cpiCi95);
    f("wall_ms", result.wallMs);
}

/**
 * A field's value as plain text, as the canonical key, the artifact
 * store and CSV cells write it: strings verbatim, doubles
 * round-trippable (formatDouble), bools `true`/`false`, a status by
 * its name, integers in decimal.
 */
template <class T>
std::string
fieldText(const T &value)
{
    if constexpr (std::is_same_v<T, std::string>)
        return value;
    else if constexpr (std::is_same_v<T, double>)
        return formatDouble(value);
    else if constexpr (std::is_same_v<T, bool>)
        return value ? "true" : "false";
    else if constexpr (std::is_same_v<T, JobStatus>)
        return jobStatusName(value);
    else
        return std::to_string(value);
}

class ArtifactStore;

/**
 * Validate, compile, and simulate one spec. Never throws for
 * invalid-spec or pipeline errors — those come back as status Failed
 * with the message in `error`.
 *
 * With an ArtifactStore, the compile step is memoized on the
 * (workload, compile-config) pair: jobs differing only in machine or
 * run-control fields share one compiled binary (see artifact_store.hh).
 * The task-graph campaign pre-compiles each distinct key in its own
 * node, so by the time runJob asks the store the artifact is ready.
 */
JobResult runJob(const JobSpec &spec, ArtifactStore *store = nullptr);

/**
 * Build the ProcessorConfig a spec names (machine factory + predictor
 * override + memory-hierarchy axes + machine overrides), validated.
 * This is the only map from a machine or predictor name to a config.
 * Throws std::runtime_error on unknown names or inconsistent geometry;
 * both tools use it at parse time to fail fast before any job runs.
 */
core::ProcessorConfig machineConfigFor(const JobSpec &spec);

/**
 * The compile configuration a spec names: the scheduler's base options
 * with the spec's threshold/unroll/profile-seed applied. The campaign
 * uses this (with machineConfigFor) to key compile artifacts before
 * any job runs.
 */
compiler::CompileOptions jobCompileOptions(const JobSpec &spec,
                                           unsigned machine_clusters);

/** `choices` joined with '|', as help text and errors list them. */
std::string joinChoices(const std::vector<std::string> &choices);

/** Throw std::runtime_error naming `what`, `value` and the choices
 *  unless `value` is one of `valid`. */
void requireOneOf(const std::string &value,
                  const std::vector<std::string> &valid, const char *what);

/**
 * Valid choices for the enumerated spec fields (for CLI help/errors);
 * compiler::schedulerNames() lists the schedulers.
 */
const std::vector<std::string> &validMachines();
const std::vector<std::string> &validPredictors();
const std::vector<std::string> &validBenchmarks();
const std::vector<std::string> &validQueueModes();

} // namespace mca::runner

#endif // MCA_RUNNER_JOBSPEC_HH
