#include "runner/jobspec.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "compiler/pipeline.hh"
#include "prof/prof.hh"
#include "runner/artifact_store.hh"
#include "core/config.hh"
#include "harness/experiment.hh"
#include "sample/driver.hh"
#include "workloads/workloads.hh"

namespace mca::runner
{

namespace
{

/** The machines a spec can name: the paper's §4.1 pair, their 4-way
 *  variants, and the 4- and 8-cluster splits of the 8-way machine. */
const std::pair<const char *, core::ProcessorConfig (*)()> kMachines[] = {
    {"single8", &core::ProcessorConfig::singleCluster8},
    {"dual8", &core::ProcessorConfig::dualCluster8},
    {"single4", &core::ProcessorConfig::singleCluster4},
    {"dual4", &core::ProcessorConfig::dualCluster4},
    {"quad8", [] { return core::ProcessorConfig::multiCluster8(4); }},
    {"octa8", [] { return core::ProcessorConfig::multiCluster8(8); }},
};

using PredictorKind = core::ProcessorConfig::PredictorKind;
const std::pair<const char *, PredictorKind> kPredictors[] = {
    {"mcfarling", PredictorKind::McFarling},
    {"gshare", PredictorKind::Gshare},
    {"bimodal", PredictorKind::Bimodal},
    {"taken", PredictorKind::StaticTaken},
    {"nottaken", PredictorKind::StaticNotTaken},
};

/** A sampled spec's plan on `jobs` window workers. */
sample::SampleSpec
samplePlan(const JobSpec &spec, unsigned jobs = 1)
{
    return {.period = spec.samplePeriod,
            .detail = spec.sampleDetail,
            .warmup = spec.sampleWarmup,
            .jobs = jobs};
}

/** Dispatch-queue modes: whether entries are held until retirement
 *  (the queue is the window) or freed at issue (reservation stations). */
const std::pair<const char *, bool> kQueueModes[] = {{"window", true},
                                                     {"rs", false}};

/** The value `name` maps to in `table`; throws naming `what` if none. */
template <class Value, std::size_t N>
Value
lookup(const std::pair<const char *, Value> (&table)[N],
       const std::string &name, const char *what)
{
    for (const auto &[key, value] : table)
        if (name == key)
            return value;
    throw std::runtime_error(std::string("unknown ") + what + " '" + name +
                             "'");
}

template <class Value, std::size_t N>
std::vector<std::string>
namesOf(const std::pair<const char *, Value> (&table)[N])
{
    std::vector<std::string> names;
    for (const auto &entry : table)
        names.push_back(entry.first);
    return names;
}

} // namespace

std::string
joinChoices(const std::vector<std::string> &choices)
{
    std::string out;
    for (const auto &c : choices)
        out += (out.empty() ? "" : "|") + c;
    return out;
}

void
requireOneOf(const std::string &value, const std::vector<std::string> &valid,
             const char *what)
{
    if (std::find(valid.begin(), valid.end(), value) == valid.end())
        throw std::runtime_error(std::string("unknown ") + what + " '" +
                                 value + "' (valid: " +
                                 joinChoices(valid) + ")");
}

core::ProcessorConfig
machineConfigFor(const JobSpec &spec)
{
    core::ProcessorConfig cfg = lookup(kMachines, spec.machine, "machine")();
    if (!spec.predictor.empty())
        cfg.predictor = lookup(kPredictors, spec.predictor, "predictor");

    cfg.memory.l2SizeBytes = static_cast<std::uint64_t>(spec.l2Kb) * 1024;
    cfg.memory.l2HitLatency = spec.l2Lat;
    cfg.memory.memLatency = spec.memLat;
    cfg.memory.icache.fillPorts = spec.fillPorts;
    cfg.memory.dcache.fillPorts = spec.fillPorts;
    cfg.memory.l2FillPorts = spec.fillPorts;
    cfg.memory.memPorts = spec.fillPorts;

    // Machine overrides: 0, empty or false keeps the machine's value.
    const auto overrideWith = [](auto &field, auto value) {
        if (value)
            field = value;
    };
    overrideWith(cfg.dispatchQueueEntries, spec.dqEntries);
    overrideWith(cfg.operandBufferEntries, spec.otbEntries);
    overrideWith(cfg.resultBufferEntries, spec.rtbEntries);
    overrideWith(cfg.memory.dcache.mshrEntries, spec.mshrEntries);
    overrideWith(cfg.memory.icache.sizeBytes, spec.icacheKb * 1024ull);
    overrideWith(cfg.memory.dcache.sizeBytes, spec.dcacheKb * 1024ull);
    overrideWith(cfg.speculativeHistory, spec.specHistory);
    overrideWith(cfg.reserveOldestEntry, spec.reserveOldest);
    if (!spec.queueMode.empty())
        cfg.holdQueueUntilRetire =
            lookup(kQueueModes, spec.queueMode, "queue mode");
    cfg.validate();
    return cfg;
}

compiler::CompileOptions
jobCompileOptions(const JobSpec &spec, unsigned machine_clusters)
{
    compiler::CompileOptions copt =
        compiler::compileOptionsFor(spec.scheduler, machine_clusters);
    copt.imbalanceThreshold = spec.threshold;
    copt.unrollFactor = spec.unroll;
    copt.profileSeed = spec.profileSeed;
    return copt;
}

const std::string &
stackFieldName(std::size_t cause)
{
    static const auto kNames = [] {
        std::array<std::string, obs::kNumStallCauses> names;
        for (std::size_t i = 0; i < names.size(); ++i)
            names[i] = std::string("stack_") +
                       obs::stallCauseName(static_cast<obs::StallCause>(i));
        return names;
    }();
    return kNames[cause];
}

std::string
JobSpec::canonicalKey() const
{
    std::string key;
    forEachField(*this, [&key](std::string_view name, const auto &value) {
        key.append(name).append("=").append(fieldText(value)).append(";");
    });
    return key;
}

std::string
JobSpec::contentHash() const
{
    // FNV-1a, 64-bit: stable across platforms and runs (unlike
    // std::hash, which the standard leaves unspecified).
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : canonicalKey()) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
JobSpec::validate() const
{
    requireOneOf(benchmark, validBenchmarks(), "benchmark");
    requireOneOf(machine, validMachines(), "machine");
    requireOneOf(scheduler, compiler::schedulerNames(), "scheduler");
    if (!predictor.empty())
        requireOneOf(predictor, validPredictors(), "predictor");
    if (!queueMode.empty())
        requireOneOf(queueMode, validQueueModes(), "queue mode");
    if (maxInsts == 0)
        throw std::runtime_error("maxInsts must be positive");
    if (maxCycles == 0)
        throw std::runtime_error("maxCycles must be positive");
    if (samplePeriod > 0)
        samplePlan(*this).validate(); // overlap / zero-detail checks
}

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::TimedOut: return "timeout";
    case JobStatus::Failed: return "failed";
    }
    return "unknown";
}

std::string
cycleBudgetError(Cycle max_cycles)
{
    return "cycle budget exhausted (" + std::to_string(max_cycles) +
           " cycles)";
}

compiler::CompileOutput
compileJob(const JobSpec &spec, const compiler::CompileOptions &copt)
{
    PROF_SCOPE("runner.compile");
    workloads::WorkloadParams wp;
    wp.scale = spec.scale;
    const prog::Program program =
        workloads::benchmarkByName(spec.benchmark).make(wp);
    return compiler::compile(program, copt);
}

sample::SampleReport
runSampled(const JobSpec &spec, const compiler::CompileOutput &compiled,
           core::ProcessorConfig cfg, unsigned jobs)
{
    cfg.regMap = compiled.hardwareMap(cfg.numClusters);
    const sample::SampledDriver driver(compiled.binary, cfg, spec.traceSeed,
                                       spec.maxInsts);
    sample::SampleReport rep = driver.run(samplePlan(spec, jobs));
    if (!rep.allConserved)
        throw std::runtime_error(
            "sample: a window violated cycle-stack conservation");
    if (rep.intervals.empty())
        throw std::runtime_error(
            "sample: no window measured (period " +
            std::to_string(spec.samplePeriod) + ", trace of " +
            std::to_string(rep.totalInsts) + " instructions)");
    return rep;
}

JobResult
runJob(const JobSpec &spec, ArtifactStore *store)
{
    JobResult out;
    out.spec = spec;
    PROF_SCOPE("runner.job");
    const auto start = std::chrono::steady_clock::now();
    try {
        spec.validate();

        const core::ProcessorConfig cfg = machineConfigFor(spec);
        const compiler::CompileOptions copt =
            jobCompileOptions(spec, cfg.numClusters);
        // Workload construction lives inside the builder so cache hits
        // skip it along with the compile.
        const auto build = [&] { return compileJob(spec, copt); };
        const std::shared_ptr<const compiler::CompileOutput> compiled =
            store ? store->getOrCompile(
                        ArtifactStore::compileKeyFor(spec, copt), build)
                  : std::make_shared<const compiler::CompileOutput>(
                        build());
        out.spillLoads = compiled->alloc.spillLoadsInserted;
        out.spillStores = compiled->alloc.spillStoresInserted;
        out.otherClusterSpills = compiled->alloc.otherClusterSpills;
        out.partitionCut = compiled->partitionStats.cutWeight;
        out.partitionBalance = compiled->partitionStats.balance;

        if (spec.samplePeriod > 0) {
            // Sampled job: one functional warming pass + K detailed
            // intervals instead of a full detailed run. The campaign
            // already parallelizes across jobs, so the driver runs its
            // intervals serially (no nested pools).
            sample::SampleReport rep;
            {
                PROF_SCOPE("runner.sample");
                rep = runSampled(spec, *compiled, cfg);
            }
            out.sampled = true;
            out.sampledIntervals = rep.intervals.size();
            out.cpiCi95 = rep.cpiCi95;
            out.retired = rep.totalInsts;
            out.cycles = static_cast<Cycle>(rep.estTotalCycles + 0.5);
            out.ipc = rep.cpiMean > 0.0 ? 1.0 / rep.cpiMean : 0.0;
            // Stall attribution summed over the measured windows; each
            // interval conserves, so the sum does too.
            out.stackSlots = rep.intervals.front().stack.slots;
            for (const auto &iv : rep.intervals)
                for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
                    out.stackSlotCycles[i] += iv.stack.slotCycles[i];
            out.status = JobStatus::Ok;
        } else {
            harness::RunStats stats;
            {
                PROF_SCOPE("runner.simulate");
                stats = harness::simulate(
                    compiled->binary, compiled->hardwareMap(cfg.numClusters),
                    cfg, spec.traceSeed, spec.maxInsts, spec.maxCycles);
            }

            out.cycles = stats.cycles;
            out.retired = stats.retired;
            out.ipc = stats.ipc;
            out.distSingle = stats.distSingle;
            out.distDual = stats.distDual;
            out.operandForwards = stats.operandForwards;
            out.resultForwards = stats.resultForwards;
            out.replays = stats.replays;
            out.issueDisorder = stats.issueDisorder;
            out.bpredAccuracy = stats.bpredAccuracy;
            out.dcacheMissRate = stats.dcacheMissRate;
            out.icacheMissRate = stats.icacheMissRate;
            out.l2MissRate = stats.l2MissRate;
            out.stackSlotCycles = stats.cycleStack.slotCycles;
            out.stackSlots = stats.cycleStack.slots;
            out.status =
                stats.completed ? JobStatus::Ok : JobStatus::TimedOut;
            if (out.status == JobStatus::TimedOut)
                out.error = cycleBudgetError(spec.maxCycles);
        }
    } catch (const std::exception &e) {
        out.status = JobStatus::Failed;
        out.error = e.what();
    }
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return out;
}

const std::vector<std::string> &
validMachines()
{
    static const std::vector<std::string> kNames = namesOf(kMachines);
    return kNames;
}

const std::vector<std::string> &
validPredictors()
{
    static const std::vector<std::string> kNames = namesOf(kPredictors);
    return kNames;
}

const std::vector<std::string> &
validBenchmarks()
{
    static const std::vector<std::string> kBenchmarks = [] {
        std::vector<std::string> names;
        for (const auto &bench : workloads::allBenchmarks())
            names.push_back(bench.name);
        return names;
    }();
    return kBenchmarks;
}

const std::vector<std::string> &
validQueueModes()
{
    static const std::vector<std::string> kNames = namesOf(kQueueModes);
    return kNames;
}

} // namespace mca::runner
