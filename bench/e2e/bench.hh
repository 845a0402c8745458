/**
 * @file
 * Measurement core of the end-to-end benchmark (README.md in this
 * directory): the five workloads, the trial each one times, the traced
 * layer ledger, span bookkeeping, quartiles, and result digests.
 *
 * Everything here calls the simulator only through the public entry
 * points the tools use (runner::runTable2Campaign, runner::runCampaign,
 * core::Processor::run, sample::SampledDriver::run, ...). Spans are
 * opened by this code around those calls; nothing inside src/ is
 * instrumented for the benchmark.
 */

#ifndef MCABENCH_BENCH_HH
#define MCABENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/io.hh"
#include "compiler/pipeline.hh"
#include "harness/experiment.hh"
#include "prof/prof.hh"
#include "runner/jobspec.hh"

namespace mcabench
{

// --- statistics -------------------------------------------------------

/** First quartile, median and third quartile of a sample. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

/**
 * Quartiles by the method of Python's statistics.quantiles(values,
 * n=4) (its default, "exclusive"), so the numbers printed here match
 * the ones a reader recomputes from the raw samples. A single value is
 * its own quartiles. Throws std::invalid_argument on an empty sample.
 */
Quartiles quartiles(std::vector<double> values);

/**
 * A fixed reference computation timed next to every trial, so that
 * swings in host speed can be divided out of trial times. The host
 * this benchmark was built on slows the simulator by up to 3x for
 * minutes at a time when its neighbours contend for the memory
 * hierarchy; a probe run right before and after a trial sees much of
 * the same slowdown (README.md has the measurements). The probe mixes the kinds of work the simulator
 * does (a dependent pointer chase over 4 MB, a branchy table-driven
 * interpreter loop, hash-map updates, a sort) and shares no code with
 * it, so a change to the simulator cannot move the probe.
 */
class Probe
{
  public:
    /** The probe's duration on the reference host when it is quiet:
     *  the unit that trial times are expressed in (reference s). */
    static constexpr double kReferenceS = 0.030;

    Probe();

    /** Run the probe once; returns its wall seconds. */
    double run();

  private:
    std::vector<std::uint32_t> cycle_;
    std::vector<std::uint8_t> code_;
    std::vector<std::uint32_t> table_;
    std::vector<std::uint32_t> unsorted_;
    std::uint64_t sink_ = 0;
};

// --- digests ----------------------------------------------------------

/** FNV-1a 64 over a sequence of fields; field order is significant. */
class Digest
{
  public:
    void add(std::uint64_t value);
    /** Length-prefixed, so ("ab","c") and ("a","bc") differ. */
    void add(std::string_view bytes);
    /** 16 lowercase hex digits. */
    std::string hex() const;

  private:
    /** The FNV offset basis (the hash of no bytes). */
    std::uint64_t h_ = mca::ckpt::fnv1a(nullptr, 0);
};

// --- spans ------------------------------------------------------------

/** One timed region opened by the benchmark around a layer call. */
struct Span
{
    std::string name;
    /** What the call worked on (a point label), for the trace view. */
    std::string label;
    /** Host ns since the tracer was created. */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span in the same list, or -1. */
    long parent = -1;
    unsigned trial = 0;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that its direct children cover (overlapping children count once,
 * and a child sticking out of its parent counts only inside it).
 */
std::vector<std::uint64_t> selfTimes(const std::vector<Span> &spans);

/** Keeps spans in memory; written out once the run ends. */
class Tracer
{
  public:
    /** RAII span: opened on construction, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::string name, std::string label = {});
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Position of this span in Tracer::spans(). */
        std::size_t index() const { return index_; }

      private:
        Tracer &tracer_;
        std::size_t index_;
    };

    explicit Tracer(unsigned trial = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum of self time over the spans of each name. */
    std::map<std::string, std::uint64_t> selfNsByName() const;

    /** Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    unsigned trial_;
    std::uint64_t originNs_;
};

// --- workloads --------------------------------------------------------

enum class Kind
{
    /** runner::runTable2Campaign, in-memory store. */
    Table2,
    /** runner::runCampaign cold into a fresh on-disk store, then warm. */
    Sweep,
    /** One Processor::run per point, no cycle stack (mcasim-style). */
    Detail,
    /** One SampledDriver::run per point (jobs = 1). */
    Sampled,
};

/** The simulation points a trial runs, and how it runs them. */
struct Workload
{
    std::string name;
    Kind kind = Kind::Detail;
    /**
     * Every simulation of a trial, in order. The benchmark name "chase"
     * stands for workloads::makePointerChase, which is not in the
     * runner's registry, so runner calls skip it.
     */
    std::vector<mca::runner::JobSpec> points;
    /** Table2 only: the options runTable2Campaign runs with. */
    mca::harness::ExperimentOptions table2;
    /** Distinct compile keys the points must resolve to. */
    std::size_t expectCompiles = 0;
};

/** table2, sweep, detail_busy, detail_idle, sampled. */
const std::vector<std::string> &workloadNames();

/** Build a named workload; `seed` is the trace and profile seed. */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/** The compiled binaries a workload needs, one per distinct key. */
struct Compiled
{
    /** Compile key of each point, in point order. */
    std::vector<std::string> keys;
    std::map<std::string,
             std::shared_ptr<const mca::compiler::CompileOutput>>
        byKey;

    const mca::compiler::CompileOutput &
    forPoint(std::size_t i) const
    {
        return *byKey.at(keys.at(i));
    }
};

/**
 * Make every distinct program and compile every distinct key: the
 * work setup_s measures. With a tracer, each call gets a
 * workloads.make or compiler.compile span.
 */
Compiled setUp(const Workload &workload, Tracer *tracer = nullptr);

// --- trials -----------------------------------------------------------

/** One simulation's outcome as far as the digest is concerned. */
struct SimRecord
{
    mca::Cycle cycles = 0;
    std::uint64_t retired = 0;
    /** Stats-registry JSON (detail points) or status plus cycle stack
     *  (campaign jobs, sampled windows). */
    std::string detail;

    bool operator==(const SimRecord &) const = default;
};

/** Digest of every record's cycles, retired count and detail. */
std::string digestOf(const std::vector<SimRecord> &records);

/**
 * Correctness bookkeeping. An operation is a job, a simulation or a
 * sampled window; one that fails or comes out wrong is marked once,
 * however many checks it breaks.
 */
class Outcome
{
  public:
    /** Register `n` more operations; returns the first one's index. */
    std::size_t add(std::size_t n);
    void fail(std::size_t op, const std::string &why);
    /** Mark every registered operation wrong (a trial-level check). */
    void failAll(const std::string &why);
    /** Fold another outcome's operations in after this one's. */
    void merge(const Outcome &other);

    std::size_t ops() const { return wrong_.size(); }
    std::size_t wrong() const;
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::vector<char> wrong_;
    std::vector<std::string> failures_;
};

struct TrialResult
{
    double wallS = 0.0;
    /** Trace instructions the trial represents (sim_mips numerator). */
    std::uint64_t insts = 0;
    std::vector<SimRecord> records;
    Outcome outcome;
    /** Table2: mean |reproduced - published| over the 12 cells. */
    double table2ErrPts = 0.0;
    /** Sampled: estimated total cycles of each point. */
    std::vector<double> estCycles;
};

/**
 * Run and check one trial. Only the simulator calls are timed; the
 * sweep's store directory `work_dir`/store is emptied beforehand.
 */
TrialResult runTrial(const Workload &workload, const Compiled &compiled,
                     const std::string &work_dir);

/**
 * Full detailed run of every point, mcasim-style (no cycle stack):
 * the Detail trial's body and the sampled workload's reference.
 * `completed` receives each run's completion flag.
 */
std::vector<SimRecord> simulatePoints(const Workload &workload,
                                      const Compiled &compiled,
                                      std::vector<bool> &completed);

// --- the traced layer ledger -----------------------------------------

struct Ledger
{
    /** Every per-layer metric except core.stage.* (see profStages). */
    std::map<std::string, double> metrics;
    /** The records of the ledger step that mirrors the timed trial. */
    std::vector<SimRecord> records;
    Outcome outcome;
    double wallS = 0.0;
};

/**
 * One traced trial: drive every layer through its public calls on the
 * workload's own points, with a span around each call. Layers outside
 * the workload's timed path are still driven, on the same points, so
 * every workload reports every layer. The per-point calls (exec, mem,
 * bpred, core, ckpt, sample) and runner::runJob cover the last point
 * of each benchmark; one runner::runCampaign covers every point the
 * runner can run, and its results are stored, read back and emitted.
 */
Ledger runLedger(const Workload &workload, Tracer &tracer,
                 const std::string &work_dir);

/**
 * core.stage.<stage>_ns_per_cycle from a host-profiler snapshot: each
 * stage region's total ns over the stepped cycles (calls of
 * core.begin), summed wherever the regions sit in the tree.
 */
std::map<std::string, double> profStages(const mca::prof::Profile &profile);

/** JSON string literal (quotes, backslashes, control characters). */
std::string jsonQuote(std::string_view text);

} // namespace mcabench

#endif // MCABENCH_BENCH_HH
