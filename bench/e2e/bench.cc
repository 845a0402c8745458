#include "bench.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "bpred/predictors.hh"
#include "ckpt/snapshot.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "isa/opcodes.hh"
#include "mem/memory.hh"
#include "obs/cycle_stack.hh"
#include "runner/artifact_store.hh"
#include "runner/campaign.hh"
#include "runner/emit.hh"
#include "runner/table2.hh"
#include "sample/driver.hh"
#include "sample/functional.hh"
#include "workloads/workloads.hh"

namespace mcabench
{

using namespace mca;

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Names a point in failures and spans; memory axes only off default. */
std::string
label(const runner::JobSpec &p)
{
    std::string out = p.benchmark + "/" + p.machine + "/" + p.scheduler;
    if (p.l2Kb != runner::JobSpec{}.l2Kb)
        out += "/l2=" + std::to_string(p.l2Kb) + "KB";
    if (p.memLat != runner::JobSpec{}.memLat)
        out += "/mem=" + std::to_string(p.memLat);
    return out;
}

} // namespace

// --- statistics -------------------------------------------------------

Quartiles
quartiles(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("quartiles of an empty sample");
    std::sort(values.begin(), values.end());
    Quartiles q;
    q.n = values.size();
    if (q.n == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"): cut point i of 4 sits
    // at position i * (n + 1) / 4, interpolated, clamped to [1, n - 1].
    const long n = static_cast<long>(q.n);
    double cuts[3];
    for (long i = 1; i <= 3; ++i) {
        const long j = std::clamp(i * (n + 1) / 4, 1L, n - 1);
        const long delta = i * (n + 1) - j * 4;
        cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                       values[j] * static_cast<double>(delta)) /
                      4.0;
    }
    q.q1 = cuts[0];
    q.median = cuts[1];
    q.q3 = cuts[2];
    return q;
}

Probe::Probe()
{
    std::uint64_t x = 88172645463325252ull;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    // One cycle through all 1M slots (Sattolo), so the chase visits a
    // 4 MB working set in an order no prefetcher follows.
    cycle_.resize(1u << 20);
    for (std::uint32_t i = 0; i < cycle_.size(); ++i)
        cycle_[i] = i;
    for (std::size_t i = cycle_.size() - 1; i > 0; --i)
        std::swap(cycle_[i], cycle_[next() % i]);
    code_.resize(1u << 16);
    for (auto &op : code_)
        op = static_cast<std::uint8_t>(next() & 7);
    table_.resize(1u << 16);
    for (auto &v : table_)
        v = static_cast<std::uint32_t>(next());
    unsorted_.resize(1u << 16);
    for (auto &v : unsorted_)
        v = static_cast<std::uint32_t>(next());
}

double
Probe::run()
{
    const auto t0 = Clock::now();
    std::uint64_t acc = 0;

    std::uint32_t at = 0;
    for (int k = 0; k < 150'000; ++k) {
        at = cycle_[at];
        acc += at;
    }

    std::uint64_t a = 1, b = 2;
    std::uint32_t pc = 0;
    for (int k = 0; k < 1'000'000; ++k) {
        switch (code_[pc]) {
        case 0: a += table_[b & 0xffff]; break;
        case 1: b ^= a >> 3; break;
        case 2:
            if (a & 1)
                b += 7;
            else
                a -= 3;
            break;
        case 3: table_[a & 0xffff] += static_cast<std::uint32_t>(b); break;
        case 4: a = a * 33 + b; break;
        case 5: b = table_[(a >> 5) & 0xffff]; break;
        case 6:
            if ((a ^ b) & 4)
                pc += 3;
            break;
        default: a ^= b << 1; break;
        }
        pc = (pc + 1 + static_cast<std::uint32_t>(a & 1)) & 0xffff;
    }
    acc += a + b;

    std::unordered_map<std::uint64_t, std::uint64_t> counts;
    std::uint64_t s = 12345;
    for (int k = 0; k < 60'000; ++k) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        acc += counts[(s >> 40) & 0x7fff] += k;
    }

    std::vector<std::uint32_t> sorted = unsorted_;
    std::sort(sorted.begin(), sorted.end());
    acc += sorted[sorted.size() / 2];

    sink_ += acc;
    return secondsSince(t0);
}

// --- digests ----------------------------------------------------------

void
Digest::add(std::uint64_t value)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    h_ = ckpt::fnv1a(bytes, sizeof bytes, h_);
}

void
Digest::add(std::string_view bytes)
{
    add(static_cast<std::uint64_t>(bytes.size()));
    h_ = ckpt::fnv1a(bytes.data(), bytes.size(), h_);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

std::string
digestOf(const std::vector<SimRecord> &records)
{
    Digest d;
    for (const SimRecord &r : records) {
        d.add(r.cycles);
        d.add(r.retired);
        d.add(r.detail);
    }
    return d.hex();
}

// --- spans ------------------------------------------------------------

std::vector<std::uint64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids.at(static_cast<std::size_t>(s.parent))
                .emplace_back(s.startNs, s.endNs);

    std::vector<std::uint64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        std::uint64_t covered = 0;
        std::uint64_t cursor = s.startNs;
        for (const auto &[a, b] : iv) {
            const std::uint64_t from = std::max(a, cursor);
            const std::uint64_t to = std::min(b, s.endNs);
            if (to > from) {
                covered += to - from;
                cursor = to;
            }
        }
        self[i] = s.endNs - s.startNs - covered;
    }
    return self;
}

Tracer::Tracer(unsigned trial) : trial_(trial), originNs_(nowNs()) {}

Tracer::Scope::Scope(Tracer &tracer, std::string name, std::string label)
    : tracer_(tracer), index_(tracer.spans_.size())
{
    Span s;
    s.name = std::move(name);
    s.label = std::move(label);
    s.parent = tracer.open_.empty() ? -1 : static_cast<long>(tracer.open_.back());
    s.trial = tracer.trial_;
    tracer.spans_.push_back(std::move(s));
    tracer.open_.push_back(index_);
    // Read the clock last on entry and first on exit, so the span's
    // own bookkeeping lands in the parent's self time.
    tracer.spans_[index_].startNs = nowNs() - tracer.originNs_;
}

Tracer::Scope::~Scope()
{
    tracer_.spans_[index_].endNs = nowNs() - tracer_.originNs_;
    tracer_.open_.pop_back();
}

std::map<std::string, std::uint64_t>
Tracer::selfNsByName() const
{
    const std::vector<std::uint64_t> self = selfTimes(spans_);
    std::map<std::string, std::uint64_t> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += self[i];
    return out;
}

void
Tracer::writeChromeTrace(std::ostream &os) const
{
    const std::vector<std::uint64_t> self = selfTimes(spans_);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\": " << jsonQuote(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
           << ", \"ts\": " << static_cast<double>(s.startNs) / 1e3
           << ", \"dur\": "
           << static_cast<double>(s.endNs - s.startNs) / 1e3
           << ", \"args\": {\"label\": " << jsonQuote(s.label)
           << ", \"parent\": " << s.parent << ", \"trial\": " << s.trial
           << ", \"self_us\": " << static_cast<double>(self[i]) / 1e3
           << "}}";
    }
    os << "\n]}\n";
}

std::string
jsonQuote(std::string_view text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

// --- workloads --------------------------------------------------------

namespace
{

/** A dual8/local point with the paper-mode memory defaults. */
runner::JobSpec
detailPoint(const std::string &benchmark, double scale, std::uint64_t seed)
{
    runner::JobSpec p;
    p.benchmark = benchmark;
    p.scale = scale;
    p.machine = "dual8";
    p.scheduler = "local";
    p.traceSeed = seed;
    p.profileSeed = seed;
    p.maxInsts = 4'000'000;
    return p;
}

runner::JobSpec
sampledPoint(const std::string &benchmark, std::uint64_t period,
             std::uint64_t seed)
{
    runner::JobSpec p = detailPoint(benchmark, 10.0, seed);
    p.samplePeriod = period;
    p.sampleDetail = 8'000;
    p.sampleWarmup = 2'000;
    return p;
}

prog::Program
makeProgram(const runner::JobSpec &p)
{
    workloads::WorkloadParams wp;
    wp.scale = p.scale;
    return p.benchmark == "chase"
               ? workloads::makePointerChase(wp)
               : workloads::benchmarkByName(p.benchmark).make(wp);
}

core::ProcessorConfig
configFor(const runner::JobSpec &p, const compiler::CompileOutput &c)
{
    core::ProcessorConfig cfg = runner::machineConfigFor(p);
    cfg.regMap = c.hardwareMap(cfg.numClusters);
    return cfg;
}

/**
 * The sampling plan for a point: its own for sampled points; for the
 * others (sampled only in the ledger) four systematic windows, each
 * measuring a tenth of its period after a quarter of that warming up.
 */
sample::SampleSpec
planFor(const runner::JobSpec &p, std::uint64_t trace_insts)
{
    sample::SampleSpec s;
    s.mode = sample::SampleSpec::Mode::Systematic;
    s.jobs = 1;
    if (p.samplePeriod > 0) {
        s.period = p.samplePeriod;
        s.detail = p.sampleDetail;
        s.warmup = p.sampleWarmup;
    } else {
        s.period = std::max<std::uint64_t>(trace_insts / 4, 8);
        s.detail = std::max<std::uint64_t>(s.period / 10, 1);
        s.warmup = s.detail / 4;
    }
    return s;
}

std::string
stackText(const std::array<std::uint64_t, obs::kNumStallCauses> &slot_cycles,
          unsigned slots)
{
    std::string out = "slots=" + std::to_string(slots);
    for (const std::uint64_t v : slot_cycles)
        out += "," + std::to_string(v);
    return out;
}

bool
conserved(const std::array<std::uint64_t, obs::kNumStallCauses> &slot_cycles,
          unsigned slots, Cycle cycles)
{
    std::uint64_t total = 0;
    for (const std::uint64_t v : slot_cycles)
        total += v;
    return slots > 0 && total == static_cast<std::uint64_t>(slots) * cycles;
}

/** A campaign job's record; the core ledger builds the same shape. */
SimRecord
jobRecord(Cycle cycles, std::uint64_t retired, const char *status,
          const std::array<std::uint64_t, obs::kNumStallCauses> &slot_cycles,
          unsigned slots)
{
    return {cycles, retired,
            std::string(status) + ";" + stackText(slot_cycles, slots)};
}

SimRecord
recordOf(const runner::JobResult &r)
{
    return jobRecord(r.cycles, r.retired, runner::jobStatusName(r.status),
                     r.stackSlotCycles, r.stackSlots);
}

SimRecord
recordOf(const sample::IntervalResult &iv)
{
    return {iv.cycles, iv.instructions,
            stackText(iv.stack.slotCycles, iv.stack.slots)};
}

std::string
statsJson(const StatGroup &stats)
{
    std::ostringstream os;
    stats.dumpJson(os);
    return os.str();
}

/**
 * Per-job checks shared by the campaign trials and the ledger. A
 * sampled job's stack sums its windows, not its estimated total cycles;
 * runJob checks each window's conservation itself.
 */
void
checkJob(Outcome &outcome, std::size_t op, const runner::JobResult &r)
{
    const std::string who = label(r.spec);
    if (r.status != runner::JobStatus::Ok)
        outcome.fail(op, who + ": job " + runner::jobStatusName(r.status) +
                             " " + r.error);
    else if (!r.sampled &&
             !conserved(r.stackSlotCycles, r.stackSlots, r.cycles))
        outcome.fail(op, who + ": cycle stack not conserved");
}

/** The campaign must compile each distinct key once and share it. */
void
checkCompiles(Outcome &outcome, const runner::CampaignSummary &s,
              const Workload &w)
{
    const std::uint64_t compiles = w.expectCompiles;
    const std::uint64_t shared = w.points.size() - w.expectCompiles;
    if (s.compiles != compiles || s.compileHits != shared)
        outcome.failAll("compile sharing: " + std::to_string(s.compiles) +
                        " compiles, " + std::to_string(s.compileHits) +
                        " shared; expected " + std::to_string(compiles) +
                        " and " + std::to_string(shared));
}

/** True for points the runner can run (benchmark in its registry). */
bool
runnable(const runner::JobSpec &point)
{
    const auto &names = runner::validBenchmarks();
    return std::find(names.begin(), names.end(), point.benchmark) !=
           names.end();
}

double
table2ErrPts(const std::vector<harness::Table2Row> &rows)
{
    double sum = 0.0;
    unsigned cells = 0;
    for (const harness::Table2Row &row : rows)
        for (const auto &paper : harness::paperTable2())
            if (row.benchmark == paper.benchmark) {
                sum += std::fabs(row.pctNone - paper.pctNone) +
                       std::fabs(row.pctLocal - paper.pctLocal);
                cells += 2;
            }
    return cells ? sum / cells : 0.0;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> kNames = {
        "table2", "sweep", "detail_busy", "detail_idle", "sampled",
    };
    return kNames;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "table2") {
        w.kind = Kind::Table2;
        w.table2.workload.scale = 1.0;
        w.table2.traceSeed = seed;
        w.table2.maxInsts = 400'000;
        w.points = runner::table2Jobs(w.table2);
        // Per benchmark: one native compile shared by the single- and
        // dual-machine legs, one local compile.
        w.expectCompiles = 12;
    } else if (name == "sweep") {
        w.kind = Kind::Sweep;
        runner::CampaignGrid grid;
        grid.benchmarks = runner::validBenchmarks();
        grid.machines = {"dual8", "quad8", "octa8"};
        grid.schedulers = {"local", "roundrobin", "multilevel"};
        grid.traceSeeds = {seed};
        grid.l2Kbs = {0, 256};
        grid.memLats = {8, 16, 32};
        grid.scale = 1.0;
        grid.maxInsts = 2'000;
        w.points = runner::expandGrid(grid);
        // benchmark x scheduler x cluster count; memory axes share.
        w.expectCompiles = 54;
    } else if (name == "detail_busy") {
        w.kind = Kind::Detail;
        w.points = {detailPoint("gcc1", 10.0, seed),
                    detailPoint("su2cor", 10.0, seed)};
        w.expectCompiles = 2;
    } else if (name == "detail_idle") {
        w.kind = Kind::Detail;
        w.points = {detailPoint("ora", 5.0, seed),
                    detailPoint("chase", 2.0, seed)};
        w.expectCompiles = 2;
    } else if (name == "sampled") {
        w.kind = Kind::Sampled;
        w.points = {sampledPoint("gcc1", 400'000, seed),
                    sampledPoint("su2cor", 125'000, seed)};
        w.expectCompiles = 2;
    } else {
        throw std::runtime_error("unknown workload '" + name + "'");
    }
    return w;
}

Compiled
setUp(const Workload &workload, Tracer *tracer)
{
    Compiled c;
    std::map<std::pair<std::string, double>, prog::Program> programs;
    for (const runner::JobSpec &p : workload.points) {
        const compiler::CompileOptions copt = runner::jobCompileOptions(
            p, runner::machineConfigFor(p).numClusters);
        const std::string key = runner::ArtifactStore::compileKeyFor(p, copt);
        c.keys.push_back(key);
        if (c.byKey.count(key))
            continue;

        auto prog = programs.find({p.benchmark, p.scale});
        if (prog == programs.end()) {
            std::optional<Tracer::Scope> span;
            if (tracer)
                span.emplace(*tracer, "workloads.make", p.benchmark);
            prog = programs.emplace(std::pair{p.benchmark, p.scale},
                                    makeProgram(p))
                       .first;
        }
        std::optional<Tracer::Scope> span;
        if (tracer)
            span.emplace(*tracer, "compiler.compile", label(p));
        c.byKey[key] = std::make_shared<const compiler::CompileOutput>(
            compiler::compile(prog->second, copt));
    }
    return c;
}

// --- correctness bookkeeping ------------------------------------------

std::size_t
Outcome::add(std::size_t n)
{
    const std::size_t first = wrong_.size();
    wrong_.resize(first + n, 0);
    return first;
}

void
Outcome::fail(std::size_t op, const std::string &why)
{
    wrong_.at(op) = 1;
    failures_.push_back(why);
}

void
Outcome::failAll(const std::string &why)
{
    std::fill(wrong_.begin(), wrong_.end(), 1);
    failures_.push_back(why);
}

void
Outcome::merge(const Outcome &other)
{
    wrong_.insert(wrong_.end(), other.wrong_.begin(), other.wrong_.end());
    failures_.insert(failures_.end(), other.failures_.begin(),
                     other.failures_.end());
}

std::size_t
Outcome::wrong() const
{
    return static_cast<std::size_t>(
        std::count(wrong_.begin(), wrong_.end(), 1));
}

// --- trials -----------------------------------------------------------

std::vector<SimRecord>
simulatePoints(const Workload &workload, const Compiled &compiled,
               std::vector<bool> &completed)
{
    std::vector<SimRecord> records;
    completed.clear();
    for (std::size_t i = 0; i < workload.points.size(); ++i) {
        const runner::JobSpec &p = workload.points[i];
        const compiler::CompileOutput &c = compiled.forPoint(i);
        StatGroup stats("mcasim");
        exec::ProgramTrace trace(c.binary, p.traceSeed, p.maxInsts);
        core::Processor cpu(configFor(p, c), trace, stats);
        const core::SimResult r = cpu.run(p.maxCycles);
        records.push_back({r.cycles, r.instructions, statsJson(stats)});
        completed.push_back(r.completed);
    }
    return records;
}

namespace
{

void
table2Trial(const Workload &w, TrialResult &t)
{
    runner::CampaignOptions options;
    options.jobs = 1;
    const auto t0 = Clock::now();
    const runner::Table2CampaignResult res =
        runner::runTable2Campaign(w.table2, options);
    t.wallS = secondsSince(t0);

    t.outcome.add(res.jobs.size());
    for (std::size_t i = 0; i < res.jobs.size(); ++i) {
        t.records.push_back(recordOf(res.jobs[i]));
        t.insts += res.jobs[i].retired;
        checkJob(t.outcome, i, res.jobs[i]);
    }
    checkCompiles(t.outcome, res.summary, w);
    t.table2ErrPts = table2ErrPts(res.rows);
}

void
sweepTrial(const Workload &w, TrialResult &t, const std::string &store)
{
    std::filesystem::remove_all(store);
    runner::CampaignOptions options;
    options.jobs = 1;
    options.cacheDir = store;
    runner::CampaignSummary coldSummary;
    const auto t0 = Clock::now();
    const auto cold = runner::runCampaign(w.points, options, &coldSummary);
    const auto warm = runner::runCampaign(w.points, options);
    t.wallS = secondsSince(t0);

    const std::size_t n = cold.size();
    t.outcome.add(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        t.records.push_back(recordOf(cold[i]));
        t.insts += cold[i].retired;
        checkJob(t.outcome, i, cold[i]);
        if (!warm[i].fromCache || recordOf(warm[i]) != t.records.back())
            t.outcome.fail(n + i, label(cold[i].spec) +
                                      ": warm-store result differs from "
                                      "its cold result");
    }
    checkCompiles(t.outcome, coldSummary, w);
}

void
detailTrial(const Workload &w, const Compiled &c, TrialResult &t)
{
    std::vector<bool> completed;
    const auto t0 = Clock::now();
    t.records = simulatePoints(w, c, completed);
    t.wallS = secondsSince(t0);

    t.outcome.add(t.records.size());
    for (std::size_t i = 0; i < t.records.size(); ++i) {
        t.insts += t.records[i].retired;
        if (!completed[i])
            t.outcome.fail(i, label(w.points[i]) + ": cycle budget exhausted");
    }
}

void
sampledTrial(const Workload &w, const Compiled &c, TrialResult &t)
{
    std::vector<sample::SampleReport> reports;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const runner::JobSpec &p = w.points[i];
        const compiler::CompileOutput &out = c.forPoint(i);
        const sample::SampledDriver driver(out.binary, configFor(p, out),
                                           p.traceSeed, p.maxInsts);
        reports.push_back(driver.run(planFor(p, p.maxInsts)));
    }
    t.wallS = secondsSince(t0);

    for (std::size_t i = 0; i < reports.size(); ++i) {
        const sample::SampleReport &rep = reports[i];
        const std::size_t first = t.outcome.add(rep.intervals.size());
        for (std::size_t k = 0; k < rep.intervals.size(); ++k) {
            t.records.push_back(recordOf(rep.intervals[k]));
            if (!rep.intervals[k].conserved)
                t.outcome.fail(first + k,
                               label(w.points[i]) + ": window " +
                                   std::to_string(k) +
                                   " cycle stack not conserved");
        }
        t.insts += rep.totalInsts;
        t.estCycles.push_back(rep.estTotalCycles);
    }
}

} // namespace

TrialResult
runTrial(const Workload &workload, const Compiled &compiled,
         const std::string &work_dir)
{
    TrialResult t;
    switch (workload.kind) {
    case Kind::Table2: table2Trial(workload, t); break;
    case Kind::Sweep: sweepTrial(workload, t, work_dir + "/store"); break;
    case Kind::Detail: detailTrial(workload, compiled, t); break;
    case Kind::Sampled: sampledTrial(workload, compiled, t); break;
    }
    return t;
}

// --- the traced layer ledger -----------------------------------------

namespace
{

struct MemOp
{
    Addr addr;
    Cycle when;
    bool store;
};

struct Branch
{
    Addr pc;
    bool taken;
};

/** Running sums behind the per-layer metrics. */
struct Tally
{
    std::uint64_t insts = 0, memOps = 0, branches = 0;
    std::uint64_t cycles = 0, stepped = 0, retired = 0;
    std::uint64_t dAcc = 0, dMiss = 0, iAcc = 0, iMiss = 0;
    std::uint64_t l2Acc = 0, l2Miss = 0, lookups = 0, mispredicts = 0;
    std::uint64_t snapshots = 0, snapshotBytes = 0, warmed = 0;
    std::uint64_t windows = 0, restoreNs = 0, windowNs = 0;
    std::uint64_t detailed = 0, sampledTotal = 0;
    std::uint64_t storeHits = 0;
};

std::uint64_t
counter(const StatGroup &stats, const char *name)
{
    return stats.hasCounter(name) ? stats.counterAt(name).value() : 0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** exec, mem, bpred, core, ckpt and sample calls on one point. */
void
ledgerPoint(const Workload &w, std::size_t i, const Compiled &c,
            Tracer &tracer, Tally &tally, Outcome &outcome,
            std::vector<SimRecord> &core_records,
            std::vector<SimRecord> &window_records)
{
    const runner::JobSpec &p = w.points[i];
    const compiler::CompileOutput &out = c.forPoint(i);
    const core::ProcessorConfig cfg = configFor(p, out);
    const std::string who = label(p);
    // Campaign jobs attach a cycle stack (harness::simulate does).
    const bool withStack = w.kind == Kind::Table2 || w.kind == Kind::Sweep;

    std::uint64_t n = 0;
    {
        exec::ProgramTrace trace(out.binary, p.traceSeed, p.maxInsts);
        Tracer::Scope span(tracer, "exec.trace", who);
        while (trace.next())
            ++n;
    }
    tally.insts += n;

    // The mem and bpred replays need the trace's addresses and branch
    // outcomes; gathering them is the benchmark's own time.
    std::vector<MemOp> memOps;
    std::vector<Branch> branches;
    {
        exec::ProgramTrace trace(out.binary, p.traceSeed, p.maxInsts);
        Cycle when = 0;
        while (const auto di = trace.next()) {
            ++when;
            if (isa::isMemOp(di->mi.op))
                memOps.push_back({di->effAddr, when, isa::isStore(di->mi.op)});
            if (isa::isCondBranch(di->mi.op))
                branches.push_back({di->pc, di->taken});
        }
    }
    {
        StatGroup stats("replay");
        mem::MemorySystem memory(cfg.memory, stats);
        Tracer::Scope span(tracer, "mem.dcache", who);
        for (const MemOp &m : memOps)
            memory.dcache().accessFast(m.addr, m.store, m.when);
    }
    tally.memOps += memOps.size();
    {
        bpred::McFarlingPredictor predictor(
            cfg.bimodalIndexBits, cfg.historyBits, cfg.gshareIndexBits,
            cfg.chooserIndexBits, cfg.speculativeHistory);
        Tracer::Scope span(tracer, "bpred.replay", who);
        for (const Branch &b : branches) {
            predictor.predict(b.pc);
            predictor.update(b.pc, b.taken);
        }
    }
    tally.branches += branches.size();

    // core + ckpt: run to mid-trace, snapshot, finish the run, then
    // restore the snapshot into a fresh machine.
    {
        const std::size_t op = outcome.add(1);
        StatGroup stats("mcasim");
        exec::ProgramTrace trace(out.binary, p.traceSeed, p.maxInsts);
        obs::CycleStack stack;
        std::unique_ptr<core::Processor> cpu;
        {
            Tracer::Scope span(tracer, "core.construct", who);
            cpu = std::make_unique<core::Processor>(cfg, trace, stats);
        }
        if (withStack)
            cpu->attachCycleStack(&stack);
        {
            Tracer::Scope span(tracer, "core.run", who);
            cpu->runUntilRetired(n / 2, p.maxCycles);
        }
        ckpt::Snapshot snap;
        {
            Tracer::Scope span(tracer, "ckpt.save", who);
            ckpt::SnapshotBuilder builder(cpu->configHash());
            cpu->saveState(builder);
            snap = builder.finish();
        }
        const Cycle savedAt = cpu->now();
        const std::uint64_t savedRetired = cpu->retiredInstructions();
        core::SimResult r;
        {
            Tracer::Scope span(tracer, "core.run", who);
            r = cpu->run(p.maxCycles);
        }
        {
            StatGroup restoredStats("mcasim");
            exec::ProgramTrace restoredTrace(out.binary, p.traceSeed,
                                             p.maxInsts);
            obs::CycleStack restoredStack;
            core::Processor restored(cfg, restoredTrace, restoredStats);
            if (withStack)
                restored.attachCycleStack(&restoredStack);
            {
                Tracer::Scope span(tracer, "ckpt.load", who);
                ckpt::SnapshotParser parser(snap, restored.configHash());
                restored.loadState(parser);
            }
            if (restored.now() != savedAt ||
                restored.retiredInstructions() != savedRetired)
                outcome.fail(op, who + ": restored machine differs from "
                                       "the saved one");
        }
        ++tally.snapshots;
        tally.snapshotBytes += snap.payload.size();

        if (!r.completed)
            outcome.fail(op, who + ": cycle budget exhausted");
        if (withStack && !stack.conserved())
            outcome.fail(op, who + ": cycle stack not conserved");
        core_records.push_back(
            withStack ? jobRecord(r.cycles, r.instructions,
                                  r.completed ? "ok" : "timeout",
                                  stack.slotCycles, stack.slots)
                      : SimRecord{r.cycles, r.instructions, statsJson(stats)});
        tally.cycles += r.cycles;
        tally.stepped += cpu->steppedCycles();
        tally.retired += r.instructions;
        tally.dAcc += counter(stats, "dcache.accesses");
        tally.dMiss += counter(stats, "dcache.misses");
        tally.iAcc += counter(stats, "icache.accesses");
        tally.iMiss += counter(stats, "icache.misses");
        tally.l2Acc += counter(stats, "l2.accesses");
        tally.l2Miss += counter(stats, "l2.misses");
        tally.lookups += counter(stats, "bpred.lookups");
        tally.mispredicts += counter(stats, "bpred.mispredicts");
    }

    // sample: functional warming over the whole trace, then the
    // sampled driver with the point's plan.
    {
        StatGroup stats("warm");
        exec::ProgramTrace trace(out.binary, p.traceSeed, p.maxInsts);
        core::Processor cpu(cfg, trace, stats);
        sample::FunctionalWarmer warmer(cpu);
        Tracer::Scope span(tracer, "sample.warm", who);
        tally.warmed += warmer.advance(n);
    }
    {
        const sample::SampledDriver driver(out.binary, cfg, p.traceSeed,
                                           p.maxInsts);
        sample::SampleReport rep;
        {
            Tracer::Scope span(tracer, "sample.run", who);
            rep = driver.run(planFor(p, n));
        }
        const std::size_t first = outcome.add(rep.intervals.size());
        for (std::size_t k = 0; k < rep.intervals.size(); ++k) {
            const sample::IntervalResult &iv = rep.intervals[k];
            tally.restoreNs += iv.restoreHostNs;
            tally.windowNs += iv.hostNs;
            if (!iv.conserved)
                outcome.fail(first + k, who + ": window " +
                                            std::to_string(k) +
                                            " cycle stack not conserved");
            if (w.kind == Kind::Sampled)
                window_records.push_back(recordOf(iv));
        }
        tally.windows += rep.intervals.size();
        tally.detailed += rep.detailedInsts;
        tally.sampledTotal += rep.totalInsts;
    }
}

} // namespace

Ledger
runLedger(const Workload &w, Tracer &tracer, const std::string &work_dir)
{
    Ledger ledger;
    Tally tally;
    std::vector<SimRecord> coreRecords, windowRecords, jobRecords;
    std::map<std::string, double> &m = ledger.metrics;
    const auto t0 = Clock::now();
    Tracer::Scope trial(tracer, "ledger", w.name);

    const Compiled c = setUp(w, &tracer);
    std::map<std::string, double> passMs;
    double cut = 0;
    for (const auto &[key, out] : c.byKey) {
        for (const compiler::PassStat &ps : out->passStats)
            passMs[ps.pass] += ps.wallMs;
        cut += static_cast<double>(out->partitionStats.cutWeight);
    }
    if (c.byKey.size() != w.expectCompiles)
        ledger.outcome.failAll(std::to_string(c.byKey.size()) +
                               " distinct compile keys, expected " +
                               std::to_string(w.expectCompiles));

    // The per-point layer calls and the runJob pass cover the last
    // point of each benchmark (on sweep: octa8, multilevel, with an L2),
    // so the ledger's cost stays near one trial's even on the campaign
    // workloads; the campaign call below covers every point.
    std::map<std::string, std::size_t> lastOf;
    for (std::size_t i = 0; i < w.points.size(); ++i)
        lastOf[w.points[i].benchmark] = i;
    std::vector<std::size_t> picked;
    for (const auto &[benchmark, i] : lastOf)
        picked.push_back(i);
    std::sort(picked.begin(), picked.end());
    for (const std::size_t i : picked)
        ledgerPoint(w, i, c, tracer, tally, ledger.outcome, coreRecords,
                    windowRecords);

    // runner: the picked runnable points through runJob with their
    // compiles pre-seeded in the store.
    std::vector<runner::JobSpec> specs;
    std::vector<std::size_t> specOf(w.points.size(), 0);
    for (std::size_t i = 0; i < w.points.size(); ++i)
        if (runnable(w.points[i])) {
            specOf[i] = specs.size();
            specs.push_back(w.points[i]);
        }
    const std::string storeDir = work_dir + "/ledger-store";
    std::filesystem::remove_all(storeDir);
    runner::ArtifactStore store(storeDir);
    std::vector<std::size_t> jobSpec;
    for (const std::size_t i : picked) {
        if (!runnable(w.points[i]))
            continue;
        const std::string &key = c.keys[i];
        store.getOrCompile(key, [&] { return *c.byKey.at(key); });
        const std::size_t op = ledger.outcome.add(1);
        runner::JobResult r;
        {
            Tracer::Scope span(tracer, "runner.job", label(w.points[i]));
            r = runner::runJob(w.points[i], &store);
        }
        checkJob(ledger.outcome, op, r);
        jobRecords.push_back(recordOf(r));
        jobSpec.push_back(specOf[i]);
    }

    // taskgraph: one campaign over every runnable point. With the
    // compile cache off every node body is one runJob, whose own wallMs
    // covers it, so wall minus the jobs' wallMs is the executor's
    // overhead, both sides measured in the same call. (Subtracting
    // separately timed compiles instead leaves host noise larger than
    // the overhead itself.)
    runner::CampaignSummary summary;
    std::vector<runner::JobResult> campaign;
    std::size_t campaignSpan = 0;
    {
        runner::CampaignOptions options;
        options.jobs = 1;
        options.compileCache = false;
        Tracer::Scope span(tracer, "taskgraph.campaign", w.name);
        campaignSpan = span.index();
        campaign = runner::runCampaign(specs, options, &summary);
    }
    // Copied out now: spans opened later may move the span list.
    const Span &cs = tracer.spans()[campaignSpan];
    const double campaignMs = static_cast<double>(cs.endNs - cs.startNs) / 1e6;
    double jobsMs = 0.0;
    const std::size_t firstCampaignJob = ledger.outcome.add(campaign.size());
    for (std::size_t i = 0; i < campaign.size(); ++i) {
        jobsMs += campaign[i].wallMs;
        checkJob(ledger.outcome, firstCampaignJob + i, campaign[i]);
    }
    for (std::size_t k = 0; k < jobSpec.size(); ++k)
        if (recordOf(campaign[jobSpec[k]]) != jobRecords[k])
            ledger.outcome.fail(firstCampaignJob + jobSpec[k],
                                label(specs[jobSpec[k]]) +
                                    ": campaign result differs from runJob");

    // runner: every campaign result stored and read back, then both
    // emitters over them.
    std::vector<SimRecord> campaignRecords;
    for (std::size_t i = 0; i < campaign.size(); ++i) {
        const std::string who = label(specs[i]);
        campaignRecords.push_back(recordOf(campaign[i]));
        {
            Tracer::Scope span(tracer, "runner.store_write", who);
            store.storeResult(campaign[i]);
        }
        std::optional<runner::JobResult> back;
        {
            Tracer::Scope span(tracer, "runner.store_read", who);
            back = store.loadResult(specs[i]);
        }
        if (back && recordOf(*back) == campaignRecords.back())
            ++tally.storeHits;
        else
            ledger.outcome.fail(firstCampaignJob + i,
                                who + ": stored result did not read back");
    }
    std::string jsonLines;
    {
        Tracer::Scope span(tracer, "runner.emit", w.name);
        std::ostringstream json, csv;
        runner::emitJsonLines(json, campaign);
        runner::emitCsv(csv, campaign);
        jsonLines = json.str();
    }
    if (static_cast<std::size_t>(std::count(jsonLines.begin(), jsonLines.end(),
                                            '\n')) != campaign.size())
        ledger.outcome.failAll("JSON-lines emitter did not write one line "
                               "per job");

    switch (w.kind) {
    case Kind::Table2:
    case Kind::Sweep:
        ledger.records = campaignRecords;
        if (coreRecords != jobRecords)
            ledger.outcome.failAll(
                "direct Processor runs differ from runner jobs");
        break;
    case Kind::Detail: ledger.records = coreRecords; break;
    case Kind::Sampled: ledger.records = windowRecords; break;
    }

    const std::map<std::string, std::uint64_t> self = tracer.selfNsByName();
    auto ms = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
    };
    auto ns = [&](const char *name) { return 1e6 * ms(name); };

    m["workloads.make_ms"] = ms("workloads.make");
    m["compiler.compile_ms"] = ms("compiler.compile");
    m["compiler.compiles"] = c.byKey.size();
    m["compiler.compile_hits"] = w.points.size() - c.byKey.size();
    for (const char *pass : {"profile", "partition", "regalloc", "schedule"})
        m[std::string("compiler.pass.") + pass + "_ms"] = passMs[pass];
    m["compiler.partition_cut"] = cut;
    m["exec.trace_ns_per_inst"] = ratio(ns("exec.trace"), tally.insts);
    m["core.construct_ms"] = ms("core.construct");
    m["core.run_ms"] = ms("core.run");
    m["core.ns_per_cycle"] = ratio(ns("core.run"), tally.cycles);
    m["core.ns_per_inst"] = ratio(ns("core.run"), tally.retired);
    m["core.cycles"] = tally.cycles;
    m["core.stepped_cycles"] = tally.stepped;
    m["core.idle_skip_frac"] = 1.0 - ratio(tally.stepped, tally.cycles);
    m["mem.dcache_ns_per_access"] = ratio(ns("mem.dcache"), tally.memOps);
    m["mem.dcache_miss_rate"] = ratio(tally.dMiss, tally.dAcc);
    m["mem.icache_miss_rate"] = ratio(tally.iMiss, tally.iAcc);
    m["mem.l2_miss_rate"] = ratio(tally.l2Miss, tally.l2Acc);
    m["bpred.ns_per_branch"] = ratio(ns("bpred.replay"), tally.branches);
    m["bpred.accuracy"] = 1.0 - ratio(tally.mispredicts, tally.lookups);
    m["ckpt.save_ms"] = ms("ckpt.save");
    m["ckpt.load_ms"] = ms("ckpt.load");
    m["ckpt.snapshot_kb"] =
        ratio(tally.snapshotBytes / 1024.0, tally.snapshots);
    m["sample.warm_ns_per_inst"] = ratio(ns("sample.warm"), tally.warmed);
    m["sample.restore_ms"] = ratio(tally.restoreNs / 1e6, tally.windows);
    m["sample.window_ms"] = ratio(tally.windowNs / 1e6, tally.windows);
    m["sample.windows"] = tally.windows;
    m["sample.detailed_frac"] = ratio(tally.detailed, tally.sampledTotal);
    m["runner.job_ms"] = ms("runner.job");
    m["runner.jobs"] = jobSpec.size();
    m["runner.store_write_ms"] = ms("runner.store_write");
    m["runner.store_read_ms"] = ms("runner.store_read");
    m["runner.store_hit_frac"] = ratio(tally.storeHits, campaign.size());
    m["runner.emit_ms"] = ms("runner.emit");
    m["taskgraph.critical_path_ms"] = summary.criticalPathMs;
    m["taskgraph.max_queue_depth"] = summary.maxQueueDepth;
    m["taskgraph.overhead_ms"] = campaignMs - jobsMs;

    ledger.wallS = secondsSince(t0);
    return ledger;
}

std::map<std::string, double>
profStages(const prof::Profile &profile)
{
    std::map<std::string, std::uint64_t> totalNs;
    std::uint64_t stepped = 0;
    const auto walk = [&](const auto &self, const prof::ProfileNode &node)
        -> void {
        if (node.name.rfind("core.", 0) == 0)
            totalNs[node.name] += node.totalNs;
        if (node.name == "core.begin")
            stepped += node.calls;
        for (const prof::ProfileNode &child : node.children)
            self(self, child);
    };
    walk(walk, profile.root);

    std::map<std::string, double> out;
    for (const char *stage : {"begin", "fetch", "dispatch", "schedule",
                              "retire", "account", "idle_skip"})
        out[std::string("core.stage.") + stage + "_ns_per_cycle"] =
            ratio(static_cast<double>(totalNs[std::string("core.") + stage]),
                  static_cast<double>(stepped));
    return out;
}

} // namespace mcabench
