/**
 * @file
 * Google-benchmark microbenchmarks of the reproduction's own
 * infrastructure: simulator throughput (simulated instructions per
 * wall-clock second), predictor and cache throughput, trace-generation
 * speed, and compilation cost. These guard against performance
 * regressions in the simulator itself.
 *
 * `--json-out FILE` switches to the cycle-kernel throughput table:
 * every workload is run in the default wake-gated mode and in the
 * reference mode (ProcessorConfig::idleSkip = false; identical cycle
 * counts, by the lockstep tests), and the simulated cycles per second
 * plus host ns per simulated cycle of each is written as JSON. The
 * reference column is the idle-skip ablation. scripts/ci.sh stores the
 * result as BENCH_core.json.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <fstream>
#include <iostream>

#include "bpred/predictors.hh"
#include "core/processor.hh"
#include "compiler/pipeline.hh"
#include "exec/trace.hh"
#include "harness/experiment.hh"
#include "mem/cache.hh"
#include "support/random.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

void
BM_SimulatorSingleCluster(benchmark::State &state)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.2});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(program, copt);

    std::uint64_t insts = 0;
    for (auto _ : state) {
        StatGroup stats("bm");
        exec::ProgramTrace trace(out.binary, 42, 50'000);
        core::Processor cpu(core::ProcessorConfig::singleCluster8(),
                            trace, stats);
        const auto r = cpu.run();
        insts += r.instructions;
    }
    state.counters["sim_inst_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorSingleCluster)->Unit(benchmark::kMillisecond);

void
BM_SimulatorDualCluster(benchmark::State &state)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.2});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(program, copt);

    std::uint64_t insts = 0;
    for (auto _ : state) {
        StatGroup stats("bm");
        exec::ProgramTrace trace(out.binary, 42, 50'000);
        auto cfg = core::ProcessorConfig::dualCluster8();
        cfg.regMap = out.hardwareMap(2);
        core::Processor cpu(cfg, trace, stats);
        const auto r = cpu.run();
        insts += r.instructions;
    }
    state.counters["sim_inst_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorDualCluster)->Unit(benchmark::kMillisecond);

void
BM_TraceGeneration(benchmark::State &state)
{
    const auto program =
        workloads::makeGcc1(workloads::WorkloadParams{0.2});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Native;
    copt.numClusters = 1;
    const auto out = compiler::compile(program, copt);

    std::uint64_t insts = 0;
    for (auto _ : state) {
        exec::ProgramTrace trace(out.binary, 42, 100'000);
        while (auto di = trace.next()) {
            benchmark::DoNotOptimize(di->pc);
            ++insts;
        }
    }
    state.counters["trace_inst_per_s"] = benchmark::Counter(
        static_cast<double>(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

void
BM_CompilePipeline(benchmark::State &state)
{
    const auto program =
        workloads::makeGcc1(workloads::WorkloadParams{0.2});
    for (auto _ : state) {
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Local;
        copt.numClusters = 2;
        copt.profileMaxInsts = 20'000;
        auto out = compiler::compile(program, copt);
        benchmark::DoNotOptimize(out.binary.staticInstCount());
    }
}
BENCHMARK(BM_CompilePipeline)->Unit(benchmark::kMillisecond);

void
BM_McFarlingPredictor(benchmark::State &state)
{
    bpred::McFarlingPredictor pred;
    Rng rng(7);
    std::uint64_t n = 0;
    for (auto _ : state) {
        const Addr pc = 0x1000 + (rng.next() % 256) * 4;
        const bool taken = rng.nextBool(0.6);
        benchmark::DoNotOptimize(pred.predict(pc));
        pred.update(pc, taken);
        ++n;
    }
    state.counters["branches_per_s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_McFarlingPredictor);

void
BM_CacheAccess(benchmark::State &state)
{
    StatGroup stats("bm");
    mem::Cache cache("d", mem::CacheParams{}, stats);
    Rng rng(11);
    Cycle now = 0;
    std::uint64_t n = 0;
    for (auto _ : state) {
        const Addr a = (rng.next() % (256 * 1024)) & ~Addr{7};
        benchmark::DoNotOptimize(cache.access(a, false, now));
        now += 2;
        ++n;
    }
    state.counters["accesses_per_s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheAccess);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    for (auto _ : state) {
        const auto p =
            workloads::makeTomcatv(workloads::WorkloadParams{0.2});
        benchmark::DoNotOptimize(p.staticInstCount());
    }
}
BENCHMARK(BM_WorkloadGeneration)->Unit(benchmark::kMicrosecond);

// --- cycle-kernel throughput (--json-out) ----------------------------

struct KernelSample
{
    double cyclesPerSecond = 0.0;
    Cycle cycles = 0;
    std::uint64_t instructions = 0;
};

KernelSample
measureKernel(const prog::MachProgram &binary, const isa::RegisterMap &map,
              bool idle_skip, std::uint64_t max_insts)
{
    KernelSample best;
    // Best-of-3: the simulator is deterministic, so the fastest
    // repetition is the least-perturbed measurement.
    for (int rep = 0; rep < 3; ++rep) {
        auto cfg = core::ProcessorConfig::dualCluster8();
        cfg.regMap = map;
        cfg.idleSkip = idle_skip;
        StatGroup stats("perf");
        exec::ProgramTrace trace(binary, 42, max_insts);
        core::Processor cpu(cfg, trace, stats);
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = cpu.run();
        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();
        const double rate =
            secs > 0.0 ? static_cast<double>(r.cycles) / secs : 0.0;
        if (rate > best.cyclesPerSecond) {
            best.cyclesPerSecond = rate;
            best.cycles = r.cycles;
            best.instructions = r.instructions;
        }
    }
    return best;
}

int
runKernelThroughput(const std::string &json_out)
{
    constexpr std::uint64_t kMaxInsts = 50'000;

    struct Row
    {
        std::string workload;
        KernelSample wake;
        KernelSample noskip;
    };
    std::vector<Row> rows;

    auto addWorkload = [&](const std::string &name,
                           const prog::Program &program) {
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Local;
        copt.numClusters = 2;
        const auto out = compiler::compile(program, copt);
        const isa::RegisterMap map = out.hardwareMap(2);
        Row row;
        row.workload = name;
        row.wake = measureKernel(out.binary, map, true, kMaxInsts);
        row.noskip = measureKernel(out.binary, map, false, kMaxInsts);
        std::cout << name << ": "
                  << static_cast<std::uint64_t>(row.wake.cyclesPerSecond)
                  << " cyc/s, reference mode "
                  << static_cast<std::uint64_t>(
                         row.noskip.cyclesPerSecond)
                  << " cyc/s (" << row.wake.cycles << " cycles)\n";
        rows.push_back(std::move(row));
    };

    for (const auto *name : {"compress", "doduc", "gcc1", "ora",
                             "su2cor", "tomcatv"})
        addWorkload(name, workloads::benchmarkByName(name).make(
                              workloads::WorkloadParams{0.2}));
    // Non-registry stress workloads: the serial pointer chase (memory-
    // latency-bound, the idle-skip best case alongside ora) and a
    // random program (mixed, mostly-busy worst case).
    addWorkload("chase", workloads::makePointerChase(
                             workloads::WorkloadParams{0.2}));
    workloads::RandomProgramParams rp;
    rp.seed = 7;
    rp.numFunctions = 4;
    rp.segmentsPerFunction = 16;
    rp.loopTrip = 2000;
    addWorkload("random7", workloads::makeRandomProgram(rp));

    std::ofstream out(json_out, std::ios::trunc);
    if (!out) {
        std::cerr << "cannot write " << json_out << "\n";
        return 1;
    }
    out << "{\n  \"benchmark\": \"cycle_kernel_throughput\",\n"
        << "  \"machine\": \"dual8\",\n"
        << "  \"max_insts\": " << kMaxInsts << ",\n"
        << "  \"workloads\": [\n";
    // ns_per_cycle is the reciprocal view (host nanoseconds per
    // simulated cycle) that docs/profiling.md and prof_report.py work
    // in; carrying it here lets profiles be compared against the
    // committed baseline without unit juggling.
    auto nsPerCycle = [](double cps) {
        return cps > 0.0 ? 1e9 / cps : 0.0;
    };
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        out << "    {\"workload\": \"" << r.workload << "\", "
            << "\"cycles\": " << r.wake.cycles << ", "
            << "\"instructions\": " << r.wake.instructions << ", "
            << "\"cycles_per_sec\": " << r.wake.cyclesPerSecond << ", "
            << "\"ns_per_cycle\": " << nsPerCycle(r.wake.cyclesPerSecond)
            << ", "
            << "\"noskip_ns_per_cycle\": "
            << nsPerCycle(r.noskip.cyclesPerSecond) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_out << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_out;
    std::vector<char *> pass{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json-out" && i + 1 < argc)
            json_out = argv[++i];
        else
            pass.push_back(argv[i]);
    }
    if (!json_out.empty())
        return runKernelThroughput(json_out);
    int pargc = static_cast<int>(pass.size());
    benchmark::Initialize(&pargc, pass.data());
    if (benchmark::ReportUnrecognizedArguments(pargc, pass.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
