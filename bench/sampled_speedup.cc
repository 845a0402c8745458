/**
 * @file
 * Sampled-simulation speedup benchmark (docs/sampling.md).
 *
 * For a long-trace workload, runs the full detailed simulation and the
 * SMARTS-style sampled estimate of the same run on one core (jobs=1),
 * then reports the effective speedup (detailed wall clock / sampled
 * wall clock) and the CPI estimation error. Acceptance: at least one
 * benchmark reaches a 7x per-core effective speedup with <= 2% CPI
 * error (the absolute floor is host-calibrated — the ratio compresses
 * on hosts that run detailed simulation fast, since warming dominates
 * the sampled leg; the sampled wall clock itself is timed by the
 * bench/e2e `sampled` workload); every sampled interval must conserve
 * its cycle stack. That the pipelined estimate equals the serial one
 * is a unit test (SampledRun.ParallelMatchesSerial). scripts/ci.sh
 * stores the result as BENCH_sample.json.
 *
 * Usage: sampled_speedup [--scale S] [--max-insts N] [--json-out FILE]
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "sample/driver.hh"
#include "sample/spec.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

constexpr std::uint64_t kTraceSeed = 42;

struct CaseSpec
{
    const char *benchmark;
    std::uint64_t period;
    std::uint64_t detail;
    std::uint64_t warmup;
};

struct CaseResult
{
    std::string benchmark;
    std::uint64_t totalInsts = 0;
    Cycle fullCycles = 0;
    double fullWallMs = 0.0;
    double estCycles = 0.0;
    double sampledWallMs = 0.0;
    double cpiFull = 0.0;
    double cpiSampled = 0.0;
    double cpiCi95 = 0.0;
    double cpiErr = 0.0;
    double speedup = 0.0;
    std::uint64_t intervals = 0;
    std::uint64_t detailedInsts = 0;
    bool conserved = true;
};

double
wallMsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

CaseResult
runCase(const CaseSpec &cs, double scale, std::uint64_t max_insts)
{
    CaseResult out;
    out.benchmark = cs.benchmark;

    workloads::WorkloadParams wp;
    wp.scale = scale;
    const prog::Program program =
        workloads::benchmarkByName(cs.benchmark).make(wp);
    compiler::CompileOptions copt = compiler::compileOptionsFor("local", 2);
    copt.profileSeed = kTraceSeed;
    const auto compiled = compiler::compile(program, copt);
    core::ProcessorConfig cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = compiled.hardwareMap(2);

    // Full detailed run (the ground truth being predicted).
    {
        const auto t0 = std::chrono::steady_clock::now();
        StatGroup sg("mca");
        exec::ProgramTrace trace(compiled.binary, kTraceSeed, max_insts);
        core::Processor proc(cfg, trace, sg);
        const auto res = proc.run();
        out.fullWallMs = wallMsSince(t0);
        out.fullCycles = res.cycles;
        out.totalInsts = res.instructions;
        out.cpiFull = static_cast<double>(res.cycles) /
                      static_cast<double>(res.instructions);
    }

    // Sampled estimate of the same run.
    sample::SampleSpec spec;
    spec.mode = sample::SampleSpec::Mode::Systematic;
    spec.period = cs.period;
    spec.detail = cs.detail;
    spec.warmup = cs.warmup;
    spec.jobs = 1; // serial: the speedup claim is per-core, no pool help
    const auto t0 = std::chrono::steady_clock::now();
    sample::SampledDriver driver(compiled.binary, cfg, kTraceSeed,
                                 max_insts);
    const sample::SampleReport rep = driver.run(spec);
    out.sampledWallMs = wallMsSince(t0);

    out.estCycles = rep.estTotalCycles;
    out.cpiSampled = rep.cpiMean;
    out.cpiCi95 = rep.cpiCi95;
    out.cpiErr = std::fabs(rep.cpiMean - out.cpiFull) / out.cpiFull;
    out.speedup = out.sampledWallMs > 0.0
                      ? out.fullWallMs / out.sampledWallMs
                      : 0.0;
    out.intervals = rep.intervals.size();
    out.detailedInsts = rep.detailedInsts;
    out.conserved = rep.allConserved;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 10.0;
    std::uint64_t max_insts = 4'000'000;
    std::string json_out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--scale")
            scale = std::atof(next());
        else if (arg == "--max-insts")
            max_insts = std::strtoull(next(), nullptr, 10);
        else if (arg == "--json-out")
            json_out = next();
        else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    // gcc1 is the long branchy trace sampling exists for; su2cor's
    // vector phases stress interval placement (its CPI swings between
    // memory-bound and issue-bound stretches). Periods chosen for
    // ~10-16 intervals at the default trace length.
    const std::vector<CaseSpec> cases = {
        {"gcc1", 400'000, 8'000, 2'000},
        {"su2cor", 125'000, 8'000, 2'000},
    };

    std::vector<CaseResult> results;
    for (const auto &cs : cases)
        results.push_back(runCase(cs, scale, max_insts));

    int rc = 0;
    bool anyTarget = false;
    for (const auto &r : results) {
        if (!r.conserved) {
            std::cerr << "FAIL: " << r.benchmark
                      << ": sampled interval violated cycle-stack "
                         "conservation\n";
            rc = 1;
        }
        anyTarget |= r.speedup >= 7.0 && r.cpiErr <= 0.02;
    }
    if (!anyTarget) {
        std::cerr << "FAIL: no benchmark reached 7x speedup with <=2% "
                     "CPI error\n";
        rc = 1;
    }

    std::cout << "Sampled-simulation speedup (dual8/local, scale "
              << scale << ")\n\n";
    TextTable table;
    table.header({"benchmark", "insts", "full_cyc", "est_cyc", "cpi_err",
                  "ci95", "intervals", "det_insts", "full_ms",
                  "sampled_ms", "speedup"});
    for (const auto &r : results)
        table.row({r.benchmark, std::to_string(r.totalInsts),
                   std::to_string(r.fullCycles),
                   TextTable::num(r.estCycles, 0),
                   TextTable::num(100.0 * r.cpiErr) + "%",
                   TextTable::num(r.cpiCi95),
                   std::to_string(r.intervals),
                   std::to_string(r.detailedInsts),
                   TextTable::num(r.fullWallMs),
                   TextTable::num(r.sampledWallMs),
                   TextTable::num(r.speedup) + "x"});
    table.print(std::cout);

    if (!json_out.empty()) {
        std::ofstream out(json_out, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write " << json_out << "\n";
            return 1;
        }
        out << "{\n  \"benchmark\": \"sampled_speedup\",\n"
            << "  \"scale\": " << scale << ",\n"
            << "  \"max_insts\": " << max_insts << ",\n"
            << "  \"target_met\": " << (anyTarget ? "true" : "false")
            << ",\n  \"rows\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            out << "    {\"benchmark\": \"" << r.benchmark
                << "\", \"total_insts\": " << r.totalInsts
                << ", \"full_cycles\": " << r.fullCycles
                << ", \"est_cycles\": " << r.estCycles
                << ", \"cpi_full\": " << r.cpiFull
                << ", \"cpi_sampled\": " << r.cpiSampled
                << ", \"cpi_ci95\": " << r.cpiCi95
                << ", \"cpi_err\": " << r.cpiErr
                << ", \"intervals\": " << r.intervals
                << ", \"detailed_insts\": " << r.detailedInsts
                << ", \"full_wall_ms\": " << r.fullWallMs
                << ", \"sampled_wall_ms\": " << r.sampledWallMs
                << ", \"speedup\": " << r.speedup
                << ", \"conserved\": " << (r.conserved ? "true" : "false")
                << "}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
    }
    return rc;
}
