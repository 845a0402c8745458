/**
 * @file
 * Example: compile one benchmark and simulate it on a chosen machine,
 * dumping the full statistics registry.
 *
 * Usage: simulate_benchmark [benchmark] [machine] [scheduler] [scale]
 *   benchmark, machine, scheduler: any name runner::validBenchmarks(),
 *   runner::validMachines() or compiler::schedulerNames() lists
 *   (mcasim --help shows them)
 *
 * Demonstrates the full public API surface: a runner::JobSpec names the
 * point, the runner maps it to a machine and a compile, and the
 * workload generator, compilation pipeline and processor model run it.
 */

#include <iostream>
#include <string>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "runner/jobspec.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    // 1. Name the point: the same description mcasim and mcarun use.
    runner::JobSpec spec;
    spec.maxInsts = 400'000;
    core::ProcessorConfig cfg;
    try {
        spec.benchmark = argc > 1 ? argv[1] : spec.benchmark;
        spec.machine = argc > 2 ? argv[2] : spec.machine;
        spec.scheduler = argc > 3 ? argv[3] : spec.scheduler;
        spec.scale = argc > 4 ? std::stod(argv[4]) : spec.scale;
        spec.validate();
        cfg = runner::machineConfigFor(spec);
    } catch (const std::exception &e) {
        std::cerr << "simulate_benchmark: " << e.what() << "\n";
        return 2;
    }

    // 2. Generate the workload program.
    workloads::WorkloadParams wp;
    wp.scale = spec.scale;
    const prog::Program program =
        workloads::benchmarkByName(spec.benchmark).make(wp);
    std::cout << "program '" << program.name << "': "
              << program.staticInstCount() << " static instructions, "
              << program.values.size() << " live ranges\n";

    // 3. Compile it for the target machine.
    const auto out = compiler::compile(
        program, runner::jobCompileOptions(spec, cfg.numClusters));
    std::cout << "compiled: " << out.binary.staticInstCount()
              << " machine instructions, "
              << out.alloc.memorySpills << " ranges spilled to memory, "
              << out.alloc.otherClusterSpills
              << " recolored across clusters\n";

    // 4. Run it on the machine.
    cfg.regMap = out.hardwareMap(cfg.numClusters);
    StatGroup stats(spec.benchmark + "@" + spec.machine);
    exec::ProgramTrace trace(out.binary, spec.traceSeed, spec.maxInsts);
    core::Processor cpu(cfg, trace, stats);
    const auto result = cpu.run();

    std::cout << "simulated " << result.instructions << " instructions in "
              << result.cycles << " cycles (ipc "
              << (result.cycles
                      ? static_cast<double>(result.instructions) /
                            static_cast<double>(result.cycles)
                      : 0.0)
              << ")\n\n";
    stats.dump(std::cout);
    return 0;
}
