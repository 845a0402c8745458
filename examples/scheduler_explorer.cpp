/**
 * @file
 * Example: explore the static scheduling design space on one benchmark.
 *
 * Compares the three partitioners (native/cluster-unaware, round-robin,
 * and the paper's local scheduler) across imbalance thresholds, and
 * reports cycles, dual-distribution rate, transfer traffic, and spill
 * cost — the trade-off space of §3.
 *
 * Usage: scheduler_explorer [benchmark] [scale]
 */

#include <cstdlib>
#include <iostream>

#include "compiler/pipeline.hh"
#include "harness/experiment.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    const std::string bench_name = argc > 1 ? argv[1] : "compress";
    workloads::WorkloadParams wp;
    wp.scale = argc > 2 ? std::atof(argv[2]) : 0.2;

    const auto program =
        workloads::benchmarkByName(bench_name).make(wp);

    // Each variant is a named scheduler targeting the dual-cluster
    // machine (compileOptionsFor maps the name to its options).
    std::vector<std::pair<std::string, compiler::CompileOptions>> variants = {
        {"native (cluster-unaware)", compiler::compileOptionsFor("native", 2)},
        {"round-robin", compiler::compileOptionsFor("roundrobin", 2)},
    };
    for (unsigned t : {1u, 2u, 4u, 8u}) {
        variants.emplace_back("local, threshold " + std::to_string(t),
                              compiler::compileOptionsFor("local", 2));
        variants.back().second.imbalanceThreshold = t;
    }

    std::cout << "Scheduler exploration on '" << bench_name
              << "' (dual-cluster 8-way machine)\n\n";
    TextTable table;
    table.header({"scheduler", "cycles", "ipc", "dual%", "op-fwd",
                  "res-fwd", "spill ld/st", "replays"});
    for (const auto &[name, options] : variants) {
        const auto out = compiler::compile(program, options);
        const auto s = harness::simulate(
            out.binary, out.hardwareMap(2),
            core::ProcessorConfig::dualCluster8(), 42, 300'000);
        const double total =
            static_cast<double>(s.distSingle + s.distDual);
        table.row({name, std::to_string(s.cycles),
                   TextTable::num(s.ipc, 2),
                   TextTable::num(total ? 100.0 * s.distDual / total : 0,
                                  1),
                   std::to_string(s.operandForwards),
                   std::to_string(s.resultForwards),
                   std::to_string(out.alloc.spillLoadsInserted) + "/" +
                       std::to_string(out.alloc.spillStoresInserted),
                   std::to_string(s.replays)});
    }
    table.print(std::cout);
    std::cout << "\n(The native binary is measured on the dual-cluster "
                 "machine — the paper's\n\"none\" baseline. Lower "
                 "dual%% usually means fewer transfers but possibly\n"
                 "worse balance; the local scheduler trades between "
                 "them.)\n";
    return 0;
}
