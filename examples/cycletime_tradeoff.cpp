/**
 * @file
 * Example: using the delay model to answer the paper's headline
 * question for *your* workload — "at which feature size does the
 * multicluster organization win?"
 *
 * Runs one benchmark's native binary on the 8-way single cluster and
 * its locally-rescheduled binary on the dual cluster (two of the
 * Table-2 jobs), then sweeps feature sizes to find the crossover where
 * the dual-cluster machine's faster clock outweighs its extra cycles.
 *
 * Usage: cycletime_tradeoff [benchmark] [scale]
 */

#include <cstdlib>
#include <iostream>

#include "runner/jobspec.hh"
#include "support/table.hh"
#include "timing/delay_model.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    const std::string bench_name = argc > 1 ? argv[1] : "tomcatv";
    runner::JobSpec single;
    single.benchmark = bench_name;
    single.scale = argc > 2 ? std::atof(argv[2]) : 0.2;
    single.maxInsts = 150'000;
    single.machine = "single8";
    single.scheduler = "native";
    runner::JobSpec dual = single;
    dual.machine = "dual8";
    dual.scheduler = "local";

    const runner::JobResult base = runner::runJob(single);
    const runner::JobResult clustered = runner::runJob(dual);
    for (const runner::JobResult *r : {&base, &clustered})
        if (r->status != runner::JobStatus::Ok) {
            std::cerr << "cycletime_tradeoff: " << r->error << "\n";
            return 1;
        }
    const double ratio = static_cast<double>(clustered.cycles) /
                         static_cast<double>(base.cycles);

    std::cout << "benchmark '" << bench_name << "': dual-cluster needs "
              << TextTable::num(100.0 * (ratio - 1.0), 1)
              << "% more cycles than the 8-way single cluster\n"
              << "required clock-period reduction to break even: "
              << TextTable::num(100.0 * timing::DelayModel::
                                    requiredClockReduction(
                                        100.0 * (ratio - 1.0)),
                                1)
              << "%\n\n";

    timing::DelayModel model;
    std::cout << "feature-size sweep (positive net = dual-cluster "
                 "wins):\n";
    TextTable table;
    table.header({"feature (um)", "clock advantage", "net speedup"});
    double crossover = 0.0;
    for (double f = 0.50; f >= 0.095; f -= 0.01) {
        const double clock_adv =
            1.0 - 1.0 / model.widthGrowthRatio(4, 8, f);
        const double net = model.netSpeedupPercent(ratio, 8, 4, f);
        if (net >= 0 && crossover == 0.0)
            crossover = f;
        // Print a coarse subset to keep the table readable.
        const bool print_row =
            std::abs(f - 0.35) < 1e-9 || std::abs(f - 0.25) < 1e-9 ||
            std::abs(f - 0.18) < 1e-9 || std::abs(f - 0.13) < 1e-9 ||
            std::abs(f - 0.50) < 1e-9 || std::abs(f - 0.10) < 1e-9;
        if (print_row)
            table.row({TextTable::num(f, 2),
                       TextTable::num(100.0 * clock_adv, 1) + "%",
                       TextTable::signedPercent(net, 1) + "%"});
    }
    table.print(std::cout);
    if (crossover > 0)
        std::cout << "\ncrossover: the dual-cluster machine wins below "
                     "roughly "
                  << TextTable::num(crossover, 2) << " um for '"
                  << bench_name << "'\n";
    else
        std::cout << "\nno crossover in the swept range\n";
    return 0;
}
