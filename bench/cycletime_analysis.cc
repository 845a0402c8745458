/**
 * @file
 * Reproduces the paper's §4.2 cycle-time analysis: the Palacharla-style
 * critical-path delays for 4- and 8-way machines at 0.35 um and
 * 0.18 um, the break-even clock-reduction rule (a 25% slowdown needs a
 * 20% smaller period), and the net run-time effect of clustering per
 * benchmark at each feature size — the paper's bottom-line argument
 * that the multicluster architecture wins below 0.35 um. The cycle
 * ratios come from the Table-2 campaign (runner/table2.hh).
 *
 * Usage: cycletime_analysis [scale] [max_insts]
 */

#include <cstdlib>
#include <iostream>

#include "runner/table2.hh"
#include "support/table.hh"
#include "timing/delay_model.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    timing::DelayModel model;

    std::cout << "Critical-path delay model (calibrated to Palacharla et "
                 "al.)\n\n";
    TextTable delays;
    delays.header({"feature size", "4-way delay (ps)", "8-way delay (ps)",
                   "8/4 growth", "wire share (4-way)"});
    for (double f : {0.8, 0.35, 0.25, 0.18, 0.13}) {
        delays.row({TextTable::num(f, 2) + " um",
                    TextTable::num(model.criticalPathPs(4, f), 0),
                    TextTable::num(model.criticalPathPs(8, f), 0),
                    TextTable::num(model.widthGrowthRatio(4, 8, f), 2),
                    TextTable::num(model.wireShare(f), 3)});
    }
    delays.print(std::cout);
    std::cout << "\nPaper anchors: 1248 ps -> 1484 ps (+18%) at 0.35 um; "
                 "+82% at 0.18 um.\n";

    std::cout << "\nBreak-even clock reduction "
                 "(1 - 1/(1 + slowdown)):\n";
    TextTable brk;
    brk.header({"cycle slowdown", "required period reduction"});
    for (double s : {5.0, 10.0, 15.0, 20.0, 25.0, 30.0}) {
        brk.row({TextTable::num(s, 0) + "%",
                 TextTable::num(
                     100.0 * timing::DelayModel::requiredClockReduction(s),
                     1) +
                     "%"});
    }
    brk.print(std::cout);

    // Net effect per benchmark, using measured dual/local slowdowns.
    harness::ExperimentOptions opt;
    opt.workload.scale = argc > 1 ? std::atof(argv[1]) : 0.2;
    opt.maxInsts = argc > 2
                       ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                       : 100'000;

    std::cout << "\nNet run-time speedup of the dual-cluster machine "
                 "(local scheduler),\ncombining the measured cycle "
                 "ratio with the clock advantage of 4-way\nclusters "
                 "over an 8-way single cluster:\n";
    TextTable net;
    net.header({"benchmark", "cycle ratio", "net @ 0.35um",
                "net @ 0.25um", "net @ 0.18um"});
    double worst_ratio = 1.0;
    const auto result = runner::runTable2Campaign(opt, {});
    for (const auto &row : result.rows) {
        const double ratio =
            static_cast<double>(row.dualLocal.cycles) /
            static_cast<double>(row.single.cycles);
        worst_ratio = std::max(worst_ratio, ratio);
        net.row({row.benchmark, TextTable::num(ratio, 3),
                 TextTable::signedPercent(
                     model.netSpeedupPercent(ratio, 8, 4, 0.35), 1),
                 TextTable::signedPercent(
                     model.netSpeedupPercent(ratio, 8, 4, 0.25), 1),
                 TextTable::signedPercent(
                     model.netSpeedupPercent(ratio, 8, 4, 0.18), 1)});
    }
    net.print(std::cout);

    std::cout << "\nWorst-case cycle ratio " << TextTable::num(worst_ratio, 2)
              << ": net effect "
              << TextTable::signedPercent(
                     model.netSpeedupPercent(worst_ratio, 8, 4, 0.35), 1)
              << "% at 0.35 um vs "
              << TextTable::signedPercent(
                     model.netSpeedupPercent(worst_ratio, 8, 4, 0.18), 1)
              << "% at 0.18 um — partitioning pays off as features "
                 "shrink\n(the paper's conclusion).\n";
    return 0;
}
