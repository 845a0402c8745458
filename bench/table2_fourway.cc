/**
 * @file
 * The 4-way companion to Table 2. The paper evaluated both 4-way and
 * 8-way machines and reported the 8-way numbers ("these more clearly
 * show the important trends"); this bench regenerates the 4-way view:
 * a 4-way single cluster against a dual-cluster machine built from two
 * 2-way clusters. It runs as the Table-2 campaign (runner/table2.hh).
 *
 * Usage: table2_fourway [scale] [max_insts]
 */

#include <cstdlib>
#include <iostream>

#include "runner/table2.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    harness::ExperimentOptions opt;
    opt.workload.scale = argc > 1 ? std::atof(argv[1]) : 0.2;
    opt.maxInsts = argc > 2
                       ? static_cast<std::uint64_t>(std::atoll(argv[2]))
                       : 100'000;
    opt.eightWay = false;

    std::cout << "Table 2 (4-way machines): dual-cluster speedup "
                 "ratios\n\n";

    TextTable table;
    table.header({"benchmark", "none", "local", "single cycles",
                  "dual-none cycles", "dual-local cycles"});
    const auto result = runner::runTable2Campaign(opt, {});
    for (const auto &row : result.rows)
        table.row({row.benchmark, TextTable::signedPercent(row.pctNone),
                   TextTable::signedPercent(row.pctLocal),
                   std::to_string(row.single.cycles),
                   std::to_string(row.dualNone.cycles),
                   std::to_string(row.dualLocal.cycles)});
    table.print(std::cout);
    std::cout << "\n(The paper reports only the 8-way data; this view "
                 "is provided for\ncompleteness — the trends are less "
                 "pronounced, as the paper notes.)\n";
    return 0;
}
