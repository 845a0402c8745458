/**
 * @file
 * Cluster-count x partitioner sweep. The paper analyses two clusters;
 * the architecture generalizes (paper §6 future work), and this
 * campaign splits the same 8-way resource pool 1, 2, 4, and 8 ways and
 * compares every partition pass at each width: the paper's local
 * scheduler, the round-robin strawman, and the multilevel graph
 * partitioner (docs/compiler.md).
 *
 * Quality gates recorded in the JSON (scripts/ci.sh stores it as
 * BENCH_partition.json); the bench exits 1 if any of them fails:
 *   - ml_cut_le_roundrobin: the multilevel partitioner's affinity cut
 *     is no worse than round-robin's on every benchmark x machine.
 *   - ml_ipc_ge_local_quad8 / _octa8: multilevel matches or beats the
 *     local scheduler's geomean IPC at 4 and at 8 clusters.
 *
 * A second, informational sweep crosses the three partitioners with
 * the shared-L2 axis (quad8, l2_kb in {0, 256}) and lands in the JSON
 * as `l2_cross_rows` — it does not participate in the gates above, it
 * records how partition quality interacts with the memory hierarchy.
 *
 * Usage: ablation_clusters [--scale S] [--max-insts N] [--jobs N]
 *                          [--json-out FILE]
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "support/table.hh"

namespace
{

using namespace mca;

/** Geometric mean of IPC(multilevel)/IPC(local) over benchmarks. */
double
ipcRatioGeomean(const std::vector<runner::JobResult> &results,
                const std::string &machine)
{
    std::map<std::string, double> local, ml;
    for (const auto &r : results) {
        if (r.spec.machine != machine ||
            r.status != runner::JobStatus::Ok)
            continue;
        if (r.spec.scheduler == "local")
            local[r.spec.benchmark] = r.ipc;
        else if (r.spec.scheduler == "multilevel")
            ml[r.spec.benchmark] = r.ipc;
    }
    double logSum = 0.0;
    std::size_t n = 0;
    for (const auto &[bench, ipc] : local) {
        const auto it = ml.find(bench);
        if (it == ml.end() || ipc <= 0.0 || it->second <= 0.0)
            continue;
        logSum += std::log(it->second / ipc);
        ++n;
    }
    return n == 0 ? 0.0 : std::exp(logSum / static_cast<double>(n));
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 0.2;
    std::uint64_t max_insts = 100'000;
    unsigned jobs = 4;
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
        else if (arg == "--jobs")
            jobs = static_cast<unsigned>(std::atoi(next()));
        else if (arg == "--json-out")
            json_out = next();
        else {
            std::cerr << "unknown argument: " << arg << "\n";
            return 2;
        }
    }

    // Two sub-grids: the unpartitioned single-cluster baseline, and
    // the partitioner comparison at every multi-cluster width.
    runner::CampaignGrid base;
    base.benchmarks = runner::validBenchmarks();
    base.machines = {"single8"};
    base.schedulers = {"native"};
    base.scale = scale;
    base.maxInsts = max_insts;

    runner::CampaignGrid sweep = base;
    sweep.machines = {"dual8", "quad8", "octa8"};
    sweep.schedulers = {"local", "roundrobin", "multilevel"};

    runner::CampaignOptions options;
    options.jobs = jobs;

    auto specs = runner::expandGrid(base);
    const auto sweepSpecs = runner::expandGrid(sweep);
    specs.insert(specs.end(), sweepSpecs.begin(), sweepSpecs.end());

    runner::CampaignSummary summary;
    const auto results = runner::runCampaign(specs, options, &summary);

    // Informational partitioner x L2 cross sweep (gates are computed
    // over the main sweep only).
    runner::CampaignGrid cross = base;
    cross.machines = {"quad8"};
    cross.schedulers = {"local", "roundrobin", "multilevel"};
    cross.l2Kbs = {0, 256};
    const auto crossSpecs = runner::expandGrid(cross);
    runner::CampaignSummary crossSummary;
    const auto crossResults =
        runner::runCampaign(crossSpecs, options, &crossSummary);

    int rc = 0;
    if (summary.ok != results.size()) {
        std::cerr << "FAIL: " << summary.ok << "/" << results.size()
                  << " jobs succeeded\n";
        rc = 1;
    }
    if (crossSummary.ok != crossResults.size()) {
        std::cerr << "FAIL: L2 cross sweep: " << crossSummary.ok << "/"
                  << crossResults.size() << " jobs succeeded\n";
        rc = 1;
    }

    // Gate 1: multilevel cut <= roundrobin cut, per benchmark x machine.
    // Both score against the same affinity graph, so the comparison is
    // apples to apples.
    bool cutOk = true;
    std::map<std::pair<std::string, std::string>, std::uint64_t> rrCut,
        mlCut;
    for (const auto &r : results) {
        if (r.status != runner::JobStatus::Ok)
            continue;
        const auto key = std::make_pair(r.spec.benchmark, r.spec.machine);
        if (r.spec.scheduler == "roundrobin")
            rrCut[key] = r.partitionCut;
        else if (r.spec.scheduler == "multilevel")
            mlCut[key] = r.partitionCut;
    }
    for (const auto &[key, cut] : mlCut) {
        const auto it = rrCut.find(key);
        if (it == rrCut.end())
            continue;
        if (cut > it->second) {
            std::cerr << "FAIL: multilevel cut " << cut << " > roundrobin "
                      << it->second << " on " << key.first << "/"
                      << key.second << "\n";
            cutOk = false;
        }
    }
    if (!cutOk)
        rc = 1;

    // Gate 2: multilevel geomean IPC >= local at 4 and 8 clusters
    // (small epsilon absorbs last-digit float formatting).
    const double quadRatio = ipcRatioGeomean(results, "quad8");
    const double octaRatio = ipcRatioGeomean(results, "octa8");
    const bool quadOk = quadRatio >= 1.0 - 1e-9;
    const bool octaOk = octaRatio >= 1.0 - 1e-9;
    if (!quadOk || !octaOk) {
        std::cerr << "FAIL: multilevel/local IPC geomean quad8 "
                  << quadRatio << ", octa8 " << octaRatio << "\n";
        rc = 1;
    }

    std::cout << "Cluster-count x partitioner sweep (scale " << scale
              << ", " << max_insts << " insts)\n"
              << "  cut = affinity edge weight split across clusters; "
                 "balance = heaviest/ideal\n\n";
    TextTable table;
    table.header({"benchmark", "machine", "N", "partitioner", "cycles",
                  "ipc", "cut", "balance"});
    for (const auto &r : results)
        table.row({r.spec.benchmark, r.spec.machine,
                   std::to_string(runner::machineConfigFor(r.spec).numClusters),
                   r.spec.scheduler, std::to_string(r.cycles),
                   TextTable::num(r.ipc),
                   std::to_string(r.partitionCut),
                   TextTable::num(r.partitionBalance)});
    table.print(std::cout);
    std::cout << "\nmultilevel/local IPC geomean: quad8 "
              << TextTable::num(quadRatio) << ", octa8 "
              << TextTable::num(octaRatio) << "\n";

    std::cout << "\nPartitioner x L2 cross sweep (quad8)\n";
    TextTable crossTable;
    crossTable.header({"benchmark", "partitioner", "l2_kb", "cycles",
                       "ipc", "l2_miss_rate", "cut"});
    for (const auto &r : crossResults)
        crossTable.row({r.spec.benchmark, r.spec.scheduler,
                        std::to_string(r.spec.l2Kb),
                        std::to_string(r.cycles), TextTable::num(r.ipc),
                        TextTable::num(r.l2MissRate),
                        std::to_string(r.partitionCut)});
    crossTable.print(std::cout);

    if (!json_out.empty()) {
        std::ofstream out(json_out, std::ios::trunc);
        if (!out) {
            std::cerr << "cannot write " << json_out << "\n";
            return 1;
        }
        out << "{\n  \"benchmark\": \"partition_quality\",\n"
            << "  \"scale\": " << scale << ",\n"
            << "  \"max_insts\": " << max_insts << ",\n"
            << "  \"jobs_ok\": " << summary.ok << ",\n"
            << "  \"jobs_total\": " << results.size() << ",\n"
            << "  \"ml_cut_le_roundrobin\": "
            << (cutOk ? "true" : "false") << ",\n"
            << "  \"ml_ipc_ge_local_quad8\": "
            << (quadOk ? "true" : "false") << ",\n"
            << "  \"ml_ipc_ge_local_octa8\": "
            << (octaOk ? "true" : "false") << ",\n"
            << "  \"ml_local_ipc_geomean_quad8\": " << quadRatio << ",\n"
            << "  \"ml_local_ipc_geomean_octa8\": " << octaRatio << ",\n"
            << "  \"rows\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &r = results[i];
            out << "    {\"benchmark\": \"" << r.spec.benchmark
                << "\", \"machine\": \"" << r.spec.machine
                << "\", \"clusters\": "
                << runner::machineConfigFor(r.spec).numClusters
                << ", \"scheduler\": \"" << r.spec.scheduler
                << "\", \"cycles\": " << r.cycles
                << ", \"ipc\": " << r.ipc
                << ", \"partition_cut\": " << r.partitionCut
                << ", \"partition_balance\": " << r.partitionBalance
                << "}" << (i + 1 < results.size() ? "," : "") << "\n";
        }
        out << "  ],\n  \"l2_cross_rows\": [\n";
        for (std::size_t i = 0; i < crossResults.size(); ++i) {
            const auto &r = crossResults[i];
            out << "    {\"benchmark\": \"" << r.spec.benchmark
                << "\", \"scheduler\": \"" << r.spec.scheduler
                << "\", \"l2_kb\": " << r.spec.l2Kb
                << ", \"cycles\": " << r.cycles
                << ", \"ipc\": " << r.ipc
                << ", \"l2_miss_rate\": " << r.l2MissRate
                << ", \"partition_cut\": " << r.partitionCut
                << "}" << (i + 1 < crossResults.size() ? "," : "")
                << "\n";
        }
        out << "  ]\n}\n";
        std::cout << "wrote " << json_out << "\n";
    }
    return rc;
}
