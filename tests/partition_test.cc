/**
 * @file
 * N-cluster partitioning-layer tests: every partitioner produces a
 * verifyIR-legal assignment at every supported cluster count, the
 * multilevel partitioner is deterministic, balanced, and never cut-worse
 * than round-robin, the validation paths name their offending flag, and
 * the campaign runner reproduces partition results at any --jobs width.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "compiler/affinity.hh"
#include "compiler/partition.hh"
#include "compiler/partition_ml.hh"
#include "compiler/pipeline.hh"
#include "core/config.hh"
#include "prog/verify.hh"
#include "runner/campaign.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

compiler::ClusterAssignment
partitionBy(const std::string &name, const prog::Program &p,
            const compiler::PartitionOptions &opt,
            compiler::PartitionStats *stats = nullptr)
{
    if (name == "local")
        return compiler::localSchedule(p, opt);
    if (name == "roundrobin")
        return compiler::roundRobinSchedule(p, opt);
    EXPECT_EQ(name, "multilevel");
    return compiler::multilevelPartition(p, opt, stats);
}

} // namespace

// Every partitioner, every registry workload, every supported cluster
// count: the assignment must pass the IR verifier's partition checks
// (clusters in range, global candidates unassigned).
TEST(PartitionProperty, EveryPartitionerLegalAtEveryWidth)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto p = bench.make(wp);
        for (unsigned n : {1u, 2u, 4u, 8u}) {
            compiler::PartitionOptions opt;
            opt.numClusters = n;
            for (const auto &pname : compiler::partitionerNames()) {
                auto assignment = partitionBy(pname, p, opt);
                prog::VerifyOptions vo;
                vo.clusterOf = &assignment.cluster;
                vo.numClusters = n;
                const auto res = prog::verifyIR(p, vo);
                EXPECT_TRUE(res.ok())
                    << bench.name << " / " << pname << " / " << n
                    << " clusters:\n"
                    << res.str();
            }
        }
    }
}

// The multilevel partitioner has no randomness: equal inputs give
// bit-equal assignments, including across separately built (but
// identical) programs.
TEST(PartitionProperty, MultilevelDeterministic)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    for (const auto &bench : workloads::allBenchmarks()) {
        compiler::PartitionOptions opt;
        opt.numClusters = 4;
        const auto a =
            compiler::multilevelPartition(bench.make(wp), opt);
        const auto b =
            compiler::multilevelPartition(bench.make(wp), opt);
        EXPECT_EQ(a.cluster, b.cluster) << bench.name;
    }
}

// The balance cap is max((1 + tolerance) * ideal + 1, heaviest node).
// Node weights are discrete, so a cluster whose every member is too
// heavy to move can exceed the cap — but never by more than one
// heaviest-node weight (see compiler::kBalanceTolerance).
TEST(PartitionProperty, MultilevelRespectsBalanceBound)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto p = bench.make(wp);
        const auto graph = compiler::buildAffinityGraph(p);
        if (graph.totalNodeWeight == 0)
            continue;
        std::uint64_t maxNode = 0;
        for (const auto w : graph.nodeWeight)
            maxNode = std::max(maxNode, w);
        for (unsigned n : {2u, 4u, 8u}) {
            compiler::PartitionOptions opt;
            opt.numClusters = n;
            compiler::PartitionStats stats;
            compiler::multilevelPartition(p, opt, &stats);
            const double ideal =
                static_cast<double>(graph.totalNodeWeight) / n;
            const double cap = std::max(
                ideal * (1.0 + compiler::kBalanceTolerance) + 1.0,
                static_cast<double>(maxNode));
            EXPECT_LE(stats.balance,
                      (cap + static_cast<double>(maxNode)) / ideal + 1e-9)
                << bench.name << " at " << n << " clusters";
        }
    }
}

// Regression: the multilevel partitioner must never cut more affinity
// weight than blind round-robin, on any Table-2 workload at any width.
TEST(PartitionRegression, MultilevelCutNoWorseThanRoundRobin)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.1;
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto p = bench.make(wp);
        const auto graph = compiler::buildAffinityGraph(p);
        for (unsigned n : {2u, 4u, 8u}) {
            compiler::PartitionOptions opt;
            opt.numClusters = n;
            const auto rr = compiler::roundRobinSchedule(p, opt);
            const auto ml = compiler::multilevelPartition(p, opt);
            EXPECT_LE(compiler::cutWeight(graph, ml),
                      compiler::cutWeight(graph, rr))
                << bench.name << " at " << n << " clusters";
        }
    }
}

// scorePartition and the partitioner's own bookkeeping agree.
TEST(PartitionProperty, StatsMatchScore)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    const auto p = workloads::makeCompress(wp);
    const auto graph = compiler::buildAffinityGraph(p);
    compiler::PartitionOptions opt;
    opt.numClusters = 4;
    compiler::PartitionStats stats;
    const auto a = compiler::multilevelPartition(p, opt, &stats);
    const auto score = compiler::scorePartition(graph, a, 4);
    EXPECT_EQ(stats.cutWeight, score.cutWeight);
    EXPECT_DOUBLE_EQ(stats.balance, score.balance);
    EXPECT_EQ(stats.totalEdgeWeight, graph.totalEdgeWeight);
    EXPECT_LE(stats.cutWeight, stats.totalEdgeWeight);
    EXPECT_EQ(stats.initialCutWeight, stats.cutWeight + stats.fmGain);
}

// N = 1 is a supported degenerate width: every referenced local value
// lands on cluster 0.
TEST(PartitionProperty, SingleClusterAssignsEverythingToZero)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    const auto p = workloads::makeCompress(wp);
    compiler::PartitionOptions opt;
    opt.numClusters = 1;
    for (const auto &pname : compiler::partitionerNames()) {
        const auto a = partitionBy(pname, p, opt);
        for (const auto c : a.cluster)
            EXPECT_TRUE(c == 0 || c == compiler::ClusterAssignment::kUnassigned) << pname;
    }
}

TEST(PartitionValidation, ClusterCountRangeEnforced)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.02;
    const auto p = workloads::makeCompress(wp);
    for (unsigned bad : {0u, 128u, 200u}) {
        compiler::PartitionOptions opt;
        opt.numClusters = bad;
        for (const auto &pname : compiler::partitionerNames()) {
            try {
                partitionBy(pname, p, opt);
                FAIL() << pname << " accepted numClusters = " << bad;
            } catch (const std::runtime_error &e) {
                EXPECT_NE(std::string(e.what()).find("1..127"),
                          std::string::npos)
                    << pname << ": " << e.what();
            }
        }
    }
    compiler::PartitionOptions ok;
    ok.numClusters = compiler::ClusterAssignment::kMaxClusters;
    EXPECT_NO_THROW(ok.validate());
}

TEST(PartitionValidation, ClusterOfOutOfRangeIsUnassigned)
{
    compiler::ClusterAssignment a;
    a.cluster = {0, 1};
    EXPECT_EQ(a.clusterOf(0), 0);
    EXPECT_EQ(a.clusterOf(1), 1);
    EXPECT_EQ(a.clusterOf(2), compiler::ClusterAssignment::kUnassigned);
    EXPECT_EQ(a.clusterOf(9999), compiler::ClusterAssignment::kUnassigned);
}

// multiCluster8 rejects counts the 128-entry budget cannot divide, and
// the error names the call.
TEST(PartitionValidation, MultiCluster8NamesOffendingFlag)
{
    for (unsigned n : {1u, 2u, 4u, 8u})
        EXPECT_EQ(core::ProcessorConfig::multiCluster8(n).numClusters, n);
    for (unsigned bad : {0u, 3u, 5u, 6u, 7u, 9u, 16u}) {
        try {
            core::ProcessorConfig::multiCluster8(bad);
            FAIL() << "multiCluster8 accepted " << bad;
        } catch (const std::runtime_error &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("multiCluster8(" + std::to_string(bad) +
                               ")"),
                      std::string::npos)
                << msg;
            EXPECT_NE(msg.find("1, 2, 4, or 8"), std::string::npos)
                << msg;
        }
    }
}

// The scheduler-name-to-options map: "multilevel" targets the machine's
// cluster count, and degrades to Native when there is nothing to
// partition. The canonical compile key must distinguish partitioners,
// or the compile/result caches would alias them.
TEST(PartitionPipeline, CompileOptionsForMultilevel)
{
    const auto four = compiler::compileOptionsFor("multilevel", 4);
    EXPECT_EQ(four.scheduler, compiler::SchedulerKind::Multilevel);
    EXPECT_EQ(four.numClusters, 4u);

    const auto one = compiler::compileOptionsFor("multilevel", 1);
    EXPECT_EQ(one.scheduler, compiler::SchedulerKind::Native);

    const auto local = compiler::compileOptionsFor("local", 4);
    EXPECT_NE(four.canonicalKey(), local.canonicalKey());

    const auto &names = compiler::partitionerNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "multilevel"),
              names.end());
    EXPECT_EQ(std::find(names.begin(), names.end(), "native"),
              names.end());
}

// Full-pipeline partition stats: a multilevel compile reports a
// coherent quality record on the output.
TEST(PartitionPipeline, CompileReportsPartitionStats)
{
    workloads::WorkloadParams wp;
    wp.scale = 0.05;
    const auto p = workloads::makeCompress(wp);
    auto copt = compiler::compileOptionsFor("multilevel", 4);
    copt.verifyIr = true;
    const auto out = compiler::compile(p, copt);
    EXPECT_EQ(out.partitionStats.numClusters, 4u);
    EXPECT_GT(out.partitionStats.numNodes, 0u);
    EXPECT_LE(out.partitionStats.cutWeight,
              out.partitionStats.totalEdgeWeight);
    EXPECT_GE(out.partitionStats.balance, 1.0);
}

// Campaign determinism: the partitioner sweep must be bit-identical at
// any --jobs width, partition-quality columns included.
TEST(PartitionRunner, DeterministicAcrossJobWidths)
{
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "tomcatv"};
    grid.machines = {"quad8"};
    grid.schedulers = {"local", "multilevel"};
    grid.scale = 0.05;
    grid.maxInsts = 20'000;
    const auto specs = runner::expandGrid(grid);

    runner::CampaignOptions serial;
    serial.jobs = 1;
    serial.cacheDir.clear();
    runner::CampaignOptions wide = serial;
    wide.jobs = 4;

    const auto a = runner::runCampaign(specs, serial);
    const auto b = runner::runCampaign(specs, wide);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].status, runner::JobStatus::Ok);
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].retired, b[i].retired);
        EXPECT_EQ(a[i].partitionCut, b[i].partitionCut);
        EXPECT_DOUBLE_EQ(a[i].partitionBalance, b[i].partitionBalance);
    }
}
