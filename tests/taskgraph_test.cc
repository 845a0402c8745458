/**
 * @file
 * Tests for the dependency-aware task-graph executor (src/taskgraph):
 * topological ordering, cycle detection, failure/cancellation
 * propagation, deterministic slot writes at any worker width, stats
 * sanity, and byte-identical campaign output across --jobs widths.
 */

#include <atomic>
#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/campaign.hh"
#include "runner/emit.hh"
#include "taskgraph/taskgraph.hh"

namespace
{

using namespace mca;
using taskgraph::Executor;
using taskgraph::NodeId;
using taskgraph::NodeStatus;
using taskgraph::TaskGraph;

TEST(TaskGraphTest, RunsAllNodesRespectingEdges)
{
    // Diamond: a -> {b, c} -> d. Order within {b, c} is free, but a
    // must precede both and d must come last.
    TaskGraph graph;
    std::atomic<int> clock{0};
    std::vector<int> when(4, -1);
    const NodeId a = graph.add("a", "t", [&] { when[0] = clock++; });
    const NodeId b = graph.add("b", "t", [&] { when[1] = clock++; });
    const NodeId c = graph.add("c", "t", [&] { when[2] = clock++; });
    const NodeId d = graph.add("d", "t", [&] { when[3] = clock++; });
    graph.addEdge(a, b);
    graph.addEdge(a, c);
    graph.addEdge(b, d);
    graph.addEdge(c, d);

    const auto stats = Executor(4).run(graph);
    EXPECT_EQ(stats.total, 4u);
    EXPECT_EQ(stats.ran, 4u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.cancelled, 0u);
    for (NodeId id : {a, b, c, d})
        EXPECT_EQ(graph.status(id), NodeStatus::Done);
    EXPECT_LT(when[0], when[1]);
    EXPECT_LT(when[0], when[2]);
    EXPECT_LT(when[1], when[3]);
    EXPECT_LT(when[2], when[3]);
}

TEST(TaskGraphTest, CycleDetectionThrows)
{
    TaskGraph graph;
    const NodeId a = graph.add("a", "t", [] {});
    const NodeId b = graph.add("b", "t", [] {});
    const NodeId c = graph.add("c", "t", [] {});
    graph.addEdge(a, b);
    graph.addEdge(b, c);
    graph.addEdge(c, a);
    EXPECT_THROW(graph.validateAcyclic(), std::runtime_error);
    EXPECT_THROW(Executor(2).run(graph), std::runtime_error);
    // No body ever ran.
    for (NodeId id : {a, b, c})
        EXPECT_EQ(graph.status(id), NodeStatus::Pending);
}

TEST(TaskGraphTest, EdgeArgumentChecks)
{
    TaskGraph graph;
    const NodeId a = graph.add("a", "t", [] {});
    EXPECT_THROW(graph.addEdge(a, a), std::invalid_argument);
    EXPECT_THROW(graph.addEdge(a, 99), std::invalid_argument);
    EXPECT_THROW(graph.addEdge(99, a), std::invalid_argument);
}

TEST(TaskGraphTest, FailurePropagatesRootCauseTransitively)
{
    // ok -> bad -> mid -> leaf, plus an independent node that must
    // still run. bad throws; mid and leaf are cancelled with bad's
    // error text, verbatim.
    TaskGraph graph;
    bool leafRan = false;
    bool aloneRan = false;
    const NodeId ok = graph.add("ok", "t", [] {});
    const NodeId bad = graph.add("bad", "t", [] {
        throw std::runtime_error("boom: no such benchmark");
    });
    const NodeId mid = graph.add("mid", "t", [&] { leafRan = true; });
    const NodeId leaf = graph.add("leaf", "t", [&] { leafRan = true; });
    const NodeId alone = graph.add("alone", "t", [&] { aloneRan = true; });
    graph.addEdge(ok, bad);
    graph.addEdge(bad, mid);
    graph.addEdge(mid, leaf);

    const auto stats = Executor(4).run(graph);
    EXPECT_EQ(graph.status(ok), NodeStatus::Done);
    EXPECT_EQ(graph.status(bad), NodeStatus::Failed);
    EXPECT_EQ(graph.error(bad), "boom: no such benchmark");
    EXPECT_EQ(graph.status(mid), NodeStatus::Cancelled);
    EXPECT_EQ(graph.status(leaf), NodeStatus::Cancelled);
    EXPECT_EQ(graph.error(mid), "boom: no such benchmark");
    EXPECT_EQ(graph.error(leaf), "boom: no such benchmark");
    EXPECT_EQ(graph.status(alone), NodeStatus::Done);
    EXPECT_FALSE(leafRan);
    EXPECT_TRUE(aloneRan);
    EXPECT_EQ(stats.ran, 3u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.cancelled, 2u);
}

TEST(TaskGraphTest, CancellationBlamesLowestNumberedFailedDep)
{
    // Two failing deps feed one node; the cancellation text must come
    // from the lowest-numbered one so the outcome is width-invariant.
    TaskGraph graph;
    const NodeId f1 =
        graph.add("f1", "t", [] { throw std::runtime_error("first"); });
    const NodeId f2 =
        graph.add("f2", "t", [] { throw std::runtime_error("second"); });
    const NodeId sink = graph.add("sink", "t", [] {});
    graph.addEdge(f1, sink);
    graph.addEdge(f2, sink);

    for (unsigned width : {1u, 4u}) {
        Executor(width).run(graph);
        EXPECT_EQ(graph.status(sink), NodeStatus::Cancelled) << width;
        EXPECT_EQ(graph.error(sink), "first") << width;
    }
}

TEST(TaskGraphTest, DeterministicSlotsAtAnyWidth)
{
    // 64 independent nodes write into pre-sized slots; the result
    // vector must be identical at every worker width (0 is clamped
    // to one worker).
    constexpr std::size_t kNodes = 64;
    std::vector<std::vector<int>> runs;
    for (unsigned width : {0u, 1u, 4u, 16u}) {
        TaskGraph graph;
        std::vector<int> slots(kNodes, 0);
        for (std::size_t i = 0; i < kNodes; ++i)
            graph.add("n" + std::to_string(i), "t",
                      [&slots, i] { slots[i] = static_cast<int>(i * i); });
        const auto stats = Executor(width).run(graph);
        EXPECT_EQ(stats.ran, kNodes);
        runs.push_back(std::move(slots));
    }
    for (std::size_t i = 0; i < kNodes; ++i)
        EXPECT_EQ(runs[0][i], static_cast<int>(i * i));
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
    EXPECT_EQ(runs[0], runs[3]);
}

TEST(TaskGraphTest, EdgesAreHappensBefore)
{
    // A chain mutating a plain (non-atomic) int: correct iff every
    // edge synchronizes. TSan (scripts/ci.sh thread job) verifies the
    // happens-before claim; the count checks the ordering itself.
    TaskGraph graph;
    int counter = 0;
    constexpr int kChain = 100;
    NodeId prev = graph.add("n0", "t", [&] { ++counter; });
    for (int i = 1; i < kChain; ++i) {
        const NodeId next =
            graph.add("n" + std::to_string(i), "t", [&] { ++counter; });
        graph.addEdge(prev, next);
        prev = next;
    }
    Executor(8).run(graph);
    EXPECT_EQ(counter, kChain);
}

TEST(TaskGraphTest, StatsAndSpansAreConsistent)
{
    TaskGraph graph;
    const NodeId a = graph.add("a", "compile", [] {});
    const NodeId b = graph.add("b", "sim", [] {});
    const NodeId c = graph.add("c", "sim", [] {});
    graph.addEdge(a, b);
    graph.addEdge(a, c);

    const unsigned width = 2;
    const auto stats = Executor(width).run(graph);
    EXPECT_EQ(stats.total, 3u);
    EXPECT_EQ(stats.ran, 3u);
    ASSERT_EQ(stats.spans.size(), 3u);
    EXPECT_GT(stats.wallMs, 0.0);
    EXPECT_GE(stats.criticalPathMs, 0.0);
    EXPECT_LE(stats.criticalPathMs, stats.wallMs + 1.0);
    EXPECT_GE(stats.maxQueueDepth, 1u);
    for (std::size_t i = 1; i < stats.spans.size(); ++i)
        EXPECT_LE(stats.spans[i - 1].startNs, stats.spans[i].startNs);
    for (const auto &span : stats.spans) {
        EXPECT_LE(span.startNs, span.endNs);
        EXPECT_LT(span.lane, width);
        EXPECT_FALSE(span.name.empty());
        EXPECT_FALSE(span.kind.empty());
    }
}

TEST(TaskGraphTest, GraphCanBeReRun)
{
    TaskGraph graph;
    int runs = 0;
    const NodeId a = graph.add("a", "t", [&] { ++runs; });
    const NodeId b = graph.add("b", "t", [&] { ++runs; });
    graph.addEdge(a, b);
    Executor(2).run(graph);
    Executor(2).run(graph);
    EXPECT_EQ(runs, 4);
    EXPECT_EQ(graph.status(a), NodeStatus::Done);
    EXPECT_EQ(graph.status(b), NodeStatus::Done);
}

// ---------------------------------------------------------------------
// Campaign-level determinism: the executor-backed runner must produce
// byte-identical emitted output at every worker width.

std::vector<runner::JobSpec>
compileSharedGrid()
{
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.scale = 0.05;
    grid.maxInsts = 10'000;
    return runner::expandGrid(grid);
}

/** Emitted JSONL + CSV with the host-time column zeroed. */
std::string
emittedBytes(std::vector<runner::JobResult> results)
{
    for (auto &r : results)
        r.wallMs = 0.0;
    std::ostringstream out;
    runner::emitJsonLines(out, results);
    runner::emitCsv(out, results);
    return out.str();
}

TEST(CampaignGraph, ByteIdenticalOutputAcrossWidths)
{
    const auto specs = compileSharedGrid();
    std::vector<std::string> bytes;
    for (unsigned width : {1u, 4u, 16u}) {
        runner::CampaignOptions options;
        options.jobs = width;
        bytes.push_back(emittedBytes(runner::runCampaign(specs, options)));
    }
    EXPECT_EQ(bytes[0], bytes[1]);
    EXPECT_EQ(bytes[0], bytes[2]);
    EXPECT_NE(bytes[0].find("\"status\":\"ok\""), std::string::npos);
}

TEST(CampaignGraph, SampledRunByteIdenticalAcrossWidths)
{
    runner::JobSpec spec;
    spec.benchmark = "compress";
    spec.scale = 0.5;
    spec.maxInsts = 60'000;
    spec.samplePeriod = 20'000;
    const std::vector<runner::JobSpec> specs = {spec};

    std::vector<std::string> bytes;
    for (unsigned width : {1u, 4u, 16u}) {
        runner::CampaignOptions options;
        options.jobs = width;
        auto results = runner::runCampaign(specs, options);
        ASSERT_EQ(results.size(), 1u);
        EXPECT_EQ(results[0].status, runner::JobStatus::Ok) << width;
        EXPECT_TRUE(results[0].sampled);
        bytes.push_back(emittedBytes(std::move(results)));
    }
    EXPECT_EQ(bytes[0], bytes[1]);
    EXPECT_EQ(bytes[0], bytes[2]);
}

TEST(CampaignGraph, ContinuesPastFailedJobs)
{
    // One unbuildable spec must not take down the rest of the grid:
    // its compile node fails, its sim node reports Failed, and every
    // other job still completes Ok.
    auto specs = compileSharedGrid();
    specs[2].benchmark = "nonesuch";

    runner::CampaignOptions options;
    options.jobs = 4;
    runner::CampaignSummary summary;
    const auto results = runner::runCampaign(specs, options, &summary);
    ASSERT_EQ(results.size(), specs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2) {
            EXPECT_EQ(results[i].status, runner::JobStatus::Failed);
            EXPECT_FALSE(results[i].error.empty());
        } else {
            EXPECT_EQ(results[i].status, runner::JobStatus::Ok) << i;
        }
    }
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.ok, specs.size() - 1);
}

} // namespace
