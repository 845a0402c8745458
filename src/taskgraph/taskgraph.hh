/**
 * @file
 * Deterministic dependency-aware task-graph executor.
 *
 * The campaign runner and the sampled driver both shard work across
 * worker threads, and each has stages that must run in order: a job's
 * compile before its simulation, a window's warming before its
 * measurement. A TaskGraph makes the ordering explicit — nodes are
 * plain std::function<void()> bodies, edges say "this must finish
 * before that starts" — and the Executor runs the DAG on its own
 * workers from one FIFO ready queue, so independent stages overlap
 * automatically (compile while simulating, warm window i+1 while
 * measuring window i).
 *
 * Determinism contract: the executor decides only WHEN a body runs,
 * never what it computes. Bodies write into pre-sized slots owned by
 * the caller, every edge is a happens-before (the executor's mutex is
 * acquired between a node's completion and any dependent's start), and
 * failure handling is deterministic — a failed node's dependents are
 * cancelled with the root cause's error text, choosing the
 * lowest-numbered failed dependency when several could be blamed. So
 * results are bit-identical at any worker width (tests/taskgraph_test).
 *
 * Observability: each body runs under a PROF_SCOPE region named
 * "taskgraph.<kind>", and ExecStats carries per-node spans (start/end
 * host ns, compact lane assignment) plus the critical-path length and
 * the peak ready-queue depth — surfaced in mcarun --telemetry and as a
 * "task graph" process in the Perfetto export (docs/campaigns.md).
 */

#ifndef MCA_TASKGRAPH_TASKGRAPH_HH
#define MCA_TASKGRAPH_TASKGRAPH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "prof/prof.hh"

namespace mca::taskgraph
{

/** Dense node index, assigned by TaskGraph::add in creation order. */
using NodeId = std::uint32_t;

/** Terminal state of a node after Executor::run. */
enum class NodeStatus : std::uint8_t
{
    Pending,   ///< never scheduled (only before a run)
    Done,      ///< body returned normally
    Failed,    ///< body threw; error() holds what()
    Cancelled, ///< a dependency failed; error() holds the root cause
};

/** One executed node's host-time span (for the Perfetto export). */
struct TaskSpan
{
    NodeId node = 0;
    std::string name;
    std::string kind;
    /** Host ns since Executor::run started. */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Compact non-overlapping track index (< worker width). */
    unsigned lane = 0;
};

/** Aggregate result of one Executor::run. */
struct ExecStats
{
    std::size_t total = 0;     ///< nodes in the graph
    std::size_t ran = 0;       ///< bodies that executed (Done + Failed)
    std::size_t failed = 0;    ///< bodies that threw
    std::size_t cancelled = 0; ///< nodes skipped because a dep failed
    double wallMs = 0.0;
    /**
     * Longest dependency chain weighted by measured node durations, in
     * host ms: the lower bound on wall clock at infinite width. A wall
     * clock close to this means the graph, not the width, is the limit.
     */
    double criticalPathMs = 0.0;
    /** Peak count of ready-but-not-started nodes (worker backpressure). */
    std::size_t maxQueueDepth = 0;
    /** Per-node spans of every body that ran, sorted by start time. */
    std::vector<TaskSpan> spans;
};

/**
 * A DAG of named work items. Build with add()/addEdge(), hand to an
 * Executor. Statuses and errors are readable after the run; a graph
 * may be re-run (statuses reset) but not mutated while running.
 */
class TaskGraph
{
  public:
    /**
     * Append a node. @p kind groups nodes for profiling ("compile",
     * "sim", "warm", ...) — the body runs under PROF_SCOPE
     * "taskgraph.<kind>". @p name labels this node in errors, spans,
     * and traces. Bodies must synchronize only through edges.
     */
    NodeId add(std::string name, std::string kind,
               std::function<void()> body);

    /**
     * Require @p from to finish (successfully) before @p to starts.
     * Throws std::invalid_argument on out-of-range ids or a self-edge.
     */
    void addEdge(NodeId from, NodeId to);

    std::size_t size() const { return nodes_.size(); }

    /**
     * Verify the graph is acyclic; throws std::runtime_error naming a
     * node on a cycle. Executor::run calls this before scheduling.
     */
    void validateAcyclic() const;

    NodeStatus status(NodeId id) const { return nodes_.at(id).status; }
    /** Failed: the body's exception text. Cancelled: the root cause. */
    const std::string &error(NodeId id) const
    {
        return nodes_.at(id).error;
    }
    const std::string &name(NodeId id) const
    {
        return nodes_.at(id).name;
    }

  private:
    friend class Executor;

    struct Node
    {
        std::string name;
        std::string kind;
        prof::RegionId region = 0;
        std::function<void()> body;
        std::vector<NodeId> deps;
        std::vector<NodeId> dependents;
        NodeStatus status = NodeStatus::Pending;
        std::string error;
        // Per-run scheduling state (owned by Executor::run).
        std::size_t remaining = 0;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        unsigned lane = 0;
        bool ran = false;
    };

    std::vector<Node> nodes_;
};

/**
 * Runs a TaskGraph on `jobs` worker threads that run() starts and
 * joins. Ready nodes start in the order they became ready (one FIFO
 * queue), and bodies run only on the workers, never on the calling
 * thread. The executor owns all cross-node synchronization: one mutex
 * guards the scheduling state and the ready queue, and every edge
 * implies a happens-before between the two bodies, so bodies
 * themselves stay lock-free.
 */
class Executor
{
  public:
    /** @param jobs Worker width (clamped to at least 1). */
    explicit Executor(unsigned jobs) : jobs_(jobs ? jobs : 1) {}

    /**
     * Execute the graph to completion. Node bodies that throw mark
     * their node Failed and cancel dependents (transitively); run()
     * itself throws only on a cyclic graph, or when not one worker
     * thread can start (fewer than `jobs` still run the whole graph).
     * Statuses/errors are left on @p graph for the caller to inspect.
     */
    ExecStats run(TaskGraph &graph) const;

  private:
    unsigned jobs_;
};

} // namespace mca::taskgraph

#endif // MCA_TASKGRAPH_TASKGRAPH_HH
