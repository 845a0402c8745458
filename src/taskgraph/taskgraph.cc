#include "taskgraph/taskgraph.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace mca::taskgraph
{

namespace
{

constexpr NodeId kNone = std::numeric_limits<NodeId>::max();

} // namespace

NodeId
TaskGraph::add(std::string name, std::string kind,
               std::function<void()> body)
{
    Node n;
    n.name = std::move(name);
    n.kind = std::move(kind);
    n.region = prof::internRegion("taskgraph." + n.kind);
    n.body = std::move(body);
    nodes_.push_back(std::move(n));
    return static_cast<NodeId>(nodes_.size() - 1);
}

void
TaskGraph::addEdge(NodeId from, NodeId to)
{
    if (from >= nodes_.size() || to >= nodes_.size())
        throw std::invalid_argument("taskgraph: edge references node " +
                                    std::to_string(from >= nodes_.size()
                                                       ? from
                                                       : to) +
                                    " of " +
                                    std::to_string(nodes_.size()));
    if (from == to)
        throw std::invalid_argument("taskgraph: self-edge on node '" +
                                    nodes_[from].name + "'");
    nodes_[from].dependents.push_back(to);
    nodes_[to].deps.push_back(from);
}

void
TaskGraph::validateAcyclic() const
{
    // Kahn's algorithm; any node never reaching indegree zero sits on
    // (or behind) a cycle — report the lowest-numbered one.
    std::vector<std::size_t> indeg(nodes_.size());
    std::deque<NodeId> ready;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        indeg[i] = nodes_[i].deps.size();
        if (indeg[i] == 0)
            ready.push_back(static_cast<NodeId>(i));
    }
    std::size_t seen = 0;
    while (!ready.empty()) {
        const NodeId id = ready.front();
        ready.pop_front();
        ++seen;
        for (NodeId d : nodes_[id].dependents)
            if (--indeg[d] == 0)
                ready.push_back(d);
    }
    if (seen == nodes_.size())
        return;
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        if (indeg[i] != 0)
            throw std::runtime_error(
                "taskgraph: dependency cycle involving node '" +
                nodes_[i].name + "'");
}

ExecStats
Executor::run(TaskGraph &graph) const
{
    graph.validateAcyclic();

    ExecStats stats;
    stats.total = graph.nodes_.size();
    if (stats.total == 0)
        return stats;

    const auto t0 = std::chrono::steady_clock::now();
    const auto nowNs = [&t0] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
    };

    // All scheduling state below is guarded by `m`. Acquiring it
    // between a node's completion and each dependent's start is what
    // turns every edge into a happens-before for the bodies.
    std::mutex m;
    // Signalled when a node becomes ready, and when the last one settles.
    std::condition_variable wake;
    // Ready nodes not yet started, oldest first: nodes start in the
    // order they became ready.
    std::deque<NodeId> ready;
    // Nodes not yet Done, Failed or Cancelled; the workers exit at 0.
    std::size_t unsettled = stats.total;
    std::vector<char> laneBusy;

    const auto makeReady = [&](NodeId id) {
        ready.push_back(id);
        stats.maxQueueDepth = std::max(stats.maxQueueDepth, ready.size());
        wake.notify_one();
    };

    // Called with `m` held each time a node reaches a terminal state.
    // Decrements dependents' counters; a dependent whose deps are all
    // settled either becomes ready (all Done) or cancels with the root
    // cause of its lowest-numbered non-Done dependency. Iterative so
    // long cancellation chains cannot overflow the stack.
    const auto settle = [&](NodeId first) {
        std::deque<NodeId> work{first};
        while (!work.empty()) {
            const NodeId id = work.front();
            work.pop_front();
            --unsettled;
            for (NodeId d : graph.nodes_[id].dependents) {
                TaskGraph::Node &dn = graph.nodes_[d];
                if (--dn.remaining != 0)
                    continue;
                NodeId bad = kNone;
                for (NodeId dep : dn.deps)
                    if (graph.nodes_[dep].status != NodeStatus::Done &&
                        dep < bad)
                        bad = dep;
                if (bad == kNone) {
                    makeReady(d);
                } else {
                    dn.status = NodeStatus::Cancelled;
                    dn.error = graph.nodes_[bad].error;
                    work.push_back(d);
                }
            }
        }
        if (unsettled == 0)
            wake.notify_all();
    };

    // One worker: start the oldest ready node, run its body unlocked,
    // settle it, repeat until every node has settled.
    const auto worker = [&] {
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            wake.wait(lock, [&] { return !ready.empty() || unsettled == 0; });
            if (ready.empty())
                return;
            const NodeId id = ready.front();
            ready.pop_front();
            TaskGraph::Node &n = graph.nodes_[id];
            n.startNs = nowNs();
            unsigned lane = 0;
            while (lane < laneBusy.size() && laneBusy[lane])
                ++lane;
            if (lane == laneBusy.size())
                laneBusy.push_back(0);
            laneBusy[lane] = 1;
            n.lane = lane;
            lock.unlock();

            bool ok = true;
            std::string err;
            {
                prof::ScopeTimer timer(n.region);
                try {
                    n.body();
                } catch (const std::exception &e) {
                    ok = false;
                    err = e.what();
                } catch (...) {
                    ok = false;
                    err = "unknown error";
                }
            }

            lock.lock();
            n.endNs = nowNs();
            laneBusy[n.lane] = 0;
            n.ran = true;
            n.status = ok ? NodeStatus::Done : NodeStatus::Failed;
            n.error = std::move(err);
            settle(id);
        }
    };

    for (std::size_t i = 0; i < graph.nodes_.size(); ++i) {
        TaskGraph::Node &n = graph.nodes_[i];
        n.status = NodeStatus::Pending;
        n.error.clear();
        n.ran = false;
        n.remaining = n.deps.size();
    }
    for (std::size_t i = 0; i < graph.nodes_.size(); ++i)
        if (graph.nodes_[i].remaining == 0)
            makeReady(static_cast<NodeId>(i));
    // Bodies run only on these workers, never on the calling thread,
    // so a profile's tree has the same shape at every width.
    std::vector<std::thread> workers;
    try {
        for (unsigned i = 0; i < jobs_; ++i)
            workers.emplace_back(worker);
    } catch (...) {
        // The workers that did start still run the whole graph.
        if (workers.empty())
            throw;
    }
    for (std::thread &t : workers)
        t.join();

    stats.wallMs = static_cast<double>(nowNs()) / 1e6;

    // Critical path over the DAG in topological order, weighting each
    // node by its measured duration (cancelled nodes weigh nothing).
    std::vector<std::size_t> indeg(graph.nodes_.size());
    std::vector<double> pathMs(graph.nodes_.size(), 0.0);
    std::deque<NodeId> order;
    for (std::size_t i = 0; i < graph.nodes_.size(); ++i) {
        indeg[i] = graph.nodes_[i].deps.size();
        if (indeg[i] == 0)
            order.push_back(static_cast<NodeId>(i));
    }
    while (!order.empty()) {
        const NodeId id = order.front();
        order.pop_front();
        const TaskGraph::Node &n = graph.nodes_[id];
        double longest = 0.0;
        for (NodeId dep : n.deps)
            longest = std::max(longest, pathMs[dep]);
        const double dur =
            n.ran ? static_cast<double>(n.endNs - n.startNs) / 1e6 : 0.0;
        pathMs[id] = longest + dur;
        stats.criticalPathMs = std::max(stats.criticalPathMs, pathMs[id]);
        for (NodeId d : n.dependents)
            if (--indeg[d] == 0)
                order.push_back(d);
    }

    for (std::size_t i = 0; i < graph.nodes_.size(); ++i) {
        const TaskGraph::Node &n = graph.nodes_[i];
        switch (n.status) {
        case NodeStatus::Done:
            ++stats.ran;
            break;
        case NodeStatus::Failed:
            ++stats.ran;
            ++stats.failed;
            break;
        case NodeStatus::Cancelled:
            ++stats.cancelled;
            break;
        case NodeStatus::Pending:
            break; // unreachable on an acyclic graph
        }
        if (n.ran) {
            TaskSpan span;
            span.node = static_cast<NodeId>(i);
            span.name = n.name;
            span.kind = n.kind;
            span.startNs = n.startNs;
            span.endNs = n.endNs;
            span.lane = n.lane;
            stats.spans.push_back(std::move(span));
        }
    }
    std::sort(stats.spans.begin(), stats.spans.end(),
              [](const TaskSpan &a, const TaskSpan &b) {
                  return a.startNs != b.startNs ? a.startNs < b.startNs
                                                : a.node < b.node;
              });
    return stats;
}

} // namespace mca::taskgraph
