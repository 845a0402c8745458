#include "compiler/partition_ml.hh"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/panic.hh"

namespace mca::compiler
{

namespace
{

constexpr std::uint32_t kNo = ~std::uint32_t{0};

/** Stop coarsening at max(kCoarsenTarget, 8 x N) nodes. */
constexpr std::size_t kCoarsenTarget = 64;
/** FM pass budget per uncoarsening level. */
constexpr unsigned kFmMaxPasses = 8;
/**
 * Above this node count a level uses greedy positive-gain sweeps
 * instead of full FM with rollback (compile-time guard; the coarse
 * levels where FM matters most are always below it).
 */
constexpr std::size_t kFmExhaustiveLimit = 4096;

struct Edge
{
    std::uint32_t to;
    std::uint64_t weight;
};

/** One level of the coarsening hierarchy. */
struct LevelGraph
{
    std::vector<std::uint64_t> nodeWeight;
    std::vector<std::vector<Edge>> adj;

    std::size_t numNodes() const { return nodeWeight.size(); }
};

/**
 * Mutable refinement state for one level: the assignment, per-cluster
 * weights, per-node connectivity to every cluster, and the running
 * cut. All invariants are maintained incrementally by move().
 */
struct RefineState
{
    const LevelGraph &g;
    unsigned k;
    std::vector<std::uint32_t> part;          ///< node -> cluster
    std::vector<std::uint64_t> partWeight;
    std::vector<std::uint64_t> conn;          ///< node*k + cluster
    std::uint64_t cut = 0;

    RefineState(const LevelGraph &graph, unsigned nclusters,
                std::vector<std::uint32_t> assignment)
        : g(graph), k(nclusters), part(std::move(assignment)),
          partWeight(nclusters, 0), conn(graph.numNodes() * nclusters, 0)
    {
        for (std::size_t u = 0; u < g.numNodes(); ++u) {
            partWeight[part[u]] += g.nodeWeight[u];
            for (const auto &e : g.adj[u]) {
                conn[u * k + part[e.to]] += e.weight;
                if (e.to > u && part[e.to] != part[u])
                    cut += e.weight;
            }
        }
    }

    std::int64_t
    gainOf(std::uint32_t u, std::uint32_t to) const
    {
        return static_cast<std::int64_t>(conn[u * k + to]) -
               static_cast<std::int64_t>(conn[u * k + part[u]]);
    }

    void
    move(std::uint32_t u, std::uint32_t to)
    {
        const std::uint32_t from = part[u];
        if (from == to)
            return;
        cut = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(cut) - gainOf(u, to));
        part[u] = to;
        partWeight[from] -= g.nodeWeight[u];
        partWeight[to] += g.nodeWeight[u];
        for (const auto &e : g.adj[u]) {
            conn[e.to * k + from] -= e.weight;
            conn[e.to * k + to] += e.weight;
        }
    }
};

/** Heavy-edge matching; returns the coarse graph and fine->coarse map. */
LevelGraph
coarsen(const LevelGraph &g, std::uint64_t max_pair_weight,
        std::vector<std::uint32_t> &fine_to_coarse)
{
    const std::size_t n = g.numNodes();
    std::vector<std::uint32_t> match(n, kNo);
    fine_to_coarse.assign(n, kNo);

    std::uint32_t coarse_n = 0;
    for (std::uint32_t u = 0; u < n; ++u) {
        if (match[u] != kNo)
            continue;
        // Heaviest affinity edge to an unmatched partner that keeps
        // the merged node small enough to place later; ties prefer the
        // lighter partner, then the lower id.
        std::uint32_t best = kNo;
        std::uint64_t best_w = 0;
        for (const auto &e : g.adj[u]) {
            if (match[e.to] != kNo || e.to == u)
                continue;
            if (g.nodeWeight[u] + g.nodeWeight[e.to] > max_pair_weight)
                continue;
            if (best == kNo || e.weight > best_w ||
                (e.weight == best_w &&
                 (g.nodeWeight[e.to] < g.nodeWeight[best] ||
                  (g.nodeWeight[e.to] == g.nodeWeight[best] &&
                   e.to < best)))) {
                best = e.to;
                best_w = e.weight;
            }
        }
        match[u] = u;
        fine_to_coarse[u] = coarse_n;
        if (best != kNo) {
            match[best] = u;
            fine_to_coarse[best] = coarse_n;
        }
        ++coarse_n;
    }

    LevelGraph coarse;
    coarse.nodeWeight.assign(coarse_n, 0);
    coarse.adj.assign(coarse_n, {});
    for (std::uint32_t u = 0; u < n; ++u)
        coarse.nodeWeight[fine_to_coarse[u]] += g.nodeWeight[u];

    std::unordered_map<std::uint64_t, std::uint64_t> edges;
    for (std::uint32_t u = 0; u < n; ++u) {
        const std::uint32_t cu = fine_to_coarse[u];
        for (const auto &e : g.adj[u]) {
            if (e.to <= u)
                continue;
            const std::uint32_t cv = fine_to_coarse[e.to];
            if (cu == cv)
                continue;
            const std::uint64_t key =
                cu < cv ? (static_cast<std::uint64_t>(cu) << 32) | cv
                        : (static_cast<std::uint64_t>(cv) << 32) | cu;
            edges[key] += e.weight;
        }
    }
    for (const auto &[key, weight] : edges) {
        const auto a = static_cast<std::uint32_t>(key >> 32);
        const auto b = static_cast<std::uint32_t>(key & 0xffffffffu);
        coarse.adj[a].push_back({b, weight});
        coarse.adj[b].push_back({a, weight});
    }
    for (auto &list : coarse.adj)
        std::sort(list.begin(), list.end(),
                  [](const Edge &x, const Edge &y) { return x.to < y.to; });
    return coarse;
}

/** Greedy balanced initial partition of the coarsest graph. */
std::vector<std::uint32_t>
initialPartition(const LevelGraph &g, unsigned k, std::uint64_t cap)
{
    const std::size_t n = g.numNodes();
    std::vector<std::uint32_t> order(n);
    for (std::uint32_t u = 0; u < n; ++u)
        order[u] = u;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return g.nodeWeight[a] > g.nodeWeight[b];
                     });

    std::vector<std::uint32_t> part(n, kNo);
    std::vector<std::uint64_t> partWeight(k, 0);
    std::vector<std::uint64_t> aff(k);
    for (const std::uint32_t u : order) {
        std::fill(aff.begin(), aff.end(), 0);
        for (const auto &e : g.adj[u])
            if (part[e.to] != kNo)
                aff[part[e.to]] += e.weight;
        // Strongest affinity among clusters with room; ties go to the
        // lighter cluster, then the lower index. If nothing fits the
        // cap (a single huge node), take the lightest cluster.
        std::uint32_t best = kNo;
        for (std::uint32_t c = 0; c < k; ++c) {
            if (partWeight[c] + g.nodeWeight[u] > cap)
                continue;
            if (best == kNo || aff[c] > aff[best] ||
                (aff[c] == aff[best] && partWeight[c] < partWeight[best]))
                best = c;
        }
        if (best == kNo) {
            best = 0;
            for (std::uint32_t c = 1; c < k; ++c)
                if (partWeight[c] < partWeight[best])
                    best = c;
        }
        part[u] = best;
        partWeight[best] += g.nodeWeight[u];
    }
    return part;
}

/**
 * Restore the balance cap if the initial partition (or a projection)
 * overflowed it: move the cheapest nodes out of overweight clusters.
 */
void
rebalance(RefineState &st, std::uint64_t cap)
{
    const std::size_t n = st.g.numNodes();
    // A cluster none of whose nodes fit anywhere else is stuck at its
    // current weight (discrete node weights make the cap best-effort);
    // skip it and keep draining the others.
    std::vector<bool> stuck(st.k, false);
    for (unsigned guard = 0; guard < n + 1; ++guard) {
        std::uint32_t over = kNo;
        for (std::uint32_t c = 0; c < st.k; ++c)
            if (!stuck[c] && st.partWeight[c] > cap &&
                (over == kNo || st.partWeight[c] > st.partWeight[over]))
                over = c;
        if (over == kNo)
            return;
        // Cheapest legal escape: the (node, target) pair losing the
        // least affinity, target must stay within the cap.
        std::uint32_t best_u = kNo, best_t = 0;
        std::int64_t best_gain = 0;
        for (std::uint32_t u = 0; u < n; ++u) {
            if (st.part[u] != over)
                continue;
            for (std::uint32_t t = 0; t < st.k; ++t) {
                if (t == over ||
                    st.partWeight[t] + st.g.nodeWeight[u] > cap)
                    continue;
                const std::int64_t gain = st.gainOf(u, t);
                if (best_u == kNo || gain > best_gain) {
                    best_u = u;
                    best_t = t;
                    best_gain = gain;
                }
            }
        }
        if (best_u == kNo) {
            stuck[over] = true;
            continue;
        }
        st.move(best_u, best_t);
    }
}

/** One FM pass with rollback to the best prefix; returns the gain. */
std::int64_t
fmPass(RefineState &st, std::uint64_t cap)
{
    const std::size_t n = st.g.numNodes();
    std::vector<bool> locked(n, false);

    struct Move
    {
        std::uint32_t u, from, to;
        std::int64_t gain;
    };
    std::vector<Move> moves;
    std::int64_t cum = 0, best_cum = 0;
    std::size_t best_len = 0;

    for (std::size_t step = 0; step < n; ++step) {
        std::uint32_t best_u = kNo, best_t = 0;
        std::int64_t best_gain = 0;
        for (std::uint32_t u = 0; u < n; ++u) {
            if (locked[u])
                continue;
            const std::uint32_t cur = st.part[u];
            for (std::uint32_t t = 0; t < st.k; ++t) {
                if (t == cur ||
                    st.partWeight[t] + st.g.nodeWeight[u] > cap)
                    continue;
                const std::int64_t gain = st.gainOf(u, t);
                if (best_u == kNo || gain > best_gain)
                {
                    best_u = u;
                    best_t = t;
                    best_gain = gain;
                }
            }
        }
        if (best_u == kNo)
            break;
        moves.push_back({best_u, st.part[best_u], best_t, best_gain});
        st.move(best_u, best_t);
        locked[best_u] = true;
        cum += best_gain;
        if (cum > best_cum) {
            best_cum = cum;
            best_len = moves.size();
        }
        // A long run of fruitless hill-descending rarely recovers;
        // bound the tail instead of moving every node every pass.
        if (moves.size() - best_len > 64)
            break;
    }

    for (std::size_t i = moves.size(); i-- > best_len;)
        st.move(moves[i].u, moves[i].from);
    return best_cum;
}

/** Greedy positive-gain sweep for levels too big for full FM. */
std::int64_t
greedyPass(RefineState &st, std::uint64_t cap)
{
    std::int64_t total = 0;
    for (std::uint32_t u = 0; u < st.g.numNodes(); ++u) {
        const std::uint32_t cur = st.part[u];
        std::uint32_t best = cur;
        std::int64_t best_gain = 0;
        for (std::uint32_t t = 0; t < st.k; ++t) {
            if (t == cur || st.partWeight[t] + st.g.nodeWeight[u] > cap)
                continue;
            const std::int64_t gain = st.gainOf(u, t);
            if (gain > best_gain) {
                best = t;
                best_gain = gain;
            }
        }
        if (best != cur) {
            st.move(u, best);
            total += best_gain;
        }
    }
    return total;
}

} // namespace

PartitionStats
scorePartition(const AffinityGraph &graph,
               const ClusterAssignment &assignment, unsigned num_clusters)
{
    PartitionStats stats;
    stats.cutWeight = cutWeight(graph, assignment);
    stats.totalEdgeWeight = graph.totalEdgeWeight;
    stats.balance = balanceOf(graph, assignment, num_clusters);
    stats.numNodes = graph.numNodes();
    stats.numClusters = num_clusters;
    return stats;
}

ClusterAssignment
multilevelPartition(const prog::Program &prog,
                    const PartitionOptions &options, PartitionStats *stats)
{
    options.validate();
    const unsigned k = options.numClusters;
    const AffinityGraph affinity = buildAffinityGraph(prog);
    ClusterAssignment assignment(prog.values.size());

    const std::size_t n = affinity.numNodes();
    if (n == 0) {
        if (stats)
            *stats = scorePartition(affinity, assignment, k);
        return assignment;
    }
    if (k == 1) {
        for (const prog::ValueId v : affinity.nodeValue)
            assignment.cluster[v] = 0;
        if (stats)
            *stats = scorePartition(affinity, assignment, k);
        return assignment;
    }

    // ---- level 0: the affinity graph itself -------------------------
    std::vector<LevelGraph> levels(1);
    levels[0].nodeWeight = affinity.nodeWeight;
    levels[0].adj.assign(n, {});
    for (std::size_t u = 0; u < n; ++u)
        for (const auto &e : affinity.adj[u])
            levels[0].adj[u].push_back({e.to, e.weight});

    // Balance cap, shared by every phase. Total node weight is
    // invariant under coarsening, so one cap fits all levels.
    std::uint64_t max_node = 0;
    for (const std::uint64_t w : affinity.nodeWeight)
        max_node = std::max(max_node, w);
    const double ideal =
        static_cast<double>(affinity.totalNodeWeight) / k;
    const std::uint64_t cap = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(ideal * (1.0 + kBalanceTolerance)) + 1,
        max_node);

    // ---- phase 1: coarsen -------------------------------------------
    const std::size_t stop =
        std::max<std::size_t>(kCoarsenTarget, 8 * std::size_t{k});
    // A merged node bigger than an ideal cluster could never be placed.
    const std::uint64_t max_pair =
        std::max<std::uint64_t>(affinity.totalNodeWeight / k, 1);
    std::vector<std::vector<std::uint32_t>> maps;   // maps[i]: level i -> i+1
    while (levels.back().numNodes() > stop && levels.size() < 48) {
        std::vector<std::uint32_t> map;
        LevelGraph coarse = coarsen(levels.back(), max_pair, map);
        // Diminishing returns: stop when matching barely shrinks.
        if (coarse.numNodes() >
            levels.back().numNodes() - levels.back().numNodes() / 20)
            break;
        levels.push_back(std::move(coarse));
        maps.push_back(std::move(map));
    }

    // ---- phase 2: initial partition on the coarsest graph -----------
    std::vector<std::uint32_t> part =
        initialPartition(levels.back(), k, cap);
    std::uint64_t initial_cut = 0;
    {
        const LevelGraph &g = levels.back();
        for (std::uint32_t u = 0; u < g.numNodes(); ++u)
            for (const auto &e : g.adj[u])
                if (e.to > u && part[e.to] != part[u])
                    initial_cut += e.weight;
    }

    // ---- phase 3: uncoarsen + refine --------------------------------
    unsigned fm_passes = 0;
    std::uint64_t final_cut = initial_cut;
    for (std::size_t level = levels.size(); level-- > 0;) {
        if (level + 1 < levels.size()) {
            // Project the coarser level's assignment down.
            const std::vector<std::uint32_t> &map = maps[level];
            std::vector<std::uint32_t> fine(levels[level].numNodes());
            for (std::uint32_t u = 0; u < fine.size(); ++u)
                fine[u] = part[map[u]];
            part = std::move(fine);
        }
        RefineState st(levels[level], k, std::move(part));
        rebalance(st, cap);
        const bool exhaustive = st.g.numNodes() <= kFmExhaustiveLimit;
        for (unsigned pass = 0; pass < kFmMaxPasses; ++pass) {
            const std::int64_t gain =
                exhaustive ? fmPass(st, cap) : greedyPass(st, cap);
            ++fm_passes;
            if (gain <= 0)
                break;
        }
        final_cut = st.cut;
        part = std::move(st.part);
    }

    for (std::uint32_t u = 0; u < n; ++u)
        assignment.cluster[affinity.nodeValue[u]] =
            static_cast<std::int8_t>(part[u]);

    if (stats) {
        *stats = scorePartition(affinity, assignment, k);
        MCA_ASSERT(stats->cutWeight == final_cut,
                   "multilevel cut bookkeeping diverged from the graph");
        stats->initialCutWeight = initial_cut;
        stats->fmGain = initial_cut >= final_cut
                            ? initial_cut - final_cut
                            : 0;
        stats->fmPasses = fm_passes;
        stats->coarsenLevels =
            static_cast<unsigned>(levels.size() - 1);
    }
    return assignment;
}

} // namespace mca::compiler
