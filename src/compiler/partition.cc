#include "compiler/partition.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "support/panic.hh"

namespace mca::compiler
{

namespace
{

/** Clusters an instruction's known operands pin it to. */
void
knownClusters(const prog::Instr &in, const prog::Program &prog,
              const ClusterAssignment &assignment, unsigned num_clusters,
              std::vector<bool> &out, bool &dest_global)
{
    out.assign(num_clusters, false);
    dest_global = false;

    auto mark = [&](prog::ValueId v) {
        if (v == prog::kNoValue)
            return;
        if (prog.values[v].globalCandidate)
            return;
        const int c = assignment.clusterOf(v);
        if (c >= 0)
            out[static_cast<unsigned>(c)] = true;
    };

    for (prog::ValueId s : in.srcs)
        mark(s);
    if (in.dest != prog::kNoValue) {
        if (prog.values[in.dest].globalCandidate)
            dest_global = true;
        else
            mark(in.dest);
    }
}

/** Index of every instruction that reads or writes each value. */
struct UseDefIndex
{
    struct Site
    {
        prog::FunctionId fn;
        prog::BlockId blk;
        std::uint32_t idx;
    };

    std::vector<std::vector<Site>> sites;

    explicit UseDefIndex(const prog::Program &prog)
        : sites(prog.values.size())
    {
        for (std::size_t f = 0; f < prog.functions.size(); ++f)
            for (const auto &blk : prog.functions[f].blocks)
                for (std::uint32_t i = 0; i < blk.instrs.size(); ++i) {
                    const auto &in = blk.instrs[i];
                    auto add = [&](prog::ValueId v) {
                        if (v != prog::kNoValue)
                            sites[v].push_back(
                                {static_cast<prog::FunctionId>(f), blk.id,
                                 i});
                    };
                    add(in.dest);
                    // Avoid double-counting an instruction that reads the
                    // same value twice (e.g. B = A * A).
                    if (in.srcs[0] != prog::kNoValue)
                        add(in.srcs[0]);
                    if (in.srcs[1] != prog::kNoValue &&
                        in.srcs[1] != in.srcs[0])
                        add(in.srcs[1]);
                }
    }
};

} // namespace

void
PartitionOptions::validate() const
{
    if (numClusters == 0 ||
        numClusters > ClusterAssignment::kMaxClusters)
        throw std::runtime_error(
            "partitioner cluster count " + std::to_string(numClusters) +
            " out of range (accepted: 1.." +
            std::to_string(ClusterAssignment::kMaxClusters) +
            "; assignments are stored as int8_t)");
}

ClusterAssignment
localSchedule(const prog::Program &prog, const PartitionOptions &options,
              PartitionTrace *trace)
{
    options.validate();
    const unsigned nclusters = options.numClusters;

    ClusterAssignment assignment(prog.values.size());
    UseDefIndex index(prog);

    // Per-cluster totals, used only for vote tie-breaking.
    std::vector<std::uint64_t> totalAssigned(nclusters, 0);

    // ---- step 1: sort the blocks -----------------------------------
    struct BlockRef
    {
        prog::FunctionId fn;
        prog::BlockId blk;
        double weight;
        std::size_t size;
    };
    std::vector<BlockRef> order;
    for (std::size_t f = 0; f < prog.functions.size(); ++f)
        for (const auto &blk : prog.functions[f].blocks)
            order.push_back({static_cast<prog::FunctionId>(f), blk.id,
                             blk.weight, blk.instrs.size()});
    std::stable_sort(order.begin(), order.end(),
                     [](const BlockRef &a, const BlockRef &b) {
                         if (a.weight != b.weight)
                             return a.weight > b.weight;
                         return a.size > b.size;
                     });

    // ---- imbalance estimate (per-block vicinity) --------------------
    std::vector<bool> pinned;
    bool dest_global;
    auto blockCounts = [&](const prog::BasicBlock &blk,
                           std::uint32_t excluding,
                           std::vector<std::uint64_t> &counts) {
        counts.assign(nclusters, 0);
        for (std::uint32_t i = 0; i < blk.instrs.size(); ++i) {
            if (i == excluding)
                continue;
            knownClusters(blk.instrs[i], prog, assignment, nclusters,
                          pinned, dest_global);
            if (dest_global) {
                for (unsigned c = 0; c < nclusters; ++c)
                    ++counts[c];
                continue;
            }
            for (unsigned c = 0; c < nclusters; ++c)
                if (pinned[c])
                    ++counts[c];
        }
    };

    // ---- majority-preference vote ------------------------------------
    auto preferredCluster = [&](prog::ValueId v) -> unsigned {
        std::vector<std::uint64_t> votes(nclusters, 0);
        for (const auto &site : index.sites[v]) {
            const auto &in =
                prog.functions[site.fn].blocks[site.blk].instrs[site.idx];
            // The instruction prefers cluster c iff assigning v to c
            // makes it single-distributed: every *other* assigned local
            // operand already lives in exactly one cluster c (and the
            // destination is not a global candidate).
            std::vector<bool> others(nclusters, false);
            bool others_global_dest = false;
            auto markOther = [&](prog::ValueId o) {
                if (o == prog::kNoValue || o == v)
                    return;
                if (prog.values[o].globalCandidate)
                    return;
                const int c = assignment.clusterOf(o);
                if (c >= 0)
                    others[static_cast<unsigned>(c)] = true;
            };
            for (prog::ValueId s : in.srcs)
                markOther(s);
            if (in.dest != prog::kNoValue) {
                if (prog.values[in.dest].globalCandidate)
                    others_global_dest = true;
                else
                    markOther(in.dest);
            }
            if (others_global_dest)
                continue;   // dual no matter where v goes
            unsigned npinned = 0, last = 0;
            for (unsigned c = 0; c < nclusters; ++c)
                if (others[c]) {
                    ++npinned;
                    last = c;
                }
            if (npinned == 1)
                ++votes[last];
        }
        // Winner; ties go to the cluster with fewer assigned live ranges
        // overall, then to the lowest index.
        unsigned best = 0;
        for (unsigned c = 1; c < nclusters; ++c) {
            if (votes[c] > votes[best] ||
                (votes[c] == votes[best] &&
                 totalAssigned[c] < totalAssigned[best]))
                best = c;
        }
        return best;
    };

    auto assign = [&](prog::ValueId v, unsigned cluster) {
        assignment.cluster[v] = static_cast<std::int8_t>(cluster);
        ++totalAssigned[cluster];
        if (trace)
            trace->assignmentOrder.push_back(v);
    };

    // ---- steps 2-3: traverse blocks ----------------------------------
    std::vector<std::uint64_t> counts;
    for (const auto &ref : order) {
        if (trace)
            trace->blockOrder.emplace_back(ref.fn, ref.blk);
        const auto &blk = prog.functions[ref.fn].blocks[ref.blk];
        for (std::uint32_t i = static_cast<std::uint32_t>(blk.instrs.size());
             i-- > 0;) {
            const auto &in = blk.instrs[i];
            const prog::ValueId v = in.dest;
            if (v == prog::kNoValue || assignment.assigned(v) ||
                prog.values[v].globalCandidate)
                continue;

            blockCounts(blk, i, counts);
            const auto [mn, mx] =
                std::minmax_element(counts.begin(), counts.end());
            if (*mx - *mn > options.imbalanceThreshold) {
                // Unbalanced vicinity: feed the under-subscribed cluster.
                assign(v, static_cast<unsigned>(mn - counts.begin()));
            } else {
                assign(v, preferredCluster(v));
            }
        }

        // Refinement: during the bottom-up traversal the imbalance
        // estimate only sees the operands assigned so far, so a block
        // that repeats in the fetch stream (a hot loop body) can end up
        // statically lopsided without ever tripping the threshold. Fix
        // the block's final distribution by moving its cheapest live
        // ranges to the under-subscribed cluster until the spread is
        // within the threshold (balance dominates transfer cost —
        // paper §3).
        for (unsigned guard = 0; guard < 64; ++guard) {
            blockCounts(blk, ~std::uint32_t{0}, counts);
            const auto [mn, mx] =
                std::minmax_element(counts.begin(), counts.end());
            if (*mx - *mn <= options.imbalanceThreshold)
                break;
            const auto over =
                static_cast<unsigned>(mx - counts.begin());
            const auto under =
                static_cast<unsigned>(mn - counts.begin());
            // Cheapest candidate: a value written in this block,
            // currently in the over-subscribed cluster, with the fewest
            // reference sites (least new transfer traffic).
            prog::ValueId best = prog::kNoValue;
            std::size_t best_refs = ~std::size_t{0};
            for (const auto &in : blk.instrs) {
                const prog::ValueId v = in.dest;
                if (v == prog::kNoValue ||
                    prog.values[v].globalCandidate)
                    continue;
                if (assignment.clusterOf(v) !=
                    static_cast<int>(over))
                    continue;
                if (index.sites[v].size() < best_refs) {
                    best_refs = index.sites[v].size();
                    best = v;
                }
            }
            if (best == prog::kNoValue)
                break;
            --totalAssigned[static_cast<unsigned>(
                assignment.cluster[best])];
            assignment.cluster[best] = static_cast<std::int8_t>(under);
            ++totalAssigned[under];
        }
    }

    // ---- final pass: read-only live-ins -------------------------------
    for (prog::ValueId v = 0; v < prog.values.size(); ++v) {
        if (assignment.assigned(v) || prog.values[v].globalCandidate)
            continue;
        if (index.sites[v].empty())
            continue;   // never referenced; leave unassigned
        assign(v, preferredCluster(v));
    }

    return assignment;
}

ClusterAssignment
roundRobinSchedule(const prog::Program &prog,
                   const PartitionOptions &options)
{
    options.validate();
    ClusterAssignment assignment(prog.values.size());
    unsigned next = 0;
    for (prog::ValueId v = 0; v < prog.values.size(); ++v) {
        if (prog.values[v].globalCandidate)
            continue;
        assignment.cluster[v] = static_cast<std::int8_t>(next);
        next = (next + 1) % options.numClusters;
    }
    return assignment;
}

} // namespace mca::compiler
