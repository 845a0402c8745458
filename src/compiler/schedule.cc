#include "compiler/schedule.hh"

#include <algorithm>
#include <map>
#include <vector>

#include "isa/opcodes.hh"

namespace mca::compiler
{

namespace
{

/** Nominal machine width used when packing cycles. */
constexpr unsigned kWidth = 8;

struct Edge
{
    std::uint32_t to;
    unsigned latency;
};

/** Dependence DAG over one block's instructions. */
struct BlockDag
{
    std::vector<std::vector<Edge>> succs;
    std::vector<unsigned> npreds;
    std::vector<unsigned> height;   // critical path to any sink
};

BlockDag
buildDag(const prog::BasicBlock &blk)
{
    const std::size_t n = blk.instrs.size();
    BlockDag dag;
    dag.succs.assign(n, {});
    dag.npreds.assign(n, 0);
    dag.height.assign(n, 0);

    auto addEdge = [&](std::uint32_t from, std::uint32_t to,
                       unsigned lat) {
        for (const auto &e : dag.succs[from])
            if (e.to == to)
                return;
        dag.succs[from].push_back({to, lat});
        ++dag.npreds[to];
    };

    std::map<prog::ValueId, std::uint32_t> lastDef;
    std::map<prog::ValueId, std::vector<std::uint32_t>> usesSinceDef;
    std::uint32_t lastStore = ~std::uint32_t{0};
    std::vector<std::uint32_t> loadsSinceStore;

    for (std::uint32_t i = 0; i < n; ++i) {
        const auto &in = blk.instrs[i];

        for (prog::ValueId s : in.srcs) {
            if (s == prog::kNoValue)
                continue;
            auto it = lastDef.find(s);
            if (it != lastDef.end())
                addEdge(it->second, i,
                        isa::opLatency(blk.instrs[it->second].op));
            usesSinceDef[s].push_back(i);
        }
        if (in.dest != prog::kNoValue) {
            auto it = lastDef.find(in.dest);
            if (it != lastDef.end())
                addEdge(it->second, i, 1);  // output dependence
            for (std::uint32_t u : usesSinceDef[in.dest])
                if (u != i)
                    addEdge(u, i, 0);       // anti dependence
            usesSinceDef[in.dest].clear();
            lastDef[in.dest] = i;
        }
        if (isa::isMemOp(in.op)) {
            // Conservative memory order: stores are barriers for all
            // memory operations; loads may reorder among themselves.
            if (lastStore != ~std::uint32_t{0})
                addEdge(lastStore, i, 1);
            if (isa::isStore(in.op)) {
                for (std::uint32_t l : loadsSinceStore)
                    addEdge(l, i, 0);
                loadsSinceStore.clear();
                lastStore = i;
            } else {
                loadsSinceStore.push_back(i);
            }
        }
    }

    // The terminator (if any) must remain last.
    if (n > 0 && isa::isCtrlFlow(blk.instrs[n - 1].op)) {
        const auto term = static_cast<std::uint32_t>(n - 1);
        for (std::uint32_t i = 0; i + 1 < n; ++i)
            addEdge(i, term, isa::opLatency(blk.instrs[i].op));
    }

    // Heights by reverse topological sweep (indices are topologically
    // ordered because all edges go forward).
    for (std::uint32_t i = static_cast<std::uint32_t>(n); i-- > 0;) {
        unsigned h = 0;
        for (const auto &e : dag.succs[i])
            h = std::max(h, dag.height[e.to] + e.latency);
        dag.height[i] = h;
    }
    return dag;
}

} // namespace

ScheduleStats
listSchedule(prog::Program &prog)
{
    ScheduleStats stats;

    for (auto &fn : prog.functions) {
        for (auto &blk : fn.blocks) {
            const std::size_t n = blk.instrs.size();
            if (n < 2)
                continue;
            ++stats.blocksScheduled;

            BlockDag dag = buildDag(blk);

            // Cycle-by-cycle greedy list scheduling.
            std::vector<unsigned> preds = dag.npreds;
            std::vector<std::uint64_t> readyAt(n, 0);
            std::vector<bool> done(n, false);
            std::vector<std::uint32_t> order;
            order.reserve(n);

            std::uint64_t cycle = 0;
            std::size_t scheduled = 0;
            while (scheduled < n) {
                // Collect ready instructions for this cycle.
                std::vector<std::uint32_t> ready;
                for (std::uint32_t i = 0; i < n; ++i)
                    if (!done[i] && preds[i] == 0 && readyAt[i] <= cycle)
                        ready.push_back(i);
                // Highest critical-path height first; original order
                // breaks ties to keep the pass deterministic.
                std::sort(ready.begin(), ready.end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                              if (dag.height[a] != dag.height[b])
                                  return dag.height[a] > dag.height[b];
                              return a < b;
                          });
                unsigned issued = 0;
                for (std::uint32_t i : ready) {
                    if (issued >= kWidth)
                        break;
                    done[i] = true;
                    order.push_back(i);
                    ++scheduled;
                    ++issued;
                    const std::uint64_t fin =
                        cycle + isa::opLatency(blk.instrs[i].op);
                    for (const auto &e : dag.succs[i]) {
                        --preds[e.to];
                        readyAt[e.to] = std::max(
                            readyAt[e.to], cycle + e.latency);
                        (void)fin;
                    }
                }
                ++cycle;
            }

            std::vector<prog::Instr> reordered;
            reordered.reserve(n);
            for (std::uint32_t i : order)
                reordered.push_back(blk.instrs[i]);
            for (std::size_t i = 0; i < n; ++i)
                if (order[i] != i)
                    ++stats.instsMoved;
            blk.instrs = std::move(reordered);
        }
    }
    return stats;
}

} // namespace mca::compiler
