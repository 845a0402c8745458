#include "compiler/regalloc.hh"

#include <algorithm>
#include <limits>

#include "compiler/interference.hh"
#include "compiler/liveness.hh"
#include "support/panic.hh"

namespace mca::compiler
{

namespace
{

constexpr std::size_t kNoNode = ~std::size_t{0};

/** Safety bound on color/spill rounds. */
constexpr unsigned kMaxRounds = 32;

/** Registers a value may be colored with. */
std::vector<unsigned>
allowedRegisters(isa::RegClass cls, int cluster,
                 const isa::RegisterMap &map,
                 const std::vector<bool> &reserved)
{
    std::vector<unsigned> regs;
    for (unsigned i = 0; i < isa::kNumArchRegs; ++i) {
        const isa::RegId reg(cls, i);
        if (reg.isZero() || reserved[i])
            continue;
        if (map.numClusters() > 1) {
            if (map.isGlobal(reg))
                continue;   // global registers host only global candidates
            if (cluster >= 0 &&
                map.homeCluster(reg) != static_cast<unsigned>(cluster))
                continue;
        }
        regs.push_back(i);
    }
    return regs;
}

/** Static spill cost: weighted reference count over the program. */
std::vector<double>
computeSpillCosts(const prog::Program &prog)
{
    std::vector<double> cost(prog.values.size(), 0.0);
    for (const auto &fn : prog.functions)
        for (const auto &blk : fn.blocks)
            for (const auto &in : blk.instrs) {
                if (in.dest != prog::kNoValue)
                    cost[in.dest] += blk.weight;
                for (prog::ValueId s : in.srcs)
                    if (s != prog::kNoValue)
                        cost[s] += blk.weight;
            }
    return cost;
}

/** Mutable allocator state threaded through the rounds. */
struct AllocState
{
    prog::Program prog;
    ClusterAssignment assignment;
    isa::RegisterMap map{1};
    /** Per-value: spilled to memory. */
    std::vector<bool> spilled;
    /** Per-value: already moved to the other cluster once. */
    std::vector<bool> respilled;
    /** Per-value: spill temporary (never re-spilled to memory). */
    std::vector<bool> isTemp;
    /** Registers unavailable to local coloring (precolored globals). */
    std::vector<bool> reservedInt, reservedFp;
    std::vector<isa::RegId> regOf;

    bool
    clusterAware() const
    {
        return map.numClusters() > 1 && !assignment.cluster.empty();
    }

    int
    clusterOf(prog::ValueId v) const
    {
        return clusterAware() ? assignment.clusterOf(v) : -1;
    }
};

/** Precolor global candidates; extends the map's global set as needed. */
void
precolorGlobals(AllocState &st, AllocResult &result)
{
    unsigned nextInt = isa::kStackPointer;  // r30, r29, r28, ...
    unsigned nextFp = isa::kNumArchRegs - 2; // f30 downward
    for (prog::ValueId v = 0; v < st.prog.values.size(); ++v) {
        const auto &info = st.prog.values[v];
        if (!info.globalCandidate)
            continue;
        unsigned &next =
            info.cls == isa::RegClass::Int ? nextInt : nextFp;
        if (next == 0)
            MCA_FATAL("too many global-register candidates");
        const isa::RegId reg(info.cls, next--);
        st.regOf[v] = reg;
        result.globalRegs.push_back(reg);
        if (info.cls == isa::RegClass::Int)
            st.reservedInt[reg.index] = true;
        else
            st.reservedFp[reg.index] = true;
        if (st.map.numClusters() > 1)
            st.map.setGlobal(reg);
    }
    result.finalMap = st.map;
}

/**
 * Insert spill code for `toSpill` into the program. Every definition of
 * a spilled value is redirected to a fresh temporary followed by a store
 * to the spill slot; every use is preceded by a reload into a fresh
 * temporary.
 */
void
rewriteSpills(AllocState &st, const BitSet &toSpill, AllocResult &result)
{
    // One spill slot (and Fixed address stream) per spilled value.
    std::vector<prog::AddrStreamId> slotOf(st.prog.values.size(),
                                           prog::kNoAddrStream);
    std::uint64_t slots = 0;
    for (const auto &s : st.prog.streams)
        if (s.kind == prog::AddrStream::Kind::Fixed &&
            s.base >= st.prog.spillBase)
            ++slots;

    toSpill.forEach([&](std::size_t v) {
        st.prog.streams.push_back(
            prog::AddrStream::fixed(st.prog.spillBase + 8 * slots++));
        slotOf[v] = static_cast<prog::AddrStreamId>(
            st.prog.streams.size() - 1);
        st.spilled[v] = true;
        ++result.memorySpills;
    });

    auto newTemp = [&](prog::ValueId original) {
        prog::ValueInfo info;
        info.cls = st.prog.values[original].cls;
        info.name = st.prog.values[original].name + ".t";
        st.prog.values.push_back(info);
        const auto t =
            static_cast<prog::ValueId>(st.prog.values.size() - 1);
        st.assignment.cluster.push_back(ClusterAssignment::kUnassigned);
        if (st.clusterAware()) {
            // The temp inherits the spilled range's cluster so reloads
            // stay single-distributed.
            st.assignment.cluster[t] = st.assignment.cluster[original];
        }
        st.spilled.push_back(false);
        st.respilled.push_back(false);
        st.isTemp.push_back(true);
        st.regOf.push_back(isa::RegId());
        return t;
    };

    for (auto &fn : st.prog.functions) {
        for (auto &blk : fn.blocks) {
            std::vector<prog::Instr> out;
            out.reserve(blk.instrs.size());
            for (auto &in : blk.instrs) {
                // Reload spilled sources.
                prog::ValueId reloaded = prog::kNoValue;
                prog::ValueId reloadTmp = prog::kNoValue;
                for (auto &src : in.srcs) {
                    if (src == prog::kNoValue || !toSpill.test(src))
                        continue;
                    if (src == reloaded) {
                        src = reloadTmp; // reuse the same reload
                        continue;
                    }
                    const prog::ValueId t = newTemp(src);
                    prog::Instr ld;
                    ld.op = st.prog.values[src].cls == isa::RegClass::Int
                                ? isa::Op::Ldl
                                : isa::Op::Ldt;
                    ld.dest = t;
                    ld.stream = slotOf[src];
                    out.push_back(ld);
                    ++result.spillLoadsInserted;
                    reloaded = src;
                    reloadTmp = t;
                    src = t;
                }
                // Redirect spilled definitions through a temporary.
                if (in.dest != prog::kNoValue && toSpill.test(in.dest)) {
                    const prog::ValueId orig = in.dest;
                    const prog::ValueId t = newTemp(orig);
                    in.dest = t;
                    out.push_back(in);
                    prog::Instr stIn;
                    stIn.op =
                        st.prog.values[orig].cls == isa::RegClass::Int
                            ? isa::Op::Stl
                            : isa::Op::Stt;
                    stIn.srcs = {t, prog::kNoValue};
                    stIn.stream = slotOf[orig];
                    out.push_back(stIn);
                    ++result.spillStoresInserted;
                } else {
                    out.push_back(in);
                }
            }
            blk.instrs = std::move(out);
        }
    }
}

} // namespace

AllocResult
allocateRegisters(const prog::Program &prog, const AllocOptions &options)
{
    checkValueLocality(prog);

    AllocResult result;
    AllocState st;
    st.prog = prog;
    st.assignment = options.assignment;
    st.map = options.regMap;
    st.spilled.assign(prog.values.size(), false);
    st.respilled.assign(prog.values.size(), false);
    st.isTemp.assign(prog.values.size(), false);
    st.reservedInt.assign(isa::kNumArchRegs, false);
    st.reservedFp.assign(isa::kNumArchRegs, false);
    st.regOf.assign(prog.values.size(), isa::RegId());
    if (!st.assignment.cluster.empty())
        MCA_ASSERT(st.assignment.cluster.size() == prog.values.size(),
                   "assignment size mismatch");

    precolorGlobals(st, result);

    // Force-spill call-crossing live ranges (caller-saved convention).
    // Temps never cross calls; globals excluded by callCrossingValues.
    const BitSet crossing =
        callCrossingValues(st.prog, computeLiveness(st.prog));
    if (crossing.count() > 0) {
        result.callCrossingSpills = crossing.count();
        rewriteSpills(st, crossing, result);
    }

    const std::size_t kClasses = 2;
    for (unsigned round = 0; round < kMaxRounds; ++round) {
        result.rounds = round + 1;
        const auto live = computeLiveness(st.prog);
        const auto costs = computeSpillCosts(st.prog);

        BitSet spilledSet(st.prog.values.size());
        for (std::size_t v = 0; v < st.prog.values.size(); ++v)
            if (st.spilled[v])
                spilledSet.set(v);

        BitSet toSpill(st.prog.values.size());
        bool anyFailure = false;

        for (prog::FunctionId f = 0; f < st.prog.functions.size(); ++f) {
            for (std::size_t ci = 0; ci < kClasses; ++ci) {
                const auto cls = static_cast<isa::RegClass>(ci);
                auto graph =
                    buildInterference(st.prog, f, cls, live, spilledSet);
                const std::size_t n = graph.numNodes();
                if (n == 0)
                    continue;

                const auto &reserved = cls == isa::RegClass::Int
                                           ? st.reservedInt
                                           : st.reservedFp;

                // Allowed register sets per node.
                std::vector<std::vector<unsigned>> allowed(n);
                for (std::size_t i = 0; i < n; ++i)
                    allowed[i] = allowedRegisters(
                        cls, st.clusterOf(graph.valueOf(i)), st.map,
                        reserved);

                // --- simplify ------------------------------------
                std::vector<std::size_t> curDegree(n);
                std::vector<bool> removed(n, false);
                for (std::size_t i = 0; i < n; ++i)
                    curDegree[i] = graph.degree(i);
                std::vector<std::size_t> stack;
                stack.reserve(n);

                for (std::size_t placed = 0; placed < n;) {
                    // Prefer a trivially colorable node.
                    std::size_t pick = kNoNode;
                    for (std::size_t i = 0; i < n; ++i)
                        if (!removed[i] &&
                            curDegree[i] < allowed[i].size()) {
                            pick = i;
                            break;
                        }
                    if (pick == kNoNode) {
                        // Spill-candidate heuristic: cheapest per unit
                        // of interference; never pick spill temps.
                        double best =
                            std::numeric_limits<double>::infinity();
                        for (std::size_t i = 0; i < n; ++i) {
                            if (removed[i])
                                continue;
                            const prog::ValueId v = graph.valueOf(i);
                            if (st.isTemp[v])
                                continue;
                            const double score =
                                costs[v] /
                                static_cast<double>(curDegree[i] + 1);
                            if (score < best) {
                                best = score;
                                pick = i;
                            }
                        }
                        if (pick == kNoNode) {
                            // Only temps left: push the max-degree one
                            // and hope optimistic coloring succeeds.
                            for (std::size_t i = 0; i < n; ++i)
                                if (!removed[i] &&
                                    (pick == kNoNode ||
                                     curDegree[i] > curDegree[pick]))
                                    pick = i;
                        }
                    }
                    MCA_ASSERT(pick != kNoNode, "simplify found no node");
                    removed[pick] = true;
                    stack.push_back(pick);
                    ++placed;
                    graph.forEachNeighbor(pick, [&](std::size_t nb) {
                        if (!removed[nb] && curDegree[nb] > 0)
                            --curDegree[nb];
                    });
                }

                // --- select (optimistic) ---------------------------
                std::vector<int> color(n, -1);
                for (std::size_t si = stack.size(); si-- > 0;) {
                    const std::size_t node = stack[si];
                    const prog::ValueId v = graph.valueOf(node);
                    std::vector<bool> used(isa::kNumArchRegs, false);
                    graph.forEachNeighbor(node, [&](std::size_t nb) {
                        if (color[nb] >= 0)
                            used[static_cast<unsigned>(color[nb])] = true;
                    });
                    int chosen = -1;
                    for (unsigned r : allowed[node])
                        if (!used[r]) {
                            chosen = static_cast<int>(r);
                            break;
                        }
                    if (chosen >= 0) {
                        color[node] = chosen;
                        st.regOf[v] =
                            isa::RegId(cls, static_cast<unsigned>(chosen));
                        continue;
                    }
                    // Coloring failed. Paper §3.4: spill first to a
                    // local register in the other cluster, then memory.
                    anyFailure = true;
                    if (st.clusterAware() && !st.respilled[v] &&
                        !st.isTemp[v]) {
                        st.respilled[v] = true;
                        const int cur = st.assignment.clusterOf(v);
                        const unsigned next =
                            (static_cast<unsigned>(cur < 0 ? 0 : cur) +
                             1) % st.map.numClusters();
                        st.assignment.cluster[v] =
                            static_cast<std::int8_t>(next);
                        ++result.otherClusterSpills;
                    } else {
                        toSpill.set(v);
                    }
                }
            }
        }

        if (!anyFailure) {
            result.rewritten = std::move(st.prog);
            result.regOf = std::move(st.regOf);
            result.finalAssignment = std::move(st.assignment);
            result.finalMap = st.map;
            result.spilledToMemory.assign(prog.values.size(), false);
            for (std::size_t v = 0; v < prog.values.size(); ++v)
                result.spilledToMemory[v] = st.spilled[v];
            result.rewritten.finalize();
            return result;
        }
        if (toSpill.count() > 0)
            rewriteSpills(st, toSpill, result);
        // Cluster reassignments alone also force another round.
    }
    MCA_FATAL("register allocation did not converge in ",
              kMaxRounds, " rounds");
}

prog::MachProgram
emitMachine(const AllocResult &alloc)
{
    const auto &prog = alloc.rewritten;
    prog::MachProgram mp;
    mp.name = prog.name;
    mp.streams = prog.streams;
    mp.branchModels = prog.branchModels;
    mp.codeBase = prog.codeBase;

    auto regFor = [&](prog::ValueId v,
                      isa::RegClass fallback) -> isa::RegId {
        if (v == prog::kNoValue)
            return isa::RegId(fallback,
                              fallback == isa::RegClass::Int
                                  ? isa::kIntZeroReg
                                  : isa::kFpZeroReg);
        return alloc.regOf[v];
    };

    mp.functions.reserve(prog.functions.size());
    for (const auto &fn : prog.functions) {
        prog::MachFunction mf;
        mf.id = fn.id;
        mf.name = fn.name;
        mf.blocks.reserve(fn.blocks.size());
        for (const auto &blk : fn.blocks) {
            prog::MachBlock mb;
            mb.id = blk.id;
            mb.name = blk.name;
            mb.succs = blk.succs;
            mb.succWeights = blk.succWeights;
            mb.weight = blk.weight;
            mb.instrs.reserve(blk.instrs.size());
            for (const auto &in : blk.instrs) {
                prog::MachEntry e;
                e.mi.op = in.op;
                e.mi.imm = in.imm;
                if (in.dest != prog::kNoValue)
                    e.mi.dest = alloc.regOf[in.dest];
                // Source classes: integer unless the op reads fp.
                for (unsigned i = 0; i < 2; ++i) {
                    if (in.srcs[i] == prog::kNoValue) {
                        // Memory ops always carry a base register slot.
                        const bool needs_slot =
                            (isa::isLoad(in.op) && i == 0) ||
                            (isa::isStore(in.op) && i == 1);
                        if (needs_slot)
                            e.mi.srcs[i] =
                                isa::intReg(isa::kIntZeroReg);
                        continue;
                    }
                    e.mi.srcs[i] =
                        regFor(in.srcs[i], isa::RegClass::Int);
                }
                e.stream = in.stream;
                e.branchModel = in.branchModel;
                e.callee = in.callee;
                e.origin = in.dest;
                e.isSpill =
                    in.stream != prog::kNoAddrStream &&
                    prog.streams[in.stream].kind ==
                        prog::AddrStream::Kind::Fixed &&
                    prog.streams[in.stream].base >= prog.spillBase;
                mb.instrs.push_back(std::move(e));
            }
            mf.blocks.push_back(std::move(mb));
        }
        mp.functions.push_back(std::move(mf));
    }
    mp.finalize();
    return mp;
}

} // namespace mca::compiler
