#include "isa/distribution.hh"

#include <algorithm>

namespace mca::isa
{

Distribution
decideDistribution(const MachInst &mi, const RegisterMap &map,
                   unsigned tie_break)
{
    constexpr unsigned kGlobal = RegisterMap::kGlobal;
    const auto homeOf = [&](const std::optional<RegId> &reg) {
        return reg ? map.homeOrGlobal(*reg) : kGlobal;
    };
    // Home cluster of each named register; absent, zero and global
    // registers read kGlobal.
    const unsigned src0 = homeOf(mi.srcs[0]);
    const unsigned src1 = homeOf(mi.srcs[1]);
    const unsigned dest = homeOf(mi.dest);

    // The master executes where the majority of the named local
    // registers live. Of three names, a home named twice is the
    // majority; otherwise ties resolve to the lowest cluster index
    // (matches the paper's Figure 5, where the C1 operand's cluster
    // hosts the master). With no local register at all the
    // distribution hardware is free to pick a cluster.
    unsigned master;
    if (src0 != kGlobal && (src0 == src1 || src0 == dest))
        master = src0;
    else if (src1 != kGlobal && src1 == dest)
        master = src1;
    else
        master = std::min({src0, src1, dest});
    if (master == kGlobal)
        master = tie_break % map.numClusters();

    Distribution dist;
    dist.masterCluster = master;
    const bool has_dest = mi.hasDest() && !mi.dest->isZero();
    const bool dest_global = has_dest && dest == kGlobal;
    dist.masterWritesDest = has_dest && (dest_global || dest == master);

    // One slave per other cluster that forwards an operand or receives
    // the result, built in cluster order.
    for (unsigned c = 0; c < map.numClusters(); ++c) {
        const unsigned src_mask = (src0 == c) | (src1 == c) << 1;
        const bool receives = dest_global || dest == c;
        if (c != master && (src_mask != 0 || receives))
            dist.slaves.push_back(
                SlaveRole{c, src_mask != 0, receives, src_mask});
    }
    return dist;
}

} // namespace mca::isa
