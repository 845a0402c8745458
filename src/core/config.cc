#include "core/config.hh"

#include <algorithm>

namespace mca::core
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("ProcessorConfig::validate: " + what);
}

/** Geometry checks mirroring the MCA_ASSERTs in mem::Cache, but as
 *  catchable errors raised before any machine is constructed. */
void
validateCache(const std::string &which, const mem::CacheParams &p)
{
    if (p.sizeBytes == 0)
        fail(which + ": size must be nonzero");
    if (p.assoc == 0)
        fail(which + ": associativity must be >= 1");
    if (!isPowerOfTwo(p.blockBytes))
        fail(which + ": block size must be a power of two (got " +
             std::to_string(p.blockBytes) + ")");
    if (p.sizeBytes % (static_cast<std::uint64_t>(p.blockBytes) * p.assoc) !=
        0)
        fail(which + ": size " + std::to_string(p.sizeBytes) +
             " not divisible by block*assoc (" +
             std::to_string(p.blockBytes) + "*" + std::to_string(p.assoc) +
             ")");
    const std::uint64_t sets =
        p.sizeBytes / (static_cast<std::uint64_t>(p.blockBytes) * p.assoc);
    if (!isPowerOfTwo(sets))
        fail(which + ": set count " + std::to_string(sets) +
             " must be a power of two (size/(block*assoc))");
}

} // namespace

void
ProcessorConfig::validate() const
{
    if (numClusters == 0)
        fail("numClusters must be >= 1");
    if (fetchWidth == 0)
        fail("fetchWidth must be >= 1");
    if (dispatchQueueEntries == 0)
        fail("dispatchQueueEntries must be >= 1");
    if (retireWidth == 0)
        fail("retireWidth must be >= 1");
    if (regMap.numClusters() != numClusters)
        fail("register map covers " + std::to_string(regMap.numClusters()) +
             " clusters but the machine has " + std::to_string(numClusters));
    // Each slave that forwards an operand holds an entry of its master
    // cluster's operand transfer buffer until the master issues. An
    // instruction has one slave on two clusters; on three or more, two
    // slaves can forward into one master, and a smaller buffer could
    // never serve it.
    const unsigned otbNeed = std::min(numClusters - 1, 2u);
    if (operandBufferEntries < otbNeed)
        fail("operandBufferEntries must be >= " + std::to_string(otbNeed) +
             " on a " + std::to_string(numClusters) +
             "-cluster machine, where one instruction can hold that many "
             "entries of one cluster's operand transfer buffer (got " +
             std::to_string(operandBufferEntries) + ")");

    validateCache("icache", memory.icache);
    validateCache("dcache", memory.dcache);
    if (memory.hasL2()) {
        mem::CacheParams l2;
        l2.sizeBytes = memory.l2SizeBytes;
        l2.assoc = memory.l2Assoc;
        l2.blockBytes = memory.l2BlockBytes;
        validateCache("l2", l2);
        if (memory.l2BlockBytes < memory.icache.blockBytes ||
            memory.l2BlockBytes < memory.dcache.blockBytes)
            fail("l2: block size must be >= the L1 block sizes");
    }
    if (memory.memLatency == 0)
        fail("memory latency must be >= 1 cycle");
}

} // namespace mca::core
