/**
 * @file
 * The instruction-distribution rule of the multicluster architecture.
 *
 * Given the cluster assignment of every architectural register an
 * instruction names, this pure function decides which cluster executes
 * the master copy, which clusters receive slave copies, and which
 * transfer mechanisms (operand forwarding, result forwarding) each slave
 * uses. Both the hardware model (core) and the static schedulers
 * (compiler) apply the same rule — in hardware it is implemented by
 * simple inspection of register numbers (paper §2.1).
 */

#ifndef MCA_ISA_DISTRIBUTION_HH
#define MCA_ISA_DISTRIBUTION_HH

#include <optional>

#include "isa/inst.hh"
#include "isa/registers.hh"
#include "support/small_vector.hh"

namespace mca::isa
{

/** Role of one slave copy of a dual-distributed instruction. */
struct SlaveRole
{
    unsigned cluster = 0;
    /** Slave reads a source operand and forwards it to the master. */
    bool forwardsOperand = false;
    /** Slave receives the master's result and writes it locally. */
    bool receivesResult = false;
    /** Bitmask of source indices the slave forwards (bit i = srcs[i]). */
    unsigned srcMask = 0;

    bool operator==(const SlaveRole &) const = default;
};

/** Full distribution decision for one instruction. */
struct Distribution
{
    unsigned masterCluster = 0;
    /** Inline storage covers a master plus slaves in three other
     *  clusters; wider machines spill to the heap. */
    SmallVector<SlaveRole, 3> slaves;
    /** Master allocates a physical register for the destination. */
    bool masterWritesDest = false;

    bool isDual() const { return !slaves.empty(); }

    /** Number of clusters the instruction is distributed to. */
    unsigned
    width() const
    {
        return 1 + static_cast<unsigned>(slaves.size());
    }
};

/**
 * Decide the distribution of an instruction.
 *
 * @param mi   The decoded instruction (register names).
 * @param map  The architectural-register-to-cluster assignment.
 * @param tie_break  Cluster preferred when the instruction has no local
 *                   register constraint at all (e.g. all-global or
 *                   zero-register operands); lets the hardware balance.
 */
Distribution decideDistribution(const MachInst &mi, const RegisterMap &map,
                                unsigned tie_break = 0);

} // namespace mca::isa

#endif // MCA_ISA_DISTRIBUTION_HH
