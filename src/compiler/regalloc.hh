/**
 * @file
 * Graph-coloring register allocation (Briggs optimistic coloring).
 *
 * Implements the paper's register-allocation design (§3.4): coloring is
 * separated from spilling, and a live range that cannot be colored in its
 * assigned cluster is spilled *first to a local register in the other
 * cluster* and only then to memory. Global-register candidates are
 * precolored onto the global registers (SP -> r30, GP -> r29, further
 * candidates downward), which the returned RegisterMap marks global.
 *
 * Spilling rewrites the IL: every use of a spilled live range reloads
 * into a fresh short-lived temporary, every definition stores through a
 * fresh temporary, and the allocator recolors until no spills remain.
 * Call-crossing live ranges are force-spilled up front (caller-saved
 * convention; DESIGN.md §5).
 */

#ifndef MCA_COMPILER_REGALLOC_HH
#define MCA_COMPILER_REGALLOC_HH

#include <vector>

#include "compiler/partition.hh"
#include "isa/registers.hh"
#include "prog/cfg.hh"

namespace mca::compiler
{

/** Allocation configuration. */
struct AllocOptions
{
    /** Cluster structure of the target machine. */
    isa::RegisterMap regMap{1};
    /**
     * Cluster assignment from a partitioner; empty for cluster-unaware
     * allocation (the "native binary" of the paper's baseline).
     */
    ClusterAssignment assignment;
    /** Safety bound on color/spill rounds. */
    unsigned maxRounds = 32;
};

/** Allocation outcome. */
struct AllocResult
{
    /** IL with spill code inserted (value table possibly grown). */
    prog::Program rewritten;
    /** Architectural register per value of `rewritten`. */
    std::vector<isa::RegId> regOf;
    /** Values of the *original* program that ended up in memory. */
    std::vector<bool> spilledToMemory;
    /** Final cluster of every value (after other-cluster respills). */
    ClusterAssignment finalAssignment;
    /** Register map including any extra global registers consumed. */
    isa::RegisterMap finalMap{1};
    /**
     * Registers hosting global-register candidates (SP, GP, ...). A
     * machine with any cluster count must mark exactly these global.
     */
    std::vector<isa::RegId> globalRegs;

    unsigned rounds = 0;
    std::uint64_t memorySpills = 0;       ///< ranges spilled to memory
    std::uint64_t otherClusterSpills = 0; ///< ranges recolored across
    std::uint64_t callCrossingSpills = 0;
    std::uint64_t spillLoadsInserted = 0;
    std::uint64_t spillStoresInserted = 0;
};

/** Run the allocator. The input program is copied, never modified. */
AllocResult allocateRegisters(const prog::Program &prog,
                              const AllocOptions &options);

/**
 * Emit the machine program for an allocation. Unset operand slots
 * (spill-load bases, constant sources) become the zero register.
 */
prog::MachProgram emitMachine(const AllocResult &alloc);

} // namespace mca::compiler

#endif // MCA_COMPILER_REGALLOC_HH
