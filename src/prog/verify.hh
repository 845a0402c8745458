/**
 * @file
 * IR invariant checker.
 *
 * verifyIR() re-checks everything Program::finalize() asserts — but as a
 * diagnostic report instead of a panic — plus the dataflow and
 * clustering invariants the compiler passes are supposed to preserve:
 *
 *  - structural CFG consistency (block ids, successor shape per
 *    terminator convention, dangling successor / stream / branch-model /
 *    callee / value references);
 *  - def-before-use: every use is reached by a definition on *all*
 *    paths from the entry (live-in and global-candidate values count as
 *    externally defined);
 *  - live-range sanity: a non-global value belongs to exactly one
 *    function;
 *  - post-partition legality (VerifyOptions::clusterOf set): the
 *    assignment covers the value table, stays inside [-1, numClusters),
 *    and never assigns a global candidate to a cluster;
 *  - post-regalloc legality (VerifyOptions::regOf set): every referenced
 *    value is colored, onto its own register class, global candidates
 *    onto global registers, and — when a cluster assignment and register
 *    map are also given — local values onto registers homed on their
 *    assigned cluster (a cross-cluster local-register read would
 *    silently defeat the paper's partitioning).
 *
 * The checker never mutates the program and never panics on corrupt
 * input; it accumulates human-readable findings so tests (and
 * `--verify-ir`) can point at the offending function/block/instruction.
 */

#ifndef MCA_PROG_VERIFY_HH
#define MCA_PROG_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/registers.hh"
#include "prog/cfg.hh"

namespace mca::prog
{

/** Which invariant family a finding belongs to. */
enum class VerifyErrorKind
{
    Structure,    ///< CFG shape / dangling references
    Locality,     ///< live range crosses functions
    DefBeforeUse, ///< use not reached by a definition on all paths
    Partition,    ///< cluster-assignment legality
    Allocation,   ///< register-class / register-cluster legality
};

/** One invariant violation: where it is and what is wrong. */
struct VerifyError
{
    VerifyErrorKind kind = VerifyErrorKind::Structure;
    /** Location, e.g. "fn 'main' bb3 inst 2" or "value 'x'". */
    std::string where;
    std::string message;
};

struct VerifyResult
{
    std::vector<VerifyError> errors;

    bool ok() const { return errors.empty(); }

    /** All findings, one "where: message" line each. */
    std::string str() const;
};

/**
 * Optional post-pass state to check along with the program itself.
 * Pointers are non-owning and may be null (the corresponding checks are
 * skipped); they must outlive the verifyIR() call.
 */
struct VerifyOptions
{
    /**
     * Check that every use is reached by a definition on all paths.
     * Benchmark programs satisfy this; the random fuzzer's programs
     * intentionally do not (the trace interpreter zero-fills unwritten
     * live ranges), so the compiler's pass runner downgrades this check
     * when the *input* program already violates it.
     */
    bool checkDefBeforeUse = true;
    /** Partitioner output: per-value cluster (-1 = unassigned). */
    const std::vector<std::int8_t> *clusterOf = nullptr;
    /** Cluster count the assignment targets (with clusterOf). */
    unsigned numClusters = 1;
    /** Allocator output: per-value register. */
    const std::vector<isa::RegId> *regOf = nullptr;
    /** Register map the binary runs under (with regOf). */
    const isa::RegisterMap *regMap = nullptr;
};

/** Check every invariant; never throws, never mutates `prog`. */
VerifyResult verifyIR(const Program &prog,
                      const VerifyOptions &options = {});

} // namespace mca::prog

#endif // MCA_PROG_VERIFY_HH
