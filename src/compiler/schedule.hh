/**
 * @file
 * Prepass (pre-register-allocation) list scheduling.
 *
 * Per §3.3 the code schedule is fixed before live ranges are partitioned
 * and allocated, because the local scheduler's imbalance estimate depends
 * on the instruction order. This pass performs classic latency-weighted
 * list scheduling within each basic block: a dependence DAG (true, anti,
 * output, and memory-order edges) is built, instructions are prioritized
 * by critical-path height, and an 8-wide machine is simulated to
 * pick issue order.
 */

#ifndef MCA_COMPILER_SCHEDULE_HH
#define MCA_COMPILER_SCHEDULE_HH

#include <cstdint>

#include "prog/cfg.hh"

namespace mca::compiler
{

struct ScheduleStats
{
    std::uint64_t blocksScheduled = 0;
    std::uint64_t instsMoved = 0;
};

/**
 * Reorder instructions inside each basic block. Control-flow terminators
 * stay last; all data, anti, output, and memory-order dependences are
 * preserved.
 */
ScheduleStats listSchedule(prog::Program &prog);

} // namespace mca::compiler

#endif // MCA_COMPILER_SCHEDULE_HH
