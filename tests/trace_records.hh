/**
 * @file
 * Check of the TraceSource fill contract shared by the trace tests:
 * drain a source into one reused DynInst and compare every record,
 * field by field, with a twin source drained through the optional
 * form.
 */

#ifndef MCA_TESTS_TRACE_RECORDS_HH
#define MCA_TESTS_TRACE_RECORDS_HH

#include <gtest/gtest.h>

#include <vector>

#include "exec/trace.hh"

namespace mca::test
{

inline void
expectSameRecord(const exec::DynInst &got, const exec::DynInst &want)
{
    EXPECT_EQ(got.seq, want.seq);
    EXPECT_EQ(got.pc, want.pc);
    EXPECT_EQ(got.mi.op, want.mi.op);
    EXPECT_TRUE(got.mi.dest == want.mi.dest) << "seq " << want.seq;
    EXPECT_TRUE(got.mi.srcs == want.mi.srcs) << "seq " << want.seq;
    EXPECT_EQ(got.mi.imm, want.mi.imm);
    EXPECT_EQ(got.effAddr, want.effAddr);
    EXPECT_EQ(got.taken, want.taken);
    EXPECT_EQ(got.nextPc, want.nextPc);
    EXPECT_EQ(got.isSpill, want.isSpill);
    EXPECT_EQ(got.remapIndex, want.remapIndex);
}

/**
 * Drain `filled` into a single DynInst that starts with every field
 * set to a value no source produces, and `reference` (the same trace)
 * through the optional form. Returns the filled records in order. The
 * false return at trace end must leave the reused record untouched.
 */
inline std::vector<exec::DynInst>
drainReused(exec::TraceSource &filled, exec::TraceSource &reference)
{
    exec::DynInst di;
    di.seq = ~InstSeq{0};
    di.pc = ~Addr{0};
    di.mi.op = isa::Op::Ldl;
    di.mi.dest = isa::intReg(7);
    di.mi.srcs = {isa::intReg(8), isa::intReg(9)};
    di.mi.imm = -1;
    di.effAddr = ~Addr{0};
    di.taken = true;
    di.nextPc = ~Addr{0};
    di.isSpill = true;
    di.remapIndex = 7;

    std::vector<exec::DynInst> records;
    while (filled.next(di)) {
        const auto want = reference.next();
        if (!want) {
            ADD_FAILURE() << "filled source outlived its twin";
            break;
        }
        expectSameRecord(di, *want);
        records.push_back(di);
    }
    EXPECT_FALSE(reference.next().has_value());
    if (!records.empty())
        expectSameRecord(di, records.back());
    return records;
}

} // namespace mca::test

#endif // MCA_TESTS_TRACE_RECORDS_HH
