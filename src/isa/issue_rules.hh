/**
 * @file
 * Per-cycle instruction-issue rules (the paper's Table 1).
 *
 * Row 1 (single-cluster, 8-way):  all 8; int multiply 8; int other 8;
 * fp all 4; fp divide 4; fp other 4; loads & stores 4; control flow 4.
 * Row 2 (per cluster of the dual machine): exactly half of each.
 */

#ifndef MCA_ISA_ISSUE_RULES_HH
#define MCA_ISA_ISSUE_RULES_HH

#include "isa/opcodes.hh"
#include "isa/registers.hh"

namespace mca::isa
{

/** Per-cycle issue caps for one cluster. */
struct IssueRules
{
    unsigned all = 8;       ///< total instructions per cycle
    unsigned intMul = 8;    ///< integer multiplies
    unsigned intOther = 8;  ///< other integer
    unsigned fpAll = 4;     ///< all floating point combined
    unsigned fpDiv = 4;     ///< floating-point divides
    unsigned fpOther = 4;   ///< other floating point
    unsigned loadStore = 4; ///< loads and stores
    unsigned ctrlFlow = 4;  ///< control-flow instructions

    /** Table 1 row 1: the 8-way single-cluster machine. */
    static IssueRules
    singleCluster8Way()
    {
        return IssueRules{8, 8, 8, 4, 4, 4, 4, 4};
    }

    /** Table 1 row 2: one cluster of the dual-cluster machine. */
    static IssueRules
    dualClusterPerCluster()
    {
        return IssueRules{4, 4, 4, 2, 2, 2, 2, 2};
    }

    /** 4-way single-cluster machine (the paper also evaluated 4-way). */
    static IssueRules
    singleCluster4Way()
    {
        return IssueRules{4, 4, 4, 2, 2, 2, 2, 2};
    }

    /** One cluster of a dual-cluster 4-way machine. */
    static IssueRules
    dual4WayPerCluster()
    {
        return IssueRules{2, 2, 2, 1, 1, 1, 1, 1};
    }

    /** Scale every cap by 1/n (for n-cluster generalizations), min 1. */
    IssueRules
    dividedBy(unsigned n) const
    {
        auto div = [n](unsigned v) { return v / n > 0 ? v / n : 1u; };
        return IssueRules{div(all),     div(intMul), div(intOther),
                          div(fpAll),   div(fpDiv),  div(fpOther),
                          div(loadStore), div(ctrlFlow)};
    }
};

/**
 * Per-cycle issue-slot bookkeeping for one cluster.
 *
 * tryConsume() checks every cap an op class is subject to and, on success,
 * debits them. Slave copies of dual-distributed instructions consume an
 * "all" slot plus the int-other or fp-other register-file port but are not
 * subject to load/store or control-flow caps (see DESIGN.md §5.2).
 */
class IssueSlots
{
  public:
    explicit IssueSlots(const IssueRules &rules) : rules_(rules) {}

    /** Reset all slot counts for a new cycle. */
    void
    newCycle()
    {
        usedAll_ = usedIntMul_ = usedIntOther_ = 0;
        usedFpAll_ = usedFpDiv_ = usedFpOther_ = 0;
        usedLdSt_ = usedCtrl_ = 0;
    }

    /** Attempt to issue one instruction of class `cls` this cycle. */
    bool
    tryConsume(OpClass cls)
    {
        if (usedAll_ >= rules_.all)
            return false;
        switch (cls) {
          case OpClass::IntMul:
            if (usedIntMul_ >= rules_.intMul)
                return false;
            ++usedIntMul_;
            break;
          case OpClass::IntOther:
            if (usedIntOther_ >= rules_.intOther)
                return false;
            ++usedIntOther_;
            break;
          case OpClass::FpDiv:
            if (usedFpAll_ >= rules_.fpAll || usedFpDiv_ >= rules_.fpDiv)
                return false;
            ++usedFpAll_;
            ++usedFpDiv_;
            break;
          case OpClass::FpOther:
            if (usedFpAll_ >= rules_.fpAll || usedFpOther_ >= rules_.fpOther)
                return false;
            ++usedFpAll_;
            ++usedFpOther_;
            break;
          case OpClass::LoadStore:
            if (usedLdSt_ >= rules_.loadStore)
                return false;
            ++usedLdSt_;
            break;
          case OpClass::CtrlFlow:
            if (usedCtrl_ >= rules_.ctrlFlow)
                return false;
            ++usedCtrl_;
            break;
          case OpClass::Nop:
            break;
          default:
            return false;
        }
        ++usedAll_;
        return true;
    }

    /**
     * Attempt to issue a slave copy that only needs a register-file port
     * of the given class (integer or floating point).
     */
    bool
    tryConsumeSlave(RegClass file)
    {
        return tryConsume(file == RegClass::Int ? OpClass::IntOther
                                                : OpClass::FpOther);
    }

    const IssueRules &rules() const { return rules_; }

  private:
    IssueRules rules_;
    unsigned usedAll_ = 0;
    unsigned usedIntMul_ = 0;
    unsigned usedIntOther_ = 0;
    unsigned usedFpAll_ = 0;
    unsigned usedFpDiv_ = 0;
    unsigned usedFpOther_ = 0;
    unsigned usedLdSt_ = 0;
    unsigned usedCtrl_ = 0;
};

} // namespace mca::isa

#endif // MCA_ISA_ISSUE_RULES_HH
