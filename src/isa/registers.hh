/**
 * @file
 * Architectural register namespace of the MCA ISA.
 *
 * The reproduction models an Alpha-like RISC ISA with 32 integer and 32
 * floating-point architectural registers. As on Alpha, r31 and f31 read as
 * zero and writes to them are discarded; r30 is the stack pointer and r29
 * the global pointer. The multicluster architecture assigns each
 * architectural register to one cluster ("local") or to every cluster
 * ("global"); following the paper, even-numbered registers belong to
 * cluster 0 and odd-numbered to cluster 1, and the SP/GP live ranges are
 * the global-register candidates.
 */

#ifndef MCA_ISA_REGISTERS_HH
#define MCA_ISA_REGISTERS_HH

#include <array>
#include <cstdint>
#include <string>

#include "support/panic.hh"

namespace mca::isa
{

/** Number of architectural registers per class. */
inline constexpr unsigned kNumArchRegs = 32;

/** Integer register that always reads zero. */
inline constexpr unsigned kIntZeroReg = 31;
/** Floating-point register that always reads zero. */
inline constexpr unsigned kFpZeroReg = 31;
/** Conventional stack pointer. */
inline constexpr unsigned kStackPointer = 30;
/** Conventional global pointer. */
inline constexpr unsigned kGlobalPointer = 29;
/** Conventional link register for calls. */
inline constexpr unsigned kLinkReg = 26;

/** Register class: which register file a register names. */
enum class RegClass : std::uint8_t { Int, Fp };

/** An architectural register identifier (class + index). */
struct RegId
{
    RegClass cls = RegClass::Int;
    std::uint8_t index = kIntZeroReg;

    constexpr RegId() = default;
    constexpr RegId(RegClass c, unsigned i)
        : cls(c), index(static_cast<std::uint8_t>(i))
    {}

    constexpr bool
    operator==(const RegId &other) const
    {
        return cls == other.cls && index == other.index;
    }

    /** True if this register always reads zero (writes discarded). */
    constexpr bool
    isZero() const
    {
        return (cls == RegClass::Int && index == kIntZeroReg) ||
               (cls == RegClass::Fp && index == kFpZeroReg);
    }
};

/** Build an integer register id. */
constexpr RegId
intReg(unsigned index)
{
    return RegId(RegClass::Int, index);
}

/** Build a floating-point register id. */
constexpr RegId
fpReg(unsigned index)
{
    return RegId(RegClass::Fp, index);
}

/** Human-readable register name ("r7", "f12"). */
inline std::string
regName(RegId reg)
{
    return (reg.cls == RegClass::Int ? "r" : "f") +
           std::to_string(reg.index);
}

/**
 * Architectural-register-to-cluster assignment.
 *
 * Local registers belong to register_index mod num_clusters by default;
 * registers in the global mask belong to every cluster. The default
 * global set is {SP, GP} in the integer file, per the paper's step 3.
 *
 * Individual registers may be re-homed with setHome() — the
 * compiler-directed assignment the paper's §6 envisions for the dynamic
 * reassignment mechanism ("directly specify the
 * architectural-register-to-cluster assignment for each architectural
 * register").
 */
class RegisterMap
{
  public:
    /** Construct the paper's default map for a given cluster count. */
    explicit RegisterMap(unsigned num_clusters = 2)
        : numClusters_(num_clusters)
    {
        MCA_ASSERT(num_clusters >= 1 && num_clusters <= 8,
                   "unsupported cluster count");
        intHome_.fill(-1);
        fpHome_.fill(-1);
        for (unsigned i = 0; i < 2 * kNumArchRegs; ++i)
            refresh(RegId(static_cast<RegClass>(i / kNumArchRegs),
                          i % kNumArchRegs));
        if (num_clusters > 1) {
            setGlobal(intReg(kStackPointer));
            setGlobal(intReg(kGlobalPointer));
        }
    }

    unsigned numClusters() const { return numClusters_; }

    /** homeOrGlobal() of a register readable in every cluster. */
    static constexpr unsigned kGlobal = 0xff;

    /** Mark a register as globally assigned (replicated in all clusters). */
    void
    setGlobal(RegId reg)
    {
        mask(reg.cls) |= (1u << reg.index);
        refresh(reg);
    }

    /** Remove a register from the global set. */
    void
    setLocal(RegId reg)
    {
        mask(reg.cls) &= ~(1u << reg.index);
        refresh(reg);
    }

    /**
     * Home cluster of a local register, or kGlobal for a global or zero
     * register (zero registers read everywhere without a transfer). One
     * table load: the distribution hardware's "simple inspection of
     * register numbers" (§2.1).
     */
    unsigned
    homeOrGlobal(RegId reg) const
    {
        return home_[static_cast<unsigned>(reg.cls)][reg.index];
    }

    bool isGlobal(RegId reg) const { return homeOrGlobal(reg) == kGlobal; }

    /**
     * Home cluster of a local register. Must not be called for globals
     * (they have no unique home).
     */
    unsigned
    homeCluster(RegId reg) const
    {
        const unsigned home = homeOrGlobal(reg);
        MCA_ASSERT(home != kGlobal, "global register has no home cluster");
        return home;
    }

    /** Re-home a local register to an explicit cluster. */
    void
    setHome(RegId reg, unsigned cluster)
    {
        MCA_ASSERT(cluster < numClusters_, "setHome: bad cluster");
        overrideOf(reg.cls)[reg.index] =
            static_cast<std::int8_t>(cluster);
        refresh(reg);
    }

    /** Drop an explicit home, restoring the mod rule. */
    void
    clearHome(RegId reg)
    {
        overrideOf(reg.cls)[reg.index] = -1;
        refresh(reg);
    }

    /** Count of registers whose effective home differs from `other`. */
    unsigned
    differingHomes(const RegisterMap &other) const
    {
        unsigned n = 0;
        for (unsigned ci = 0; ci < 2; ++ci) {
            const auto cls = static_cast<RegClass>(ci);
            for (unsigned i = 0; i < kNumArchRegs; ++i) {
                const RegId reg(cls, i);
                if (reg.isZero())
                    continue;
                const bool g1 = isGlobal(reg);
                const bool g2 = other.isGlobal(reg);
                if (g1 != g2) {
                    ++n;
                } else if (!g1 && !g2 &&
                           homeCluster(reg) != other.homeCluster(reg)) {
                    ++n;
                }
            }
        }
        return n;
    }

    /** True if the register is readable from within `cluster`. */
    bool
    accessibleFrom(RegId reg, unsigned cluster) const
    {
        const unsigned home = homeOrGlobal(reg);
        return home == kGlobal || home == cluster;
    }

    /** Raw global-register mask of one class (checkpointing). */
    std::uint32_t globalMask(RegClass cls) const { return maskOf(cls); }

    /** Raw home override of one register, -1 = mod rule (checkpointing). */
    std::int8_t
    homeOverride(RegId reg) const
    {
        return overrideOf(reg.cls)[reg.index];
    }

    /** Number of local (non-global, non-zero) registers owned by cluster. */
    unsigned
    localRegCount(RegClass cls, unsigned cluster) const
    {
        unsigned n = 0;
        for (unsigned i = 0; i < kNumArchRegs; ++i) {
            RegId r(cls, i);
            if (!r.isZero() && !isGlobal(r) && homeCluster(r) == cluster)
                ++n;
        }
        return n;
    }

  private:
    /** Recompute one register's homeOrGlobal() entry from the mask,
     *  its override and the mod rule. */
    void
    refresh(RegId reg)
    {
        const std::int8_t over = overrideOf(reg.cls)[reg.index];
        const bool global = reg.isZero() || numClusters_ == 1 ||
                            (maskOf(reg.cls) & (1u << reg.index)) != 0;
        home_[static_cast<unsigned>(reg.cls)][reg.index] =
            static_cast<std::uint8_t>(global      ? kGlobal
                                      : over >= 0 ? unsigned(over)
                                                  : reg.index % numClusters_);
    }

    std::uint32_t &
    mask(RegClass cls)
    {
        return cls == RegClass::Int ? intGlobalMask_ : fpGlobalMask_;
    }

    std::uint32_t
    maskOf(RegClass cls) const
    {
        return cls == RegClass::Int ? intGlobalMask_ : fpGlobalMask_;
    }

    std::array<std::int8_t, kNumArchRegs> &
    overrideOf(RegClass cls)
    {
        return cls == RegClass::Int ? intHome_ : fpHome_;
    }

    const std::array<std::int8_t, kNumArchRegs> &
    overrideOf(RegClass cls) const
    {
        return cls == RegClass::Int ? intHome_ : fpHome_;
    }

    unsigned numClusters_;
    std::uint32_t intGlobalMask_ = 0;
    std::uint32_t fpGlobalMask_ = 0;
    std::array<std::int8_t, kNumArchRegs> intHome_;
    std::array<std::int8_t, kNumArchRegs> fpHome_;
    /** homeOrGlobal() per class and index, kept current by refresh(). */
    std::array<std::array<std::uint8_t, kNumArchRegs>, 2> home_;
};

} // namespace mca::isa

#endif // MCA_ISA_REGISTERS_HH
