/**
 * @file
 * The composed memory hierarchy: L1I/L1D -> optional shared L2 ->
 * fixed-latency memory backside.
 *
 * MemorySystem owns the whole chain and hands the core references to
 * the two L1 levels; everything below them is reached through the
 * MemoryLevel chain, never directly. The default MemoryParams is
 * *paper mode*: no L2, a 16-cycle perfect backside, unlimited fill
 * ports — cycle-for-cycle identical to the flat model the paper's
 * evaluation machine uses (see docs/memory.md for the equivalence
 * argument and the sensitivity campaign built on top of this layer).
 */

#ifndef MCA_MEM_MEMORY_HH
#define MCA_MEM_MEMORY_HH

#include <memory>
#include <string>

#include "mem/cache.hh"
#include "support/stats.hh"
#include "support/types.hh"

namespace mca::mem
{

/** Configuration of the full memory hierarchy. */
struct MemoryParams
{
    CacheParams icache{64 * 1024, 2, 32, 16};
    CacheParams dcache{64 * 1024, 2, 32, 16};

    /** Shared second-level cache size in bytes; 0 disables the L2
     *  entirely (paper mode). */
    std::uint64_t l2SizeBytes = 0;
    unsigned l2Assoc = 8;
    unsigned l2BlockBytes = 32;
    /** L1-miss-to-L2-hit latency (the L2's lookup cost). */
    unsigned l2HitLatency = 6;
    /** Fills per cycle the L2 accepts; 0 = unlimited. */
    unsigned l2FillPorts = 0;

    /** Flat latency of the memory backside. Paper mode: 16 cycles. */
    unsigned memLatency = 16;
    /** Concurrent read completions per cycle at the backside;
     *  0 = unlimited (paper mode). */
    unsigned memPorts = 0;

    bool hasL2() const { return l2SizeBytes != 0; }
};

/**
 * The fixed-latency backside: every read is serviced in `latency`
 * cycles, subject to finite read-completion ports; writes (the
 * write-backs of dirty victims: every cache level is write-allocate,
 * so a store never passes through) are absorbed by an infinite write
 * buffer and only counted.
 */
class FixedLatencyMemory : public MemoryLevel
{
  public:
    FixedLatencyMemory(std::string name, unsigned latency, unsigned ports,
                       StatGroup &stats);

    AccessResult access(Addr addr, bool is_write, Cycle now) override;

    bool probe(Addr) const override { return true; }

    void flush() override { outstanding_.clear(); }

    unsigned inFlight(Cycle now) const override;

    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

    void
    settle() override
    {
        outstanding_.clear();
        ports_.settle();
    }

    const std::string &name() const override { return name_; }

    std::uint64_t reads() const { return reads_->value(); }
    std::uint64_t writes() const { return writes_->value(); }

  private:
    std::string name_;
    /** Interned "mem.<name>" host-profiler region (see src/prof). */
    prof::RegionId profRegion_;
    unsigned latency_;
    FillPorts ports_;
    mutable std::vector<Cycle> outstanding_;

    Counter *reads_;
    Counter *writes_;
};

/**
 * The full hierarchy. Construction wires the chain:
 *
 *   icache ─┐                        ┌─ (no L2, paper mode)
 *           ├─ [shared L2] ─ memory  │
 *   dcache ─┘                        └─ icache/dcache -> memory
 */
class MemorySystem
{
  public:
    MemorySystem(const MemoryParams &params, StatGroup &stats);

    Cache &icache() { return icache_; }
    Cache &dcache() { return dcache_; }
    const Cache &icache() const { return icache_; }
    const Cache &dcache() const { return dcache_; }

    /** nullptr when the hierarchy has no L2 (paper mode). */
    Cache *l2() { return l2_.get(); }
    const Cache *l2() const { return l2_.get(); }

    FixedLatencyMemory &memory() { return mem_; }
    const FixedLatencyMemory &memory() const { return mem_; }

    const MemoryParams &params() const { return params_; }
    bool hasL2() const { return l2_ != nullptr; }

    /** Invalidate every level (testing support). */
    void flush();

    /** Serialize every level, L1s through the backside. */
    void saveState(ckpt::Writer &w) const;
    void loadState(ckpt::Reader &r);

    /** Complete all in-flight fills at every level (warm restore). */
    void settle();

  private:
    MemoryParams params_;
    FixedLatencyMemory mem_;
    std::unique_ptr<Cache> l2_; // allocated only when params.hasL2()
    Cache icache_;
    Cache dcache_;
};

} // namespace mca::mem

#endif // MCA_MEM_MEMORY_HH
