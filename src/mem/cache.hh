/**
 * @file
 * Memory-level interface and the set-associative cache level.
 *
 * The memory system is a chain of MemoryLevel objects (docs/memory.md):
 * each level answers `access()` with the cycle the data reaches its
 * requester, forwarding misses to the next level down. `Cache` is the
 * set-associative level with inverted-MSHR miss handling; standalone
 * (no next level) it reproduces the paper's flat model exactly: 64-KB
 * two-way set-associative instruction and data caches, a 16-cycle
 * fetch latency to a perfect next level, unlimited bandwidth, and an
 * inverted MSHR that places no restriction on the number of in-flight
 * misses (Farkas & Jouppi, ISCA'94). Misses to a block that is already
 * being fetched merge with the outstanding fill.
 *
 * Wired to a next level, a miss becomes a real request: the fill's
 * ready cycle comes from the level below, finite fill ports push it
 * back deterministically under contention (FillPorts), and evicting a
 * dirty victim sends write-back traffic down the chain.
 *
 * Every level is a timing model only: it tracks tags and
 * fill-completion cycles, not data.
 */

#ifndef MCA_MEM_CACHE_HH
#define MCA_MEM_CACHE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/io.hh"
#include "prof/prof.hh"
#include "support/panic.hh"
#include "support/stats.hh"
#include "support/types.hh"

namespace mca::mem
{

/** Which level of the hierarchy serviced an access (attribution). */
enum class ServiceLevel : unsigned
{
    L1 = 0,
    L2,
    Memory,
};

inline const char *
serviceLevelName(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::L1: return "l1";
      case ServiceLevel::L2: return "l2";
      case ServiceLevel::Memory: return "mem";
    }
    return "<bad-level>";
}

/** Configuration of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 64 * 1024;
    unsigned assoc = 2;
    unsigned blockBytes = 32;
    /**
     * Latency of a fetch from the next memory level, used only when the
     * cache is standalone (no next level wired). In a MemorySystem the
     * level below supplies the fill timing instead.
     */
    unsigned missLatency = 16;
    /**
     * Miss-handling organization. 0 models the paper's inverted MSHR
     * (no restriction on in-flight misses); a nonzero value models an
     * explicit MSHR file with that many entries — a new miss while all
     * entries are busy is rejected and the requester must retry
     * (Farkas & Jouppi, ISCA'94 complexity/performance tradeoff).
     */
    unsigned mshrEntries = 0;
    /**
     * Extra cycles a hit at this level costs the requester. 0 for the
     * L1s (the core's load-use latency covers the hit path); nonzero
     * for a lower shared level (the L1-miss-to-L2-hit latency).
     */
    unsigned hitLatency = 0;
    /**
     * Fill ports: completed fills this level can accept per cycle.
     * 0 = unlimited (the paper's model). With N ports, the N+1-th fill
     * landing on the same cycle is pushed back deterministically.
     */
    unsigned fillPorts = 0;
};

/** Outcome of one access, at any level. */
struct AccessResult
{
    bool hit = false;
    /** True if the miss merged with an in-flight fill of the same block. */
    bool merged = false;
    /** True if an explicit MSHR file was full: retry later. */
    bool rejected = false;
    /** Cycle at which the data is available to the requester. */
    Cycle readyAt = 0;
    /** Deepest level that serviced the request (stall attribution). */
    ServiceLevel servedBy = ServiceLevel::L1;
};

/**
 * Finite fill bandwidth: each port accepts one completed fill per
 * cycle. schedule() books the desired completion cycle onto the
 * least-busy port (first port on ties — deterministic), pushing the
 * fill back only when every port is taken that cycle; with no
 * contention the result equals the request, so finite-but-uncontended
 * ports are timing-identical to unlimited ones.
 */
class FillPorts
{
  public:
    explicit FillPorts(unsigned ports = 0) { init(ports); }

    void init(unsigned ports) { busyUntil_.assign(ports, 0); }

    /** Book a fill that wants to complete at `ready`; returns the
     *  (possibly later) cycle it actually completes. */
    Cycle
    schedule(Cycle ready)
    {
        if (busyUntil_.empty())
            return ready; // unlimited
        auto port = std::min_element(busyUntil_.begin(), busyUntil_.end());
        const Cycle start = std::max(ready, *port);
        *port = start + 1;
        return start;
    }

    unsigned ports() const
    {
        return static_cast<unsigned>(busyUntil_.size());
    }

    /** Per-port next-free cycles (checkpointing). */
    const std::vector<Cycle> &busyUntil() const { return busyUntil_; }

    /** Overwrite the port schedule (checkpoint restore). */
    void
    restoreBusyUntil(const std::vector<Cycle> &busy)
    {
        MCA_ASSERT(busy.size() == busyUntil_.size(),
                   "fill port count mismatch on restore");
        busyUntil_ = busy;
    }

    /** Forget all port bookings (warm-state normalization). */
    void settle() { std::fill(busyUntil_.begin(), busyUntil_.end(), 0); }

  private:
    /** Cycle each port is next free (empty = unlimited). */
    std::vector<Cycle> busyUntil_;
};

/**
 * One level of the memory hierarchy. Levels form a chain (L1 -> L2 ->
 * memory); `access` returns the cycle the data reaches the requester,
 * recursing down the chain on a miss.
 */
class MemoryLevel : public ckpt::Checkpointable
{
  public:
    ~MemoryLevel() override = default;

    /**
     * Perform one access.
     *
     * @param addr  Effective byte address.
     * @param is_write  True for stores / write-backs from above.
     * @param now  Cycle the request arrives at this level.
     * @return hit/miss status, data-ready cycle, and servicing level.
     */
    virtual AccessResult access(Addr addr, bool is_write, Cycle now) = 0;

    /** True if the block containing addr is resident (no state change). */
    virtual bool probe(Addr addr) const = 0;

    /** Invalidate all blocks (testing support). */
    virtual void flush() = 0;

    /** Fills in flight at this level at `now` (observability). */
    virtual unsigned inFlight(Cycle now) const = 0;

    /**
     * Complete every in-flight fill immediately (warm-state restore:
     * the functional warmer's synthetic clock has no relation to the
     * restoring machine's, so pending fill times are normalized away).
     */
    virtual void settle() = 0;

    virtual const std::string &name() const = 0;
};

class Cache : public MemoryLevel
{
  public:
    /**
     * @param next  Level the cache misses to; nullptr = standalone
     *              (the flat paper model: fills take missLatency).
     * @param level Hierarchy position reported in AccessResult::servedBy
     *              for hits at this level.
     */
    Cache(std::string name, const CacheParams &params, StatGroup &stats,
          MemoryLevel *next = nullptr,
          ServiceLevel level = ServiceLevel::L1);

    /**
     * Perform one access: the one body that decides hit, in-flight
     * merge and miss. The core's fetch and issue stages and the
     * functional warmer call it directly, so the common case (a
     * resident line whose fill has landed) is decided inline with no
     * virtual dispatch; access() runs the same body for a level above.
     * A hit or merge scans the set once; a miss takes the victim that
     * scan chose and continues out of line. Every access is timed as
     * the host-profiler region "mem.<name>". Always inlined: the
     * timer's cold calls would otherwise put the body over the
     * inliner's limits in the issue loop, and a hit would pay a call.
     */
    [[gnu::always_inline]] AccessResult
    accessFast(Addr addr, bool is_write, Cycle now)
    {
        prof::ScopeTimer prof_scope(profRegion_);
        ++*accesses_;
        const std::uint64_t set = setIndex(addr);
        const Addr tag = tagOf(addr);
        std::size_t victim;
        const std::size_t way = findWay(set, tag, victim);
        if (way == kNoWay)
            return miss(addr, is_write, now, set, tag, lines_[victim]);
        Line &line = lines_[way];
        line.lastUse = ++useClock_;
        if (is_write)
            line.dirty = true;
        if (line.fillReadyAt > now) {
            // Block still in flight: merge with the outstanding fill
            // (the inverted MSHR tracks any number of these).
            ++*misses_;
            ++*merged_;
            return AccessResult{false, true, false, line.fillReadyAt,
                                line.fillFrom};
        }
        ++*hits_;
        return AccessResult{true, false, false, now + params_.hitLatency,
                            level_};
    }

    AccessResult
    access(Addr addr, bool is_write, Cycle now) final
    {
        return accessFast(addr, is_write, now);
    }

    bool probe(Addr addr) const override;

    /**
     * True if an access to addr at `now` would be rejected by a full
     * explicit MSHR file (always false with the inverted MSHR). Counts
     * a rejection; issue logic polls this before consuming resources.
     * Inline for the common inverted-MSHR configuration: the poll is
     * on the per-issue hot path and usually a single compare.
     */
    bool
    wouldReject(Addr addr, Cycle now)
    {
        if (params_.mshrEntries == 0)
            return false; // inverted MSHR: never rejects
        return wouldRejectSlow(addr, now);
    }

    void flush() override;

    const CacheParams &params() const { return params_; }
    const std::string &name() const override { return name_; }

    std::uint64_t accesses() const { return accesses_->value(); }
    std::uint64_t hits() const { return hits_->value(); }
    std::uint64_t misses() const { return misses_->value(); }
    std::uint64_t mergedMisses() const { return merged_->value(); }
    std::uint64_t writebacks() const { return writebacks_->value(); }
    std::uint64_t mshrRejections() const { return rejections_->value(); }

    /** Outstanding fills at `now` (diagnostics, MSHR accounting). */
    unsigned outstandingFills(Cycle now) const;

    /** Serialize tags, LRU clocks, and in-flight fills (not counters —
     *  those live in the StatGroup and checkpoint with it). */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;
    void settle() override;

    unsigned
    inFlight(Cycle now) const override
    {
        return outstandingFills(now);
    }

    double
    missRate() const
    {
        const auto a = accesses();
        return a == 0 ? 0.0 : static_cast<double>(misses()) /
                                  static_cast<double>(a);
    }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lastUse = 0;
        /** Fill completion cycle; <= access time once the fill lands. */
        Cycle fillReadyAt = 0;
        /** Level the in-flight (or last) fill was served from. */
        ServiceLevel fillFrom = ServiceLevel::Memory;
    };

    std::uint64_t setIndex(Addr addr) const
    {
        return (addr >> blockShift_) & setMask_;
    }
    Addr tagOf(Addr addr) const { return (addr >> blockShift_) >> setShift_; }

    /** findWay's answer when the set does not hold the tag. */
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    /**
     * Scan `set` once for `tag`: the index in lines_ of the way holding
     * it, or kNoWay. Then `victim` is the way a fill replaces: the
     * first invalid way, else the least recently used (the lowest way
     * on ties).
     */
    std::size_t
    findWay(std::uint64_t set, Addr tag, std::size_t &victim) const
    {
        const std::size_t first = set * params_.assoc;
        victim = first;
        for (std::size_t i = first; i < first + params_.assoc; ++i) {
            const Line &line = lines_[i];
            if (line.valid && line.tag == tag)
                return i;
            const Line &old = lines_[victim];
            if (old.valid && (!line.valid || line.lastUse < old.lastUse))
                victim = i;
        }
        return kNoWay;
    }

    /** The miss path of accessFast: allocate `victim` (write-allocate,
     *  so stores fill too), writing it back first if dirty. */
    AccessResult miss(Addr addr, bool is_write, Cycle now,
                      std::uint64_t set, Addr tag, Line &victim);
    /** Reconstruct the base address of a resident line (write-backs). */
    Addr lineAddr(std::uint64_t set, Addr tag) const;

    /** Drop completed fills from the outstanding list. */
    void pruneOutstanding(Cycle now) const;

    /** Out-of-line MSHR-file poll (explicit-MSHR configs only). */
    bool wouldRejectSlow(Addr addr, Cycle now);

    std::string name_;
    /** Interned "mem.<name>" host-profiler region (see src/prof). */
    prof::RegionId profRegion_;
    CacheParams params_;
    MemoryLevel *next_;
    ServiceLevel level_;
    FillPorts fillPorts_;
    std::uint64_t numSets_;
    /** Shift/mask forms of the index math (block size and set count
     *  are asserted powers of two at construction). */
    unsigned blockShift_ = 0;
    unsigned setShift_ = 0;
    std::uint64_t setMask_ = 0;
    std::vector<Line> lines_;   // numSets_ * assoc, row-major by set
    std::uint64_t useClock_ = 0;
    /** Fill-completion times of in-flight misses (mutable: pruning is
     *  bookkeeping, observable through const diagnostics). */
    mutable std::vector<Cycle> outstanding_;

    Counter *accesses_;
    Counter *hits_;
    Counter *misses_;
    Counter *merged_;
    Counter *writebacks_;
    Counter *rejections_;
};

} // namespace mca::mem

#endif // MCA_MEM_CACHE_HH
