#include "mem/cache.hh"

#include <algorithm>
#include <stdexcept>

#include "support/panic.hh"

namespace mca::mem
{

namespace
{

bool
isPowerOfTwo(std::uint64_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

Cache::Cache(std::string name, const CacheParams &params, StatGroup &stats,
             MemoryLevel *next, ServiceLevel level)
    : name_(std::move(name)), profRegion_(prof::internRegion("mem." + name_)),
      params_(params), next_(next), level_(level),
      fillPorts_(params.fillPorts)
{
    MCA_ASSERT(isPowerOfTwo(params.blockBytes), "block size not 2^n");
    MCA_ASSERT(params.assoc >= 1, "associativity must be >= 1");
    MCA_ASSERT(params.sizeBytes % (params.blockBytes * params.assoc) == 0,
               "cache size not divisible by (block * assoc)");
    numSets_ = params.sizeBytes / (params.blockBytes * params.assoc);
    MCA_ASSERT(isPowerOfTwo(numSets_), "set count not 2^n");
    lines_.resize(numSets_ * params.assoc);
    while ((std::uint64_t{1} << blockShift_) < params.blockBytes)
        ++blockShift_;
    while ((std::uint64_t{1} << setShift_) < numSets_)
        ++setShift_;
    setMask_ = numSets_ - 1;

    accesses_ = &stats.counter(name_ + ".accesses", "cache accesses");
    hits_ = &stats.counter(name_ + ".hits", "cache hits");
    misses_ = &stats.counter(name_ + ".misses", "cache misses");
    merged_ = &stats.counter(name_ + ".merged_misses",
                             "misses merged with in-flight fills");
    writebacks_ = &stats.counter(name_ + ".writebacks",
                                 "dirty blocks written back");
    rejections_ = &stats.counter(
        name_ + ".mshr_reject_polls",
        "retry polls rejected by a full MSHR (per blocked cycle)");
}

void
Cache::pruneOutstanding(Cycle now) const
{
    auto it = std::remove_if(outstanding_.begin(), outstanding_.end(),
                             [&](Cycle c) { return c <= now; });
    outstanding_.erase(it, outstanding_.end());
}

unsigned
Cache::outstandingFills(Cycle now) const
{
    pruneOutstanding(now);
    return static_cast<unsigned>(outstanding_.size());
}

bool
Cache::wouldRejectSlow(Addr addr, Cycle now)
{
    pruneOutstanding(now);
    if (outstanding_.size() < params_.mshrEntries)
        return false;
    // A hit or a merge with an in-flight fill needs no new entry.
    std::size_t victim;
    if (findWay(setIndex(addr), tagOf(addr), victim) != kNoWay)
        return false;
    ++*rejections_;
    return true;
}

Addr
Cache::lineAddr(std::uint64_t set, Addr tag) const
{
    return (tag * numSets_ + set) * params_.blockBytes;
}

bool
Cache::probe(Addr addr) const
{
    std::size_t victim;
    return findWay(setIndex(addr), tagOf(addr), victim) != kNoWay;
}

AccessResult
Cache::miss(Addr addr, bool is_write, Cycle now, std::uint64_t set,
            Addr tag, Line &victim)
{
    MCA_ASSERT(params_.mshrEntries == 0 ||
                   outstandingFills(now) < params_.mshrEntries,
               "access during MSHR-full; callers must poll wouldReject");
    ++*misses_;
    // Keep the in-flight list compact even when nobody polls it
    // (inverted MSHR with observability off).
    if (outstanding_.size() >= 64)
        pruneOutstanding(now);

    if (victim.valid && victim.dirty) {
        ++*writebacks_;
        // Write-back traffic: the dirty victim is sent down the chain
        // before the demand fetch (deterministic request order).
        if (next_)
            next_->access(lineAddr(set, victim.tag), true, now);
    }

    Cycle fillWants = now + params_.missLatency;
    ServiceLevel from = ServiceLevel::Memory;
    if (next_) {
        const AccessResult down = next_->access(addr, false, now);
        // This level's own lookup (hitLatency) is paid on the miss path
        // too; zero for the L1s, so paper mode is unchanged.
        fillWants = down.readyAt + params_.hitLatency;
        from = down.servedBy;
    }
    const Cycle ready = fillPorts_.schedule(fillWants);
    outstanding_.push_back(ready);

    victim.valid = true;
    victim.dirty = is_write;
    victim.tag = tag;
    victim.lastUse = ++useClock_;
    victim.fillReadyAt = ready;
    victim.fillFrom = from;
    return AccessResult{false, false, false, ready, from};
}

void
Cache::flush()
{
    for (auto &line : lines_)
        line = Line{};
    useClock_ = 0;
    outstanding_.clear();
}

void
Cache::saveState(ckpt::Writer &w) const
{
    w.u64(useClock_);
    w.u64(lines_.size());
    for (const Line &line : lines_) {
        w.b(line.valid);
        w.b(line.dirty);
        w.u64(line.tag);
        w.u64(line.lastUse);
        w.u64(line.fillReadyAt);
        w.u8(static_cast<std::uint8_t>(line.fillFrom));
    }
    w.u64(outstanding_.size());
    for (Cycle c : outstanding_)
        w.u64(c);
    w.u64(fillPorts_.busyUntil().size());
    for (Cycle c : fillPorts_.busyUntil())
        w.u64(c);
}

void
Cache::loadState(ckpt::Reader &r)
{
    useClock_ = r.u64();
    const std::uint64_t nlines = r.u64();
    if (nlines != lines_.size())
        throw std::runtime_error(
            "checkpoint: cache '" + name_ + "' has " +
            std::to_string(lines_.size()) + " lines, snapshot has " +
            std::to_string(nlines));
    for (Line &line : lines_) {
        line.valid = r.b();
        line.dirty = r.b();
        line.tag = r.u64();
        line.lastUse = r.u64();
        line.fillReadyAt = r.u64();
        line.fillFrom = static_cast<ServiceLevel>(r.u8());
    }
    outstanding_.resize(r.u64());
    for (Cycle &c : outstanding_)
        c = r.u64();
    std::vector<Cycle> busy(r.u64());
    for (Cycle &c : busy)
        c = r.u64();
    fillPorts_.restoreBusyUntil(busy);
}

void
Cache::settle()
{
    for (Line &line : lines_)
        line.fillReadyAt = 0;
    outstanding_.clear();
    fillPorts_.settle();
}

} // namespace mca::mem
