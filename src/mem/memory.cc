#include "mem/memory.hh"

#include <algorithm>
#include <stdexcept>

namespace mca::mem
{

FixedLatencyMemory::FixedLatencyMemory(std::string name, unsigned latency,
                                       unsigned ports, StatGroup &stats)
    : name_(std::move(name)), profRegion_(prof::internRegion("mem." + name_)),
      latency_(latency), ports_(ports)
{
    reads_ = &stats.counter(name_ + ".reads",
                            "block fetches serviced by the backside");
    writes_ = &stats.counter(name_ + ".writes",
                             "write-backs/stores absorbed by the backside");
}

AccessResult
FixedLatencyMemory::access(Addr, bool is_write, Cycle now)
{
    prof::ScopeTimer prof_scope(profRegion_);
    if (is_write) {
        // Infinite write buffer: absorbed immediately, counted only.
        ++*writes_;
        return AccessResult{true, false, false, now, ServiceLevel::Memory};
    }
    ++*reads_;
    if (outstanding_.size() >= 64)
        inFlight(now); // amortized prune
    const Cycle ready = ports_.schedule(now + latency_);
    outstanding_.push_back(ready);
    return AccessResult{true, false, false, ready, ServiceLevel::Memory};
}

unsigned
FixedLatencyMemory::inFlight(Cycle now) const
{
    auto it = std::remove_if(outstanding_.begin(), outstanding_.end(),
                             [&](Cycle c) { return c <= now; });
    outstanding_.erase(it, outstanding_.end());
    return static_cast<unsigned>(outstanding_.size());
}

namespace
{

CacheParams
l2CacheParams(const MemoryParams &p)
{
    CacheParams cp;
    cp.sizeBytes = p.l2SizeBytes;
    cp.assoc = p.l2Assoc;
    cp.blockBytes = p.l2BlockBytes;
    cp.missLatency = p.memLatency; // unused once chained; kept coherent
    cp.mshrEntries = 0; // the shared level keeps the inverted MSHR
    cp.hitLatency = p.l2HitLatency;
    cp.fillPorts = p.l2FillPorts;
    return cp;
}

} // namespace

MemorySystem::MemorySystem(const MemoryParams &params, StatGroup &stats)
    : params_(params),
      mem_("mem", params.memLatency, params.memPorts, stats),
      l2_(params.hasL2()
              ? std::make_unique<Cache>("l2", l2CacheParams(params), stats,
                                        &mem_, ServiceLevel::L2)
              : nullptr),
      icache_("icache", params.icache, stats,
              l2_ ? static_cast<MemoryLevel *>(l2_.get()) : &mem_,
              ServiceLevel::L1),
      dcache_("dcache", params.dcache, stats,
              l2_ ? static_cast<MemoryLevel *>(l2_.get()) : &mem_,
              ServiceLevel::L1)
{
}

void
MemorySystem::flush()
{
    icache_.flush();
    dcache_.flush();
    if (l2_)
        l2_->flush();
    mem_.flush();
}

void
FixedLatencyMemory::saveState(ckpt::Writer &w) const
{
    w.u64(outstanding_.size());
    for (Cycle c : outstanding_)
        w.u64(c);
    w.u64(ports_.busyUntil().size());
    for (Cycle c : ports_.busyUntil())
        w.u64(c);
}

void
FixedLatencyMemory::loadState(ckpt::Reader &r)
{
    outstanding_.resize(r.u64());
    for (Cycle &c : outstanding_)
        c = r.u64();
    std::vector<Cycle> busy(r.u64());
    for (Cycle &c : busy)
        c = r.u64();
    ports_.restoreBusyUntil(busy);
}

void
MemorySystem::saveState(ckpt::Writer &w) const
{
    w.b(hasL2());
    icache_.saveState(w);
    dcache_.saveState(w);
    if (l2_)
        l2_->saveState(w);
    mem_.saveState(w);
}

void
MemorySystem::loadState(ckpt::Reader &r)
{
    const bool had_l2 = r.b();
    if (had_l2 != hasL2())
        throw std::runtime_error(
            "checkpoint: L2 presence mismatch between snapshot and "
            "restoring hierarchy");
    icache_.loadState(r);
    dcache_.loadState(r);
    if (l2_)
        l2_->loadState(r);
    mem_.loadState(r);
}

void
MemorySystem::settle()
{
    icache_.settle();
    dcache_.settle();
    if (l2_)
        l2_->settle();
    mem_.settle();
}

} // namespace mca::mem
