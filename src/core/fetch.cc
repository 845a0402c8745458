#include "core/fetch.hh"

#include <stdexcept>

#include "exec/dyninst_io.hh"
#include "isa/opcodes.hh"

namespace mca::core
{

void
FetchUnit::tick()
{
    blockReason_ = Block::None;
    if (m_.mispredictBlockSeq != kNoSeq) {
        ++*m_.st.stallBranchCycles;
        blockReason_ = Block::Branch;
        return;
    }
    if (m_.now < stallUntil_) {
        blockReason_ = Block::StallWindow;
        return;
    }
    if (m_.now < icacheReadyAt_) {
        ++*m_.st.stallIcacheCycles;
        blockReason_ = Block::Icache;
        return;
    }
    if (icachePending_) {
        lastFetchBlock_ = icachePendingBlock_;
        icachePending_ = false;
    }

    unsigned n = 0;
    while (n < m_.cfg.fetchWidth &&
           buffer_.size() < m_.cfg.fetchBufferEntries) {
        if (!pendingFetch_) {
            if (traceEnded_) {
                blockReason_ = Block::TraceEnd;
                break;
            }
            if (!trace_->next(pendingFetch_.emplace())) {
                pendingFetch_.reset();
                traceEnded_ = true;
                blockReason_ = Block::TraceEnd;
                break;
            }
        }

        // Instruction-cache access at block granularity.
        const Addr block =
            pendingFetch_->pc / m_.cfg.memory.icache.blockBytes;
        if (block != lastFetchBlock_) {
            if (m_.icache.wouldReject(pendingFetch_->pc, m_.now)) {
                // Explicit MSHR full: retry next cycle.
                blockReason_ = Block::MshrPoll;
                break;
            }
            const auto r =
                m_.icache.accessFast(pendingFetch_->pc, false, m_.now);
            if (!r.hit) {
                icacheReadyAt_ = r.readyAt;
                icachePending_ = true;
                icachePendingBlock_ = block;
                ++*m_.st.stallIcacheCycles;
                blockReason_ = Block::Icache;
                break;
            }
            lastFetchBlock_ = block;
        }

        const exec::DynInst &di = buffer_.emplace_back(*pendingFetch_);
        pendingFetch_.reset();
        ++*m_.st.fetched;
        ++n;
        m_.activityThisCycle = true;

        // The fetch group ends at a taken control-flow instruction.
        if (isa::isCtrlFlow(di.mi.op) && di.taken) {
            lastFetchBlock_ = ~Addr{0};
            break;
        }
    }
    if (n == 0 && blockReason_ == Block::None)
        blockReason_ = Block::BufferFull;
}

void
FetchUnit::saveState(ckpt::Writer &w) const
{
    w.u64(buffer_.size());
    for (const auto &di : buffer_)
        exec::writeDynInst(w, di);
    w.b(pendingFetch_.has_value());
    if (pendingFetch_)
        exec::writeDynInst(w, *pendingFetch_);
    w.b(traceEnded_);
    w.u64(stallUntil_);
    w.u64(icacheReadyAt_);
    w.u64(lastFetchBlock_);
    w.b(icachePending_);
    w.u64(icachePendingBlock_);
    w.u8(static_cast<std::uint8_t>(blockReason_));
}

void
FetchUnit::loadState(ckpt::Reader &r)
{
    const auto remaps = static_cast<std::uint32_t>(m_.cfg.mapSchedule.size());
    buffer_.clear();
    // Fetch fills the buffer to its capacity, and a replay pushes the
    // squashed part of the window back in front of it.
    const std::uint64_t n = r.u64();
    if (n > m_.cfg.fetchBufferEntries + m_.cfg.retireWindow)
        throw std::runtime_error("checkpoint: fetch buffer count out of range");
    for (std::uint64_t i = 0; i < n; ++i)
        exec::readDynInst(r, buffer_.emplace_back(), remaps, "checkpoint");
    pendingFetch_.reset();
    if (r.b())
        exec::readDynInst(r, pendingFetch_.emplace(), remaps, "checkpoint");
    traceEnded_ = r.b();
    stallUntil_ = r.u64();
    icacheReadyAt_ = r.u64();
    lastFetchBlock_ = r.u64();
    icachePending_ = r.b();
    icachePendingBlock_ = r.u64();
    const std::uint8_t block = r.u8();
    if (block > static_cast<std::uint8_t>(Block::TraceEnd))
        throw std::runtime_error(
            "checkpoint: fetch block reason out of range");
    blockReason_ = static_cast<Block>(block);
}

} // namespace mca::core
