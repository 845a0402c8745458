/**
 * @file
 * Fetch stage of the multicluster core: pulls dynamic instructions
 * from the trace through a block-granular instruction cache into the
 * shared fetch buffer (up to fetchWidth per cycle, groups ending at
 * taken control flow). Owns the fetch buffer and the fetch-side stall
 * state (replay/redirect windows, outstanding icache miss); exposes
 * the reason it is blocked so the idle fast-forward can compute the
 * next cycle fetch could make progress (docs/architecture.md).
 */

#ifndef MCA_CORE_FETCH_HH
#define MCA_CORE_FETCH_HH

#include <deque>
#include <optional>

#include "ckpt/io.hh"
#include "core/machine.hh"
#include "exec/trace.hh"

namespace mca::core
{

class FetchUnit : public ckpt::Checkpointable
{
  public:
    FetchUnit(MachineState &m, exec::TraceSource &trace)
        : m_(m), trace_(&trace)
    {
    }

    /** Run one fetch cycle. */
    void tick();

    /**
     * The shared fetch buffer; replay pushes squashed work back in, so
     * it can exceed fetchBufferEntries. The bound is joint:
     * window size + buffer size <= retireWindow + fetchBufferEntries.
     * Fetch adds only while the buffer is below fetchBufferEntries,
     * dispatch and replay only move records between the two, and
     * retire removes them (`--paranoid` checks it every cycle).
     */
    std::deque<exec::DynInst> &buffer() { return buffer_; }
    const std::deque<exec::DynInst> &buffer() const { return buffer_; }

    /** Trace exhausted and nothing buffered. */
    bool
    drained() const
    {
        return traceEnded_ && !pendingFetch_ && buffer_.empty();
    }

    /** Fetch suppressed until this cycle (replay penalty / redirect). */
    Cycle stallUntil() const { return stallUntil_; }
    void setStallUntil(Cycle c) { stallUntil_ = c; }

    /** The trace feeding this fetch unit (checkpointed with it). */
    exec::TraceSource &trace() { return *trace_; }
    const exec::TraceSource &trace() const { return *trace_; }

    /** Stage-local fetch state (the trace is saved separately). */
    void saveState(ckpt::Writer &w) const override;
    void loadState(ckpt::Reader &r) override;

    Cycle icacheReadyAt() const { return icacheReadyAt_; }
    bool icachePending() const { return icachePending_; }

    /**
     * Counter a blocked fetch cycle bumps; replicated per skipped cycle
     * by the idle fast-forward. Mirrors the precedence of tick()'s
     * blocking checks against end-of-cycle state.
     */
    enum class IdleEffect { None, BranchStall, IcacheStall };

    IdleEffect
    idleEffect() const
    {
        if (m_.mispredictBlockSeq != kNoSeq)
            return IdleEffect::BranchStall;
        if (m_.now < stallUntil_)
            return IdleEffect::None;
        if (m_.now < icacheReadyAt_)
            return IdleEffect::IcacheStall;
        return IdleEffect::None;
    }

    /**
     * Earliest future cycle the blocking condition recorded by the last
     * tick() resolves on its own; kNoCycle when fetch is gated on
     * another unit's event (branch resolution, buffer drain) or done.
     * An explicit-MSHR rejection must be re-polled every cycle (the
     * poll itself is a counted cache event), so it pins the next event
     * to now+1 and disables skipping.
     */
    Cycle
    nextEventCycle() const
    {
        switch (blockReason_) {
          case Block::StallWindow:
            return stallUntil_;
          case Block::Icache:
            return icacheReadyAt_;
          case Block::MshrPoll:
            return m_.now + 1;
          default:
            return kNoCycle;
        }
    }

  private:
    enum class Block {
        None,
        Branch,
        StallWindow,
        Icache,
        MshrPoll,
        BufferFull,
        TraceEnd
    };

    MachineState &m_;
    exec::TraceSource *trace_;
    std::deque<exec::DynInst> buffer_;
    std::optional<exec::DynInst> pendingFetch_; // peeked but not buffered
    bool traceEnded_ = false;
    Cycle stallUntil_ = 0;
    Cycle icacheReadyAt_ = 0;
    Addr lastFetchBlock_ = ~Addr{0};
    bool icachePending_ = false;
    Addr icachePendingBlock_ = 0;
    Block blockReason_ = Block::None;
};

} // namespace mca::core

#endif // MCA_CORE_FETCH_HH
