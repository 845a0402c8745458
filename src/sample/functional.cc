#include "sample/functional.hh"

#include "bpred/predictors.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "isa/opcodes.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace mca::sample
{

FunctionalWarmer::FunctionalWarmer(core::Processor &proc)
    : proc_(proc),
      icacheBlockBytes_(proc.memorySystem().icache().params().blockBytes),
      lastFetchBlock_(~Addr{0})
{
}

std::uint64_t
FunctionalWarmer::advance(std::uint64_t n)
{
    mem::Cache &icache = proc_.memorySystem().icache();
    mem::Cache &dcache = proc_.memorySystem().dcache();
    bpred::Predictor &pred = proc_.predictor();
    exec::TraceSource &trace = proc_.trace();

    exec::DynInst di;
    std::uint64_t done = 0;
    while (done < n) {
        if (!trace.next(di)) {
            ended_ = true;
            break;
        }
        ++now_;
        const Addr block = di.pc / icacheBlockBytes_;
        if (block != lastFetchBlock_) {
            icache.accessFast(di.pc, /*is_write=*/false, now_);
            lastFetchBlock_ = block;
        }
        if (isa::isMemOp(di.mi.op))
            dcache.accessFast(di.effAddr, isa::isStore(di.mi.op), now_);
        if (isa::isCondBranch(di.mi.op))
            pred.update(di.pc, di.taken);
        // A taken control transfer breaks fetch-block locality, so the
        // next instruction re-touches the I-cache even within a block.
        if (isa::isCtrlFlow(di.mi.op) && di.taken)
            lastFetchBlock_ = ~Addr{0};
        ++consumed_;
        ++done;
    }
    return done;
}

} // namespace mca::sample
