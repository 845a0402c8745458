#include "sample/functional.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "bpred/predictors.hh"
#include "core/processor.hh"
#include "isa/opcodes.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"

namespace mca::sample
{

namespace
{

exec::ProgramTrace &
programTraceOf(core::Processor &proc)
{
    auto *trace = dynamic_cast<exec::ProgramTrace *>(&proc.trace());
    if (trace == nullptr)
        throw std::invalid_argument(
            "FunctionalWarmer: warming reads a program trace, and this "
            "processor's trace is another source");
    return *trace;
}

} // namespace

FunctionalWarmer::FunctionalWarmer(core::Processor &proc)
    : proc_(proc), trace_(programTraceOf(proc)),
      fetchShift_(static_cast<unsigned>(std::countr_zero(
          proc.memorySystem().icache().params().blockBytes))),
      lastFetchBlock_(~Addr{0})
{
}

std::uint64_t
FunctionalWarmer::advance(std::uint64_t n)
{
    mem::Cache &icache = proc_.memorySystem().icache();
    mem::Cache &dcache = proc_.memorySystem().dcache();
    bpred::Predictor &pred = proc_.predictor();

    std::uint64_t done = 0;
    while (done < n) {
        const std::uint64_t k = trace_.nextRun(run_, n - done);
        if (k == 0) {
            ended_ = true;
            break;
        }
        // Instruction i of the run sits at pc + 4i and runs at cycle
        // now_ + 1 + i. Walk the run a fetch block at a time: touch the
        // I-cache where the block changes, then issue the memory ops
        // that fall inside it.
        std::size_t m = 0;
        for (std::uint64_t i = 0; i < k;) {
            const Addr pc = run_.pc + 4 * i;
            const Addr block = pc >> fetchShift_;
            if (block != lastFetchBlock_) {
                icache.accessFast(pc, /*is_write=*/false, now_ + 1 + i);
                lastFetchBlock_ = block;
            }
            const std::uint64_t blockEnd =
                std::min(k, i + (((block + 1) << fetchShift_) - pc + 3) / 4);
            for (; m < run_.mem.size() && run_.mem[m].offset < blockEnd;
                 ++m) {
                const exec::BlockRun::Access &a = run_.mem[m];
                dcache.accessFast(a.addr,
                                  isa::isStore(run_.entries[a.offset].mi.op),
                                  now_ + 1 + a.offset);
            }
            i = blockEnd;
        }
        // Control flow ends a block, so only the run's last instruction
        // can branch.
        const isa::Op last = run_.entries[k - 1].mi.op;
        if (isa::isCondBranch(last))
            pred.update(run_.pc + 4 * (k - 1), run_.taken);
        // A taken control transfer breaks fetch-block locality, so the
        // next instruction re-touches the I-cache even within a block.
        if (isa::isCtrlFlow(last) && run_.taken)
            lastFetchBlock_ = ~Addr{0};
        now_ += k;
        consumed_ += k;
        done += k;
    }
    return done;
}

} // namespace mca::sample
