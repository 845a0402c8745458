#include "workloads/workloads.hh"

#include "workloads/util.hh"

namespace mca::workloads
{

using namespace detail;

/**
 * Pointer-chase stress workload: a serial linked-structure walk whose
 * node pool far exceeds the L1 data cache, so virtually every hop is a
 * load miss, and whose next-pointer is the value the previous hop
 * loaded, so the misses cannot overlap. The pipeline spends most
 * cycles drained, waiting on the head load's fill — the
 * memory-latency-bound counterpart to ora's divider-bound serial
 * chains, and the simulator-side stress case for the idle fast-forward
 * (the bench/e2e `detail_idle` workload times it).
 *
 * Not part of the paper's benchmark suite, so deliberately excluded
 * from allBenchmarks(): the Table-2/figure experiments iterate that
 * registry and must keep reproducing the paper's six benchmarks.
 */
prog::Program
makePointerChase(const WorkloadParams &params)
{
    Builder b("chase");
    emitPreamble(b);

    const auto hops =
        static_cast<std::uint64_t>(32'000 * params.scale) + 1;

    const FunctionId fn = b.function("main");
    const BlockId m_init = b.block(fn, 1, "init");
    const BlockId m_body = b.block(fn, static_cast<double>(hops),
                                   "walk");
    const BlockId m_end = b.block(fn, 1, "end");

    // 16 MiB node pool against a 64 KiB cache: essentially no reuse.
    const auto s_nodes = b.stream(
        AddrStream::randomIn(0x0A00'0040, 16 * 1024 * 1024));

    b.setInsertPoint(fn, m_init);
    const ValueId i = b.emitConst(RegClass::Int, 0, "i");
    const ValueId p = b.emitConst(RegClass::Int, 0xA00000, "p");
    const ValueId acc = b.emitConst(RegClass::Int, 0, "acc");
    b.edge(fn, m_init, m_body);

    // Four serial hops per iteration; each hop's address register is
    // the previous hop's loaded value.
    b.setInsertPoint(fn, m_body);
    b.emitLoadTo(p, Op::Ldl, s_nodes, p);
    b.emitLoadTo(p, Op::Ldl, s_nodes, p);
    b.emitLoadTo(p, Op::Ldl, s_nodes, p);
    b.emitLoadTo(p, Op::Ldl, s_nodes, p);
    b.emitRRRTo(acc, Op::Add, acc, p);
    emitLoopLatch(b, i, static_cast<std::int64_t>(hops), hops);
    b.edge(fn, m_body, m_end);
    b.edge(fn, m_body, m_body);

    b.setInsertPoint(fn, m_end);
    b.emitRet();

    return b.build();
}

} // namespace mca::workloads
