/**
 * @file
 * The one DynInst record format, shared by trace files and snapshots.
 *
 * A record is 52 little-endian bytes written and read through
 * ckpt::Writer/Reader:
 *
 *   seq, pc, effAddr, nextPc   u64 each
 *   imm                        i64
 *   op                         u8
 *   flags                      u8   bit0 taken, bit1 isSpill, rest 0
 *   dest, src0, src1           u16  cls<<8 | index, 0xffff for none
 *   remapIndex                 u32
 *
 * The decoder checks every field, and the operands against the
 * opcode's shape rule (isa::illFormedOperand), so a corrupt trace file
 * or snapshot fails with a named error instead of steering the core
 * into a panic, a hang or a silently wrong result. Header-only: exec
 * (trace files), core (in-flight window, fetch buffer) and tests use
 * it.
 */

#ifndef MCA_EXEC_DYNINST_IO_HH
#define MCA_EXEC_DYNINST_IO_HH

#include <stdexcept>
#include <string>

#include "ckpt/io.hh"
#include "exec/dyninst.hh"

namespace mca::exec
{

/** Encoded size of one DynInst record. */
inline constexpr std::size_t kDynInstBytes = 52;

/** Register field value for an absent operand. */
inline constexpr std::uint16_t kNoReg = 0xffff;

inline std::uint16_t
encodeReg(const std::optional<isa::RegId> &reg)
{
    if (!reg)
        return kNoReg;
    return static_cast<std::uint16_t>(
        static_cast<unsigned>(reg->cls) << 8 | reg->index);
}

/** The static-instruction fields (program fingerprints). */
inline void
writeMachInst(ckpt::Writer &w, const isa::MachInst &mi)
{
    w.i64(mi.imm);
    w.u8(static_cast<std::uint8_t>(mi.op));
    w.u16(encodeReg(mi.dest));
    w.u16(encodeReg(mi.srcs[0]));
    w.u16(encodeReg(mi.srcs[1]));
}

inline void
writeDynInst(ckpt::Writer &w, const DynInst &di)
{
    w.u64(di.seq);
    w.u64(di.pc);
    w.u64(di.effAddr);
    w.u64(di.nextPc);
    w.i64(di.mi.imm);
    w.u8(static_cast<std::uint8_t>(di.mi.op));
    w.u8(static_cast<std::uint8_t>((di.taken ? 1 : 0) |
                                   (di.isSpill ? 2 : 0)));
    w.u16(encodeReg(di.mi.dest));
    w.u16(encodeReg(di.mi.srcs[0]));
    w.u16(encodeReg(di.mi.srcs[1]));
    w.u32(di.remapIndex);
}

/**
 * Read one record into `di`, checking every field. `remap_bound` is
 * the number of remap points the consumer can apply: remapIndex must
 * be kNoRemap or below it. A field that fails throws
 * std::runtime_error "<source>: record field <field> has invalid value
 * <value>", an operand that does not fit the opcode "<source>: record
 * operand <operand> does not fit opcode <op>"; a short buffer throws
 * from the Reader.
 */
inline void
readDynInst(ckpt::Reader &r, DynInst &di, std::uint32_t remap_bound,
            const char *source)
{
    const auto bad = [&](const std::string &field, std::uint64_t value) {
        throw std::runtime_error(std::string(source) + ": record field " +
                                 field + " has invalid value " +
                                 std::to_string(value));
    };
    const auto reg = [&](const char *field) -> std::optional<isa::RegId> {
        const std::uint16_t v = r.u16();
        if (v == kNoReg)
            return std::nullopt;
        if ((v >> 8) > static_cast<unsigned>(isa::RegClass::Fp))
            bad(std::string(field) + " class", v >> 8);
        if ((v & 0xff) >= isa::kNumArchRegs)
            bad(std::string(field) + " index", v & 0xff);
        return isa::RegId(static_cast<isa::RegClass>(v >> 8), v & 0xff);
    };
    di.seq = r.u64();
    di.pc = r.u64();
    di.effAddr = r.u64();
    di.nextPc = r.u64();
    di.mi.imm = r.i64();
    const std::uint8_t op = r.u8();
    if (op >= static_cast<std::uint8_t>(isa::Op::NumOps))
        bad("opcode", op);
    di.mi.op = static_cast<isa::Op>(op);
    const std::uint8_t flags = r.u8();
    if (flags & ~3u)
        bad("flags", flags);
    di.taken = (flags & 1) != 0;
    di.isSpill = (flags & 2) != 0;
    di.mi.dest = reg("dest");
    di.mi.srcs[0] = reg("src0");
    di.mi.srcs[1] = reg("src1");
    if (const char *operand = isa::illFormedOperand(di.mi))
        throw std::runtime_error(std::string(source) + ": record operand " +
                                 operand + " does not fit opcode " +
                                 std::string(isa::opName(di.mi.op)));
    di.remapIndex = r.u32();
    if (di.remapIndex != DynInst::kNoRemap && di.remapIndex >= remap_bound)
        bad("remapIndex", di.remapIndex);
}

} // namespace mca::exec

#endif // MCA_EXEC_DYNINST_IO_HH
