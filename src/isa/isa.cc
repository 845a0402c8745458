#include "isa/inst.hh"
#include "isa/opcodes.hh"

#include <sstream>

#include "support/panic.hh"

namespace mca::isa
{

OpClass
opClass(Op op)
{
    switch (op) {
      case Op::Mull:
        return OpClass::IntMul;
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Sll: case Op::Srl: case Op::Sra:
      case Op::CmpEq: case Op::CmpLt: case Op::CmpLe:
      case Op::Lda: case Op::Mov:
        return OpClass::IntOther;
      case Op::DivF: case Op::DivD: case Op::SqrtD:
        return OpClass::FpDiv;
      case Op::AddF: case Op::SubF: case Op::MulF: case Op::CmpF:
      case Op::CvtIF: case Op::CvtFI: case Op::MovF:
        return OpClass::FpOther;
      case Op::Ldl: case Op::Ldt: case Op::Stl: case Op::Stt:
        return OpClass::LoadStore;
      case Op::Br: case Op::Beq: case Op::Bne: case Op::FBeq:
      case Op::FBne: case Op::Jmp: case Op::Jsr: case Op::Ret:
        return OpClass::CtrlFlow;
      case Op::Nop:
        return OpClass::Nop;
      default:
        MCA_PANIC("opClass: unknown op ", static_cast<int>(op));
    }
}

unsigned
opLatency(Op op)
{
    switch (opClass(op)) {
      case OpClass::IntMul:
        return 6;
      case OpClass::IntOther:
        return 1;
      case OpClass::FpDiv:
        // 8 cycles for 32-bit divides, 16 for 64-bit divides and sqrt.
        return op == Op::DivF ? 8 : 16;
      case OpClass::FpOther:
        return 3;
      case OpClass::LoadStore:
        // Loads: 1-cycle access + the single load-delay slot of Table 1.
        // Stores complete in one cycle (no register result).
        return isLoad(op) ? 2 : 1;
      case OpClass::CtrlFlow:
        return 1;
      case OpClass::Nop:
        return 1;
      default:
        MCA_PANIC("opLatency: unknown op ", static_cast<int>(op));
    }
}

bool
opPipelined(Op op)
{
    // All units are fully pipelined except the floating-point divider.
    return opClass(op) != OpClass::FpDiv;
}

std::string_view
opName(Op op)
{
    switch (op) {
      case Op::Add: return "add";
      case Op::Sub: return "sub";
      case Op::And: return "and";
      case Op::Or: return "or";
      case Op::Xor: return "xor";
      case Op::Sll: return "sll";
      case Op::Srl: return "srl";
      case Op::Sra: return "sra";
      case Op::CmpEq: return "cmpeq";
      case Op::CmpLt: return "cmplt";
      case Op::CmpLe: return "cmple";
      case Op::Lda: return "lda";
      case Op::Mov: return "mov";
      case Op::Mull: return "mull";
      case Op::AddF: return "addf";
      case Op::SubF: return "subf";
      case Op::MulF: return "mulf";
      case Op::CmpF: return "cmpf";
      case Op::CvtIF: return "cvtif";
      case Op::CvtFI: return "cvtfi";
      case Op::MovF: return "movf";
      case Op::DivF: return "divf";
      case Op::DivD: return "divd";
      case Op::SqrtD: return "sqrtd";
      case Op::Ldl: return "ldl";
      case Op::Ldt: return "ldt";
      case Op::Stl: return "stl";
      case Op::Stt: return "stt";
      case Op::Br: return "br";
      case Op::Beq: return "beq";
      case Op::Bne: return "bne";
      case Op::FBeq: return "fbeq";
      case Op::FBne: return "fbne";
      case Op::Jmp: return "jmp";
      case Op::Jsr: return "jsr";
      case Op::Ret: return "ret";
      case Op::Nop: return "nop";
      default: return "<bad-op>";
    }
}

namespace
{

/** What one operand slot of an opcode holds. */
enum class Slot : std::uint8_t
{
    None,
    Int,
    Fp,
    IntOrNone,
};

struct Shape
{
    Slot dest, src0, src1;
};

Shape
shapeOf(Op op)
{
    using enum Slot;
    switch (op) {
      // Integer ALU and multiply; src1 is absent in the immediate form.
      case Op::Add: case Op::Sub: case Op::And: case Op::Or:
      case Op::Xor: case Op::Sll: case Op::Srl: case Op::Sra:
      case Op::CmpEq: case Op::CmpLt: case Op::CmpLe: case Op::Mull:
        return {Int, Int, IntOrNone};
      case Op::Lda:
        return {Int, None, None};
      case Op::Mov:
        return {Int, Int, None};
      case Op::AddF: case Op::SubF: case Op::MulF: case Op::CmpF:
      case Op::DivF: case Op::DivD: case Op::SqrtD:
        return {Fp, Fp, Fp};
      // No source: a constant materialized from the immediate.
      case Op::CvtIF:
        return {Fp, IntOrNone, None};
      case Op::CvtFI:
        return {Int, Fp, None};
      case Op::MovF:
        return {Fp, Fp, None};
      // Memory ops always carry their base register (the zero register
      // for an absolute address); a store's data comes first.
      case Op::Ldl:
        return {Int, Int, None};
      case Op::Ldt:
        return {Fp, Int, None};
      case Op::Stl:
        return {None, Int, Int};
      case Op::Stt:
        return {None, Fp, Int};
      case Op::Beq: case Op::Bne: case Op::Jmp:
        return {None, Int, None};
      case Op::FBeq: case Op::FBne:
        return {None, Fp, None};
      // The link register is implicit in compiled code; makeJump
      // names it.
      case Op::Jsr:
        return {IntOrNone, None, None};
      case Op::Ret:
        return {None, IntOrNone, None};
      case Op::Br: case Op::Nop:
        return {None, None, None};
      default:
        MCA_PANIC("shapeOf: unknown op ", static_cast<int>(op));
    }
}

bool
fits(Slot slot, const std::optional<RegId> &reg)
{
    switch (slot) {
      case Slot::None: return !reg;
      case Slot::Int: return reg && reg->cls == RegClass::Int;
      case Slot::Fp: return reg && reg->cls == RegClass::Fp;
      case Slot::IntOrNone: return !reg || reg->cls == RegClass::Int;
    }
    return false;
}

} // namespace

const char *
illFormedOperand(const MachInst &mi)
{
    const Shape shape = shapeOf(mi.op);
    if (!fits(shape.dest, mi.dest))
        return "dest";
    if (!fits(shape.src0, mi.srcs[0]))
        return "src0";
    if (!fits(shape.src1, mi.srcs[1]))
        return "src1";
    return nullptr;
}

std::string
MachInst::toString() const
{
    std::ostringstream oss;
    oss << opName(op);
    bool first = true;
    auto emit = [&](const std::string &s) {
        oss << (first ? " " : ", ") << s;
        first = false;
    };
    if (dest)
        emit(regName(*dest));
    for (const auto &src : srcs)
        if (src)
            emit(regName(*src));
    if (imm != 0 || isMemOp(op) || op == Op::Lda)
        emit("#" + std::to_string(imm));
    return oss.str();
}

MachInst
makeRRR(Op op, RegId dest, RegId src1, RegId src2)
{
    MachInst mi;
    mi.op = op;
    mi.dest = dest;
    mi.srcs[0] = src1;
    mi.srcs[1] = src2;
    return mi;
}

MachInst
makeLoad(Op op, RegId dest, RegId base, std::int64_t disp)
{
    MCA_ASSERT(isLoad(op), "makeLoad with non-load op");
    MachInst mi;
    mi.op = op;
    mi.dest = dest;
    mi.srcs[0] = base;
    mi.imm = disp;
    return mi;
}

MachInst
makeStore(Op op, RegId data, RegId base, std::int64_t disp)
{
    MCA_ASSERT(isStore(op), "makeStore with non-store op");
    MachInst mi;
    mi.op = op;
    mi.srcs[0] = data;
    mi.srcs[1] = base;
    mi.imm = disp;
    return mi;
}

MachInst
makeBranch(Op op, RegId cond)
{
    MCA_ASSERT(isCondBranch(op), "makeBranch with non-branch op");
    MachInst mi;
    mi.op = op;
    mi.srcs[0] = cond;
    return mi;
}

MachInst
makeJump(Op op)
{
    MCA_ASSERT(isCtrlFlow(op) && !isCondBranch(op),
               "makeJump with non-jump op");
    MachInst mi;
    mi.op = op;
    if (op == Op::Jsr)
        mi.dest = intReg(kLinkReg);
    if (op == Op::Ret || op == Op::Jmp)
        mi.srcs[0] = intReg(kLinkReg);
    return mi;
}

} // namespace mca::isa
