#include "exec/trace_io.hh"

#include <cstring>
#include <stdexcept>

#include "support/panic.hh"

namespace mca::exec
{

namespace
{

/** On-disk record layout (little-endian, 48 bytes). */
struct PackedRecord
{
    std::uint64_t seq;
    std::uint64_t pc;
    std::uint64_t effAddr;
    std::uint64_t nextPc;
    std::int64_t imm;
    std::uint8_t op;
    std::uint8_t flags; // bit0 taken, bit1 isSpill, bit2 hasDest
    std::uint16_t dest; // cls<<8 | index, 0xffff = none
    std::uint16_t src0; // likewise
    std::uint16_t src1;
};
static_assert(sizeof(PackedRecord) == 48, "record layout changed");

std::uint16_t
packReg(const std::optional<isa::RegId> &reg)
{
    if (!reg)
        return 0xffff;
    return static_cast<std::uint16_t>(
        (static_cast<unsigned>(reg->cls) << 8) | reg->index);
}

std::optional<isa::RegId>
unpackReg(std::uint16_t packed)
{
    if (packed == 0xffff)
        return std::nullopt;
    return isa::RegId(static_cast<isa::RegClass>(packed >> 8),
                      packed & 0xff);
}

PackedRecord
pack(const DynInst &di)
{
    PackedRecord r{};
    r.seq = di.seq;
    r.pc = di.pc;
    r.effAddr = di.effAddr;
    r.nextPc = di.nextPc;
    r.imm = di.mi.imm;
    r.op = static_cast<std::uint8_t>(di.mi.op);
    r.flags = static_cast<std::uint8_t>((di.taken ? 1 : 0) |
                                        (di.isSpill ? 2 : 0));
    r.dest = packReg(di.mi.dest);
    r.src0 = packReg(di.mi.srcs[0]);
    r.src1 = packReg(di.mi.srcs[1]);
    return r;
}

void
unpack(const PackedRecord &r, DynInst &di)
{
    di.seq = r.seq;
    di.pc = r.pc;
    di.effAddr = r.effAddr;
    di.nextPc = r.nextPc;
    di.mi.imm = r.imm;
    di.mi.op = static_cast<isa::Op>(r.op);
    MCA_ASSERT(r.op < static_cast<std::uint8_t>(isa::Op::NumOps),
               "corrupt trace record: bad opcode");
    di.taken = (r.flags & 1) != 0;
    di.isSpill = (r.flags & 2) != 0;
    di.mi.dest = unpackReg(r.dest);
    di.mi.srcs[0] = unpackReg(r.src0);
    di.mi.srcs[1] = unpackReg(r.src1);
    di.remapIndex = DynInst::kNoRemap;
}

} // namespace

std::uint64_t
writeTrace(const std::string &path, TraceSource &source,
           const std::vector<isa::RegId> &global_regs,
           std::uint64_t max_insts)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        MCA_FATAL("cannot open trace file for writing: ", path);

    std::uint64_t count = 0;
    // Header: magic + count placeholder + the producer's global
    // registers as per-class bitmasks.
    std::fwrite(kTraceMagic, 1, sizeof(kTraceMagic), f);
    std::fwrite(&count, sizeof(count), 1, f);
    std::uint32_t masks[2] = {0, 0};
    for (const auto &reg : global_regs)
        masks[static_cast<unsigned>(reg.cls)] |= (1u << reg.index);
    std::fwrite(masks, sizeof(masks), 1, f);

    DynInst di;
    while (count < max_insts && source.next(di)) {
        MCA_ASSERT(di.remapIndex == DynInst::kNoRemap,
                   "remap points are not serializable");
        const PackedRecord r = pack(di);
        if (std::fwrite(&r, sizeof(r), 1, f) != 1)
            MCA_FATAL("short write to trace file: ", path);
        ++count;
    }

    // Patch the count.
    std::fseek(f, sizeof(kTraceMagic), SEEK_SET);
    std::fwrite(&count, sizeof(count), 1, f);
    std::fclose(f);
    return count;
}

FileTrace::FileTrace(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        MCA_FATAL("cannot open trace file: ", path);
    char magic[sizeof(kTraceMagic)];
    if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
        std::memcmp(magic, kTraceMagic, sizeof(magic)) != 0)
        MCA_FATAL("not a multicluster trace file: ", path);
    if (std::fread(&count_, sizeof(count_), 1, file_) != 1)
        MCA_FATAL("truncated trace header: ", path);
    std::uint32_t masks[2];
    if (std::fread(masks, sizeof(masks), 1, file_) != 1)
        MCA_FATAL("truncated trace header: ", path);
    for (unsigned ci = 0; ci < 2; ++ci)
        for (unsigned i = 0; i < isa::kNumArchRegs; ++i)
            if (masks[ci] & (1u << i))
                globalRegs_.push_back(
                    isa::RegId(static_cast<isa::RegClass>(ci), i));
}

FileTrace::~FileTrace()
{
    if (file_)
        std::fclose(file_);
}

bool
FileTrace::next(DynInst &out)
{
    if (read_ >= count_)
        return false;
    PackedRecord r;
    if (std::fread(&r, sizeof(r), 1, file_) != 1)
        MCA_FATAL("trace file shorter than its header promises");
    ++read_;
    unpack(r, out);
    return true;
}

void
FileTrace::saveState(ckpt::Writer &w) const
{
    w.u64(count_);
    w.u64(read_);
}

void
FileTrace::loadState(ckpt::Reader &r)
{
    const std::uint64_t count = r.u64();
    if (count != count_)
        throw std::runtime_error(
            "checkpoint: trace file record count mismatch (snapshot " +
            std::to_string(count) + ", file " + std::to_string(count_) +
            ")");
    read_ = r.u64();
    if (read_ > count_)
        throw std::runtime_error(
            "checkpoint: trace cursor beyond end of file");
    // Header: magic + count + global-register masks, then records.
    const long header = static_cast<long>(sizeof(kTraceMagic) +
                                          sizeof(count_) +
                                          2 * sizeof(std::uint32_t));
    const long offset =
        header + static_cast<long>(read_ * sizeof(PackedRecord));
    if (std::fseek(file_, offset, SEEK_SET) != 0)
        throw std::runtime_error("checkpoint: trace file seek failed");
}

} // namespace mca::exec
