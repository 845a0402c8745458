#include "exec/trace_io.hh"

#include <stdexcept>

#include "exec/dyninst_io.hh"
#include "support/panic.hh"

namespace mca::exec
{

namespace
{

[[noreturn]] void
fail(const std::string &what, const std::string &path)
{
    throw std::runtime_error("trace: " + what + ": " + path);
}

} // namespace

std::uint64_t
writeTrace(const std::string &path, TraceSource &source,
           const std::vector<isa::RegId> &global_regs,
           std::uint64_t max_insts)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fail("cannot open for writing", path);
    const auto put = [&](const ckpt::Writer &w) {
        out.write(w.data().data(),
                  static_cast<std::streamsize>(w.data().size()));
    };
    std::uint32_t masks[2] = {0, 0};
    for (const auto &reg : global_regs)
        masks[static_cast<unsigned>(reg.cls)] |= 1u << reg.index;
    const auto putHeader = [&](std::uint64_t count) {
        ckpt::Writer w;
        for (char c : kTraceMagic)
            w.u8(static_cast<std::uint8_t>(c));
        w.u64(count);
        w.u32(masks[0]);
        w.u32(masks[1]);
        put(w);
    };

    putHeader(0); // the count is patched below
    std::uint64_t count = 0;
    DynInst di;
    while (count < max_insts && source.next(di)) {
        MCA_ASSERT(di.seq == count && di.remapIndex == DynInst::kNoRemap,
                   "trace records must number from 0 and carry no remap "
                   "points");
        ckpt::Writer w;
        writeDynInst(w, di);
        put(w);
        ++count;
    }
    out.seekp(0);
    putHeader(count);
    out.close();
    if (!out)
        fail("short write", path);
    return count;
}

FileTrace::FileTrace(const std::string &path)
    : in_(path, std::ios::binary), record_(kDynInstBytes, '\0')
{
    if (!in_)
        fail("cannot open", path);
    std::string header(kTraceHeaderBytes, '\0');
    in_.read(header.data(), kTraceHeaderBytes);
    header.resize(static_cast<std::size_t>(in_.gcount()));
    const std::string magic(kTraceMagic, sizeof(kTraceMagic));
    if (header.compare(0, magic.size(), magic) != 0)
        fail("bad magic, not an " + magic + " trace file", path);
    if (header.size() < kTraceHeaderBytes)
        fail("truncated header", path);
    ckpt::Reader r(header);
    r.u64(); // the magic
    count_ = r.u64();
    const std::uint32_t masks[2] = {r.u32(), r.u32()};
    for (unsigned ci = 0; ci < 2; ++ci)
        for (unsigned i = 0; i < isa::kNumArchRegs; ++i)
            if (masks[ci] & (1u << i))
                globalRegs_.push_back(
                    isa::RegId(static_cast<isa::RegClass>(ci), i));
    // Every record must be present, and nothing may follow them.
    in_.seekg(0, std::ios::end);
    const auto body =
        static_cast<std::uint64_t>(in_.tellg()) - kTraceHeaderBytes;
    if (body % kDynInstBytes != 0 || body / kDynInstBytes != count_)
        fail("file size does not match the header's count of " +
                 std::to_string(count_) + " records",
             path);
    in_.seekg(kTraceHeaderBytes);
}

bool
FileTrace::next(DynInst &out)
{
    if (read_ >= count_)
        return false;
    if (!in_.read(record_.data(), kDynInstBytes))
        throw std::runtime_error("trace: short read at record " +
                                 std::to_string(read_));
    ckpt::Reader r(record_);
    readDynInst(r, out, 0, "trace");
    if (out.seq != read_)
        throw std::runtime_error(
            "trace: record field seq has invalid value " +
            std::to_string(out.seq) + " (expected " +
            std::to_string(read_) + ")");
    ++read_;
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
    in_.clear();
    if (!in_.seekg(kTraceHeaderBytes + read_ * kDynInstBytes))
        throw std::runtime_error("checkpoint: trace file seek failed");
}

} // namespace mca::exec
