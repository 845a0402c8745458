/**
 * @file
 * Checkpoint/restore tests (src/ckpt + core::Processor::saveState).
 *
 * The contract under test is the hard round-trip invariant: a run that
 * is snapshotted at an arbitrary cycle boundary and resumed in a fresh
 * process-equivalent machine must be bit-identical to the
 * uninterrupted run — same final cycle count, same retired count, and
 * byte-identical statistics dump. A snapshot restored and immediately
 * re-saved must also reproduce the exact payload bytes (the snapshot
 * is a fixed point of save∘load).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ckpt/io.hh"
#include "ckpt/snapshot.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

constexpr std::uint64_t kTraceSeed = 42;
constexpr std::uint64_t kMaxInsts = 30'000;

struct Compiled
{
    prog::MachProgram binary;
    isa::RegisterMap map;
};

Compiled
compileBenchmark(const std::string &name, unsigned clusters)
{
    const auto &bench = workloads::benchmarkByName(name);
    const prog::Program program = bench.make({});
    compiler::CompileOptions copt =
        compiler::compileOptionsFor(clusters > 1 ? "local" : "native",
                                    clusters);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    return Compiled{out.binary, out.hardwareMap(clusters)};
}

core::ProcessorConfig
dualConfig(const isa::RegisterMap &map)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = map;
    return cfg;
}

std::string
statsJson(const StatGroup &sg)
{
    std::ostringstream os;
    sg.dumpJson(os);
    return os.str();
}

/** Run uninterrupted to completion; returns (cycles, stats JSON). */
std::pair<Cycle, std::string>
referenceRun(const Compiled &c)
{
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    const auto res = proc.run();
    EXPECT_TRUE(res.completed);
    return {res.cycles, statsJson(sg)};
}

/** Run to `stop_at` cycles, snapshot, restore elsewhere, finish. */
std::pair<Cycle, std::string>
interruptedRun(const Compiled &c, Cycle stop_at)
{
    ckpt::Snapshot snap;
    {
        StatGroup sg("mca");
        exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
        core::Processor proc(dualConfig(c.map), trace, sg);
        proc.run(stop_at);
        ckpt::SnapshotBuilder b(proc.configHash());
        proc.saveState(b);
        snap = b.finish();
    }
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    ckpt::SnapshotParser p(snap, proc.configHash());
    proc.loadState(p);
    const auto res = proc.run();
    EXPECT_TRUE(res.completed);
    return {res.cycles, statsJson(sg)};
}

TEST(CkptRoundTrip, ResumeIsBitIdenticalMidRun)
{
    const auto c = compileBenchmark("compress", 2);
    const auto ref = referenceRun(c);
    ASSERT_GT(ref.first, 2000u);
    const auto cut = interruptedRun(c, ref.first / 2);
    EXPECT_EQ(ref.first, cut.first);
    EXPECT_EQ(ref.second, cut.second);
}

TEST(CkptRoundTrip, ResumeIsBitIdenticalNearStart)
{
    const auto c = compileBenchmark("gcc1", 2);
    const auto ref = referenceRun(c);
    const auto cut = interruptedRun(c, 100);
    EXPECT_EQ(ref.first, cut.first);
    EXPECT_EQ(ref.second, cut.second);
}

TEST(CkptRoundTrip, SaveLoadSaveIsByteIdentical)
{
    const auto c = compileBenchmark("su2cor", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    proc.run(5000);

    ckpt::SnapshotBuilder b1(proc.configHash());
    proc.saveState(b1);
    const ckpt::Snapshot s1 = b1.finish();

    StatGroup sg2("mca");
    exec::ProgramTrace trace2(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc2(dualConfig(c.map), trace2, sg2);
    ckpt::SnapshotParser p(s1, proc2.configHash());
    proc2.loadState(p);

    ckpt::SnapshotBuilder b2(proc2.configHash());
    proc2.saveState(b2);
    const ckpt::Snapshot s2 = b2.finish();

    EXPECT_EQ(s1.payload, s2.payload);
    EXPECT_EQ(s1.contentHash(), s2.contentHash());
}

TEST(CkptRoundTrip, SnapshotOfCompletedRunRestoresFinalState)
{
    const auto c = compileBenchmark("ora", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    const auto res = proc.run();
    ASSERT_TRUE(res.completed);

    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    const ckpt::Snapshot snap = b.finish();

    StatGroup sg2("mca");
    exec::ProgramTrace trace2(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc2(dualConfig(c.map), trace2, sg2);
    ckpt::SnapshotParser p(snap, proc2.configHash());
    proc2.loadState(p);
    // Nothing left to simulate; the restored machine is already done.
    const auto res2 = proc2.run();
    EXPECT_EQ(res.cycles, res2.cycles);
    EXPECT_EQ(statsJson(sg), statsJson(sg2));
}

TEST(Ckpt, ConfigHashMismatchIsRejected)
{
    const auto c = compileBenchmark("compress", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    proc.run(500);
    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    const ckpt::Snapshot snap = b.finish();

    const auto single = compileBenchmark("compress", 1);
    StatGroup sg2("mca");
    exec::ProgramTrace trace2(single.binary, kTraceSeed, kMaxInsts);
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.regMap = single.map;
    core::Processor proc2(cfg, trace2, sg2);
    EXPECT_NE(proc.configHash(), proc2.configHash());
    EXPECT_THROW(ckpt::SnapshotParser(snap, proc2.configHash()),
                 std::runtime_error);
}

TEST(Ckpt, TraceIdentityMismatchIsRejected)
{
    const auto c = compileBenchmark("compress", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    proc.run(500);
    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    const ckpt::Snapshot snap = b.finish();

    // Same machine shape, different trace seed: the config hash
    // matches but the trace section must reject the restore.
    StatGroup sg2("mca");
    exec::ProgramTrace trace2(c.binary, kTraceSeed + 1, kMaxInsts);
    core::Processor proc2(dualConfig(c.map), trace2, sg2);
    ckpt::SnapshotParser p(snap, proc2.configHash());
    EXPECT_THROW(proc2.loadState(p), std::runtime_error);
}

TEST(Ckpt, FileRoundTripPreservesBytes)
{
    const auto c = compileBenchmark("doduc", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    proc.run(1000);
    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    const ckpt::Snapshot snap = b.finish();

    const std::string path = "ckpt_test_roundtrip.mcackpt";
    snap.saveFile(path);
    const ckpt::Snapshot back = ckpt::Snapshot::loadFile(path);
    std::remove(path.c_str());
    EXPECT_EQ(snap.configHash, back.configHash);
    EXPECT_EQ(snap.payload, back.payload);
}

TEST(Ckpt, CorruptPayloadIsRejected)
{
    const auto c = compileBenchmark("compress", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    proc.run(500);
    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    const ckpt::Snapshot snap = b.finish();

    const std::string path = "ckpt_test_corrupt.mcackpt";
    snap.saveFile(path);
    // Flip one payload byte; the content-hash trailer must catch it.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(64);
        char byte = 0;
        f.seekg(64);
        f.get(byte);
        f.seekp(64);
        f.put(static_cast<char>(byte ^ 0x40));
    }
    EXPECT_THROW(ckpt::Snapshot::loadFile(path), std::runtime_error);
    std::remove(path.c_str());
}

TEST(Ckpt, TruncatedFileIsRejected)
{
    const auto c = compileBenchmark("compress", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    proc.run(500);
    ckpt::SnapshotBuilder b(proc.configHash());
    proc.saveState(b);
    const ckpt::Snapshot snap = b.finish();

    std::ostringstream os;
    snap.writeTo(os);
    const std::string whole = os.str();
    std::istringstream is(whole.substr(0, whole.size() / 2));
    EXPECT_THROW(ckpt::Snapshot::readFrom(is), std::runtime_error);
}

TEST(Ckpt, OldFormatVersionIsRejected)
{
    // Version 1 snapshots carried scheduler wake state; version 2 does
    // not, so a version-1 file must be refused by name. Only the header
    // differs: readFrom checks the version before the content hash.
    ckpt::Snapshot snap;
    snap.payload = "payload";
    std::ostringstream os;
    snap.writeTo(os);
    std::string bytes = os.str();
    ckpt::Writer old_version;
    old_version.u32(1);
    bytes.replace(8, 4, old_version.data());
    std::istringstream is(bytes);
    try {
        ckpt::Snapshot::readFrom(is);
        FAIL() << "version-1 snapshot accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "checkpoint: format version 1 unsupported "
                               "(expected 2)");
    }
}

TEST(Ckpt, WriterReaderScalarsRoundTrip)
{
    ckpt::Writer w;
    w.u8(0xab);
    w.u16(0x1234);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.i64(-42);
    w.f64(3.25);
    w.b(true);
    w.str("hello");
    w.tag("TEST");

    ckpt::Reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0x1234);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_TRUE(r.b());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_NO_THROW(r.tag("TEST"));
    EXPECT_TRUE(r.atEnd());
}

TEST(Ckpt, SectionSyncLossIsDiagnosed)
{
    ckpt::Writer w;
    w.tag("CORE");
    w.u64(7);
    ckpt::Reader r(w.data());
    try {
        r.tag("MEMS");
        FAIL() << "mismatched tag accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("MEMS"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("CORE"), std::string::npos);
    }
}

TEST(Ckpt, InvalidConfigIsRejectedAtConstruction)
{
    // Satellite of the checkpoint work: Processor now validates its
    // configuration instead of trusting every caller to have done so.
    const auto c = compileBenchmark("compress", 2);
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = c.map;
    cfg.fetchWidth = 0;
    EXPECT_THROW(core::Processor(cfg, trace, sg), std::runtime_error);
}

} // namespace
