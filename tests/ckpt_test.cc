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

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ckpt/io.hh"
#include "ckpt/snapshot.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/dyninst_io.hh"
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
compileBenchmark(const std::string &name, unsigned clusters,
                 double scale = 1.0)
{
    const auto &bench = workloads::benchmarkByName(name);
    const prog::Program program = bench.make({scale});
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
    // Version 2 snapshots carry no trace program fingerprint; version 3
    // does, so a version-2 file must be refused by name. Only the header
    // differs: readFrom checks the version before the content hash.
    ckpt::Snapshot snap;
    snap.payload = "payload";
    std::ostringstream os;
    snap.writeTo(os);
    std::string bytes = os.str();
    ckpt::Writer old_version;
    old_version.u32(2);
    bytes.replace(8, 4, old_version.data());
    std::istringstream is(bytes);
    try {
        ckpt::Snapshot::readFrom(is);
        FAIL() << "version-2 snapshot accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "checkpoint: format version 2 unsupported "
                               "(expected 3)");
    }
}

/** The TRAC section of a trace over `binary` after `insts` records. */
std::string
traceState(const prog::MachProgram &binary, std::uint64_t insts)
{
    exec::ProgramTrace trace(binary, kTraceSeed, kMaxInsts);
    exec::DynInst di;
    for (std::uint64_t i = 0; i < insts; ++i)
        EXPECT_TRUE(trace.next(di));
    ckpt::Writer w;
    trace.saveState(w);
    return w.take();
}

/** Restore `state` into a fresh trace over `binary`; the error, or "". */
std::string
restoreError(const prog::MachProgram &binary, const std::string &state)
{
    exec::ProgramTrace trace(binary, kTraceSeed, kMaxInsts);
    ckpt::Reader r(state);
    try {
        trace.loadState(r);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(Ckpt, TraceStateOfAnotherProgramIsRejected)
{
    const auto gcc1 = compileBenchmark("gcc1", 2);
    const std::string state = traceState(gcc1.binary, 5000);
    EXPECT_EQ(restoreError(gcc1.binary, state), "");
    // Another benchmark, and the same benchmark at another scale.
    for (const auto &other : {compileBenchmark("compress", 2),
                              compileBenchmark("gcc1", 2, 2.0)})
        EXPECT_EQ(restoreError(other.binary, state),
                  "checkpoint: trace program mismatch (snapshot taken on "
                  "another program)");
}

/**
 * A hand-written TRAC payload for `binary`: seed, bound and program
 * fingerprint copied from a real save, then walker cursor (fn, blk,
 * idx) with an empty call stack, one branch model state (at
 * `pattern_pos`), no jump sites and one address stream state per entry
 * of `streams`.
 */
std::string
handWrittenTraceState(const prog::MachProgram &binary, std::uint32_t fn,
                      std::uint32_t blk, std::uint32_t idx,
                      std::uint32_t branch_model,
                      const std::vector<std::uint32_t> &streams,
                      std::uint64_t pattern_pos = 0)
{
    const std::string real = traceState(binary, 0);
    ckpt::Reader head(real);
    ckpt::Writer w;
    for (int i = 0; i < 3; ++i)
        w.u64(head.u64());
    w.u64(0); // sequence counter
    w.u32(fn);
    w.u32(blk);
    w.u32(idx);
    w.b(false);
    w.u64(0); // call-stack frames
    w.u64(1);
    w.u32(branch_model);
    for (std::uint64_t word = 1; word <= 4; ++word)
        w.u64(word);
    w.u64(0); // remaining loop trips
    w.u64(pattern_pos);
    w.u64(0); // jump sites
    w.u64(streams.size());
    for (std::uint32_t id : streams) {
        w.u32(id);
        for (std::uint64_t word = 1; word <= 4; ++word)
            w.u64(word);
        w.u64(0); // stride offset
        w.u64(0); // last address
    }
    return w.take();
}

TEST(Ckpt, OutOfRangeTraceStateIsRejected)
{
    const auto c = compileBenchmark("gcc1", 2);
    const prog::MachProgram &bin = c.binary;
    const auto n_fn = static_cast<std::uint32_t>(bin.functions.size());
    const auto n_blk =
        static_cast<std::uint32_t>(bin.functions[0].blocks.size());
    const auto bad_idx = static_cast<std::uint32_t>(std::max<std::size_t>(
        bin.functions[0].blocks[0].instrs.size(), 1));
    const auto n_model = static_cast<std::uint32_t>(bin.branchModels.size());
    const auto n_stream = static_cast<std::uint32_t>(bin.streams.size());
    ASSERT_GT(n_model, 0u);
    ASSERT_GT(n_stream, 0u);

    // The hand-written layout restores while every id is in range.
    EXPECT_EQ(restoreError(bin, handWrittenTraceState(bin, 0, 0, 0, 0, {0})),
              "");
    const std::string cursor =
        "checkpoint: restored walker cursor out of range";
    EXPECT_EQ(restoreError(bin,
                           handWrittenTraceState(bin, n_fn, 0, 0, 0, {0})),
              cursor);
    EXPECT_EQ(restoreError(bin,
                           handWrittenTraceState(bin, 0, n_blk, 0, 0, {0})),
              cursor);
    EXPECT_EQ(restoreError(bin, handWrittenTraceState(bin, 0, 0, bad_idx, 0,
                                                      {0})),
              cursor);
    EXPECT_EQ(restoreError(bin, handWrittenTraceState(bin, 0, 0, 0, n_model,
                                                      {0})),
              "checkpoint: restored branch model id out of range or not "
              "ascending");
    const std::string stream =
        "checkpoint: restored stream id out of range or not ascending";
    EXPECT_EQ(restoreError(bin, handWrittenTraceState(bin, 0, 0, 0, 0,
                                                      {n_stream})),
              stream);
    EXPECT_EQ(restoreError(bin,
                           handWrittenTraceState(bin, 0, 0, 0, 0, {0, 0})),
              stream);

    // compress resolves one branch from a repeating T/NT pattern.
    const auto compress = compileBenchmark("compress", 2);
    const auto &models = compress.binary.branchModels;
    const auto pattern = std::find_if(
        models.begin(), models.end(), [](const prog::BranchModel &m) {
            return m.kind == prog::BranchModel::Kind::Pattern;
        });
    ASSERT_NE(pattern, models.end());
    const auto id = static_cast<std::uint32_t>(pattern - models.begin());
    const std::uint64_t len = pattern->pattern.size();
    EXPECT_EQ(restoreError(compress.binary,
                           handWrittenTraceState(compress.binary, 0, 0, 0,
                                                 id, {0}, len - 1)),
              "");
    EXPECT_EQ(restoreError(compress.binary,
                           handWrittenTraceState(compress.binary, 0, 0, 0,
                                                 id, {0}, len)),
              "checkpoint: restored branch pattern position out of range");
}

/**
 * One in-flight record's distribution as a CORE section lays it out:
 * the serialized master cluster and slave roles, then each copy's
 * cluster and role (copies[0] is the master).
 */
struct HandRecord
{
    std::uint8_t master = 0;
    std::vector<isa::SlaveRole> slaves;
    std::vector<std::pair<std::uint8_t, isa::SlaveRole>> copies;
};

/** add r2 <- r3 + r4 on the default dual map: the master in cluster 0,
 *  a slave in cluster 1 forwarding r3. */
HandRecord
dualAdd()
{
    const isa::SlaveRole slave{1, true, false, 1};
    return {0, {slave}, {{0, isa::SlaveRole{}}, {1, slave}}};
}

/**
 * Restore a hand-written CORE section into a fresh dual-cluster
 * machine: an idle machine's header and default register map, the
 * records of `window`, then `rows` dispatch-queue rows in cluster 0,
 * each naming record 0's master. The payload ends there, so a section
 * that passes every check fails as truncated. Returns the error.
 */
std::string
coreRestoreError(const std::vector<HandRecord> &window, std::uint64_t rows)
{
    StatGroup sg("mca");
    exec::VectorTrace trace({});
    core::Processor proc(core::ProcessorConfig::dualCluster8(), trace, sg);
    ckpt::SnapshotBuilder b(proc.configHash());
    b.section("CORE");
    ckpt::Writer &w = b.w();
    for (int i = 0; i < 4; ++i)
        w.u64(0); // cycle, stepped cycles, now, last progress
    w.u32(0);     // consecutive replays
    w.u64(kNoSeq); // mispredict block
    w.u64(kNoSeq); // replay request
    w.u32(2);
    w.u32(1u << isa::kStackPointer | 1u << isa::kGlobalPointer);
    w.u32(0);
    for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i)
        w.u8(0xff); // no home overrides
    w.u64(0); // store rows
    w.u64(0); // pending branches
    w.u64(window.size());
    for (const HandRecord &rec : window) {
        exec::DynInst di;
        di.mi = isa::makeRRR(isa::Op::Add, isa::intReg(2), isa::intReg(3),
                             isa::intReg(4));
        exec::writeDynInst(w, di);
        const auto writeRole = [&](const isa::SlaveRole &role) {
            w.u8(static_cast<std::uint8_t>(role.cluster));
            w.b(role.forwardsOperand);
            w.b(role.receivesResult);
            w.u32(role.srcMask);
        };
        w.u8(rec.master);
        w.b(true); // the master writes the destination
        w.u64(rec.slaves.size());
        for (const auto &role : rec.slaves)
            writeRole(role);
        w.u64(rec.copies.size());
        for (std::size_t i = 0; i < rec.copies.size(); ++i) {
            w.u8(rec.copies[i].first);
            w.b(i == 0);
            writeRole(rec.copies[i].second);
            w.u64(0); // reads
            w.u64(0); // RTB clusters
            w.b(true); // in the queue
            for (int f = 0; f < 4; ++f)
                w.b(false); // issued, suspended, woke, holds an OTB entry
            for (int f = 0; f < 3; ++f)
                w.u64(kNoCycle); // issue, completion, buffer-block cycles
        }
        w.u64(0);      // renames
        w.u64(0);      // dispatch cycle
        w.u32(0);      // master latency
        w.u64(kNoSeq); // memory dependence
        for (int f = 0; f < 5; ++f)
            w.b(false); // miss, memory-bound, branch, taken, mispredicted
    }
    w.u64(rows);
    for (std::uint64_t k = 0; k < rows; ++k) {
        w.u32(0); // window index
        w.u32(0); // copy index
    }
    const ckpt::Snapshot snap = b.finish();
    ckpt::SnapshotParser p(snap, proc.configHash());
    try {
        proc.loadState(p);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

bool
truncated(const std::string &error)
{
    return error.rfind("checkpoint: truncated payload", 0) == 0;
}

TEST(Ckpt, InFlightRecordDisagreeingWithItsCopiesIsRejected)
{
    // The hand-written layout reads through its queue rows while every
    // record agrees with itself and the machine.
    EXPECT_PRED1(truncated, coreRestoreError({dualAdd(), dualAdd()}, 1));

    HandRecord none = dualAdd();
    none.slaves.clear();
    none.copies.clear();
    EXPECT_EQ(coreRestoreError({none}, 1),
              "checkpoint: in-flight record has no copies");

    HandRecord far = dualAdd();
    far.slaves[0].cluster = 2;
    far.copies[1] = {2, far.slaves[0]};
    EXPECT_EQ(coreRestoreError({far}, 1),
              "checkpoint: copy cluster out of range");

    HandRecord master = dualAdd();
    master.master = 1;
    HandRecord role = dualAdd();
    role.slaves[0].receivesResult = true;
    HandRecord missing = dualAdd();
    missing.slaves.clear();
    HandRecord extra = dualAdd();
    extra.slaves.push_back(extra.slaves[0]);
    for (const HandRecord &rec : {master, role, missing, extra})
        EXPECT_EQ(coreRestoreError({dualAdd(), rec}, 1),
                  "checkpoint: in-flight distribution disagrees with its "
                  "copies");
}

TEST(Ckpt, DispatchQueueRowsBeyondCapacityAreRejected)
{
    const std::uint64_t cap =
        core::ProcessorConfig::dualCluster8().dispatchQueueEntries;
    EXPECT_PRED1(truncated, coreRestoreError({dualAdd()}, cap));
    EXPECT_EQ(coreRestoreError({dualAdd()}, cap + 1),
              "checkpoint: dispatch queue rows exceed its capacity");
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
