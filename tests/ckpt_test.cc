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
#include <map>
#include <sstream>
#include <stdexcept>

#include "ckpt/io.hh"
#include "ckpt/snapshot.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/dyninst_io.hh"
#include "exec/trace.hh"
#include "prog/builder.hh"
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

/** Dispatch-queue entries free at retirement (window) or at issue. */
enum class QueueMode { Window, Rs };

core::ProcessorConfig
dualConfig(const isa::RegisterMap &map, QueueMode mode = QueueMode::Window)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = map;
    cfg.holdQueueUntilRetire = mode == QueueMode::Window;
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
referenceRun(const Compiled &c, QueueMode mode = QueueMode::Window)
{
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map, mode), trace, sg);
    const auto res = proc.run();
    EXPECT_TRUE(res.completed);
    return {res.cycles, statsJson(sg)};
}

/** Run to `stop_at` cycles, snapshot, restore elsewhere, finish. */
std::pair<Cycle, std::string>
interruptedRun(const Compiled &c, Cycle stop_at,
               QueueMode mode = QueueMode::Window)
{
    ckpt::Snapshot snap;
    {
        StatGroup sg("mca");
        exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
        core::Processor proc(dualConfig(c.map, mode), trace, sg);
        proc.run(stop_at);
        ckpt::SnapshotBuilder b(proc.configHash());
        proc.saveState(b);
        snap = b.finish();
    }
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
    core::Processor proc(dualConfig(c.map, mode), trace, sg);
    ckpt::SnapshotParser p(snap, proc.configHash());
    proc.loadState(p);
    const auto res = proc.run();
    EXPECT_TRUE(res.completed);
    return {res.cycles, statsJson(sg)};
}

TEST(CkptRoundTrip, ResumeIsBitIdenticalMidRun)
{
    // Restore rebuilds the dispatch queues from the window, which must
    // be exact whether entries free at retirement or at issue.
    const auto c = compileBenchmark("compress", 2);
    for (const QueueMode mode : {QueueMode::Window, QueueMode::Rs}) {
        const auto ref = referenceRun(c, mode);
        ASSERT_GT(ref.first, 2000u);
        const auto cut = interruptedRun(c, ref.first / 2, mode);
        EXPECT_EQ(ref.first, cut.first);
        EXPECT_EQ(ref.second, cut.second);
    }
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
    // Version 3 snapshots encode DynInsts and the CORE section in
    // another layout, so a version-3 file must be refused by name. Only
    // the header differs: readFrom checks the version before the
    // content hash.
    ckpt::Snapshot snap;
    snap.payload = "payload";
    std::ostringstream os;
    snap.writeTo(os);
    std::string bytes = os.str();
    ckpt::Writer old_version;
    old_version.u32(3);
    bytes.replace(8, 4, old_version.data());
    std::istringstream is(bytes);
    try {
        ckpt::Snapshot::readFrom(is);
        FAIL() << "version-3 snapshot accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "checkpoint: format version 3 unsupported "
                               "(expected 4)");
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

/**
 * Three blocks that load from streams 2, 1, 0 and branch on models 2,
 * 1, 0, in that order, so the walk first touches each table in
 * descending id order. No branch is taken: each block falls through to
 * the next, and the last to a returning tail.
 */
prog::MachProgram
descendingTouchBinary()
{
    prog::Builder b("descending");
    const auto fn = b.function("main");
    std::vector<prog::AddrStreamId> streams;
    std::vector<prog::BranchModelId> models;
    std::vector<prog::BlockId> blocks;
    for (int i = 0; i < 3; ++i) {
        streams.push_back(b.stream(
            prog::AddrStream::strided(0x8000 + 0x1000 * i, 8, 512)));
        models.push_back(b.branch(prog::BranchModel::never()));
        blocks.push_back(b.block(fn, 1));
    }
    const auto tail = b.block(fn, 1, "tail");
    const auto exit = b.block(fn, 1, "exit");
    b.setInsertPoint(fn, blocks[0]);
    const auto base = b.emitConst(isa::RegClass::Int, 0x8000, "base");
    for (int i = 0; i < 3; ++i) {
        b.setInsertPoint(fn, blocks[i]);
        const auto x = b.emitLoad(isa::Op::Ldl, streams[2 - i], base, "x");
        const auto c = b.emitRRI(isa::Op::CmpLt, x, 100, "c");
        b.emitBranch(isa::Op::Bne, c, models[2 - i]);
        b.edge(fn, blocks[i], i < 2 ? blocks[i + 1] : tail);
        b.edge(fn, blocks[i], exit);
    }
    b.setInsertPoint(fn, tail);
    b.emitRet();
    b.setInsertPoint(fn, exit);
    b.emitRet();
    return compiler::compile(b.build(), compiler::CompileOptions{}).binary;
}

/** The branch-model ids and the stream ids a TRAC payload lists. */
std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>
listedModelIds(const std::string &state)
{
    ckpt::Reader r(state);
    for (int i = 0; i < 4; ++i)
        r.u64(); // seed, bound, fingerprint, sequence counter
    r.u32();     // walker cursor
    r.u32();
    r.u32();
    r.b();
    for (std::uint64_t frames = r.u64(); frames > 0; --frames) {
        r.u32();
        r.u32();
    }
    std::vector<std::uint32_t> branchIds, streamIds;
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        branchIds.push_back(r.u32());
        for (int word = 0; word < 4 + 2; ++word)
            r.u64(); // rng, remaining trips, pattern position
    }
    for (std::uint64_t n = r.u64(); n > 0; --n)
        for (int word = 0; word < 1 + 4; ++word)
            r.u64(); // jump site and its rng
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        streamIds.push_back(r.u32());
        for (int word = 0; word < 4 + 2; ++word)
            r.u64(); // rng, stride offset, last address
    }
    EXPECT_TRUE(r.atEnd());
    return {branchIds, streamIds};
}

TEST(Ckpt, TraceStateListsModelsInAscendingIdOrder)
{
    const prog::MachProgram bin = descendingTouchBinary();
    ASSERT_EQ(bin.streams.size(), 3u);
    ASSERT_EQ(bin.branchModels.size(), 3u);
    using Ids = std::vector<std::uint32_t>;
    std::vector<Ids> branchLists, streamLists;
    exec::ProgramTrace trace(bin, kTraceSeed, kMaxInsts);
    exec::DynInst di;
    while (trace.next(di)) {
        ckpt::Writer w;
        trace.saveState(w);
        const std::string state = w.take();
        const auto [branchIds, streamIds] = listedModelIds(state);
        if (branchLists.empty() || branchLists.back() != branchIds)
            branchLists.push_back(branchIds);
        if (streamLists.empty() || streamLists.back() != streamIds)
            streamLists.push_back(streamIds);

        // The state restores, and re-saves byte for byte.
        exec::ProgramTrace restored(bin, kTraceSeed, kMaxInsts);
        ckpt::Reader r(state);
        restored.loadState(r);
        ckpt::Writer again;
        restored.saveState(again);
        EXPECT_TRUE(again.data() == state) << "after seq " << di.seq;
    }
    // Each id joins the list where it sorts, not where it was touched.
    const std::vector<Ids> growth = {{}, {2}, {1, 2}, {0, 1, 2}};
    EXPECT_EQ(branchLists, growth);
    EXPECT_EQ(streamLists, growth);
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

/** One in-flight record: each copy's cluster and slave role
 *  (copies[0] is the master). */
struct HandRecord
{
    std::vector<std::pair<std::uint8_t, isa::SlaveRole>> copies;
};

/** add r2 <- r3 + r4 on the default dual map: the master in cluster 0,
 *  a slave in cluster 1 forwarding r3. */
HandRecord
dualAdd()
{
    return {{{0, isa::SlaveRole{}}, {1, isa::SlaveRole{1, true, false, 1}}}};
}

/**
 * Values that replace the defaults of named fields in a hand-written
 * CORE section; a count names how many entries follow it (at most 1000
 * are written, so a huge count is all the restore sees).
 */
using Fields = std::map<std::string, std::uint64_t>;

/**
 * Restore a hand-written CORE section into a fresh dual-cluster
 * machine: an idle machine's header and default register map, the
 * records of `window`, then idle clusters and an empty fetch unit,
 * with the fields named in `fields` replaced. The payload ends with
 * the section, so one that passes every check fails at the TRAC tag.
 * Returns the error.
 */
std::string
coreRestoreError(const std::vector<HandRecord> &window,
                 const Fields &fields = {})
{
    const auto cfg = core::ProcessorConfig::dualCluster8();
    StatGroup sg("mca");
    exec::VectorTrace trace({});
    core::Processor proc(cfg, trace, sg);
    ckpt::SnapshotBuilder b(proc.configHash());
    b.section("CORE");
    ckpt::Writer &w = b.w();
    const auto field = [&](const char *name, std::uint64_t value) {
        const auto it = fields.find(name);
        return it == fields.end() ? value : it->second;
    };
    // Write a count field; returns how many entries to write after it.
    const auto count = [&](const char *name, std::uint64_t value) {
        const std::uint64_t n = field(name, value);
        w.u64(n);
        return std::min<std::uint64_t>(n, 1000);
    };
    exec::DynInst add;
    add.mi = isa::makeRRR(isa::Op::Add, isa::intReg(2), isa::intReg(3),
                          isa::intReg(4));
    // An operand field holds its record encoding (exec::kNoReg: none).
    const auto operand = [&](const char *name,
                             std::optional<isa::RegId> &reg) {
        const std::uint64_t v = field(name, exec::encodeReg(reg));
        reg.reset();
        if (v != exec::kNoReg)
            reg = isa::RegId(static_cast<isa::RegClass>(v >> 8), v & 0xff);
    };
    const auto writeInst = [&] {
        exec::DynInst di = add;
        di.mi.op = static_cast<isa::Op>(
            field("opcode", static_cast<std::uint8_t>(di.mi.op)));
        operand("dest", di.mi.dest);
        operand("src0", di.mi.srcs[0]);
        operand("src1", di.mi.srcs[1]);
        di.remapIndex = static_cast<std::uint32_t>(
            field("remap index", exec::DynInst::kNoRemap));
        exec::writeDynInst(w, di);
    };

    for (int i = 0; i < 4; ++i)
        w.u64(0); // cycle, stepped cycles, now, last progress
    w.u32(0);     // consecutive replays
    w.u64(kNoSeq); // mispredict block
    w.u64(kNoSeq); // replay request
    w.u32(2);
    w.u32(1u << isa::kStackPointer | 1u << isa::kGlobalPointer);
    w.u32(0);
    for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i)
        w.u8(static_cast<std::uint8_t>(field("home", 0xff)));
    for (std::uint64_t i = count("pending branches", 0); i > 0; --i) {
        w.u64(0); // seq
        w.u64(0); // pc
        w.b(false);
        w.b(false);
        w.u64(0); // write-back cycle
    }
    w.u64(window.size());
    for (const HandRecord &rec : window) {
        writeInst();
        w.b(true); // the master writes the destination
        const std::uint64_t n_copies = count("copies", rec.copies.size());
        for (std::uint64_t i = 0; i < std::min<std::uint64_t>(
                                          n_copies, rec.copies.size());
             ++i) {
            const auto &[cluster, role] = rec.copies[i];
            w.u8(cluster);
            w.b(i == 0);
            w.u8(static_cast<std::uint8_t>(
                field("role cluster", role.cluster)));
            w.b(role.forwardsOperand);
            w.b(role.receivesResult);
            w.u32(role.srcMask);
            for (std::uint64_t k = count("reads", 1); k > 0; --k) {
                w.u8(static_cast<std::uint8_t>(field("read source", 0)));
                w.u8(static_cast<std::uint8_t>(
                    field("read cluster", cluster)));
                w.u8(static_cast<std::uint8_t>(field("read class", 0)));
                w.u16(static_cast<std::uint16_t>(field("read phys", 0)));
            }
            for (std::uint64_t k = count("rtb clusters", 0); k > 0; --k)
                w.u8(static_cast<std::uint8_t>(field("rtb cluster", 0)));
            w.b(true); // in the queue
            for (int f = 0; f < 4; ++f)
                w.b(false); // issued, suspended, woke, holds an OTB entry
            for (int f = 0; f < 3; ++f)
                w.u64(kNoCycle); // issue, completion, buffer-block cycles
        }
        for (std::uint64_t k = count("renames", 1); k > 0; --k) {
            w.u8(static_cast<std::uint8_t>(field("rename cluster", 0)));
            w.u8(static_cast<std::uint8_t>(field("rename class", 0)));
            w.u8(static_cast<std::uint8_t>(field("rename arch", 2)));
            w.u16(static_cast<std::uint16_t>(field("rename new", 0)));
            w.u16(static_cast<std::uint16_t>(field("rename prev", 1)));
        }
        w.u64(0);      // dispatch cycle
        w.u32(0);      // master latency
        w.u64(kNoSeq); // memory dependence
        for (int f = 0; f < 5; ++f)
            w.b(false); // miss, memory-bound, branch, taken, mispredicted
    }
    for (unsigned c = 0; c < cfg.numClusters; ++c) {
        for (const unsigned n_phys : {cfg.physIntRegs, cfg.physFpRegs}) {
            w.u64(n_phys);
            for (unsigned p = 0; p < n_phys; ++p)
                w.u64(0); // ready cycle
            for (std::uint64_t k = count("free list", 1); k > 0; --k)
                w.u16(static_cast<std::uint16_t>(field("free reg", 0)));
        }
        for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i)
            w.u16(static_cast<std::uint16_t>(field("rename map", 0)));
        for (unsigned i = 0; i < 2 * isa::kNumArchRegs; ++i)
            w.b(false); // mapped
        for (const char *buf : {"otb", "rtb"}) {
            w.u32(static_cast<std::uint32_t>(
                field((std::string(buf) + " in use").c_str(), 0)));
            for (std::uint64_t k =
                     count((std::string(buf) + " pending").c_str(), 0);
                 k > 0; --k)
                w.u64(0);
        }
        // One divider per FP divide issue slot, at least one.
        const unsigned n_div = std::max(1u, cfg.issueRules.fpDiv);
        w.u64(n_div);
        for (unsigned d = 0; d < n_div; ++d)
            w.u64(0);
    }
    for (std::uint64_t k = count("fetch buffer", 0); k > 0; --k)
        writeInst();
    w.b(false); // no pending fetch
    w.b(false); // trace not ended
    w.u64(0);   // stall window
    w.u64(0);   // icache ready
    w.u64(~0ull); // last fetch block
    w.b(false);   // no icache miss pending
    w.u64(0);     // its block
    w.u8(static_cast<std::uint8_t>(field("block reason", 0)));
    const ckpt::Snapshot snap = b.finish();
    ckpt::SnapshotParser p(snap, proc.configHash());
    try {
        proc.loadState(p);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

/** The restore got through the whole CORE section. */
bool
passesCore(const std::string &error)
{
    return error == "checkpoint: truncated before section 'TRAC'";
}

TEST(Ckpt, InFlightRecordDisagreeingWithItsCopiesIsRejected)
{
    // The hand-written layout reads through the section while every
    // record agrees with itself and the machine.
    EXPECT_PRED1(passesCore, coreRestoreError({dualAdd(), dualAdd()}));

    EXPECT_EQ(coreRestoreError({HandRecord{}}),
              "checkpoint: in-flight record has no copies");

    HandRecord far = dualAdd();
    far.copies[1] = {2, isa::SlaveRole{2, true, false, 1}};
    EXPECT_EQ(coreRestoreError({far}), "checkpoint: copy cluster out of range");
}

TEST(Ckpt, DispatchQueueRowsBeyondCapacityAreRejected)
{
    // Every copy of the window is in its queue: a window of `cap` dual
    // records fills both queues, one more overfills them.
    const std::size_t cap =
        core::ProcessorConfig::dualCluster8().dispatchQueueEntries;
    EXPECT_PRED1(passesCore,
                 coreRestoreError(std::vector<HandRecord>(cap, dualAdd())));
    EXPECT_EQ(coreRestoreError(std::vector<HandRecord>(cap + 1, dualAdd())),
              "checkpoint: dispatch queue occupancy exceeds its capacity");
}

TEST(Ckpt, CoreRestoreBoundsEveryCountAndId)
{
    // Each case replaces one field of the valid section; the restore
    // must name it before sizing or indexing anything by it (a 2^60
    // count must not reach a resize). dual8: 2 clusters, 64 physical
    // registers per file, 8 OTB entries.
    const std::uint64_t huge = 1ull << 60;
    const struct
    {
        const char *field;
        std::uint64_t value;
        const char *error;
    } cases[] = {
        {"home", 2, "register home cluster out of range"},
        {"pending branches", huge, "pending branch count out of range"},
        {"opcode", 250, "record field opcode has invalid value 250"},
        {"remap index", 0, "record field remapIndex has invalid value 0"},
        {"copies", 3, "copy count out of range"},
        {"copies", huge, "copy count out of range"},
        {"role cluster", 2, "slave role cluster out of range"},
        {"reads", 3, "source read count out of range"},
        {"reads", huge, "source read count out of range"},
        {"read source", 2, "read source index out of range"},
        {"read cluster", 2, "read cluster out of range"},
        {"read class", 2, "register class out of range"},
        {"read phys", 64, "read physical register out of range"},
        {"rtb clusters", 3, "RTB cluster count out of range"},
        {"rtb clusters", huge, "RTB cluster count out of range"},
        {"rtb cluster", 2, "RTB cluster out of range"},
        {"renames", 3, "rename count out of range"},
        {"renames", huge, "rename count out of range"},
        {"rename cluster", 2, "rename cluster out of range"},
        {"rename class", 7, "register class out of range"},
        {"rename arch", 32, "rename register out of range"},
        {"rename new", 64, "rename physical register out of range"},
        {"rename prev", 64, "rename physical register out of range"},
        {"free list", 65, "free-list length out of range"},
        {"free list", huge, "free-list length out of range"},
        {"free reg", 64, "free-list physical register out of range"},
        {"rename map", 64, "rename-map physical register out of range"},
        {"otb in use", 9, "transfer-buffer occupancy out of range"},
        {"rtb pending", huge, "transfer-buffer pending frees out of range"},
        {"fetch buffer", huge, "fetch buffer count out of range"},
        {"block reason", 7, "fetch block reason out of range"},
    };
    // The window records' fields and the fetch buffer's, which a
    // replay can fill past its capacity with the squashed window.
    const std::uint64_t past_capacity =
        core::ProcessorConfig::dualCluster8().fetchBufferEntries + 1;
    EXPECT_PRED1(passesCore,
                 coreRestoreError({dualAdd()},
                                  {{"rtb clusters", 1},
                                   {"fetch buffer", past_capacity}}));
    for (const auto &c : cases) {
        Fields fields = {{c.field, c.value}};
        if (std::string(c.field) == "rtb cluster")
            fields["rtb clusters"] = 1;
        EXPECT_EQ(coreRestoreError({dualAdd()}, fields),
                  std::string("checkpoint: ") + c.error)
            << c.field << " = " << c.value;
    }
    // A fetch-buffer record goes through the same codec.
    EXPECT_EQ(coreRestoreError({}, {{"fetch buffer", 1}, {"opcode", 250}}),
              "checkpoint: record field opcode has invalid value 250");
}

TEST(Ckpt, IllFormedRecordShapesAreRejected)
{
    // Records whose every field decodes but whose operands do not fit
    // their opcode, in the window and in the fetch buffer.
    const std::uint64_t none = exec::kNoReg;
    const auto op = [](isa::Op o) { return static_cast<std::uint64_t>(o); };
    const struct
    {
        const char *name;
        Fields fields;
        const char *error;
    } cases[] = {
        {"store with no sources",
         {{"opcode", op(isa::Op::Stl)}, {"dest", none}, {"src0", none},
          {"src1", none}},
         "operand src0 does not fit opcode stl"},
        {"load with no destination",
         {{"opcode", op(isa::Op::Ldl)}, {"dest", none}, {"src1", none}},
         "operand dest does not fit opcode ldl"},
        {"src1 without src0", {{"src0", none}},
         "operand src0 does not fit opcode add"},
        {"fp destination on an integer add", {{"dest", 1u << 8 | 2}},
         "operand dest does not fit opcode add"},
    };
    for (const auto &c : cases) {
        const std::string want = std::string("checkpoint: record ") + c.error;
        EXPECT_EQ(coreRestoreError({dualAdd()}, c.fields), want) << c.name;
        Fields fetched = c.fields;
        fetched["fetch buffer"] = 1;
        EXPECT_EQ(coreRestoreError({}, fetched), want) << c.name;
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
