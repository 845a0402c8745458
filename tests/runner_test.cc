/**
 * @file
 * Tests for the campaign runner (src/runner): grid expansion, spec-hash
 * stability, cache hit/miss behaviour, determinism across worker
 * widths, timeout/failure capture, and the named studies.
 */

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include <gtest/gtest.h>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "obs/cycle_stack.hh"
#include "obs/json.hh"
#include "runner/campaign.hh"
#include "runner/artifact_store.hh"
#include "runner/emit.hh"
#include "runner/flags.hh"
#include "runner/study.hh"
#include "runner/table2.hh"
#include "runner/thread_pool.hh"
#include "support/table.hh"
#include "table2_reference.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using runner::JobResult;
using runner::JobSpec;
using runner::JobStatus;

/** Tiny spec that compiles and simulates in a few milliseconds. */
JobSpec
tinySpec()
{
    JobSpec spec;
    spec.benchmark = "compress";
    spec.scale = 0.05;
    spec.maxInsts = 10'000;
    return spec;
}

/** Self-cleaning temporary directory for cache tests. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("mca_runner_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

TEST(GridExpansion, CrossProductOrderAndSize)
{
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.thresholds = {2, 4};
    grid.traceSeeds = {1, 2, 3};

    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 2u * 2u * 2u * 2u * 3u);

    // Nesting order: benchmark (outer) ... traceSeed (inner).
    EXPECT_EQ(specs[0].benchmark, "compress");
    EXPECT_EQ(specs[0].machine, "single8");
    EXPECT_EQ(specs[0].scheduler, "native");
    EXPECT_EQ(specs[0].threshold, 2u);
    EXPECT_EQ(specs[0].traceSeed, 1u);
    EXPECT_EQ(specs[1].traceSeed, 2u);
    EXPECT_EQ(specs[3].threshold, 4u);
    EXPECT_EQ(specs.back().benchmark, "ora");
    EXPECT_EQ(specs.back().scheduler, "local");
    EXPECT_EQ(specs.back().traceSeed, 3u);

    // Every spec is distinct.
    std::set<std::string> keys;
    for (const auto &spec : specs)
        keys.insert(spec.canonicalKey());
    EXPECT_EQ(keys.size(), specs.size());
}

TEST(GridExpansion, SharedParametersReachEverySpec)
{
    runner::CampaignGrid grid;
    grid.scale = 0.75;
    grid.unroll = 3;
    grid.predictor = "gshare";
    grid.maxInsts = 1234;
    grid.maxCycles = 9999;
    grid.traceSeeds = {7};

    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_DOUBLE_EQ(specs[0].scale, 0.75);
    EXPECT_EQ(specs[0].unroll, 3u);
    EXPECT_EQ(specs[0].predictor, "gshare");
    EXPECT_EQ(specs[0].maxInsts, 1234u);
    EXPECT_EQ(specs[0].maxCycles, 9999u);
    // profileSeed follows traceSeed by default (Table-2 convention).
    EXPECT_EQ(specs[0].profileSeed, 7u);
}

TEST(GridExpansion, EmptyAxisThrows)
{
    runner::CampaignGrid grid;
    grid.machines.clear();
    EXPECT_THROW(runner::expandGrid(grid), std::runtime_error);
}

TEST(JobSpecHash, StableAndCanonical)
{
    const JobSpec a = tinySpec();
    JobSpec b = tinySpec();
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());

    // 16 lowercase hex digits.
    EXPECT_EQ(a.contentHash().size(), 16u);
    EXPECT_EQ(a.contentHash().find_first_not_of("0123456789abcdef"),
              std::string::npos);

    // The hash is a pure function of the spec: copies agree across
    // separate constructions, and the key round-trips every field that
    // can affect the outcome.
    EXPECT_NE(a.canonicalKey().find("benchmark=compress"),
              std::string::npos);
    EXPECT_NE(a.canonicalKey().find("max_insts=10000;"), std::string::npos);
}

TEST(JobSpecHash, EveryOutcomeFieldChangesTheHash)
{
    const JobSpec base = tinySpec();
    std::set<std::string> hashes = {base.contentHash()};

    auto expectFresh = [&](JobSpec spec, const char *field) {
        const auto inserted = hashes.insert(spec.contentHash()).second;
        EXPECT_TRUE(inserted) << "field did not alter the hash: " << field;
    };

    JobSpec s = base;
    s.benchmark = "ora";
    expectFresh(s, "benchmark");
    s = base;
    s.scale = 0.051;
    expectFresh(s, "scale");
    s = base;
    s.machine = "single8";
    expectFresh(s, "machine");
    s = base;
    s.scheduler = "native";
    expectFresh(s, "scheduler");
    s = base;
    s.threshold = 5;
    expectFresh(s, "threshold");
    s = base;
    s.unroll = 2;
    expectFresh(s, "unroll");
    s = base;
    s.predictor = "bimodal";
    expectFresh(s, "predictor");
    s = base;
    s.traceSeed = 43;
    expectFresh(s, "traceSeed");
    s = base;
    s.profileSeed = 43;
    expectFresh(s, "profileSeed");
    s = base;
    s.maxInsts = 10'001;
    expectFresh(s, "maxInsts");
    s = base;
    s.maxCycles = 10'000;
    expectFresh(s, "maxCycles");
    s = base;
    s.l2Kb = 256;
    expectFresh(s, "l2Kb");
    s = base;
    s.l2Lat = 7;
    expectFresh(s, "l2Lat");
    s = base;
    s.memLat = 17;
    expectFresh(s, "memLat");
    s = base;
    s.fillPorts = 1;
    expectFresh(s, "fillPorts");
    s = base;
    s.samplePeriod = 20'000;
    expectFresh(s, "samplePeriod");
    s = base;
    s.sampleDetail = 4'000;
    expectFresh(s, "sampleDetail");
    s = base;
    s.sampleWarmup = 1'000;
    expectFresh(s, "sampleWarmup");
    // The machine overrides: 0/empty/false keeps the machine's value,
    // so any other value is a different point.
    s = base;
    s.dqEntries = 16;
    expectFresh(s, "dqEntries");
    s = base;
    s.otbEntries = 2;
    expectFresh(s, "otbEntries");
    s = base;
    s.rtbEntries = 3;
    expectFresh(s, "rtbEntries");
    s = base;
    s.mshrEntries = 4;
    expectFresh(s, "mshrEntries");
    s = base;
    s.icacheKb = 8;
    expectFresh(s, "icacheKb");
    s = base;
    s.dcacheKb = 16;
    expectFresh(s, "dcacheKb");
    s = base;
    s.queueMode = "rs";
    expectFresh(s, "queueMode");
    s = base;
    s.specHistory = true;
    expectFresh(s, "specHistory");
    s = base;
    s.reserveOldest = true;
    expectFresh(s, "reserveOldest");
}

TEST(RunJob, InvalidSpecsAreCapturedNotFatal)
{
    JobSpec spec = tinySpec();
    spec.benchmark = "nonesuch";
    const JobResult result = runner::runJob(spec);
    EXPECT_EQ(result.status, JobStatus::Failed);
    EXPECT_NE(result.error.find("nonesuch"), std::string::npos);
    // The error names the valid choices so scripts can self-correct.
    EXPECT_NE(result.error.find("compress"), std::string::npos);

    spec = tinySpec();
    spec.machine = "hex16";
    EXPECT_EQ(runner::runJob(spec).status, JobStatus::Failed);

    spec = tinySpec();
    spec.scheduler = "global";
    EXPECT_EQ(runner::runJob(spec).status, JobStatus::Failed);

    spec = tinySpec();
    spec.predictor = "oracle";
    EXPECT_EQ(runner::runJob(spec).status, JobStatus::Failed);
}

TEST(RunJob, CycleBudgetExhaustionIsTimeout)
{
    JobSpec spec = tinySpec();
    spec.maxCycles = 500; // far below what the trace needs
    const JobResult result = runner::runJob(spec);
    EXPECT_EQ(result.status, JobStatus::TimedOut);
    EXPECT_EQ(result.cycles, 500u);
    EXPECT_NE(result.error.find("cycle budget"), std::string::npos);
}

/**
 * A point whose replays never let the oldest instruction retire: two
 * OTB entries per cluster on the 4-cluster machine.
 */
JobSpec
replayLivelockSpec()
{
    JobSpec spec;
    spec.benchmark = "tomcatv";
    spec.machine = "quad8";
    spec.otbEntries = 2;
    spec.maxInsts = 20'000;
    return spec;
}

TEST(RunJob, ReplayLivelockFailsByName)
{
    const JobResult result = runner::runJob(replayLivelockSpec());
    EXPECT_EQ(result.status, JobStatus::Failed);
    EXPECT_NE(result.error.find("replay exceptions are not making "
                                "progress (seq 35, 17 replays"),
              std::string::npos)
        << result.error;
}

TEST(Campaign, ReplayLivelockFailsOnlyItsJob)
{
    const std::vector<JobSpec> specs = {replayLivelockSpec(), tinySpec()};
    runner::CampaignOptions options;
    runner::CampaignSummary summary;
    const auto results = runner::runCampaign(specs, options, &summary);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Failed);
    EXPECT_NE(results[0].error.find("not making progress"),
              std::string::npos);
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_EQ(results[1].retired, 10'000u);
    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);
}

TEST(Campaign, FailuresDoNotAbortTheCampaign)
{
    std::vector<JobSpec> specs(3, tinySpec());
    specs[1].benchmark = "nonesuch";   // fails validation
    specs[2].maxCycles = 500;          // times out

    runner::CampaignOptions options;
    runner::CampaignSummary summary;
    const auto results = runner::runCampaign(specs, options, &summary);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Failed);
    EXPECT_EQ(results[2].status, JobStatus::TimedOut);
    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.timedOut, 1u);
    EXPECT_EQ(summary.total, 3u);
}

TEST(Campaign, DeterministicAcrossJobWidths)
{
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.scale = 0.05;
    grid.maxInsts = 10'000;
    const auto specs = runner::expandGrid(grid);

    runner::CampaignOptions serial;
    serial.jobs = 1;
    runner::CampaignOptions wide;
    wide.jobs = 4;

    const auto a = runner::runCampaign(specs, serial);
    const auto b = runner::runCampaign(specs, wide);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.canonicalKey(), b[i].spec.canonicalKey());
        EXPECT_EQ(a[i].status, b[i].status) << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << i;
        EXPECT_EQ(a[i].retired, b[i].retired) << i;
        EXPECT_EQ(a[i].distSingle, b[i].distSingle) << i;
        EXPECT_EQ(a[i].distDual, b[i].distDual) << i;
        EXPECT_EQ(a[i].replays, b[i].replays) << i;
        EXPECT_DOUBLE_EQ(a[i].ipc, b[i].ipc) << i;
        EXPECT_DOUBLE_EQ(a[i].bpredAccuracy, b[i].bpredAccuracy) << i;
    }
}

TEST(Campaign, ResultCacheHitsAndMisses)
{
    const TempDir dir("cache");
    runner::CampaignOptions options;
    options.cacheDir = dir.str();

    std::vector<JobSpec> specs = {tinySpec()};
    const auto first = runner::runCampaign(specs, options);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].status, JobStatus::Ok);
    EXPECT_FALSE(first[0].fromCache);

    // Identical spec: served from cache, identical numbers.
    const auto second = runner::runCampaign(specs, options);
    EXPECT_TRUE(second[0].fromCache);
    EXPECT_EQ(second[0].cycles, first[0].cycles);
    EXPECT_EQ(second[0].retired, first[0].retired);
    EXPECT_DOUBLE_EQ(second[0].ipc, first[0].ipc);
    EXPECT_EQ(second[0].spillLoads, first[0].spillLoads);

    // Changed point: miss, fresh simulation.
    specs[0].traceSeed = 43;
    const auto third = runner::runCampaign(specs, options);
    EXPECT_FALSE(third[0].fromCache);
}

TEST(Campaign, CacheRejectsMismatchedKey)
{
    const TempDir dir("collide");
    const JobSpec spec = tinySpec();
    const JobResult result = runner::runJob(spec);
    const runner::ArtifactStore store(dir.str());
    store.storeResult(result);

    // Corrupt the stored key: the loader must treat it as a miss (this
    // is the collision-safety path — hash matches, key does not).
    const std::string path = store.resultPath(spec);
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    const auto pos = contents.find("benchmark=compress");
    ASSERT_NE(pos, std::string::npos);
    contents.replace(pos, 18, "benchmark=tampered");
    std::ofstream(path, std::ios::trunc) << contents;

    EXPECT_FALSE(store.loadResult(spec).has_value());
}

TEST(Campaign, FailedJobsAreNotCached)
{
    const TempDir dir("nofail");
    runner::CampaignOptions options;
    options.cacheDir = dir.str();

    std::vector<JobSpec> specs = {tinySpec()};
    specs[0].benchmark = "nonesuch";
    const auto first = runner::runCampaign(specs, options);
    EXPECT_EQ(first[0].status, JobStatus::Failed);
    const auto second = runner::runCampaign(specs, options);
    EXPECT_FALSE(second[0].fromCache); // retried, not replayed
}

TEST(Campaign, TimeoutsAreCached)
{
    const TempDir dir("timeout");
    runner::CampaignOptions options;
    options.cacheDir = dir.str();

    std::vector<JobSpec> specs = {tinySpec()};
    specs[0].maxCycles = 500;
    const auto first = runner::runCampaign(specs, options);
    EXPECT_EQ(first[0].status, JobStatus::TimedOut);
    const auto second = runner::runCampaign(specs, options);
    EXPECT_TRUE(second[0].fromCache);
    EXPECT_EQ(second[0].status, JobStatus::TimedOut);
}

TEST(Campaign, ProgressCallbackSeesEveryJob)
{
    std::vector<JobSpec> specs(4, tinySpec());
    specs[1].traceSeed = 43;
    specs[2].traceSeed = 44;
    specs[3].traceSeed = 45;

    runner::CampaignOptions options;
    options.jobs = 2;
    std::size_t calls = 0;
    std::size_t lastFinished = 0;
    options.onResult = [&](std::size_t finished, std::size_t total,
                           const JobResult &) {
        ++calls;
        EXPECT_EQ(total, 4u);
        EXPECT_GT(finished, lastFinished); // monotone under the lock
        lastFinished = finished;
    };
    runner::runCampaign(specs, options);
    EXPECT_EQ(calls, 4u);
}

TEST(Table2Campaign, MatchesTheCheckedInReference)
{
    harness::ExperimentOptions opt;
    opt.workload.scale = 0.05;
    opt.maxInsts = 20'000;

    runner::CampaignOptions campaign;
    campaign.jobs = 3;
    const auto result = runner::runTable2Campaign(opt, campaign);
    ASSERT_EQ(result.rows.size(), workloads::allBenchmarks().size());
    ASSERT_EQ(result.jobs.size(), 3 * result.rows.size());

    // The reference lists each benchmark's single/native, dual/native
    // and dual/local jobs in that order, at this scale and length.
    const auto &reference = tests::kTable2Reference;
    ASSERT_EQ(std::size(reference), result.jobs.size());
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const auto &single = reference[3 * i];
        const auto &none = reference[3 * i + 1];
        const auto &local = reference[3 * i + 2];
        SCOPED_TRACE(single.benchmark);
        ASSERT_STREQ(single.machine, "single8");
        ASSERT_STREQ(none.scheduler, "native");
        ASSERT_STREQ(local.scheduler, "local");

        const auto &row = result.rows[i];
        EXPECT_EQ(row.benchmark, single.benchmark);
        EXPECT_EQ(row.single.cycles, single.cycles);
        EXPECT_EQ(row.dualNone.cycles, none.cycles);
        EXPECT_EQ(row.dualLocal.cycles, local.cycles);
        // Table 2's percentage: 100 - 100 * (C_dual / C_single).
        const auto pct = [&](std::uint64_t dual) {
            return 100.0 - 100.0 * (static_cast<double>(dual) /
                                    static_cast<double>(single.cycles));
        };
        EXPECT_DOUBLE_EQ(row.pctNone, pct(none.cycles));
        EXPECT_DOUBLE_EQ(row.pctLocal, pct(local.cycles));
    }
}

/** The keys of one flat JSON object, in order. */
std::vector<std::string>
jsonKeys(const std::string &line)
{
    std::vector<std::string> keys;
    std::string token;
    bool inString = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (!inString) {
            inString = c == '"';
            token.clear();
        } else if (c == '\\') {
            token += line[++i];
        } else if (c != '"') {
            token += c;
        } else {
            inString = false;
            if (i + 1 < line.size() && line[i + 1] == ':')
                keys.push_back(token);
        }
    }
    return keys;
}

/** The cells of one CSV line (no quoted commas in these records). */
std::vector<std::string>
csvCells(const std::string &line)
{
    std::vector<std::string> cells;
    std::istringstream in(line);
    for (std::string cell; std::getline(in, cell, ',');)
        cells.push_back(cell);
    return cells;
}

TEST(Emit, JsonAndCsvShapes)
{
    const JobResult result = runner::runJob(tinySpec());
    ASSERT_EQ(result.status, JobStatus::Ok);
    JobSpec sampledSpec = tinySpec();
    sampledSpec.samplePeriod = 5'000;
    sampledSpec.sampleDetail = 2'000;
    sampledSpec.sampleWarmup = 1'000;
    const JobResult sampled = runner::runJob(sampledSpec);
    ASSERT_EQ(sampled.status, JobStatus::Ok) << sampled.error;
    ASSERT_TRUE(sampled.sampled);

    std::ostringstream json;
    runner::emitJsonLine(json, result);
    const std::string line = json.str();
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"benchmark\":\"compress\""), std::string::npos);
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(line.find("\"cycles\":" + std::to_string(result.cycles)),
              std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::ostringstream csv;
    runner::emitCsv(csv, {result, sampled});
    std::istringstream csvLines(csv.str());
    std::string headerLine, fullRow, sampledRow, extra;
    ASSERT_TRUE(std::getline(csvLines, headerLine));
    ASSERT_TRUE(std::getline(csvLines, fullRow));
    ASSERT_TRUE(std::getline(csvLines, sampledRow));
    EXPECT_FALSE(std::getline(csvLines, extra));
    const std::vector<std::string> header = csvCells(headerLine);

    // Both formats carry one column list in one order, sampled or not,
    // including the sample axes, the sampled-run extras and the
    // machine overrides.
    for (const std::string name :
         {"hash", "sample_period", "sampled", "cpi_ci95", "otb_entries",
          "from_cache"})
        EXPECT_EQ(std::count(header.begin(), header.end(), name), 1)
            << name;
    std::ostringstream sampledJson;
    runner::emitJsonLine(sampledJson, sampled);
    for (const std::string &text : {line, sampledJson.str()}) {
        std::string error;
        EXPECT_TRUE(obs::isValidJson(text, &error)) << error;
        EXPECT_EQ(jsonKeys(text), header);
    }

    // Header column count == row column count, and the row says which
    // run was sampled.
    const auto column = [&](const std::string &name) {
        return static_cast<std::size_t>(
            std::find(header.begin(), header.end(), name) - header.begin());
    };
    for (const std::string &row : {fullRow, sampledRow})
        ASSERT_EQ(csvCells(row).size(), header.size());
    EXPECT_EQ(csvCells(fullRow)[column("sampled")], "false");
    EXPECT_EQ(csvCells(sampledRow)[column("sampled")], "true");
    EXPECT_EQ(csvCells(sampledRow)[column("sample_period")], "5000");
}

TEST(ArtifactStoreTest, OneBuildPerKey)
{
    runner::ArtifactStore store;
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        const auto p = workloads::makeCompress(
            workloads::WorkloadParams{0.05});
        return compiler::compile(
            p, compiler::compileOptionsFor("native", 1));
    };

    bool hit = true;
    const auto first = store.getOrCompile("k1", build, &hit);
    EXPECT_FALSE(hit);
    const auto again = store.getOrCompile("k1", build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), again.get()); // literally the same output
    store.getOrCompile("k2", build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(builds, 2);

    const auto stats = store.stats();
    EXPECT_EQ(stats.compileLookups, 3u);
    EXPECT_EQ(stats.compileHits, 1u);
    EXPECT_EQ(stats.compiles, 2u);
}

TEST(ArtifactStoreTest, BuilderExceptionReachesEveryWaiter)
{
    runner::ArtifactStore store;
    const auto boom = []() -> compiler::CompileOutput {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(store.getOrCompile("bad", boom), std::runtime_error);
    // The poisoned entry rethrows instead of re-running the builder.
    int builds = 0;
    EXPECT_THROW(store.getOrCompile(
                     "bad",
                     [&builds]() -> compiler::CompileOutput {
                         ++builds;
                         throw std::runtime_error("unreachable");
                     }),
                 std::runtime_error);
    EXPECT_EQ(builds, 0);
}

TEST(ArtifactStoreTest, KeyIgnoresMachineAndRunControlFields)
{
    JobSpec a = tinySpec();
    a.machine = "single8";
    JobSpec b = tinySpec();
    b.machine = "dual8";
    b.traceSeed = 99;
    b.maxInsts = 77;
    // Native compiles are cluster-blind, so both land on numClusters=1
    // and the key collapses across machines, seeds, and budgets.
    const auto copt = compiler::compileOptionsFor("native", 1);
    EXPECT_EQ(runner::ArtifactStore::compileKeyFor(a, copt),
              runner::ArtifactStore::compileKeyFor(b, copt));

    JobSpec scaled = tinySpec();
    scaled.scale = 0.1;
    EXPECT_NE(runner::ArtifactStore::compileKeyFor(a, copt),
              runner::ArtifactStore::compileKeyFor(scaled, copt));
    JobSpec other = tinySpec();
    other.benchmark = "ora";
    EXPECT_NE(runner::ArtifactStore::compileKeyFor(a, copt),
              runner::ArtifactStore::compileKeyFor(other, copt));
    EXPECT_NE(
        runner::ArtifactStore::compileKeyFor(
            a, compiler::compileOptionsFor("local", 2)),
        runner::ArtifactStore::compileKeyFor(a, copt));
}

/** A result with a non-default value in every listed field. */
JobResult
everyFieldSet()
{
    JobResult r;
    r.spec = tinySpec();
    r.status = JobStatus::TimedOut;
    r.error = "cycle budget exhausted (500 cycles)";
    r.cycles = 500;
    r.retired = 401;
    r.ipc = 0.802;
    r.distSingle = 301;
    r.distDual = 100;
    r.operandForwards = 17;
    r.resultForwards = 19;
    r.replays = 3;
    r.issueDisorder = 23;
    r.bpredAccuracy = 0.9375;
    r.dcacheMissRate = 1.0 / 3.0;
    r.icacheMissRate = 0.015625;
    r.l2MissRate = 0.1;
    r.spillLoads = 5;
    r.spillStores = 6;
    r.otherClusterSpills = 2;
    r.partitionCut = 1234;
    r.partitionBalance = 1.0625;
    r.stackSlots = 8;
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        r.stackSlotCycles[i] = 1000 + i;
    r.sampled = true;
    r.sampledIntervals = 7;
    r.cpiCi95 = 0.0123456789012345;
    r.wallMs = 42.5;
    return r;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(ArtifactStoreTest, StoredResultRoundTripsEveryField)
{
    const JobResult result = everyFieldSet();
    // Every listed field differs from its default, so a field the store
    // dropped would come back changed.
    std::vector<std::string> set, unset;
    runner::forEachField(result, [&](std::string_view, const auto &v) {
        set.push_back(runner::fieldText(v));
    });
    const JobResult defaults;
    runner::forEachField(defaults, [&](std::string_view, const auto &v) {
        unset.push_back(runner::fieldText(v));
    });
    ASSERT_EQ(set.size(), unset.size());
    for (std::size_t i = 0; i < set.size(); ++i)
        EXPECT_NE(set[i], unset[i]) << "field " << i << " left at default";

    const TempDir dir("roundtrip");
    const runner::ArtifactStore store(dir.str());
    store.storeResult(result);
    const auto back = store.loadResult(result.spec);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->fromCache);
    EXPECT_EQ(back->spec.canonicalKey(), result.spec.canonicalKey());
    EXPECT_EQ(back->status, JobStatus::TimedOut);
    EXPECT_EQ(back->error, result.error);
    EXPECT_EQ(back->cycles, result.cycles);
    EXPECT_EQ(back->retired, result.retired);
    EXPECT_EQ(back->ipc, result.ipc);
    EXPECT_EQ(back->distSingle, result.distSingle);
    EXPECT_EQ(back->distDual, result.distDual);
    EXPECT_EQ(back->operandForwards, result.operandForwards);
    EXPECT_EQ(back->resultForwards, result.resultForwards);
    EXPECT_EQ(back->replays, result.replays);
    EXPECT_EQ(back->issueDisorder, result.issueDisorder);
    EXPECT_EQ(back->bpredAccuracy, result.bpredAccuracy);
    EXPECT_EQ(back->dcacheMissRate, result.dcacheMissRate);
    EXPECT_EQ(back->icacheMissRate, result.icacheMissRate);
    EXPECT_EQ(back->l2MissRate, result.l2MissRate);
    EXPECT_EQ(back->spillLoads, result.spillLoads);
    EXPECT_EQ(back->spillStores, result.spillStores);
    EXPECT_EQ(back->otherClusterSpills, result.otherClusterSpills);
    EXPECT_EQ(back->partitionCut, result.partitionCut);
    EXPECT_EQ(back->partitionBalance, result.partitionBalance);
    EXPECT_EQ(back->stackSlots, result.stackSlots);
    EXPECT_EQ(back->stackSlotCycles, result.stackSlotCycles);
    EXPECT_EQ(back->sampled, result.sampled);
    EXPECT_EQ(back->sampledIntervals, result.sampledIntervals);
    EXPECT_EQ(back->cpiCi95, result.cpiCi95);
    EXPECT_EQ(back->wallMs, result.wallMs);
}

TEST(ArtifactStoreTest, OlderFormatOrMalformedEntryIsAMiss)
{
    const JobResult result = everyFieldSet();
    const TempDir dir("v6");
    const runner::ArtifactStore store(dir.str());
    store.storeResult(result);
    const std::string path = store.resultPath(result.spec);
    const std::string v7 = readFile(path);
    ASSERT_EQ(v7.rfind("version\t7\n", 0), 0u);
    ASSERT_TRUE(store.loadResult(result.spec).has_value());

    // A v6 entry carrying the right key and every field is still a miss.
    std::string v6 = v7;
    v6.replace(0, 9, "version\t6");
    std::ofstream(path, std::ios::trunc) << v6;
    EXPECT_FALSE(store.loadResult(result.spec).has_value());

    // So is a v7 entry with one value that does not parse whole, or one
    // with a field missing.
    std::string garbled = v7;
    const auto cycles = garbled.find("\ncycles\t500\n");
    ASSERT_NE(cycles, std::string::npos);
    garbled.insert(cycles + 11, "x");
    std::ofstream(path, std::ios::trunc) << garbled;
    EXPECT_FALSE(store.loadResult(result.spec).has_value());
    std::string missing = v7;
    missing.erase(cycles + 1, 11);
    std::ofstream(path, std::ios::trunc) << missing;
    EXPECT_FALSE(store.loadResult(result.spec).has_value());
}

TEST(Campaign, CompileCacheSharesCompilesAcrossTheGrid)
{
    // 2 benchmarks x {single8, dual8} x {native, local} x the `memory`
    // study's {no L2, 256 KB L2} x {8, 16, 32}-cycle memory = 48 jobs
    // but only 4 distinct compiles: native is cluster-blind, `local` on
    // a single-cluster machine degrades to the native compile, and the
    // memory hierarchy is not part of the compile key.
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.l2Kbs = {0, 256};
    grid.memLats = {8, 16, 32};
    grid.scale = 0.05;
    grid.maxInsts = 10'000;
    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 48u);

    runner::CampaignOptions options;
    options.jobs = 4;
    runner::CampaignSummary summary;
    const auto cached = runner::runCampaign(specs, options, &summary);
    EXPECT_EQ(summary.compiles, 4u);
    EXPECT_EQ(summary.compileHits, 44u);
    EXPECT_EQ(summary.compiles + summary.compileHits, specs.size());

    // Shared compiles change nothing observable: results match an
    // uncached serial run field for field.
    runner::CampaignOptions uncached;
    uncached.jobs = 1;
    uncached.compileCache = false;
    runner::CampaignSummary usummary;
    const auto plain = runner::runCampaign(specs, uncached, &usummary);
    EXPECT_EQ(usummary.compiles, 0u);
    EXPECT_EQ(usummary.compileHits, 0u);
    ASSERT_EQ(plain.size(), cached.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].status, cached[i].status) << i;
        EXPECT_EQ(plain[i].cycles, cached[i].cycles) << i;
        EXPECT_EQ(plain[i].retired, cached[i].retired) << i;
        EXPECT_EQ(plain[i].spillLoads, cached[i].spillLoads) << i;
        EXPECT_EQ(plain[i].spillStores, cached[i].spillStores) << i;
        EXPECT_DOUBLE_EQ(plain[i].ipc, cached[i].ipc) << i;
        EXPECT_EQ(plain[i].stackSlotCycles, cached[i].stackSlotCycles) << i;
    }
}

/** The body cells of a printed TextTable, one vector per row. */
std::vector<std::vector<std::string>>
tableRows(const std::string &text)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("| ", 0) != 0)
            continue;
        std::vector<std::string> cells;
        std::istringstream cellsIn(line.substr(1));
        for (std::string cell; std::getline(cellsIn, cell, '|');) {
            cell.erase(0, cell.find_first_not_of(' '));
            cell.erase(cell.find_last_not_of(' ') + 1);
            cells.push_back(cell);
        }
        rows.push_back(std::move(cells));
    }
    if (!rows.empty())
        rows.erase(rows.begin()); // the header
    return rows;
}

TEST(Study, RegistryNamesPointsAndColumnsAreValid)
{
    std::set<std::string> columns;
    runner::forEachColumn(JobResult{}, [&](std::string_view name,
                                           const auto &) {
        columns.emplace(name);
    });
    std::set<std::string> names;
    for (const runner::Study &study : runner::studies()) {
        SCOPED_TRACE(study.name);
        EXPECT_TRUE(names.insert(study.name).second) << "duplicate name";
        EXPECT_EQ(&runner::studyNamed(study.name), &study);
        EXPECT_FALSE(study.title.empty());
        EXPECT_TRUE(study.print);
        // Table 2 and the cycle-time analysis have printers of their
        // own; every other study names its columns.
        EXPECT_EQ(study.columns.empty(),
                  study.name == "table2" || study.name == "cycletime");
        for (const auto &column : study.columns)
            EXPECT_TRUE(columns.count(column)) << column;

        JobSpec base = tinySpec();
        base.traceSeed = base.profileSeed = 7;
        const auto specs = study.jobs(base);
        ASSERT_FALSE(specs.empty());
        std::set<std::string> keys;
        for (const JobSpec &spec : specs) {
            EXPECT_NO_THROW(runner::checkPoint(spec)) << spec.canonicalKey();
            EXPECT_TRUE(keys.insert(spec.canonicalKey()).second)
                << "duplicate point " << spec.canonicalKey();
            // Every study runs at the base's scale, length and seeds.
            EXPECT_EQ(spec.scale, base.scale);
            EXPECT_EQ(spec.maxInsts, base.maxInsts);
            EXPECT_EQ(spec.traceSeed, 7u);
            EXPECT_EQ(spec.profileSeed, 7u);
        }
    }
    EXPECT_EQ(runner::studies().front().name, "table2");
    EXPECT_THROW(runner::studyNamed("nosuch"), std::runtime_error);
}

/**
 * One point per machine override a study sweeps, run through runJob and
 * through a Processor configured, built and stepped by hand from the
 * same compile: each override must reach the simulation the same way
 * both ways, and must change it.
 */
TEST(Study, OverridePointsMatchAHandBuiltProcessor)
{
    using Config = core::ProcessorConfig;
    struct Point
    {
        const char *what;
        JobSpec spec;
        compiler::SchedulerKind scheduler;
        unsigned clusters;
        Config config;
    };
    const auto spec = [](const char *benchmark, const char *machine,
                         const char *scheduler) {
        JobSpec s = tinySpec();
        s.benchmark = benchmark;
        s.machine = machine;
        s.scheduler = scheduler;
        return s;
    };
    std::vector<Point> points;
    {
        Point p{"dq", spec("compress", "single8", "native"),
                compiler::SchedulerKind::Native, 1, Config::singleCluster8()};
        p.spec.dqEntries = p.config.dispatchQueueEntries = 32;
        points.push_back(p);
    }
    {
        Point p{"otb/rtb", spec("tomcatv", "dual8", "native"),
                compiler::SchedulerKind::Native, 1, Config::dualCluster8()};
        p.spec.otbEntries = p.config.operandBufferEntries = 1;
        p.spec.rtbEntries = p.config.resultBufferEntries = 1;
        points.push_back(p);
    }
    {
        Point p{"mshr", spec("su2cor", "single8", "native"),
                compiler::SchedulerKind::Native, 1, Config::singleCluster8()};
        p.spec.mshrEntries = p.config.memory.dcache.mshrEntries = 2;
        points.push_back(p);
    }
    {
        Point p{"predictor", spec("gcc1", "single8", "native"),
                compiler::SchedulerKind::Native, 1, Config::singleCluster8()};
        p.spec.predictor = "gshare";
        p.config.predictor = Config::PredictorKind::Gshare;
        p.spec.specHistory = p.config.speculativeHistory = true;
        points.push_back(p);
    }
    {
        Point p{"unroll", spec("tomcatv", "dual8", "local"),
                compiler::SchedulerKind::Local, 2, Config::dualCluster8()};
        p.spec.unroll = 2;
        points.push_back(p);
    }

    for (const Point &p : points) {
        SCOPED_TRACE(p.what);
        const JobResult job = runner::runJob(p.spec);
        ASSERT_EQ(job.status, JobStatus::Ok) << job.error;
        // The override changes the simulation.
        EXPECT_NE(job.cycles, runner::runJob(spec(p.spec.benchmark.c_str(),
                                                  p.spec.machine.c_str(),
                                                  p.spec.scheduler.c_str()))
                                  .cycles);

        workloads::WorkloadParams wp;
        wp.scale = p.spec.scale;
        compiler::CompileOptions copt;
        copt.scheduler = p.scheduler;
        copt.numClusters = p.clusters;
        copt.unrollFactor = p.spec.unroll;
        copt.profileSeed = p.spec.traceSeed;
        const auto out = compiler::compile(
            workloads::benchmarkByName(p.spec.benchmark).make(wp), copt);
        Config cfg = p.config;
        cfg.regMap = out.hardwareMap(cfg.numClusters);
        StatGroup stats(p.spec.benchmark);
        exec::ProgramTrace trace(out.binary, p.spec.traceSeed,
                                 p.spec.maxInsts);
        core::Processor cpu(cfg, trace, stats);
        const auto result = cpu.run(50'000'000);
        ASSERT_TRUE(result.completed);

        EXPECT_EQ(job.cycles, result.cycles);
        EXPECT_EQ(job.retired, result.instructions);
        EXPECT_EQ(job.replays, stats.counterAt("replay.exceptions").value());
        EXPECT_EQ(job.issueDisorder,
                  stats.counterAt("issue.disorder").value());
        EXPECT_EQ(job.distDual, stats.counterAt("dist.dual").value());
        EXPECT_EQ(job.bpredAccuracy, stats.formulaAt("bpred.accuracy"));
        const auto dacc = stats.counterAt("dcache.accesses").value();
        EXPECT_EQ(job.dcacheMissRate,
                  static_cast<double>(stats.counterAt("dcache.misses")
                                          .value()) /
                      static_cast<double>(dacc));
    }
}

TEST(Study, SpeedupColumnIsTable2Percentage)
{
    JobSpec base = tinySpec();
    base.maxInsts = 20'000;
    runner::CampaignOptions campaign;
    campaign.jobs = 3;
    const auto jobs = runner::runCampaign(
        runner::studyNamed("table2").jobs(base), campaign);
    const auto rows = runner::assembleTable2Rows(jobs);

    // Printed with speedup_pct, each dual job reads its Table-2
    // percentage; each single-cluster baseline reads +0.0.
    std::ostringstream text;
    runner::printColumns(text, {"benchmark", "machine", "scheduler"}, jobs,
                         /*speedup=*/true);
    const auto cells = tableRows(text.str());
    ASSERT_EQ(cells.size(), jobs.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        SCOPED_TRACE(rows[i].benchmark);
        const auto &single = cells[3 * i];
        const auto &none = cells[3 * i + 1];
        const auto &local = cells[3 * i + 2];
        ASSERT_EQ(local[0], rows[i].benchmark);
        ASSERT_EQ(local[2], "local");
        EXPECT_EQ(single[3], "+0.0");
        EXPECT_EQ(none[3], TextTable::signedPercent(rows[i].pctNone, 1));
        EXPECT_EQ(local[3], TextTable::signedPercent(rows[i].pctLocal, 1));
        EXPECT_EQ(runner::speedupPct(jobs[3 * i].cycles,
                                     jobs[3 * i + 2].cycles),
                  rows[i].pctLocal);
    }

    // Without its baseline a job has no percentage.
    std::ostringstream alone;
    runner::printColumns(alone, {"benchmark"}, {jobs[2]}, true);
    EXPECT_EQ(tableRows(alone.str()).at(0).at(1), "-");
}

/** A finished job at one point of a gated study. */
JobResult
gateJob(const char *benchmark, const char *machine, const char *scheduler,
        double ipc = 1.0, std::uint64_t cut = 0)
{
    JobResult r;
    r.spec = tinySpec();
    r.spec.benchmark = benchmark;
    r.spec.machine = machine;
    r.spec.scheduler = scheduler;
    r.status = JobStatus::Ok;
    r.ipc = ipc;
    r.partitionCut = cut;
    return r;
}

/** The one failure in `failures`, which must name the gate and the
 *  point. */
void
expectOneFailure(const std::vector<std::string> &failures,
                 const std::string &gate, const std::string &point)
{
    ASSERT_EQ(failures.size(), 1u) << ::testing::PrintToString(failures);
    EXPECT_EQ(failures[0].rfind(gate + ": ", 0), 0u) << failures[0];
    EXPECT_NE(failures[0].find(point), std::string::npos) << failures[0];
}

TEST(Study, GatesNameTheFailingPoint)
{
    const auto &clusters = runner::studyNamed("clusters").check;
    const auto &memory = runner::studyNamed("memory").check;
    ASSERT_TRUE(clusters);
    ASSERT_TRUE(memory);
    for (const runner::Study &study : runner::studies())
        EXPECT_EQ(static_cast<bool>(study.check),
                  study.name == "clusters" || study.name == "memory")
            << study.name;

    // A partitioner sweep whose gates hold: multilevel cuts less than
    // round-robin and runs faster than local at both widths. Its quad8
    // rows with an L2 are no part of the gates.
    std::vector<JobResult> sweep;
    for (const char *benchmark : {"compress", "ora"})
        for (const char *machine : {"quad8", "octa8"}) {
            sweep.push_back(gateJob(benchmark, machine, "local", 1.0, 50));
            sweep.push_back(
                gateJob(benchmark, machine, "roundrobin", 0.8, 100));
            sweep.push_back(
                gateJob(benchmark, machine, "multilevel", 1.1, 40));
        }
    JobResult withL2 = gateJob("compress", "quad8", "multilevel", 0.5, 40);
    withL2.spec.l2Kb = 256;
    sweep.push_back(withL2);
    EXPECT_TRUE(clusters(sweep).empty())
        << ::testing::PrintToString(clusters(sweep));

    {
        auto cut = sweep;
        cut[5].partitionCut = 101; // compress/octa8/multilevel
        expectOneFailure(clusters(cut), "multilevel cut <= round-robin",
                         "compress/octa8 cuts 101 > 100");
    }
    {
        auto slow = sweep;
        slow[2].ipc = 0.5; // compress/quad8/multilevel
        expectOneFailure(clusters(slow),
                         "multilevel/local IPC geomean >= 1",
                         "quad8 reads 0.7416");
    }
    {
        auto failed = sweep;
        failed[6].status = JobStatus::Failed; // ora/quad8/local
        failed[6].error = "boom";
        expectOneFailure(clusters(failed), "every job is ok",
                         "ora/quad8/local, l2_kb 0, mem_lat 16 failed: "
                         "boom");
    }

    // The memory grid's gates hold while only the run with an L2
    // stalls on it.
    const auto l2 = static_cast<std::size_t>(obs::StallCause::DcacheL2);
    std::vector<JobResult> grid;
    for (const unsigned l2Kb : {0u, 256u}) {
        JobResult r = gateJob("su2cor", "dual8", "local");
        r.spec.l2Kb = l2Kb;
        r.spec.memLat = 8;
        r.stackSlotCycles[l2] = l2Kb == 0 ? 0 : 640;
        grid.push_back(r);
    }
    EXPECT_TRUE(memory(grid).empty())
        << ::testing::PrintToString(memory(grid));
    {
        auto stalled = grid;
        stalled[0].stackSlotCycles[l2] = 8;
        expectOneFailure(memory(stalled), "no dcache_l2 stall without an L2",
                         "su2cor/dual8/local, l2_kb 0, mem_lat 8 reads "
                         "stack_dcache_l2 8");
    }
    {
        auto timedOut = grid;
        timedOut[1].status = JobStatus::TimedOut;
        expectOneFailure(memory(timedOut), "every job is ok",
                         "su2cor/dual8/local, l2_kb 256, mem_lat 8 "
                         "timeout");
    }
}

TEST(ThreadPoolTest, RunsEverythingAndWaits)
{
    runner::ThreadPool pool(4);
    EXPECT_EQ(pool.width(), 4u);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);

    // The pool is reusable after a wait().
    pool.submit([&counter] { counter += 10; });
    pool.wait();
    EXPECT_EQ(counter.load(), 110);
}

TEST(ThreadPoolTest, WidthClampedToOne)
{
    runner::ThreadPool pool(0);
    EXPECT_EQ(pool.width(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

} // namespace
