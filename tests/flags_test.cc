/**
 * @file
 * Tests for the typed flag table (src/runner/flags.hh): every value
 * parser turns a malformed or out-of-range value into a usage error
 * naming the flag, `--clusters N` is exactly the named machine with N
 * clusters, a point spelled for mcasim and for mcarun is one JobSpec,
 * and `--jobs` takes 1..4096 or `auto`.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/flags.hh"

namespace
{

using namespace mca;
using Args = std::vector<std::string>;

/**
 * Parse `args` against mcasim's point rows (or, with `grid`, mcarun's
 * grid rows), plus a row built like mcasim's --random-seed. Returns the
 * usage error's text, or "" when the arguments parse.
 */
std::string
usageError(bool grid, const Args &args)
{
    runner::JobSpec spec;
    runner::CampaignGrid campaign;
    std::uint64_t seed = 0;
    runner::FlagTable table =
        grid ? runner::gridFlags(campaign) : runner::pointFlags(spec);
    table.push_back({"--random-seed", "N", "", runner::number(seed)});
    try {
        runner::parseFlags(table, args);
    } catch (const runner::UsageError &e) {
        return e.what();
    }
    return "";
}

TEST(Flags, MalformedValuesAreUsageErrorsNamingTheFlag)
{
    struct Case
    {
        bool grid;
        Args args;
    };
    const std::vector<Case> cases = {
        // Values a lax parser reads as some other number.
        {false, {"--scale", "foo"}},
        {false, {"--max-insts", "5k"}},
        {false, {"--threshold", "-1"}},
        {true, {"--thresholds", "x"}},
        {false, {"--random-seed", "abc"}},
        // Unsigned integers: sign, garbage, overflow, below the minimum.
        {false, {"--trace-seed", "+7"}},
        {false, {"--unroll", " 2"}},
        {false, {"--max-insts", "18446744073709551616"}},
        {false, {"--unroll", "0"}},
        {false, {"--unroll", "65"}},
        {true, {"--max-cycles", "0"}},
        {false, {"--max-cycles", "0"}},
        {true, {"--sample-detail", "0"}},
        {false, {"--sample-detail", "0"}},
        {false, {"--sample-period", "-1"}},
        {true, {"--sample-periods", "20000,x"}},
        // Overrides reject 0 where ProcessorConfig::validate (or the
        // machine) cannot take it, so 0 can mean "the machine's own".
        {false, {"--dq", "0"}},
        {false, {"--otb", "0"}},
        {false, {"--rtb", "0"}},
        {false, {"--icache-kb", "0"}},
        {false, {"--dcache-kb", "0"}},
        {false, {"--mem-lat", "0"}},
        // The workload scale: garbage, infinity, zero, above the cap.
        {false, {"--scale", "inf"}},
        {false, {"--scale", "0"}},
        {true, {"--scale", "1e9"}},
        // Cache sizes whose set count is not a power of two.
        {false, {"--icache-kb", "3"}},
        {false, {"--l2-kb", "3"}},
        {true, {"--l2-kb", "256,3"}},
        // Choices, checked against the runner's own lists.
        {false, {"--benchmark", "all"}},
        {false, {"--machine", "hex16"}},
        {true, {"--machines", "dual8,hex16"}},
        {false, {"--scheduler", "global"}},
        {false, {"--partitioner", "native"}},
        {false, {"--predictor", "oracle"}},
        {false, {"--queue-mode", "fifo"}},
        {false, {"--clusters", "3"}},
        // Lists, unknown flags, missing values.
        {true, {"--benchmarks", "compress,,ora"}},
        {true, {"--sample-periods", ""}},
        {true, {"--trace-seed", "7"}},
        {true, {"--sample-period", "20000"}},
        {false, {"--sample-periods", "20000"}},
        {false, {"--scale"}},
    };
    for (const auto &c : cases) {
        const std::string error = usageError(c.grid, c.args);
        EXPECT_EQ(error.rfind(c.args.front() + ": ", 0), 0u)
            << c.args.front() << " " << (c.args.size() > 1 ? c.args[1] : "")
            << " gave '" << error << "'";
    }
}

TEST(Flags, ClustersIsShorthandForTheMachineWithThatManyClusters)
{
    const std::vector<std::pair<std::string, std::string>> splits = {
        {"1", "single8"}, {"2", "dual8"}, {"4", "quad8"}, {"8", "octa8"}};
    for (const auto &[count, machine] : splits) {
        for (const Args &args :
             {Args{"--clusters", count},
              Args{"--clusters", count, "--machine", machine},
              Args{"--machine", machine, "--clusters", count}}) {
            runner::JobSpec spec;
            runner::parseFlags(runner::pointFlags(spec), args);
            EXPECT_EQ(spec.machine, machine) << count;
            EXPECT_EQ(runner::machineConfigFor(spec).numClusters,
                      std::stoul(count));
        }
    }
    // A disagreeing --machine is an error naming both flags, in either
    // order.
    for (const Args &args : {Args{"--clusters", "4", "--machine", "dual8"},
                             Args{"--machine", "dual8", "--clusters", "4"}}) {
        const std::string error = usageError(false, args);
        EXPECT_NE(error.find("--machine"), std::string::npos) << error;
        EXPECT_NE(error.find("--clusters"), std::string::npos) << error;
    }
}

TEST(Flags, McasimAndMcarunSpellingsNameTheSamePoint)
{
    const Args shared = {"--scale",      "0.3",    "--unroll",    "2",
                         "--predictor",  "gshare", "--max-insts", "1234",
                         "--fill-ports", "1",
                         // The sampling plan and the cycle budget.
                         "--sample-detail", "3000", "--sample-warmup", "500",
                         "--max-cycles", "777777",
                         // The machine overrides.
                         "--icache-kb", "32", "--dcache-kb", "16",
                         "--dq", "48", "--otb", "4", "--rtb", "6",
                         "--mshr", "8", "--queue-mode", "rs",
                         "--spec-history", "--reserve-oldest"};
    // mcasim spells an axis in the singular; mcarun's grid axis is the
    // same flag as a list (the memory axes keep their name).
    const std::vector<std::pair<std::string, std::string>> axes = {
        {"benchmark", "gcc1"},  {"machine", "quad8"},
        {"scheduler", "multilevel"}, {"threshold", "8"},
        {"trace-seed", "7"}, {"sample-period", "20000"}};
    const Args memory = {"--l2-kb", "256", "--l2-lat", "9", "--mem-lat", "32"};
    Args one = shared;
    Args many = shared;
    one.insert(one.end(), memory.begin(), memory.end());
    many.insert(many.end(), memory.begin(), memory.end());
    for (const auto &[name, value] : axes) {
        one.insert(one.end(), {"--" + name, value});
        many.insert(many.end(), {"--" + name + "s", value});
    }

    runner::JobSpec spec;
    runner::parseFlags(runner::pointFlags(spec), one);
    runner::CampaignGrid grid;
    runner::parseFlags(runner::gridFlags(grid), many);
    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(spec.canonicalKey(), specs.front().canonicalKey());
    EXPECT_NE(spec.canonicalKey(), runner::JobSpec{}.canonicalKey());
    // The trace seed seeds the profiling run too, as in every grid.
    EXPECT_EQ(spec.profileSeed, 7u);
    EXPECT_EQ(spec.otbEntries, 4u);
    EXPECT_TRUE(spec.reserveOldest);
    EXPECT_EQ(spec.samplePeriod, 20000u);
    EXPECT_EQ(spec.sampleWarmup, 500u);
    EXPECT_EQ(spec.maxCycles, 777777u);
}

TEST(Flags, GridMachineOverrideFailsAtTheNamedPoint)
{
    runner::CampaignGrid grid;
    runner::parseFlags(runner::gridFlags(grid),
                       {"--benchmarks", "tomcatv", "--machines", "quad8",
                        "--otb", "1"});
    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 1u);
    try {
        runner::checkPoint(specs.front());
        FAIL() << "a one-entry OTB passed on quad8";
    } catch (const runner::UsageError &e) {
        EXPECT_EQ(std::string(e.what()).rfind("tomcatv/quad8/local: ", 0),
                  0u)
            << e.what();
    }
}

TEST(Flags, GridAxesTakeListsAllAndAppendedPartitioners)
{
    runner::CampaignGrid grid;
    runner::parseFlags(runner::gridFlags(grid),
                       {"--benchmarks", "all", "--schedulers", "native",
                        "--partitioners", "local,multilevel,local",
                        "--thresholds", "1,2,4", "--sample-periods",
                        "0,20000"});
    EXPECT_EQ(grid.benchmarks, runner::validBenchmarks());
    EXPECT_EQ(grid.schedulers,
              (std::vector<std::string>{"native", "local", "multilevel"}));
    EXPECT_EQ(grid.thresholds, (std::vector<unsigned>{1, 2, 4}));
    EXPECT_EQ(grid.samplePeriods, (std::vector<std::uint64_t>{0, 20000}));
}

TEST(Flags, CheckPointNamesTheInfeasiblePoint)
{
    // Plans whose warmup + detail exceed the period: plainly, and by a
    // sum that wraps past 2^64.
    const std::vector<Args> plans = {
        {"--sample-period", "5000", "--sample-detail", "8000"},
        {"--sample-period", "20000", "--sample-detail", "1",
         "--sample-warmup", "18446744073709551615"}};
    for (const Args &plan : plans) {
        runner::JobSpec spec;
        runner::parseFlags(runner::pointFlags(spec), plan);
        try {
            runner::checkPoint(spec);
            FAIL() << "an overlapping sample plan passed: " << plan[1];
        } catch (const runner::UsageError &e) {
            EXPECT_NE(std::string(e.what()).find("compress/dual8/local"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(runner::checkPoint(runner::JobSpec{}).numClusters, 2u);
}

TEST(Flags, CheckPointRejectsAnOperandBufferTooSmallForTheMachine)
{
    runner::JobSpec spec;
    spec.machine = "quad8";
    spec.otbEntries = 1;
    try {
        runner::checkPoint(spec);
        FAIL() << "a one-entry OTB passed on quad8";
    } catch (const runner::UsageError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "compress/quad8/local: ProcessorConfig::validate: "
                      "operandBufferEntries must be >= 2"),
                  std::string::npos)
            << e.what();
    }
    // The livelock probe's point and dual8's one-entry buffer stay
    // valid.
    spec.otbEntries = 2;
    EXPECT_EQ(runner::checkPoint(spec).operandBufferEntries, 2u);
    spec.machine = "dual8";
    spec.otbEntries = 1;
    EXPECT_EQ(runner::checkPoint(spec).operandBufferEntries, 1u);
}

TEST(Flags, JobsTakesOneTo4096OrAuto)
{
    unsigned jobs = 0;
    const runner::FlagTable table = runner::jobsFlags(jobs);
    for (const Args &args : {Args{"--jobs", "0"}, Args{"--jobs", "4097"},
                             Args{"-j", "x"}, Args{"-j", "-2"}}) {
        try {
            runner::parseFlags(table, args);
            FAIL() << args[0] << " " << args[1] << " parsed";
        } catch (const runner::UsageError &e) {
            EXPECT_EQ(std::string(e.what()).rfind(args[0] + ": ", 0), 0u)
                << e.what();
        }
    }
    // Parsing a width starts no thread.
    runner::parseFlags(table, {"--jobs", "4096"});
    EXPECT_EQ(jobs, 4096u);
    runner::parseFlags(table, {"-j", "3"});
    EXPECT_EQ(jobs, 3u);
    runner::parseFlags(table, {"--jobs", "auto"});
    EXPECT_GE(jobs, 1u);
}

} // namespace
