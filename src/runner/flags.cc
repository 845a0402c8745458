#include "runner/flags.hh"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>
#include <type_traits>

#include "compiler/pipeline.hh"
#include "support/log.hh"

namespace mca::runner
{

Flag::Action
set(bool &out)
{
    return [&out](const std::string &) { out = true; };
}

Flag::Action
store(std::string &out)
{
    return [&out](const std::string &value) { out = value; };
}

namespace
{

/** Caps on sizes the simulator allocates: cache KB (64 MB), queue,
 *  buffer or MSHR entries, and the unroll factor. */
constexpr unsigned kMaxCacheKb = 64 * 1024;
constexpr unsigned kMaxEntries = 4096;
constexpr unsigned kMaxUnroll = 64;
/** Cap on worker threads. */
constexpr unsigned kMaxJobs = 4096;

/** `--clusters N`: the 8-way machine split into N clusters. */
const std::vector<std::string> kClusterCounts = {"1", "2", "4", "8"};
const char *const kClusterMachines[] = {"single8", "dual8", "quad8", "octa8"};

template <class T>
std::function<T(const std::string &)>
inRange(T min, T max = std::numeric_limits<T>::max())
{
    return [=](const std::string &text) {
        return static_cast<T>(parseUnsigned(text, min, max));
    };
}

std::function<std::string(const std::string &)>
oneOf(const std::vector<std::string> &valid, const char *what)
{
    return [&valid, what](const std::string &text) {
        requireOneOf(text, valid, what);
        return text;
    };
}

/** A workload scale: a decimal number in (0, 1000], which keeps loop
 *  trip counts far from overflow. */
double
parseScale(const std::string &text)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !(value > 0.0 && value <= 1000.0))
        throw std::runtime_error("'" + text + "' is not a number in (0, 1000]");
    return value;
}

/** A cache size in KB whose geometry machineConfigFor accepts (the
 *  geometry is the same on every machine). */
std::function<unsigned(const std::string &)>
cacheKb(unsigned JobSpec::*field, unsigned min)
{
    return [=](const std::string &text) {
        JobSpec probe;
        probe.*field =
            static_cast<unsigned>(parseUnsigned(text, min, kMaxCacheKb));
        machineConfigFor(probe);
        return probe.*field;
    };
}

/** Store `value` through a member pointer or a setter. */
template <class Target, class Store, class Value>
void
assign(Target &target, const Store &store, Value value)
{
    if constexpr (std::is_member_object_pointer_v<Store>)
        target.*store = std::move(value);
    else
        store(target, std::move(value));
}

/** Whether a grid member is one value every job shares (not an axis;
 *  a setter stores an axis). */
template <class Member> constexpr bool kShared = false;
template <class T> constexpr bool kShared<T CampaignGrid::*> = true;
template <class T>
constexpr bool kShared<std::vector<T> CampaignGrid::*> = false;

/** The point parameters, each written once and bound to `spec` (mcasim:
 *  one value per flag) or else to `grid` (mcarun: an axis takes a list). */
FlagTable
pointRows(JobSpec *spec, CampaignGrid *grid)
{
    FlagTable rows;
    const auto one = [&](auto *target, const char *name, const char *metavar,
                         const std::string &help, auto parse, auto field) {
        rows.push_back({name, metavar, help, [=](const std::string &text) {
                            assign(*target, field, parse(text));
                        }});
    };
    const auto list = [&](const char *name, const std::string &help,
                          auto parse, auto field) {
        rows.push_back({name, "LIST", help, [=](const std::string &text) {
                            std::vector<decltype(parse(text))> values;
                            for (const auto &item : parseList(text))
                                values.push_back(parse(item));
                            assign(*grid, field, std::move(values));
                        }});
    };
    // mcasim's flag takes one value; mcarun's takes a comma list for an
    // axis, or one value for a parameter every job shares.
    const auto axis = [&](const char *name, const char *axisName,
                          const char *metavar, const std::string &help,
                          auto parse, auto specField, auto gridField) {
        if (spec)
            one(spec, name, metavar, help, parse, specField);
        else if constexpr (kShared<decltype(gridField)>)
            one(grid, name, metavar, help, parse, gridField);
        else
            list(axisName, help, parse, gridField);
    };
    // --machine and --clusters (the 8-way machine with N clusters) both
    // name the machine, so whichever comes second must agree.
    const auto named = std::make_shared<std::pair<std::string, std::string>>();
    const auto nameMachine = [named](JobSpec &s, std::string &by,
                                     const std::string &machine) {
        by = s.machine = machine;
        if (!named->first.empty() && !named->second.empty() &&
            named->first != named->second)
            throw std::runtime_error("--machine " + named->first +
                                     " disagrees with --clusters (" +
                                     named->second + ")");
    };

    rows.push_back({"", "", spec ? "simulation point" : "grid axes", {}});
    axis("--benchmark", "--benchmarks", "NAME",
         joinChoices(validBenchmarks()) + (spec ? "" : "|all") + " [compress]",
         oneOf(validBenchmarks(), "benchmark"), &JobSpec::benchmark,
         &CampaignGrid::benchmarks);
    axis("--machine", "--machines", "NAME",
         joinChoices(validMachines()) + " [dual8]",
         oneOf(validMachines(), "machine"),
         [=](JobSpec &s, auto m) { nameMachine(s, named->first, m); },
         &CampaignGrid::machines);
    if (spec)
        one(spec, "--clusters", "N", "1 single8, 2 dual8, 4 quad8, 8 octa8",
            oneOf(kClusterCounts, "cluster count"),
            [=](JobSpec &s, const std::string &count) {
                const auto i = std::find(kClusterCounts.begin(),
                                         kClusterCounts.end(), count) -
                               kClusterCounts.begin();
                nameMachine(s, named->second, kClusterMachines[i]);
            });
    axis("--scheduler", "--schedulers", "KIND",
         joinChoices(compiler::schedulerNames()) + " [local]",
         oneOf(compiler::schedulerNames(), "scheduler"), &JobSpec::scheduler,
         &CampaignGrid::schedulers);
    axis("--partitioner", "--partitioners", "KIND",
         joinChoices(compiler::partitionerNames()) +
             (spec ? ": a clustered --scheduler" : ", added to --schedulers"),
         oneOf(compiler::partitionerNames(), "partitioner"),
         &JobSpec::scheduler,
         [](CampaignGrid &g, std::vector<std::string> names) {
             for (auto &name : names)
                 if (std::find(g.schedulers.begin(), g.schedulers.end(),
                               name) == g.schedulers.end())
                     g.schedulers.push_back(std::move(name));
         });
    axis("--threshold", "--thresholds", "N",
         "local-scheduler imbalance threshold [4]", inRange(0u),
         &JobSpec::threshold, &CampaignGrid::thresholds);
    axis("--trace-seed", "--trace-seeds", "N",
         "trace seed, also the profiling run's [42]",
         inRange<std::uint64_t>(0),
         [](JobSpec &s, auto seed) { s.traceSeed = s.profileSeed = seed; },
         &CampaignGrid::traceSeeds);
    axis("--scale", "", "X", "workload scale, (0, 1000] [0.2]", parseScale,
         &JobSpec::scale, &CampaignGrid::scale);
    axis("--unroll", "", "N", "unroll counted self-loops, 1..64 [1]",
         inRange(1u, kMaxUnroll), &JobSpec::unroll, &CampaignGrid::unroll);
    axis("--predictor", "", "KIND",
         joinChoices(validPredictors()) + " [machine's]",
         oneOf(validPredictors(), "predictor"), &JobSpec::predictor,
         &CampaignGrid::predictor);
    axis("--max-insts", "", "N", "trace length cap [300000]",
         inRange<std::uint64_t>(1), &JobSpec::maxInsts,
         &CampaignGrid::maxInsts);
    axis("--max-cycles", "", "N", "a full run's cycle budget [100000000]",
         inRange<Cycle>(1), &JobSpec::maxCycles, &CampaignGrid::maxCycles);

    rows.push_back({"", "", "memory hierarchy (docs/memory.md)", {}});
    axis("--l2-kb", "--l2-kb", "N", "shared L2 KB (0 = no L2) [0]",
         cacheKb(&JobSpec::l2Kb, 0), &JobSpec::l2Kb, &CampaignGrid::l2Kbs);
    axis("--l2-lat", "--l2-lat", "N", "L2 hit latency in cycles [6]",
         inRange(0u), &JobSpec::l2Lat, &CampaignGrid::l2Lats);
    axis("--mem-lat", "--mem-lat", "N", "memory latency in cycles [16]",
         inRange(1u), &JobSpec::memLat, &CampaignGrid::memLats);
    axis("--fill-ports", "", "N", "fills/cycle per level (0 = unlimited) [0]",
         inRange(0u), &JobSpec::fillPorts, &CampaignGrid::fillPorts);
    axis("--icache-kb", "", "N", "L1 instruction-cache KB [64]",
         cacheKb(&JobSpec::icacheKb, 1), &JobSpec::icacheKb,
         &CampaignGrid::icacheKb);
    axis("--dcache-kb", "", "N", "L1 data-cache KB [64]",
         cacheKb(&JobSpec::dcacheKb, 1), &JobSpec::dcacheKb,
         &CampaignGrid::dcacheKb);

    rows.push_back({"", "", "machine overrides [machine's]", {}});
    axis("--dq", "", "N", "dispatch-queue entries per cluster",
         inRange(1u, kMaxEntries), &JobSpec::dqEntries,
         &CampaignGrid::dqEntries);
    axis("--otb", "", "N", "operand transfer-buffer entries per cluster",
         inRange(1u, kMaxEntries), &JobSpec::otbEntries,
         &CampaignGrid::otbEntries);
    axis("--rtb", "", "N", "result transfer-buffer entries per cluster",
         inRange(1u, kMaxEntries), &JobSpec::rtbEntries,
         &CampaignGrid::rtbEntries);
    axis("--mshr", "", "N", "data-cache MSHR entries (0 = inverted)",
         inRange(0u, kMaxEntries), &JobSpec::mshrEntries,
         &CampaignGrid::mshrEntries);
    axis("--queue-mode", "", "KIND", "window|rs: free at retire|issue",
         oneOf(validQueueModes(), "queue mode"), &JobSpec::queueMode,
         &CampaignGrid::queueMode);
    rows.push_back({"--spec-history", "", "speculative branch history",
                    set(spec ? spec->specHistory : grid->specHistory)});
    rows.push_back({"--reserve-oldest", "", "keep a buffer entry for the "
                    "oldest",
                    set(spec ? spec->reserveOldest : grid->reserveOldest)});

    rows.push_back({"", "", "sampling (docs/sampling.md)", {}});
    axis("--sample-period", "--sample-periods", "N",
         "insts between windows; 0 = full run [0]", inRange<std::uint64_t>(0),
         &JobSpec::samplePeriod, &CampaignGrid::samplePeriods);
    axis("--sample-detail", "", "N", "measured insts per window [10000]",
         inRange<std::uint64_t>(1), &JobSpec::sampleDetail,
         &CampaignGrid::sampleDetail);
    axis("--sample-warmup", "", "N", "warmup insts per window [2000]",
         inRange<std::uint64_t>(0), &JobSpec::sampleWarmup,
         &CampaignGrid::sampleWarmup);
    return rows;
}

} // namespace

FlagTable
pointFlags(JobSpec &spec)
{
    return pointRows(&spec, nullptr);
}

FlagTable
gridFlags(CampaignGrid &grid)
{
    FlagTable rows = pointRows(nullptr, &grid);
    Flag &benchmarks = *std::find_if(rows.begin(), rows.end(), [](auto &f) {
        return f.name == "--benchmarks";
    });
    benchmarks.action = [&grid, list = benchmarks.action](const auto &text) {
        if (text == "all")
            grid.benchmarks = validBenchmarks();
        else
            list(text);
    };
    return rows;
}

FlagTable
jobsFlags(unsigned &jobs)
{
    const Flag::Action parse = [&jobs](const std::string &text) {
        jobs = text == "auto"
                   ? std::max(std::thread::hardware_concurrency(), 1u)
                   : static_cast<unsigned>(parseUnsigned(text, 1, kMaxJobs));
    };
    return {{"--jobs", "N|auto", "worker threads, 1..4096 or all [1]", parse},
            {"-j", "N|auto", "same as --jobs", parse}};
}

void
recordGiven(FlagTable &table, std::vector<std::string> &given)
{
    for (Flag &row : table) {
        if (row.name.empty())
            continue;
        row.action = [&given, name = row.name, action = std::move(row.action)](
                         const std::string &value) {
            given.push_back(name);
            action(value);
        };
    }
}

void
parseFlags(const FlagTable &table, const std::vector<std::string> &args)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const auto row = std::find_if(table.begin(), table.end(), [&](auto &f) {
            return !f.name.empty() && f.name == args[i];
        });
        if (row == table.end())
            throw UsageError(args[i], "unknown flag (see --help)");
        if (!row->metavar.empty() && i + 1 == args.size())
            throw UsageError(row->name, "missing value " + row->metavar);
        try {
            row->action(row->metavar.empty() ? "" : args[++i]);
        } catch (const std::exception &e) {
            throw UsageError(row->name, e.what());
        }
    }
}

void
parseCommandLine(const std::string &title, FlagTable rows, bool &quiet,
                 int argc, char **argv, const std::function<void()> &check)
{
    const auto exitAfter = [](std::function<void()> print) {
        return [print](const std::string &) {
            print();
            std::exit(0);
        };
    };
    const auto help = exitAfter([&] {
        std::cout << title << "\n";
        for (const Flag &f : rows) {
            std::string left = "  " + f.name + " " + f.metavar;
            left.resize(std::max<std::size_t>(left.size() + 1, 24), ' ');
            std::cout << (f.name.empty() ? "\n" + f.help + ":" : left + f.help)
                      << "\n";
        }
    });
    const std::string tool = title.substr(0, title.find(' '));
    rows.insert(rows.end(), {
        {"", "", "output and introspection", {}},
        {"--quiet", "", "print only the results", set(quiet)},
        {"--log-level", "LVL", "debug|info|warn|error|off [info, or "
                               "$MCA_LOG_LEVEL]",
         [](const std::string &text) {
             log::Level level;
             if (!log::parseLevel(text, level))
                 throw std::runtime_error("unknown log level '" + text + "'");
             log::setThreshold(level);
         }},
        {"--list-benchmarks", "", "print the benchmark names and exit",
         exitAfter([] {
             for (const auto &name : validBenchmarks())
                 std::cout << name << "\n";
         })},
        {"--version", "", "print the version and exit",
         exitAfter([&] {
             std::cout << tool << " " << MCA_VERSION_STRING << "\n";
         })},
        {"--help", "", "print this help and exit", help},
        {"-h", "", "same as --help", help},
    });
    try {
        parseFlags(rows, {argv + 1, argv + argc});
        check();
    } catch (const UsageError &e) {
        std::cerr << tool << ": " << e.what() << "\n";
        std::exit(2);
    }
}

core::ProcessorConfig
checkPoint(const JobSpec &spec)
{
    try {
        spec.validate();
        return machineConfigFor(spec);
    } catch (const std::exception &e) {
        throw UsageError(
            spec.benchmark + "/" + spec.machine + "/" + spec.scheduler,
            e.what());
    }
}

} // namespace mca::runner
