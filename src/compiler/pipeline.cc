#include "compiler/pipeline.hh"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "compiler/pass.hh"

namespace mca::compiler
{

namespace
{

/** Every scheduler name and the kind it selects, in `--help` order. */
constexpr std::pair<std::string_view, SchedulerKind> kSchedulers[] = {
    {"native", SchedulerKind::Native},
    {"local", SchedulerKind::Local},
    {"roundrobin", SchedulerKind::RoundRobin},
    {"multilevel", SchedulerKind::Multilevel},
};

std::string_view
schedulerName(SchedulerKind kind)
{
    for (const auto &[name, k] : kSchedulers)
        if (k == kind)
            return name;
    return "unknown";
}

} // namespace

std::string
CompileOptions::canonicalKey() const
{
    std::ostringstream oss;
    oss << "scheduler=" << schedulerName(scheduler)
        << ";clusters=" << numClusters
        << ";threshold=" << imbalanceThreshold
        << ";unroll=" << unrollFactor
        << ";superblocks=" << superblocks
        << ";profileSeed=" << profileSeed;
    return oss.str();
}

CompileOptions
compileOptionsFor(const std::string &scheduler, unsigned machine_clusters)
{
    const auto *row = std::find_if(
        std::begin(kSchedulers), std::end(kSchedulers),
        [&](const auto &entry) { return entry.first == scheduler; });
    if (row == std::end(kSchedulers))
        throw std::runtime_error("unknown scheduler '" + scheduler + "'");
    CompileOptions copt;
    copt.scheduler = row->second;
    copt.numClusters = machine_clusters;
    if (copt.scheduler == SchedulerKind::Native)
        copt.numClusters = 1;
    else if (copt.scheduler == SchedulerKind::RoundRobin)
        copt.numClusters = std::max(2u, machine_clusters);
    else if (machine_clusters < 2) // nothing to partition
        copt.scheduler = SchedulerKind::Native;
    return copt;
}

const std::vector<std::string> &
schedulerNames()
{
    static const std::vector<std::string> kNames = [] {
        std::vector<std::string> names;
        for (const auto &entry : kSchedulers)
            names.emplace_back(entry.first);
        return names;
    }();
    return kNames;
}

const std::vector<std::string> &
partitionerNames()
{
    static const std::vector<std::string> kNames(
        schedulerNames().begin() + 1, schedulerNames().end());
    return kNames;
}

isa::RegisterMap
CompileOutput::hardwareMap(unsigned num_clusters) const
{
    isa::RegisterMap map(num_clusters);
    for (const auto &reg : alloc.globalRegs)
        map.setGlobal(reg);
    return map;
}

const std::string *
CompileOutput::dumpFor(std::string_view pass) const
{
    for (const auto &[name, text] : dumps)
        if (name == pass)
            return &text;
    return nullptr;
}

CompileOutput
compile(const prog::Program &prog, const CompileOptions &options)
{
    CompileOutput out;
    PassContext ctx(prog, options, out);
    for (const Pass &pass : allPasses())
        if (pass.runsFor(options))
            runPass(pass, ctx);
    return out;
}

} // namespace mca::compiler
