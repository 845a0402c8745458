#include "compiler/pipeline.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "compiler/pass.hh"

namespace mca::compiler
{

namespace
{

const char *
schedulerName(SchedulerKind kind)
{
    switch (kind) {
    case SchedulerKind::Native: return "native";
    case SchedulerKind::Local: return "local";
    case SchedulerKind::RoundRobin: return "roundrobin";
    case SchedulerKind::Multilevel: return "multilevel";
    }
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
        << ";optimize=" << optimize
        << ";unroll=" << unrollFactor
        << ";superblocks=" << superblocks
        << ";list=" << listSchedule
        << ";profileSeed=" << profileSeed
        << ";profileMaxInsts=" << profileMaxInsts;
    return oss.str();
}

CompileOptions
compileOptionsFor(const std::string &scheduler, unsigned machine_clusters)
{
    CompileOptions copt;
    if (scheduler == "native") {
        copt.scheduler = SchedulerKind::Native;
        copt.numClusters = 1;
    } else if (scheduler == "roundrobin") {
        copt.scheduler = SchedulerKind::RoundRobin;
        copt.numClusters = std::max(2u, machine_clusters);
    } else if (scheduler == "local") {
        copt.scheduler = machine_clusters >= 2 ? SchedulerKind::Local
                                               : SchedulerKind::Native;
        copt.numClusters = machine_clusters;
    } else if (scheduler == "multilevel") {
        copt.scheduler = machine_clusters >= 2 ? SchedulerKind::Multilevel
                                               : SchedulerKind::Native;
        copt.numClusters = machine_clusters;
    } else {
        throw std::runtime_error("unknown scheduler '" + scheduler + "'");
    }
    return copt;
}

const std::vector<std::string> &
partitionerNames()
{
    static const std::vector<std::string> kNames = {"local", "roundrobin",
                                                    "multilevel"};
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
    PassManager manager(options.verifyIr);
    for (auto &pass : buildPipeline(options))
        manager.add(std::move(pass));
    manager.run(ctx);
    return out;
}

} // namespace mca::compiler
