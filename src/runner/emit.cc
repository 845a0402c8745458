#include "runner/emit.hh"

#include <cstdio>
#include <string_view>
#include <type_traits>

#include "support/format.hh"

namespace mca::runner
{

namespace
{

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
emitJsonLine(std::ostream &os, const JobResult &r)
{
    std::string line;
    const char *sep = "{\"";
    forEachColumn(r, [&](std::string_view name, const auto &value) {
        using T = std::decay_t<decltype(value)>;
        line.append(sep).append(name).append("\":");
        sep = ",\"";
        if constexpr (std::is_same_v<T, double>)
            line += jsonDouble(value);
        else if constexpr (std::is_arithmetic_v<T>)
            line += fieldText(value);
        else
            line += '"' + jsonEscape(fieldText(value)) + '"';
    });
    os << line << '}';
}

void
emitJsonLines(std::ostream &os, const std::vector<JobResult> &results)
{
    for (const auto &result : results) {
        emitJsonLine(os, result);
        os << "\n";
    }
}

void
emitCsvHeader(std::ostream &os)
{
    std::string header;
    const char *sep = "";
    forEachColumn(JobResult{}, [&](std::string_view name, const auto &) {
        header.append(sep).append(name);
        sep = ",";
    });
    os << header << '\n';
}

void
emitCsvRow(std::ostream &os, const JobResult &r)
{
    std::string row;
    const char *sep = "";
    forEachColumn(r, [&](std::string_view, const auto &value) {
        row.append(sep).append(csvEscape(fieldText(value)));
        sep = ",";
    });
    os << row << '\n';
}

void
emitCsv(std::ostream &os, const std::vector<JobResult> &results)
{
    emitCsvHeader(os);
    for (const auto &result : results)
        emitCsvRow(os, result);
}

void
emitSummary(std::ostream &os, const CampaignSummary &summary)
{
    char wall[32];
    if (summary.wallMs >= 1000.0)
        std::snprintf(wall, sizeof wall, "%.2f s", summary.wallMs / 1000.0);
    else
        std::snprintf(wall, sizeof wall, "%.1f ms", summary.wallMs);
    os << summary.total << " jobs: " << summary.ok << " ok, "
       << summary.timedOut << " timeout, " << summary.failed
       << " failed (" << summary.fromCache << " from cache) in " << wall;
    if (summary.compiles > 0)
        os << " | compiles: " << summary.compiles << " ("
           << summary.compileHits << " shared)";
    if (summary.jobs > 0) {
        os << " | jobs: " << summary.jobs;
        if (summary.criticalPathMs > 0.0) {
            char cp[32];
            std::snprintf(cp, sizeof cp, "%.1f", summary.criticalPathMs);
            os << ", critical path " << cp << " ms, peak queue "
               << summary.maxQueueDepth;
        }
    }
    os << "\n";
}

ProgressPrinter::ProgressPrinter(std::ostream &os, bool enabled)
    : os_(os), enabled_(enabled)
{
}

void
ProgressPrinter::operator()(std::size_t finished, std::size_t total,
                            const JobResult &result)
{
    if (!enabled_)
        return;
    switch (result.status) {
    case JobStatus::Ok: ++tally_.ok; break;
    case JobStatus::TimedOut: ++tally_.timedOut; break;
    case JobStatus::Failed: ++tally_.failed; break;
    }
    if (result.fromCache)
        ++tally_.fromCache;
    os_ << "\r[" << finished << "/" << total << "] ok=" << tally_.ok
        << " timeout=" << tally_.timedOut << " failed=" << tally_.failed
        << " cache=" << tally_.fromCache << "  " << result.spec.benchmark
        << "/" << result.spec.machine << "/" << result.spec.scheduler
        << "            " << std::flush;
    dirty_ = true;
}

void
ProgressPrinter::finish()
{
    if (dirty_) {
        os_ << "\n";
        dirty_ = false;
    }
}

} // namespace mca::runner
