#include "runner/telemetry.hh"

#include <stdexcept>

#include "support/format.hh"

namespace mca::runner
{

TelemetryWriter::TelemetryWriter(const std::string &path)
    : out_(path, std::ios::trunc), start_(std::chrono::steady_clock::now())
{
    if (!out_)
        throw std::runtime_error("telemetry: cannot open '" + path +
                                 "' for writing");
}

double
TelemetryWriter::elapsedMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

void
TelemetryWriter::start(std::size_t total_jobs, unsigned jobs_width)
{
    out_ << "{\"event\":\"start\",\"total\":" << total_jobs
         << ",\"jobs\":" << jobs_width
         << ",\"elapsed_ms\":" << jsonDouble(elapsedMs()) << "}\n";
    out_.flush();
}

void
TelemetryWriter::onResult(std::size_t finished, std::size_t total,
                          const JobResult &result)
{
    const double elapsed = elapsedMs();
    simCycles_ += result.cycles;
    if (result.fromCache) {
        ++cacheHits_;
    } else {
        ++ran_;
        ranWallMs_ += result.wallMs;
    }

    // ETA from the mean wall time of jobs that actually executed,
    // scaled by the worker-pool speedup observed so far (ran jobs'
    // summed host time / campaign elapsed time covers both the pool
    // width and cache-hit short-circuits).
    double eta_ms = 0.0;
    const std::size_t remaining = total - finished;
    if (remaining > 0 && elapsed > 0.0 && finished > 0)
        eta_ms = elapsed / static_cast<double>(finished) *
                 static_cast<double>(remaining);

    const double cycles_per_sec =
        elapsed > 0.0 ? static_cast<double>(simCycles_) * 1000.0 / elapsed
                      : 0.0;

    out_ << "{\"event\":\"job\",\"done\":" << finished
         << ",\"total\":" << total
         << ",\"elapsed_ms\":" << jsonDouble(elapsed)
         << ",\"eta_ms\":" << jsonDouble(eta_ms)
         << ",\"sim_cycles\":" << simCycles_
         << ",\"sim_cycles_per_sec\":" << jsonDouble(cycles_per_sec)
         << ",\"cache_hits\":" << cacheHits_
         << ",\"cache_hit_rate\":"
         << jsonDouble(static_cast<double>(cacheHits_) /
                       static_cast<double>(finished))
         << ",\"host_ms\":" << jsonDouble(ranWallMs_)
         << ",\"job\":{\"key\":\""
         << jsonEscape(result.spec.canonicalKey())
         << "\",\"status\":\"" << jobStatusName(result.status)
         << "\",\"cycles\":" << result.cycles
         << ",\"wall_ms\":" << jsonDouble(result.wallMs)
         << ",\"from_cache\":" << (result.fromCache ? "true" : "false")
         << ",\"sampled\":" << (result.sampled ? "true" : "false")
         << "}}\n";
    out_.flush();
}

void
TelemetryWriter::finish(const CampaignSummary &summary)
{
    out_ << "{\"event\":\"summary\",\"total\":" << summary.total
         << ",\"ok\":" << summary.ok
         << ",\"timeout\":" << summary.timedOut
         << ",\"failed\":" << summary.failed
         << ",\"from_cache\":" << summary.fromCache
         << ",\"compiles\":" << summary.compiles
         << ",\"compile_cache_hits\":" << summary.compileHits
         << ",\"wall_ms\":" << jsonDouble(summary.wallMs)
         << ",\"sim_cycles\":" << simCycles_
         << ",\"host_ms\":" << jsonDouble(ranWallMs_)
         << ",\"jobs\":" << summary.jobs
         << ",\"critical_path_ms\":" << jsonDouble(summary.criticalPathMs)
         << ",\"max_queue_depth\":" << summary.maxQueueDepth << "}\n";
    out_.flush();
}

} // namespace mca::runner
