/**
 * @file
 * Structured campaign-result emitters.
 *
 * JSON lines (one flat object per job, machine-diffable, streamable)
 * and CSV (spreadsheet-ready, one header row). Both formats carry the
 * same columns in the same order: `hash`, the spec's and the result's
 * field lists (forEachField in jobspec.hh), then `from_cache`. The
 * full spec travels with the measurements, so a results file is
 * self-describing — no join against the command line that produced it.
 *
 * ProgressPrinter renders the live `[done/total]` line campaigns show
 * on stderr while running; it is plumbed as CampaignOptions::onResult.
 */

#ifndef MCA_RUNNER_EMIT_HH
#define MCA_RUNNER_EMIT_HH

#include <cstddef>
#include <ostream>
#include <vector>

#include "runner/campaign.hh"
#include "runner/jobspec.hh"

namespace mca::runner
{

/** Write one result as a single-line JSON object (no trailing newline). */
void emitJsonLine(std::ostream &os, const JobResult &result);

/** Write every result, one JSON object per line. */
void emitJsonLines(std::ostream &os, const std::vector<JobResult> &results);

/** Write the CSV header row matching emitCsvRow's columns. */
void emitCsvHeader(std::ostream &os);

/** Write one result as a CSV row. */
void emitCsvRow(std::ostream &os, const JobResult &result);

/** Header + every result. */
void emitCsv(std::ostream &os, const std::vector<JobResult> &results);

/** Human summary line, e.g. "36 jobs: 34 ok, 1 timeout, 1 failed ...". */
void emitSummary(std::ostream &os, const CampaignSummary &summary);

/**
 * Live progress line: overwrites itself with \r while a campaign runs,
 * e.g. `[12/36] ok=10 timeout=1 failed=1 cache=4  compress/dual8/local`.
 * Call finish() before printing anything else to the same stream.
 */
class ProgressPrinter
{
  public:
    /** @param enabled  false turns every call into a no-op (--quiet). */
    explicit ProgressPrinter(std::ostream &os, bool enabled = true);

    /** CampaignOptions::onResult-compatible callback. */
    void operator()(std::size_t finished, std::size_t total,
                    const JobResult &result);

    /** Terminate the progress line with a newline (idempotent). */
    void finish();

  private:
    std::ostream &os_;
    bool enabled_;
    bool dirty_ = false;
    CampaignSummary tally_;
};

} // namespace mca::runner

#endif // MCA_RUNNER_EMIT_HH
