/**
 * @file
 * The Table-2 experiment expressed as a campaign.
 *
 * Each benchmark contributes three independent jobs — native binary on
 * the single-cluster machine, native on dual, locally-rescheduled on
 * dual — and the rows are assembled from the job results afterward.
 * This is the only way the experiment runs. Because every job
 * re-derives its workload and compilation deterministically from its
 * spec, the assembled rows are bit-identical at any `--jobs` width,
 * with cache hits, or across reruns; tests/table2_reference.hh pins
 * them to checked-in cycle counts.
 */

#ifndef MCA_RUNNER_TABLE2_HH
#define MCA_RUNNER_TABLE2_HH

#include <vector>

#include "harness/experiment.hh"
#include "runner/campaign.hh"

namespace mca::runner
{

/** The Table-2 job list: three jobs per benchmark, Table-2 order. */
std::vector<JobSpec> table2Jobs(const harness::ExperimentOptions &options);

struct Table2CampaignResult
{
    std::vector<harness::Table2Row> rows;
    /** The raw per-job results (for the JSONL/CSV emitters). */
    std::vector<JobResult> jobs;
    CampaignSummary summary;
};

/** Run the full Table-2 experiment through the campaign runner. */
Table2CampaignResult
runTable2Campaign(const harness::ExperimentOptions &options,
                  const CampaignOptions &campaign);

/** Rebuild rows from an already-run table2Jobs() result list. */
std::vector<harness::Table2Row>
assembleTable2Rows(const std::vector<JobResult> &jobs);

} // namespace mca::runner

#endif // MCA_RUNNER_TABLE2_HH
