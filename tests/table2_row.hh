/**
 * @file
 * One benchmark's Table-2 row for the tests, built the way the
 * campaign builds every row: that benchmark's three table2Jobs, run
 * through runCampaign and assembled by assembleTable2Rows.
 */

#ifndef MCA_TESTS_TABLE2_ROW_HH
#define MCA_TESTS_TABLE2_ROW_HH

#include <string>
#include <vector>

#include "runner/table2.hh"

namespace mca::test
{

inline harness::Table2Row
table2Row(const std::string &benchmark,
          const harness::ExperimentOptions &options)
{
    std::vector<runner::JobSpec> jobs;
    for (const runner::JobSpec &spec : runner::table2Jobs(options))
        if (spec.benchmark == benchmark)
            jobs.push_back(spec);
    return runner::assembleTable2Rows(runner::runCampaign(jobs, {}))
        .front();
}

} // namespace mca::test

#endif // MCA_TESTS_TABLE2_ROW_HH
