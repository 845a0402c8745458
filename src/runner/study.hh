/**
 * @file
 * Named studies: Table 2, its 4-way companion and §4.2 cycle-time
 * analysis, and the ablations, extensions and sweeps that measure the
 * paper's design choices, each a fixed job list that `mcarun --study
 * NAME` runs through runCampaign. A study's jobs are built from one
 * base point carrying mcarun's --scale, --max-insts and trace seed
 * (also the profiling run's, as in every grid). One column printer
 * prints most studies' tables, and a plain grid's, from record columns
 * named as in the CSV header; a study may add gates that mcarun turns
 * into its exit status. See docs/campaigns.md, "Studies".
 */

#ifndef MCA_RUNNER_STUDY_HH
#define MCA_RUNNER_STUDY_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "runner/jobspec.hh"

namespace mca::runner
{

struct Study
{
    std::string name;
    /** The line printed above the study's table. */
    std::string title;
    /** The study's jobs, each a copy of `base` with the study's axes
     *  set. */
    std::function<std::vector<JobSpec>(const JobSpec &base)> jobs;
    /** The record columns its table prints, named as in the CSV
     *  header. */
    std::vector<std::string> columns;
    /** Print a `speedup_pct` column after `columns` (printColumns). */
    bool speedup = false;
    /** Print the study's results: a printer of its own, or the title
     *  line and printColumns() over `columns`. */
    std::function<void(std::ostream &, const std::vector<JobResult> &)>
        print;
    /** The study's gates, if it has any: one message naming the gate
     *  and the failing point per failure, none when every gate holds. */
    std::function<std::vector<std::string>(const std::vector<JobResult> &)>
        check;
};

/** Every registered study, `table2` first. */
const std::vector<Study> &studies();

/** The study named `name`; throws std::runtime_error listing the
 *  names otherwise. */
const Study &studyNamed(const std::string &name);

/** The registered names, in registry order. */
std::vector<std::string> studyNames();

/**
 * Print one row per result with the named record columns: strings,
 * integers and bools as the CSV writes them, doubles to four decimals.
 * With `speedup`, a last `speedup_pct` column compares each job with
 * its benchmark's single-cluster native job at the same unroll factor
 * (speedupPct in table2.hh), or reads `-` when the list has none.
 */
void printColumns(std::ostream &os, const std::vector<std::string> &columns,
                  const std::vector<JobResult> &results,
                  bool speedup = false);

} // namespace mca::runner

#endif // MCA_RUNNER_STUDY_HH
