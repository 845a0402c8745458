/**
 * @file
 * The typed flag table both command-line tools parse with: a row is a
 * flag's name, value metavar (empty for a switch), one line of help with
 * the default, and an action that parses, validates and stores the
 * value. The point parameters are written once and bound to one JobSpec
 * (mcasim) or to a CampaignGrid (mcarun). See docs/campaigns.md.
 */

#ifndef MCA_RUNNER_FLAGS_HH
#define MCA_RUNNER_FLAGS_HH

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "support/parse.hh"

namespace mca::runner
{

/** A command-line mistake; what() is `<flag>: <reason>`. */
struct UsageError : std::runtime_error
{
    UsageError(const std::string &flag, const std::string &reason)
        : std::runtime_error(flag + ": " + reason) {}
};

struct Flag
{
    /** Parse, check and store a value ("" for a switch); throws the
     *  reason, and parseFlags() adds the flag. */
    using Action = std::function<void(const std::string &value)>;

    std::string name;    ///< empty: a --help section heading
    std::string metavar; ///< empty: a switch
    std::string help;    ///< one line, ending with the default
    Action action;
};

using FlagTable = std::vector<Flag>;

/** A switch that stores true. */
Flag::Action set(bool &out);

/** Text, such as a path, stored as typed. */
Flag::Action store(std::string &out);

/** An unsigned integer in [min, max]. */
template <class T>
Flag::Action
number(T &out, T min = 0, T max = std::numeric_limits<T>::max())
{
    return [&out, min, max](const std::string &value) {
        out = static_cast<T>(parseUnsigned(value, min, max));
    };
}

/** The point parameters bound to one JobSpec, with `--clusters N` (the
 *  8-way machine with N clusters). */
FlagTable pointFlags(JobSpec &spec);

/** The point parameters bound to a grid, with its sampling axis: an
 *  axis takes a list, and every other parameter is one value all jobs
 *  share. */
FlagTable gridFlags(CampaignGrid &grid);

/** Run each argument's row, in order. Throws UsageError. */
void parseFlags(const FlagTable &table,
                const std::vector<std::string> &args);

/**
 * parseFlags() over argv with the rows every tool adds (--help and -h,
 * which print `title` and a line per row, --version, --list-benchmarks,
 * --log-level and --quiet), then `check` for mistakes across flags. A
 * UsageError prints `<tool>: <flag>: <reason>` and exits with status 2.
 */
void parseCommandLine(const std::string &title, FlagTable rows, bool &quiet,
                      int argc, char **argv,
                      const std::function<void()> &check);

/**
 * Check an assembled point as runJob does (JobSpec::validate(), then
 * machineConfigFor()) and return its machine. A mistake only the whole
 * point shows is a UsageError naming the point.
 */
core::ProcessorConfig checkPoint(const JobSpec &spec);

} // namespace mca::runner

#endif // MCA_RUNNER_FLAGS_HH
