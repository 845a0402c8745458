/**
 * @file
 * Content-addressed artifact store: one keyed namespace for everything
 * a campaign produces and might reuse.
 *
 * Historically the runner had two unrelated caches — an on-disk result
 * cache keyed by JobSpec content hash and an in-memory compile cache
 * keyed by (workload, compile-config). This class merges them into one
 * store with typed payloads under a single addressing scheme: every
 * artifact is named by the FNV-1a 64-bit content hash of its canonical
 * key string, and the payload type decides residency.
 *
 *  - **result** artifacts persist on disk, one text file per job at
 *    `<dir>/<hash>.result` holding `name<TAB>value` lines (format v7;
 *    see docs/campaigns.md): the version, the payload type, the full
 *    canonical key, then one line per field of the result's field
 *    list (forEachField in jobspec.hh). loadResult() verifies the key
 *    against the requesting spec, so a hash collision degrades to a
 *    miss, as does an entry missing a field or holding a value that
 *    does not parse whole. Writes go through a temporary + rename, a
 *    killed run never leaves a truncated entry, Failed jobs are never
 *    stored (a rerun retries them), and TimedOut jobs are (the cycle
 *    budget is part of the spec). Pre-v7 entries fail the version
 *    check and read as cold — no migration step.
 *
 *  - **compile** artifacts are in-memory and single-flight:
 *    getOrCompile() publishes a shared_future under the lock before
 *    running the builder outside it, so concurrent requests for one
 *    key run exactly one compile and the rest adopt the result. A
 *    builder that throws poisons its entry (every waiter rethrows),
 *    keeping outcomes deterministic across --jobs widths. The
 *    task-graph campaign (campaign.cc) adds one compile node per
 *    distinct key, so under the executor the future is always ready
 *    by the time a simulation job asks for it.
 */

#ifndef MCA_RUNNER_ARTIFACT_STORE_HH
#define MCA_RUNNER_ARTIFACT_STORE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "compiler/pipeline.hh"
#include "runner/jobspec.hh"

namespace mca::runner
{

class ArtifactStore
{
  public:
    using Compiled = std::shared_ptr<const compiler::CompileOutput>;
    using Builder = std::function<compiler::CompileOutput()>;

    /**
     * @param dir  Artifact directory (created on first store). Empty
     *             disables persistence: loadResult() always misses and
     *             storeResult() is a no-op; compile artifacts are
     *             unaffected (they are in-memory).
     */
    explicit ArtifactStore(std::string dir = "");

    /** True when result artifacts persist to disk. */
    bool persistent() const { return !dir_.empty(); }
    const std::string &dir() const { return dir_; }

    // --- result payloads ------------------------------------------------

    /** Fetch the stored result for `spec`, if present and key-valid. */
    std::optional<JobResult> loadResult(const JobSpec &spec) const;

    /** Persist one result (Failed results are skipped). */
    void storeResult(const JobResult &result) const;

    /** Path the given spec's artifact lives at (diagnostics/tests). */
    std::string resultPath(const JobSpec &spec) const;

    // --- compile payloads -----------------------------------------------

    /**
     * Return the compiled artifact for `key`, or run `build` (exactly
     * once across all threads asking for this key) and keep it. Sets
     * `*hit` (when non-null) to true iff this call did not run the
     * builder itself. Rethrows the builder's exception, on the
     * building call and on every waiter.
     */
    Compiled getOrCompile(const std::string &key, const Builder &build,
                          bool *hit = nullptr);

    /**
     * The compile-artifact key for one job: workload identity
     * (benchmark, scale) plus the compile-options canonical key.
     * Machine and run-control fields deliberately do not participate,
     * so grid points differing only in machine parameters share one
     * compiled binary.
     */
    static std::string compileKeyFor(const JobSpec &spec,
                                     const compiler::CompileOptions &options);

    struct Stats
    {
        std::uint64_t compileLookups = 0;
        /** Lookups served by someone else's compile. */
        std::uint64_t compileHits = 0;
        /** Builder invocations == distinct compile keys seen. */
        std::uint64_t compiles = 0;
        /** loadResult calls that returned a stored result. */
        std::uint64_t resultHits = 0;
    };

    Stats stats() const;

  private:
    std::string dir_;
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_future<Compiled>> compiled_;
    mutable Stats stats_;
};

} // namespace mca::runner

#endif // MCA_RUNNER_ARTIFACT_STORE_HH
