/**
 * @file
 * Hierarchical host-time self-profiler.
 *
 * The simulator has rich *guest* observability (src/obs) but the perf
 * roadmap needs *host* observability: which stage of the cycle loop,
 * which memory level, which compiler pass the wall clock actually goes
 * to. This package provides scoped RAII timers that build a per-thread
 * call tree of named regions:
 *
 *     void FetchUnit::tick() {
 *         PROF_SCOPE("core.fetch");
 *         ...
 *     }
 *
 * Design constraints, in order:
 *
 *  - **Off means off.** Profiling is disabled by default; a disabled
 *    PROF_SCOPE costs one relaxed atomic load and a predictable branch.
 *    Nothing else in the simulator observes the profiler, so simulated
 *    results are bit-identical with profiling on, off, or compiled out
 *    (define MCA_PROF_DISABLE to remove the scopes entirely).
 *  - **No locks on the hot path.** Each thread appends to its own arena
 *    of tree nodes reached through one `thread_local` pointer; the only
 *    global synchronization is a registry mutex taken once per thread
 *    lifetime and at snapshot time.
 *  - **Deterministic merge.** snapshot() folds every thread's tree into
 *    one profile keyed by region-name path with children sorted by
 *    name, so the merged structure and call counts are identical at any
 *    worker width (only the nanosecond values vary run to run).
 *
 * Accounting: a region's `total_ns` includes its children; `self_ns`
 * is total minus children. The scope timer reads the clock first thing
 * on entry and last thing on exit, so the timer's own overhead lands
 * inside the region being opened, never in the parent's self time —
 * every nanosecond between the first scope entry and the snapshot is
 * attributed to exactly one region's self time.
 *
 * Optionally (`setHwEnabled`), each region at depth <= 2 also samples a
 * perf_event_open group of four hardware counters (cycles,
 * instructions, cache misses, branch misses). When the kernel refuses
 * (unprivileged containers, CI) the profiler degrades to time-only and
 * records that fact in the profile header.
 *
 * Thread-safety: scopes are thread-local and free-running; snapshot()
 * and reset() must be called while instrumented worker threads are
 * quiescent (after the workers are joined, as Executor::run returns).
 */

#ifndef MCA_PROF_PROF_HH
#define MCA_PROF_PROF_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mca::prof
{

/** Dense index of an interned region name; stable for process life. */
using RegionId = std::uint32_t;

/** Intern @p name (thread-safe); equal names get equal ids. */
RegionId internRegion(std::string_view name);

/** Name for an id returned by internRegion. */
const std::string &regionName(RegionId id);

namespace detail
{
extern std::atomic<bool> enabledFlag;
struct ThreadData;
ThreadData &threadData();
} // namespace detail

/** True while scopes are recording. */
inline bool
enabled()
{
    return detail::enabledFlag.load(std::memory_order_relaxed);
}

/**
 * Turn recording on or off. Enabling also (re)marks the wall-clock
 * origin that Profile::wallNs is measured from. Flip before spawning
 * instrumented workers; scopes already open straddle the flip safely.
 */
void setEnabled(bool on);

/** Request hardware counters for shallow regions (depth <= 2). */
void setHwEnabled(bool on);

/** True if hardware counters were requested via setHwEnabled. */
bool hwRequested();

/**
 * True once at least one thread opened its perf_event group. Stays
 * false when the kernel denies access (seccomp, perf_event_paranoid).
 */
bool hwAvailable();

/** Summed hardware-counter deltas attributed to one region. */
struct HwCounts {
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t branchMisses = 0;
    bool valid = false; ///< at least one sample landed here
};

/** One region in the merged profile tree. */
struct ProfileNode {
    std::string name;
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0; ///< inclusive of children
    std::uint64_t childNs = 0; ///< sum of children's totalNs
    HwCounts hw;
    std::vector<ProfileNode> children; ///< sorted by name

    std::uint64_t
    selfNs() const
    {
        return totalNs > childNs ? totalNs - childNs : 0;
    }

    /** Direct child by name, or nullptr. */
    const ProfileNode *child(std::string_view name) const;

    /** Node at a /-free path of names ("a", "b", ...), or nullptr. */
    const ProfileNode *find(std::initializer_list<std::string_view> path)
        const;
};

/** A merged, deterministic snapshot of every thread's region tree. */
struct Profile {
    ProfileNode root;            ///< name "total"; totalNs = sum of children
    std::uint64_t wallNs = 0;    ///< steady-clock span since setEnabled(true)
    bool hwAvailable = false;
    unsigned threads = 0;        ///< threads that recorded at least one scope

    /** Deterministic JSON document (see docs/profiling.md). */
    void dumpJson(std::ostream &os) const;
    std::string jsonString() const;
};

/**
 * Merge all threads' trees into one profile. Call only while
 * instrumented workers are quiescent.
 */
Profile snapshot();

/** Drop all recorded data (tests). Same quiescence rule as snapshot. */
void reset();

/**
 * RAII region timer. Use through PROF_SCOPE; construct directly only
 * for dynamic region names (compiler passes, per-level cache regions)
 * where the RegionId is interned once and cached by the caller.
 */
class ScopeTimer
{
  public:
    explicit ScopeTimer(RegionId region)
        : td_(enabled() ? begin(region) : nullptr)
    {
    }

    ~ScopeTimer()
    {
        if (td_)
            end(*td_);
    }

    ScopeTimer(const ScopeTimer &) = delete;
    ScopeTimer &operator=(const ScopeTimer &) = delete;

  private:
    /** Open `region` on this thread; returns the thread's data. */
    static detail::ThreadData *begin(RegionId region);
    /** Close the innermost region open on `td`'s thread. */
    static void end(detail::ThreadData &td);

    /**
     * Null when the scope opened with recording off. An open region
     * keeps its entry time in its tree node (scopes nest, so each open
     * one has its own node), so a disabled scope costs the flag test
     * and this one pointer.
     */
    detail::ThreadData *td_;
};

} // namespace mca::prof

#define MCA_PROF_CONCAT2(a, b) a##b
#define MCA_PROF_CONCAT(a, b) MCA_PROF_CONCAT2(a, b)

#if defined(MCA_PROF_DISABLE)
#define PROF_SCOPE(name) ((void)0)
#else
/** Time the enclosing scope as region @p name (a string literal). */
#define PROF_SCOPE(name)                                                  \
    static const ::mca::prof::RegionId MCA_PROF_CONCAT(prof_region_,      \
        __LINE__) = ::mca::prof::internRegion(name);                      \
    ::mca::prof::ScopeTimer MCA_PROF_CONCAT(prof_scope_, __LINE__)(       \
        MCA_PROF_CONCAT(prof_region_, __LINE__))
#endif

#endif // MCA_PROF_PROF_HH
