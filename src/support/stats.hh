/**
 * @file
 * Lightweight statistics package.
 *
 * Models the subset of gem5's stats that the reproduction needs: named
 * scalar counters, ratios (formulas evaluated at dump time), and bucketed
 * distributions, owned by a StatGroup so a whole processor's statistics can
 * be reset, iterated, and printed uniformly.
 */

#ifndef MCA_SUPPORT_STATS_HH
#define MCA_SUPPORT_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mca
{

/** A named, monotonically adjustable 64-bit counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(std::uint64_t n) { value_ += n; return *this; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Overwrite the value (checkpoint restore only). */
    void set(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/** Simple histogram over fixed-width buckets with overflow bucket. */
class Distribution
{
  public:
    Distribution() = default;

    /** Configure buckets covering [0, bucket_width * num_buckets). */
    void configure(std::uint64_t bucket_width, std::size_t num_buckets);

    void sample(std::uint64_t value, std::uint64_t count = 1);
    void reset();

    std::uint64_t samples() const { return samples_; }
    double mean() const;
    /** Population variance (E[x^2] - E[x]^2); 0 with < 2 samples. */
    double variance() const;
    /**
     * Bucket-resolution p-quantile, p in [0, 1]: the upper edge of the
     * first bucket whose cumulative count reaches ceil(p * samples),
     * clamped to the observed maximum (so a single-sample distribution
     * reports that sample at every p). Samples that landed in the
     * overflow bucket report max(). Returns 0 with no samples.
     */
    std::uint64_t percentile(double p) const;
    std::uint64_t max() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t sum() const { return sum_; }
    double sumSq() const { return sumSq_; }

    /**
     * Overwrite accumulators (checkpoint restore only). The bucket
     * vector must match the configured bucket count.
     */
    void restore(const std::vector<std::uint64_t> &buckets,
                 std::uint64_t overflow, std::uint64_t samples,
                 std::uint64_t sum, double sum_sq, std::uint64_t max);

  private:
    std::uint64_t bucketWidth_ = 1;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    /** Sum of squares, in floating point so huge samples cannot wrap. */
    double sumSq_ = 0.0;
    std::uint64_t max_ = 0;
};

/**
 * Registry of named statistics.
 *
 * Members register themselves under dotted names ("issue.dual_dist").
 * Formulas are std::functions evaluated lazily so dump-time ratios always
 * reflect the live counter values.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Create (or fetch) a counter under this group. */
    Counter &counter(const std::string &name, const std::string &desc = "");

    /** Create (or fetch) a distribution under this group. */
    Distribution &distribution(const std::string &name,
                               std::uint64_t bucket_width,
                               std::size_t num_buckets,
                               const std::string &desc = "");

    /** Register a derived value computed at dump time. */
    void formula(const std::string &name, std::function<double()> fn,
                 const std::string &desc = "");

    /** Look up an existing counter; panics if absent. */
    const Counter &counterAt(const std::string &name) const;

    /** True if a counter with this name exists. */
    bool hasCounter(const std::string &name) const;

    /** Evaluate a registered formula; panics if absent. */
    double formulaAt(const std::string &name) const;

    /** Mutable lookup of an existing counter; null if absent. */
    Counter *findCounter(const std::string &name);
    /** Mutable lookup of an existing distribution; null if absent. */
    Distribution *findDistribution(const std::string &name);

    /** Visit every counter in registration (name) order. */
    void forEachCounter(
        const std::function<void(const std::string &, const Counter &)>
            &fn) const;
    /** Visit every distribution in registration (name) order. */
    void forEachDistribution(
        const std::function<void(const std::string &, const Distribution &)>
            &fn) const;

    void resetAll();
    void dump(std::ostream &os) const;

    /** Machine-readable dump: one flat JSON object of name -> value. */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }

  private:
    struct CounterEntry { Counter counter; std::string desc; };
    struct DistEntry { Distribution dist; std::string desc; };
    struct FormulaEntry { std::function<double()> fn; std::string desc; };

    std::string name_;
    std::map<std::string, CounterEntry> counters_;
    std::map<std::string, DistEntry> dists_;
    std::map<std::string, FormulaEntry> formulas_;
};

} // namespace mca

#endif // MCA_SUPPORT_STATS_HH
