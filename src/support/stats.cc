#include "support/stats.hh"

#include <charconv>
#include <cmath>
#include <iomanip>

#include "support/format.hh"
#include "support/panic.hh"

namespace mca
{

void
Distribution::configure(std::uint64_t bucket_width, std::size_t num_buckets)
{
    MCA_ASSERT(bucket_width > 0, "distribution bucket width must be > 0");
    bucketWidth_ = bucket_width;
    buckets_.assign(num_buckets, 0);
    reset();
}

void
Distribution::sample(std::uint64_t value, std::uint64_t count)
{
    const std::size_t idx = value / bucketWidth_;
    if (idx < buckets_.size())
        buckets_[idx] += count;
    else
        overflow_ += count;
    samples_ += count;
    sum_ += value * count;
    sumSq_ += static_cast<double>(value) * static_cast<double>(value) *
              static_cast<double>(count);
    if (value > max_)
        max_ = value;
}

void
Distribution::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = 0;
    samples_ = 0;
    sum_ = 0;
    sumSq_ = 0.0;
    max_ = 0;
}

double
Distribution::mean() const
{
    return samples_ == 0 ? 0.0
                         : static_cast<double>(sum_) /
                               static_cast<double>(samples_);
}

double
Distribution::variance() const
{
    if (samples_ < 2)
        return 0.0;
    const double m = mean();
    const double v = sumSq_ / static_cast<double>(samples_) - m * m;
    return v > 0.0 ? v : 0.0; // clamp -0.0 / rounding residue
}

std::uint64_t
Distribution::percentile(double p) const
{
    if (samples_ == 0)
        return 0;
    if (p <= 0.0)
        p = 0.0;
    if (p >= 1.0)
        return max_;
    const auto target = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(samples_)));
    const std::uint64_t want = target == 0 ? 1 : target;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cum += buckets_[i];
        if (cum >= want) {
            const std::uint64_t upper =
                (static_cast<std::uint64_t>(i) + 1) * bucketWidth_ - 1;
            return upper < max_ ? upper : max_;
        }
    }
    return max_; // quantile falls in the overflow bucket
}

void
Distribution::restore(const std::vector<std::uint64_t> &buckets,
                      std::uint64_t overflow, std::uint64_t samples,
                      std::uint64_t sum, double sum_sq, std::uint64_t max)
{
    MCA_ASSERT(buckets.size() == buckets_.size(),
               "distribution restore: bucket count mismatch");
    buckets_ = buckets;
    overflow_ = overflow;
    samples_ = samples;
    sum_ = sum;
    sumSq_ = sum_sq;
    max_ = max;
}

Counter &
StatGroup::counter(const std::string &name, const std::string &desc)
{
    auto [it, inserted] = counters_.try_emplace(name);
    if (inserted)
        it->second.desc = desc;
    return it->second.counter;
}

Distribution &
StatGroup::distribution(const std::string &name, std::uint64_t bucket_width,
                        std::size_t num_buckets, const std::string &desc)
{
    auto [it, inserted] = dists_.try_emplace(name);
    if (inserted) {
        it->second.desc = desc;
        it->second.dist.configure(bucket_width, num_buckets);
    }
    return it->second.dist;
}

void
StatGroup::formula(const std::string &name, std::function<double()> fn,
                   const std::string &desc)
{
    formulas_[name] = FormulaEntry{std::move(fn), desc};
}

const Counter &
StatGroup::counterAt(const std::string &name) const
{
    auto it = counters_.find(name);
    if (it == counters_.end())
        MCA_PANIC("no counter named '", name, "' in group '", name_, "'");
    return it->second.counter;
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return counters_.count(name) != 0;
}

double
StatGroup::formulaAt(const std::string &name) const
{
    auto it = formulas_.find(name);
    if (it == formulas_.end())
        MCA_PANIC("no formula named '", name, "' in group '", name_, "'");
    return it->second.fn();
}

Counter *
StatGroup::findCounter(const std::string &name)
{
    auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : &it->second.counter;
}

Distribution *
StatGroup::findDistribution(const std::string &name)
{
    auto it = dists_.find(name);
    return it == dists_.end() ? nullptr : &it->second.dist;
}

void
StatGroup::forEachCounter(
    const std::function<void(const std::string &, const Counter &)> &fn)
    const
{
    for (const auto &[name, entry] : counters_)
        fn(name, entry.counter);
}

void
StatGroup::forEachDistribution(
    const std::function<void(const std::string &, const Distribution &)>
        &fn) const
{
    for (const auto &[name, entry] : dists_)
        fn(name, entry.dist);
}

void
StatGroup::resetAll()
{
    for (auto &[name, entry] : counters_)
        entry.counter.reset();
    for (auto &[name, entry] : dists_)
        entry.dist.reset();
}

void
StatGroup::dump(std::ostream &os) const
{
    os << "==== stats: " << name_ << " ====\n";
    for (const auto &[name, entry] : counters_) {
        os << std::left << std::setw(40) << name << std::right
           << std::setw(16) << entry.counter.value();
        if (!entry.desc.empty())
            os << "  # " << entry.desc;
        os << "\n";
    }
    for (const auto &[name, entry] : formulas_) {
        os << std::left << std::setw(40) << name << std::right
           << std::setw(16) << std::fixed << std::setprecision(4)
           << entry.fn();
        if (!entry.desc.empty())
            os << "  # " << entry.desc;
        os << "\n";
    }
    for (const auto &[name, entry] : dists_) {
        os << std::left << std::setw(40) << name << std::right
           << "  samples=" << entry.dist.samples()
           << " mean=" << std::fixed << std::setprecision(2)
           << entry.dist.mean() << " max=" << entry.dist.max();
        if (!entry.desc.empty())
            os << "  # " << entry.desc;
        os << "\n";
    }
}

namespace
{

/**
 * Shortest round-trippable decimal form via std::to_chars: immune to
 * the global locale and to stream precision state, and deterministic
 * across platforms (unlike operator<<, which a stray
 * std::setlocale(LC_NUMERIC, ...) turns into "0,3").
 */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null"; // JSON has no inf/nan literals
    char buf[40];
    const auto r = std::to_chars(buf, buf + sizeof buf, value);
    if (r.ec != std::errc{})
        return "null";
    std::string out(buf, r.ptr);
    // Keep integral doubles visually typed ("3.0", not "3").
    if (out.find_first_of(".eE") == std::string::npos)
        out += ".0";
    return out;
}

} // namespace

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << "{\n  \"group\": \"" << jsonEscape(name_) << "\"";
    for (const auto &[name, entry] : counters_)
        os << ",\n  \"" << jsonEscape(name)
           << "\": " << entry.counter.value();
    for (const auto &[name, entry] : formulas_)
        os << ",\n  \"" << jsonEscape(name)
           << "\": " << jsonNumber(entry.fn());
    for (const auto &[name, entry] : dists_) {
        const std::string key = jsonEscape(name);
        os << ",\n  \"" << key << ".samples\": "
           << entry.dist.samples();
        os << ",\n  \"" << key
           << ".mean\": " << jsonNumber(entry.dist.mean());
        os << ",\n  \"" << key << ".max\": " << entry.dist.max();
    }
    os << "\n}\n";
}

} // namespace mca
