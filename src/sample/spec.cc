#include "sample/spec.hh"

#include <stdexcept>

namespace mca::sample
{

void
SampleSpec::validate() const
{
    if (period == 0)
        throw std::runtime_error("sample spec: period must be >= 1");
    if (detail == 0)
        throw std::runtime_error("sample spec: detail must be >= 1");
    // Compared without the sum, which can wrap past 2^64.
    if (detail > period || warmup > period - detail)
        throw std::runtime_error(
            "sample spec: warmup+detail exceeds period (intervals overlap)");
    if (jobs == 0)
        throw std::runtime_error("sample spec: jobs must be >= 1");
}

} // namespace mca::sample
