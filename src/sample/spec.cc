#include "sample/spec.hh"

#include <sstream>
#include <stdexcept>

#include "support/parse.hh"

namespace mca::sample
{

SampleSpec
SampleSpec::parse(const std::string &text)
{
    const auto colon = text.find(':');
    const std::string modeName = text.substr(0, colon);

    SampleSpec spec;
    if (modeName == "systematic")
        spec.mode = Mode::Systematic;
    else if (modeName == "periodic")
        spec.mode = Mode::Periodic;
    else
        throw std::runtime_error("sample spec: unknown mode '" + modeName +
                                 "' (expected systematic or periodic)");

    if (colon != std::string::npos && colon + 1 < text.size()) {
        for (const std::string &item : parseList(text.substr(colon + 1))) {
            const auto eq = item.find('=');
            if (eq == std::string::npos)
                throw std::runtime_error(
                    "sample spec: expected key=value, got '" + item + "'");
            const std::string key = item.substr(0, eq);
            const std::uint64_t value =
                parseUnsigned(item.substr(eq + 1), 0, UINT64_MAX);
            if (key == "period")
                spec.period = value;
            else if (key == "detail")
                spec.detail = value;
            else if (key == "warmup")
                spec.warmup = value;
            else if (key == "offset")
                spec.offset = value;
            else if (key == "jobs")
                spec.jobs = static_cast<unsigned>(value);
            else
                throw std::runtime_error("sample spec: unknown key '" + key +
                                         "'");
        }
    }

    spec.validate();
    return spec;
}

void
SampleSpec::validate() const
{
    if (period == 0)
        throw std::runtime_error("sample spec: period must be >= 1");
    if (detail == 0)
        throw std::runtime_error("sample spec: detail must be >= 1");
    if (warmup + detail > period)
        throw std::runtime_error(
            "sample spec: warmup+detail exceeds period (intervals overlap)");
    if (jobs == 0)
        throw std::runtime_error("sample spec: jobs must be >= 1");
}

std::string
SampleSpec::canonical() const
{
    std::ostringstream out;
    out << (mode == Mode::Systematic ? "systematic" : "periodic")
        << ":period=" << period << ",detail=" << detail
        << ",warmup=" << warmup;
    if (mode == Mode::Periodic)
        out << ",offset=" << offset;
    return out.str();
}

} // namespace mca::sample
