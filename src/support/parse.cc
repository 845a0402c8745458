#include "support/parse.hh"

#include <charconv>
#include <stdexcept>

namespace mca
{

std::uint64_t
parseUnsigned(const std::string &text, std::uint64_t min, std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec == std::errc::invalid_argument || ptr != end)
        throw std::runtime_error("'" + text + "' is not an unsigned integer");
    if (ec == std::errc::result_out_of_range || value > max)
        throw std::runtime_error(text + " is above " + std::to_string(max));
    if (value < min)
        throw std::runtime_error(text + " is below " + std::to_string(min));
    return value;
}

std::vector<std::string>
parseList(const std::string &text)
{
    std::vector<std::string> items;
    for (std::size_t start = 0, comma = 0; comma != std::string::npos;
         start = comma + 1) {
        comma = text.find(',', start);
        items.push_back(text.substr(start, comma - start));
        if (items.back().empty())
            throw std::runtime_error("empty item in '" + text + "'");
    }
    return items;
}

} // namespace mca
