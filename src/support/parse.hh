/**
 * @file
 * Whole-token parsing for values typed on a command line or in a spec:
 * no signs, no trailing garbage, no overflow, no empty list items.
 */

#ifndef MCA_SUPPORT_PARSE_HH
#define MCA_SUPPORT_PARSE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mca
{

/** All of `text` as a decimal integer in [min, max]; otherwise throws
 *  std::runtime_error with the reason. */
std::uint64_t parseUnsigned(const std::string &text, std::uint64_t min,
                            std::uint64_t max);

/** The items of a comma list; an empty item is an error. */
std::vector<std::string> parseList(const std::string &text);

} // namespace mca

#endif // MCA_SUPPORT_PARSE_HH
