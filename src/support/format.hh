/**
 * @file
 * Text forms every writer shares: the JSON string escape and the
 * round-trippable decimal form of a double.
 */

#ifndef MCA_SUPPORT_FORMAT_HH
#define MCA_SUPPORT_FORMAT_HH

#include <string>
#include <string_view>

namespace mca
{

/** `s` escaped for use inside a JSON double-quoted string. */
std::string jsonEscape(std::string_view s);

/** Round-trippable decimal form ("%.17g": 17 significant digits, so
 *  parsing it back gives the same double), stable across platforms. */
std::string formatDouble(double value);

/** formatDouble(value), or `null` for a non-finite value: JSON has no
 *  inf/nan literals. */
std::string jsonDouble(double value);

} // namespace mca

#endif // MCA_SUPPORT_FORMAT_HH
