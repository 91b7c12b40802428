/**
 * @file
 * String helpers: formatting for table-style report output, the
 * separator split the fault-spec grammars share, and the one checked
 * number parser every text format and command-line tool shares.
 */

#ifndef PATHSCHED_SUPPORT_STRUTIL_HPP
#define PATHSCHED_SUPPORT_STRUTIL_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pathsched {

/** printf-style formatting into a std::string. */
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Join the elements of @p parts with @p sep. */
std::string join(const std::vector<std::string> &parts,
                 const std::string &sep);

/** Split @p s on @p sep, dropping empty pieces. */
std::vector<std::string> splitOn(const std::string &s, char sep);

/** Render a count with thousands separators, e.g. 1234567 -> "1,234,567". */
std::string withCommas(uint64_t value);

/** Left-pad @p s with spaces to at least @p width characters. */
std::string padLeft(const std::string &s, size_t width);

/** Right-pad @p s with spaces to at least @p width characters. */
std::string padRight(const std::string &s, size_t width);

/** @name Whole-token number parsing
 *  Each parse accepts all of @p text or fails, leaving @p out alone: no
 *  sign, no blanks, no trailing characters, no overflow
 *  (std::from_chars semantics).
 *  strtoull and istream extraction silently wrap "-1" to 2^64-1 and
 *  accept partial tokens, so every untrusted number goes through these.
 *  @{
 */
bool parseU64(std::string_view text, uint64_t &out);
bool parseU32(std::string_view text, uint32_t &out);
/** A finite decimal floating-point number ("inf" and "nan" fail). */
bool parseDouble(std::string_view text, double &out);
/** @} */

/** @name Command-line flag values
 *  The value @p text of numeric option @p flag; anything else exits
 *  through fatal() with "<flag> wants ..." naming the flag.
 *  @{
 */
uint64_t flagU64(const char *flag, std::string_view text,
                 uint64_t max = UINT64_MAX);
double flagDouble(const char *flag, std::string_view text);
/** @} */

} // namespace pathsched

#endif // PATHSCHED_SUPPORT_STRUTIL_HPP
