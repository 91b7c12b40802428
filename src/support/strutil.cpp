#include "support/strutil.hpp"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "support/logging.hpp"

namespace pathsched {

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(size_t(n), '\0');
    std::vsnprintf(out.data(), size_t(n) + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

std::string
join(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += sep;
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::string
withCommas(uint64_t value)
{
    std::string digits = std::to_string(value);
    std::string out;
    const size_t n = digits.size();
    for (size_t i = 0; i < n; ++i) {
        if (i && (n - i) % 3 == 0)
            out += ',';
        out += digits[i];
    }
    return out;
}

std::string
padLeft(const std::string &s, size_t width)
{
    return s.size() >= width ? s : std::string(width - s.size(), ' ') + s;
}

std::string
padRight(const std::string &s, size_t width)
{
    return s.size() >= width ? s : s + std::string(width - s.size(), ' ');
}

bool
parseU64(std::string_view text, uint64_t &out)
{
    if (text.empty())
        return false;
    const char *last = text.data() + text.size();
    uint64_t v;
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last)
        return false;
    out = v;
    return true;
}

bool
parseU32(std::string_view text, uint32_t &out)
{
    uint64_t wide;
    if (!parseU64(text, wide) || wide > UINT32_MAX)
        return false;
    out = uint32_t(wide);
    return true;
}

bool
parseDouble(std::string_view text, double &out)
{
    if (text.empty())
        return false;
    const char *last = text.data() + text.size();
    double v;
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

uint64_t
flagU64(const char *flag, std::string_view text, uint64_t max)
{
    uint64_t v;
    if (!parseU64(text, v))
        fatal("%s wants a non-negative integer, got '%.*s'", flag,
              int(text.size()), text.data());
    if (v > max)
        fatal("%s wants at most %llu, got '%.*s'", flag,
              (unsigned long long)max, int(text.size()), text.data());
    return v;
}

double
flagDouble(const char *flag, std::string_view text)
{
    double v;
    if (!parseDouble(text, v))
        fatal("%s wants a finite number, got '%.*s'", flag,
              int(text.size()), text.data());
    return v;
}

} // namespace pathsched
