#include "support/logging.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace pathsched {

namespace {

void
vreport(const char *tag, const char *file, int line, const char *fmt,
        va_list ap)
{
    // One locked write per line, so that workers reporting at the same
    // time never interleave their messages.
    flockfile(stderr);
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    if (file)
        std::fprintf(stderr, " @ %s:%d", file, line);
    std::fprintf(stderr, "\n");
    std::fflush(stderr);
    funlockfile(stderr);
}

int g_panic_exit_code = -1;

} // namespace

void
setPanicExitCode(int code)
{
    g_panic_exit_code = code;
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", file, line, fmt, ap);
    va_end(ap);
    if (g_panic_exit_code >= 0)
        std::_Exit(g_panic_exit_code);
    std::abort();
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", file, line, fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
warnImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", nullptr, 0, fmt, ap);
    va_end(ap);
}

void
informImpl(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("info", nullptr, 0, fmt, ap);
    va_end(ap);
}

} // namespace pathsched
