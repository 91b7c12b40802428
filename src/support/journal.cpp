#include "support/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "support/hash.hpp"
#include "support/strutil.hpp"

namespace pathsched {

std::string
withCrc(const std::string &json)
{
    const std::string rest = json.substr(1); // drop the opening '{'
    return strfmt("{\"crc\":\"%08x\",", crc32(rest.data(), rest.size())) +
           rest;
}

bool
crcLineOk(const std::string &line)
{
    const char prefix[] = "{\"crc\":\"";
    const size_t plen = sizeof prefix - 1; // 8
    if (line.compare(0, plen, prefix) != 0)
        return true; // legacy line: nothing to verify
    // {"crc":"xxxxxxxx",REST  — 8 hex digits, then '",'.
    if (line.size() < plen + 10)
        return false;
    uint32_t declared = 0;
    for (size_t i = plen; i < plen + 8; ++i) {
        const char c = line[i];
        uint32_t d;
        if (c >= '0' && c <= '9')
            d = uint32_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            d = uint32_t(c - 'a' + 10);
        else
            return false;
        declared = (declared << 4) | d;
    }
    if (line.compare(plen + 8, 2, "\",") != 0)
        return false;
    const size_t rest = plen + 10;
    return crc32(line.data() + rest, line.size() - rest) == declared;
}

JsonlJournal::JsonlJournal(const std::string &path, Vio *vio,
                           const std::string &label)
    : path_(path), label_(label),
      vio_(vio != nullptr ? vio : &Vio::system())
{}

JsonlJournal::~JsonlJournal()
{
    if (fd_ >= 0)
        ::close(fd_);
}

Status
JsonlJournal::open()
{
    Expected<int> fd = vio_->openFile(label_.c_str(), path_,
                                      O_WRONLY | O_CREAT | O_APPEND);
    if (!fd.ok())
        return fd.status();
    fd_ = fd.value();
    return Status();
}

Status
JsonlJournal::line(const std::string &json)
{
    // Each line carries its own CRC so a torn write (power loss,
    // SIGKILL mid-write) is detectable on resume.
    std::string checked = withCrc(json);
    checked += '\n';
    if (Status st = vio_->writeAll(label_.c_str(), fd_, checked.data(),
                                   checked.size(), path_);
        !st.ok())
        return st;
    // Survive SIGKILL of the writer: the line must be on disk before
    // the recorded side effects are considered durable.
    return vio_->fsyncFile(label_.c_str(), fd_, path_);
}

} // namespace pathsched
