#include "support/bytes.hpp"

namespace pathsched {

void
putU8(std::string &out, uint8_t v)
{
    out.push_back(char(v));
}

void
putU16(std::string &out, uint16_t v)
{
    out.push_back(char(v & 0xFF));
    out.push_back(char((v >> 8) & 0xFF));
}

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(char((v >> (8 * i)) & 0xFF));
}

void
putStr(std::string &out, const std::string &s)
{
    putU32(out, uint32_t(s.size()));
    out += s;
}

bool
getU8(const std::string &in, size_t &pos, uint8_t &v)
{
    if (pos + 1 > in.size())
        return false;
    v = uint8_t(in[pos++]);
    return true;
}

bool
getU16(const std::string &in, size_t &pos, uint16_t &v)
{
    if (pos + 2 > in.size())
        return false;
    v = uint16_t(uint8_t(in[pos])) |
        uint16_t(uint16_t(uint8_t(in[pos + 1])) << 8);
    pos += 2;
    return true;
}

bool
getU32(const std::string &in, size_t &pos, uint32_t &v)
{
    if (pos + 4 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(uint8_t(in[pos + i])) << (8 * i);
    pos += 4;
    return true;
}

bool
getU64(const std::string &in, size_t &pos, uint64_t &v)
{
    if (pos + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(uint8_t(in[pos + i])) << (8 * i);
    pos += 8;
    return true;
}

bool
getStr(const std::string &in, size_t &pos, std::string &s)
{
    uint32_t len = 0;
    if (!getU32(in, pos, len))
        return false;
    // The length is attacker-controlled: bound it by what is actually
    // buffered before allocating.
    if (uint64_t(pos) + len > in.size())
        return false;
    s.assign(in, pos, len);
    pos += len;
    return true;
}

} // namespace pathsched
