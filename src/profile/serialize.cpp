#include "profile/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <vector>

#include "ir/procedure.hpp"
#include "support/strutil.hpp"

namespace pathsched::profile {

using ir::BlockId;
using ir::ProcId;

uint64_t
cfgFingerprint(const ir::Procedure &proc)
{
    uint64_t h = fnv1a64(nullptr, 0);
    h = fnv1a64Mix(h, proc.blocks.size());
    std::vector<BlockId> succs;
    for (const ir::BasicBlock &bb : proc.blocks) {
        succs.clear();
        ir::successorsOf(bb, succs);
        h = fnv1a64Mix(h, succs.size());
        for (BlockId s : succs)
            h = fnv1a64Mix(h, s);
        const bool conditional = !bb.empty() && bb.terminator().isBranch();
        h = fnv1a64Mix(h, conditional ? 1 : 0);
    }
    return h;
}

bool
ProfileMeta::fingerprintFor(uint32_t proc, uint64_t &out) const
{
    for (const auto &[p, fp] : fingerprints) {
        if (p == proc) {
            out = fp;
            return true;
        }
    }
    return false;
}

namespace {

/**
 * Strict unsigned parse of one whole token.  istream extraction into an
 * unsigned type silently wraps negative input ("-1" becomes 2^64-1) and
 * accepts partial tokens; profile text is untrusted, so every number
 * goes through std::from_chars with overflow, sign and trailing-garbage
 * rejection.
 */
bool
parseU64(const std::string &tok, uint64_t &out)
{
    if (tok.empty())
        return false;
    const char *first = tok.data();
    const char *last = first + tok.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && ptr == last;
}

bool
parseU32(const std::string &tok, uint32_t &out)
{
    uint64_t wide;
    if (!parseU64(tok, wide) || wide > UINT32_MAX)
        return false;
    out = uint32_t(wide);
    return true;
}

/** Strict whole-token lowercase/uppercase hex parse (≤16 digits). */
bool
parseHex64(const std::string &tok, uint64_t &out)
{
    if (tok.empty() || tok.size() > 16)
        return false;
    const char *first = tok.data();
    const char *last = first + tok.size();
    const auto [ptr, ec] = std::from_chars(first, last, out, 16);
    return ec == std::errc() && ptr == last;
}

/** std::getline over @p text from @p pos, without the copy of the
 *  (possibly very large) text an istringstream would make. */
bool
nextLine(const std::string &text, size_t &pos, std::string &line)
{
    if (pos >= text.size())
        return false;
    const size_t end = std::min(text.find('\n', pos), text.size());
    line.assign(text, pos, end - pos);
    pos = end + 1;
    return true;
}

/** Split @p line on runs of spaces/tabs. */
std::vector<std::string>
splitWs(const std::string &line)
{
    std::vector<std::string> toks;
    size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                                   line[i] == '\r'))
            ++i;
        const size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t' &&
               line[i] != '\r')
            ++i;
        if (i > start)
            toks.push_back(line.substr(start, i - start));
    }
    return toks;
}

/** The v2 checksum covers every byte after the header line's newline. */
uint64_t
bodyChecksum(const std::string &text)
{
    const size_t nl = text.find('\n');
    if (nl == std::string::npos)
        return fnv1a64(nullptr, 0);
    return fnv1a64(text.data() + nl + 1, text.size() - nl - 1);
}

std::string
fingerprintLines(const ir::Program &prog)
{
    std::ostringstream out;
    for (const ir::Procedure &proc : prog.procs)
        out << "fingerprint " << proc.id << ' '
            << hex16(cfgFingerprint(proc)) << '\n';
    return out.str();
}

/**
 * Shared per-record skip bookkeeping for the lenient loaders.  A record
 * is attributed to a procedure whenever its proc token still parses;
 * otherwise the skip is counted but unattributed.
 */
void
noteSkip(ProfileMeta &meta, const std::vector<std::string> &tok)
{
    ++meta.recordsSkipped;
    uint32_t p;
    if (tok.size() >= 2 && parseU32(tok[1], p)) {
        if (std::find(meta.skippedProcs.begin(), meta.skippedProcs.end(),
                      p) == meta.skippedProcs.end())
            meta.skippedProcs.push_back(p);
    } else {
        ++meta.unattributedSkips;
    }
}

/**
 * Parse one v1/v2 header line already split into @p tok.  On success
 * fills @p meta (version, checksum declaration) and, for a v2 header,
 * stores the declared checksum in @p declaredCrc.  @p paramTokens
 * receives the fixed parameter tokens between the version and any
 * `crc` field (empty for edge profiles, three tokens for path
 * profiles); the caller validates them.
 */
bool
parseHeader(const std::vector<std::string> &tok, const char *magic,
            size_t nparams, ProfileMeta &meta, uint64_t &declaredCrc,
            std::vector<std::string> &paramTokens)
{
    if (tok.size() < 2 || tok[0] != magic)
        return false;
    int version;
    if (tok[1] == "v1")
        version = 1;
    else if (tok[1] == "v2")
        version = 2;
    else
        return false;
    if (tok.size() < 2 + nparams)
        return false;
    paramTokens.assign(tok.begin() + 2, tok.begin() + 2 + nparams);
    size_t i = 2 + nparams;
    meta.version = version;
    if (version == 1)
        return i == tok.size();
    // v2 requires the crc field; nothing may follow it.
    if (i + 2 != tok.size() || tok[i] != "crc" ||
        !parseHex64(tok[i + 1], declaredCrc))
        return false;
    meta.hasChecksum = true;
    return true;
}

Status
badProfile(std::string msg)
{
    return Status::error(ErrorKind::BadProfile, std::move(msg));
}

} // namespace

std::string
toText(const EdgeProfiler &ep)
{
    std::ostringstream out;
    out << "edgeprofile v1\n";
    ep.forEachBlock([&](ProcId p, BlockId b, uint64_t n) {
        out << "block " << p << ' ' << b << ' ' << n << '\n';
    });
    ep.forEachEdge([&](ProcId p, BlockId from, BlockId to, uint64_t n) {
        out << "edge " << p << ' ' << from << ' ' << to << ' ' << n
            << '\n';
    });
    return out.str();
}

std::string
toTextV2(const EdgeProfiler &ep, const ir::Program &prog)
{
    // Body first: the header embeds the body's checksum.
    const std::string v1 = toText(ep);
    const size_t nl = v1.find('\n');
    std::string body = fingerprintLines(prog);
    body += v1.substr(nl + 1);
    return "edgeprofile v2 crc " + hex16(fnv1a64(body.data(), body.size())) +
           "\n" + body;
}

std::string
toText(const PathProfiler &pp)
{
    std::ostringstream out;
    out << "pathprofile v1 " << pp.params().maxBranches << ' '
        << pp.params().maxBlocks << ' '
        << (pp.params().forwardPathsOnly ? 1 : 0) << '\n';
    pp.forEachPath([&](ProcId p, const std::vector<BlockId> &seq,
                       uint64_t n) {
        out << "path " << p << ' ' << n << ' ' << seq.size();
        for (BlockId b : seq)
            out << ' ' << b;
        out << '\n';
    });
    return out.str();
}

std::string
toTextV2(const PathProfiler &pp, const ir::Program &prog)
{
    const std::string v1 = toText(pp);
    const size_t nl = v1.find('\n');
    std::string body = fingerprintLines(prog);
    body += v1.substr(nl + 1);
    return strfmt("pathprofile v2 %u %u %d crc ", pp.params().maxBranches,
                  pp.params().maxBlocks,
                  pp.params().forwardPathsOnly ? 1 : 0) +
           hex16(fnv1a64(body.data(), body.size())) + "\n" + body;
}

Status
loadEdgeProfile(const std::string &text, EdgeProfiler &ep,
                ProfileMeta &meta, const LoadOptions &opts)
{
    meta = ProfileMeta();
    size_t pos = 0;
    std::string line;
    uint64_t declared_crc = 0;
    std::vector<std::string> params;
    if (!nextLine(text, pos, line) ||
        !parseHeader(splitWs(line), "edgeprofile", 0, meta, declared_crc,
                     params))
        return badProfile("bad header: '" + line + "'");
    if (meta.hasChecksum) {
        meta.checksumOk = bodyChecksum(text) == declared_crc;
        if (!meta.checksumOk)
            return Status::error(
                ErrorKind::ProfileCorrupt,
                strfmt("edge profile checksum mismatch: header declares "
                       "%s, body hashes to %s",
                       hex16(declared_crc).c_str(),
                       hex16(bodyChecksum(text)).c_str()));
    }

    size_t lineno = 1;
    while (nextLine(text, pos, line)) {
        ++lineno;
        const std::vector<std::string> tok = splitWs(line);
        if (tok.empty())
            continue;
        if (tok[0] == "block") {
            uint32_t p, b;
            uint64_t n;
            if (tok.size() != 4 || !parseU32(tok[1], p) ||
                !parseU32(tok[2], b) || !parseU64(tok[3], n)) {
                if (opts.lenient) {
                    noteSkip(meta, tok);
                    continue;
                }
                return badProfile(
                    strfmt("line %zu: malformed block record", lineno));
            }
            if (!ep.addBlockCount(p, b, n)) {
                if (opts.lenient) {
                    noteSkip(meta, tok);
                    continue;
                }
                return badProfile(
                    strfmt("line %zu: block record names out-of-range "
                           "proc %u or block %u",
                           lineno, p, b));
            }
        } else if (tok[0] == "edge") {
            uint32_t p, from, to;
            uint64_t n;
            if (tok.size() != 5 || !parseU32(tok[1], p) ||
                !parseU32(tok[2], from) || !parseU32(tok[3], to) ||
                !parseU64(tok[4], n)) {
                if (opts.lenient) {
                    noteSkip(meta, tok);
                    continue;
                }
                return badProfile(
                    strfmt("line %zu: malformed edge record", lineno));
            }
            if (!ep.addEdgeCount(p, from, to, n)) {
                if (opts.lenient) {
                    noteSkip(meta, tok);
                    continue;
                }
                return badProfile(
                    strfmt("line %zu: edge record names out-of-range "
                           "proc %u or blocks %u->%u",
                           lineno, p, from, to));
            }
        } else if (tok[0] == "fingerprint" && meta.version >= 2) {
            uint32_t p;
            uint64_t fp;
            if (tok.size() != 3 || !parseU32(tok[1], p) ||
                !parseHex64(tok[2], fp)) {
                if (opts.lenient) {
                    noteSkip(meta, tok);
                    continue;
                }
                return badProfile(strfmt(
                    "line %zu: malformed fingerprint record", lineno));
            }
            meta.fingerprints.emplace_back(p, fp);
        } else {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(strfmt("line %zu: unknown record kind '%s'",
                                     lineno, tok[0].c_str()));
        }
    }
    return Status();
}

Status
loadPathProfile(const std::string &text, PathProfiler &pp,
                ProfileMeta &meta, const LoadOptions &opts)
{
    meta = ProfileMeta();
    // A finalized profiler cannot absorb raw counts (addPathCount would
    // assert); file input must surface this as a typed error instead.
    if (pp.finalized())
        return badProfile(
            "cannot load a path profile into a finalized profiler");

    size_t pos = 0;
    std::string line;
    uint64_t declared_crc = 0;
    std::vector<std::string> params;
    if (!nextLine(text, pos, line) ||
        !parseHeader(splitWs(line), "pathprofile", 3, meta, declared_crc,
                     params))
        return badProfile("bad path profile header");
    {
        uint32_t max_branches, max_blocks, forward;
        if (!parseU32(params[0], max_branches) ||
            !parseU32(params[1], max_blocks) ||
            !parseU32(params[2], forward) || forward > 1)
            return badProfile("bad path profile header");
        if (max_branches != pp.params().maxBranches ||
            max_blocks != pp.params().maxBlocks ||
            (forward != 0) != pp.params().forwardPathsOnly)
            return Status::error(
                ErrorKind::ProfileStale,
                strfmt("path profile parameters (%u branches, %u blocks, "
                       "forward=%u) do not match the profiler "
                       "(%u branches, %u blocks, forward=%d)",
                       max_branches, max_blocks, forward,
                       pp.params().maxBranches, pp.params().maxBlocks,
                       pp.params().forwardPathsOnly ? 1 : 0));
    }
    if (meta.hasChecksum) {
        meta.checksumOk = bodyChecksum(text) == declared_crc;
        if (!meta.checksumOk)
            return Status::error(
                ErrorKind::ProfileCorrupt,
                strfmt("path profile checksum mismatch: header declares "
                       "%s, body hashes to %s",
                       hex16(declared_crc).c_str(),
                       hex16(bodyChecksum(text)).c_str()));
    }

    std::vector<BlockId> seq;
    size_t lineno = 1;
    while (nextLine(text, pos, line)) {
        ++lineno;
        const std::vector<std::string> tok = splitWs(line);
        if (tok.empty())
            continue;
        if (tok[0] == "fingerprint" && meta.version >= 2) {
            uint32_t p;
            uint64_t fp;
            if (tok.size() != 3 || !parseU32(tok[1], p) ||
                !parseHex64(tok[2], fp)) {
                if (opts.lenient) {
                    noteSkip(meta, tok);
                    continue;
                }
                return badProfile(strfmt(
                    "line %zu: malformed fingerprint record", lineno));
            }
            meta.fingerprints.emplace_back(p, fp);
            continue;
        }
        if (tok[0] != "path") {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(strfmt("line %zu: unknown record kind '%s'",
                                     lineno, tok[0].c_str()));
        }
        uint32_t p;
        uint64_t n, len;
        if (tok.size() < 4 || !parseU32(tok[1], p) ||
            !parseU64(tok[2], n) || !parseU64(tok[3], len) || len == 0) {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(
                strfmt("line %zu: malformed path record", lineno));
        }
        // A window longer than the declared block budget could never
        // have been recorded; rejecting here also bounds the
        // allocation below against absurd lengths in corrupt input.
        if (len > pp.params().maxBlocks) {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(
                strfmt("line %zu: path length %llu exceeds the declared "
                       "block budget %u",
                       lineno, (unsigned long long)len,
                       pp.params().maxBlocks));
        }
        if (tok.size() != 4 + size_t(len)) {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(
                strfmt("line %zu: truncated path record (%zu of %llu "
                       "block ids)",
                       lineno, tok.size() - 4, (unsigned long long)len));
        }
        seq.assign(size_t(len), 0);
        bool blocks_ok = true;
        for (size_t k = 0; k < size_t(len); ++k) {
            if (!parseU32(tok[4 + k], seq[k])) {
                blocks_ok = false;
                break;
            }
        }
        if (!blocks_ok) {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(
                strfmt("line %zu: malformed path record", lineno));
        }
        if (!pp.addPathCount(p, seq, n)) {
            if (opts.lenient) {
                noteSkip(meta, tok);
                continue;
            }
            return badProfile(
                strfmt("line %zu: path record exceeds the profiling "
                       "budget or names out-of-range proc/blocks",
                       lineno));
        }
    }
    return Status();
}

} // namespace pathsched::profile
