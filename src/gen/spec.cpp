#include "gen/spec.hpp"

#include <algorithm>
#include <cmath>

#include "support/strutil.hpp"

namespace pathsched::gen {

namespace {

/** Quantize a density so "%.4f" round-trips bit-exactly. */
double
quant(double d)
{
    d = std::clamp(d, 0.0, 1.0);
    return std::round(d * 10000.0) / 10000.0;
}

bool
parseDensity(const std::string &s, double &out)
{
    double v;
    if (!parseDouble(s, v) || v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

/** Parse "pK" or "pK.nJ"; node is left untouched for the bare form. */
bool
parseSite(const std::string &s, uint32_t &proc, uint32_t *node)
{
    if (s.size() < 2 || s[0] != 'p')
        return false;
    const size_t dot = s.find('.');
    if (dot == std::string::npos)
        return parseU32(s.substr(1), proc) && node == nullptr;
    if (node == nullptr)
        return false;
    const std::string n = s.substr(dot + 1);
    if (n.size() < 2 || n[0] != 'n')
        return false;
    return parseU32(s.substr(1, dot - 1), proc) &&
           parseU32(n.substr(1), *node);
}

} // namespace

const char *
branchKindName(BranchKind kind)
{
    switch (kind) {
      case BranchKind::Random:     return "random";
      case BranchKind::Tttf:       return "tttf";
      case BranchKind::Phased:     return "phased";
      case BranchKind::Correlated: return "corr";
      case BranchKind::Mixed:      return "mixed";
    }
    return "?";
}

bool
parseBranchKind(const std::string &text, BranchKind &out)
{
    if (text == "random")
        out = BranchKind::Random;
    else if (text == "tttf")
        out = BranchKind::Tttf;
    else if (text == "phased")
        out = BranchKind::Phased;
    else if (text == "corr")
        out = BranchKind::Correlated;
    else if (text == "mixed")
        out = BranchKind::Mixed;
    else
        return false;
    return true;
}

bool
GenSpec::procDropped(uint32_t proc) const
{
    for (const Edit &e : edits) {
        if (e.kind == Edit::Kind::DropProc && e.proc == proc)
            return true;
    }
    return false;
}

std::string
GenSpec::toString() const
{
    std::string s = strfmt(
        "seed=%llu,procs=%u,depth=%u,loopdepth=%u,stmts=%u,trips=%u,"
        "mem=%llu,calls=%.4f,loads=%.4f,stores=%.4f,emits=%.4f,"
        "ifs=%.4f,loops=%.4f,branch=%s,period=%u",
        (unsigned long long)seed, procs, depth, loopDepth, stmts,
        maxTrips, (unsigned long long)memWords, callDensity, loadDensity,
        storeDensity, emitDensity, ifDensity, loopDensity,
        branchKindName(branch), period);
    for (const Edit &e : edits) {
        switch (e.kind) {
          case Edit::Kind::DropProc:
            s += strfmt(",drop=p%u", e.proc);
            break;
          case Edit::Kind::DropStmt:
            s += strfmt(",drop=p%u.n%u", e.proc, e.node);
            break;
          case Edit::Kind::SetTrips:
            s += strfmt(",settrips=p%u.n%u:%u", e.proc, e.node, e.trips);
            break;
        }
    }
    return s;
}

bool
GenSpec::parse(const std::string &text, GenSpec &out, std::string &error)
{
    GenSpec spec;
    size_t pos = 0;
    while (pos <= text.size()) {
        size_t end = text.find(',', pos);
        if (end == std::string::npos)
            end = text.size();
        std::string item = text.substr(pos, end - pos);
        pos = end + 1;
        // Trim surrounding whitespace so specs paste cleanly.
        while (!item.empty() && (item.front() == ' ' || item.front() == '\t'))
            item.erase(item.begin());
        while (!item.empty() && (item.back() == ' ' || item.back() == '\t'))
            item.pop_back();
        if (item.empty()) {
            if (end == text.size())
                break;
            continue;
        }
        const size_t eq = item.find('=');
        if (eq == std::string::npos) {
            error = "expected key=value, got '" + item + "'";
            return false;
        }
        const std::string key = item.substr(0, eq);
        const std::string val = item.substr(eq + 1);
        bool ok = true;
        if (key == "seed") {
            ok = parseU64(val, spec.seed);
        } else if (key == "procs") {
            ok = parseU32(val, spec.procs);
        } else if (key == "depth") {
            ok = parseU32(val, spec.depth);
        } else if (key == "loopdepth") {
            ok = parseU32(val, spec.loopDepth);
        } else if (key == "stmts") {
            ok = parseU32(val, spec.stmts);
        } else if (key == "trips") {
            ok = parseU32(val, spec.maxTrips);
        } else if (key == "mem") {
            ok = parseU64(val, spec.memWords);
        } else if (key == "calls") {
            ok = parseDensity(val, spec.callDensity);
        } else if (key == "loads") {
            ok = parseDensity(val, spec.loadDensity);
        } else if (key == "stores") {
            ok = parseDensity(val, spec.storeDensity);
        } else if (key == "emits") {
            ok = parseDensity(val, spec.emitDensity);
        } else if (key == "ifs") {
            ok = parseDensity(val, spec.ifDensity);
        } else if (key == "loops") {
            ok = parseDensity(val, spec.loopDensity);
        } else if (key == "branch") {
            ok = parseBranchKind(val, spec.branch);
        } else if (key == "period") {
            ok = parseU32(val, spec.period);
        } else if (key == "drop") {
            Edit e;
            if (parseSite(val, e.proc, nullptr)) {
                e.kind = Edit::Kind::DropProc;
            } else if (parseSite(val, e.proc, &e.node)) {
                e.kind = Edit::Kind::DropStmt;
            } else {
                ok = false;
            }
            if (ok)
                spec.edits.push_back(e);
        } else if (key == "settrips") {
            Edit e;
            e.kind = Edit::Kind::SetTrips;
            const size_t colon = val.find(':');
            ok = colon != std::string::npos &&
                 parseSite(val.substr(0, colon), e.proc, &e.node) &&
                 parseU32(val.substr(colon + 1), e.trips);
            if (ok)
                spec.edits.push_back(e);
        } else {
            error = "unknown key '" + key + "'";
            return false;
        }
        if (!ok) {
            error = "bad value for '" + key + "': '" + val + "'";
            return false;
        }
        if (end == text.size())
            break;
    }
    out = spec;
    return true;
}

GenSpec
GenSpec::normalized() const
{
    GenSpec s = *this;
    s.procs = std::min(s.procs, 12u);
    s.depth = std::clamp(s.depth, 1u, 5u);
    s.loopDepth = std::min(s.loopDepth, std::min(s.depth, 3u));
    s.stmts = std::clamp(s.stmts, 1u, 12u);
    s.maxTrips = std::clamp(s.maxTrips, 1u, 32u);
    s.memWords = std::clamp<uint64_t>(s.memWords, 1, 4096);
    s.period = std::clamp(s.period, 2u, 64u);
    s.callDensity = quant(s.callDensity);
    s.loadDensity = quant(s.loadDensity);
    s.storeDensity = quant(s.storeDensity);
    s.emitDensity = quant(s.emitDensity);
    s.ifDensity = quant(s.ifDensity);
    s.loopDensity = quant(s.loopDensity);
    // Leave headroom for plain ALU statements: with the densities
    // summing near 1 a region would be all control flow and calls.
    const double sum = s.callDensity + s.loadDensity + s.storeDensity +
                       s.emitDensity + s.ifDensity + s.loopDensity;
    if (sum > 0.85) {
        const double f = 0.85 / sum;
        s.callDensity = quant(s.callDensity * f);
        s.loadDensity = quant(s.loadDensity * f);
        s.storeDensity = quant(s.storeDensity * f);
        s.emitDensity = quant(s.emitDensity * f);
        s.ifDensity = quant(s.ifDensity * f);
        s.loopDensity = quant(s.loopDensity * f);
    }
    return s;
}

} // namespace pathsched::gen
