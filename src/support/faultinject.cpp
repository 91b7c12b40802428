#include "support/faultinject.hpp"

#include "support/strutil.hpp"

namespace pathsched {

bool
FaultInjector::parse(const std::string &spec, std::string &error)
{
    std::vector<FaultSpec> parsed;
    for (const std::string &one : splitOn(spec, ';')) {
        FaultSpec f;
        for (const std::string &field : splitOn(one, ',')) {
            const size_t eq = field.find('=');
            if (eq == std::string::npos) {
                error = strfmt("fault field '%s' lacks '='",
                               field.c_str());
                return false;
            }
            const std::string key = field.substr(0, eq);
            const std::string val = field.substr(eq + 1);
            if (key == "stage") {
                f.stage = val;
            } else if (key == "proc") {
                if (val == "*") {
                    f.proc = FaultSpec::kAnyProc;
                } else {
                    uint64_t id;
                    if (!parseU64(val, id) || id >= FaultSpec::kAnyProc) {
                        error = strfmt("bad proc id '%s'", val.c_str());
                        return false;
                    }
                    f.proc = uint32_t(id);
                }
            } else if (key == "kind") {
                if (!parseErrorKind(val, f.kind)) {
                    error = strfmt("unknown error kind '%s'",
                                   val.c_str());
                    return false;
                }
            } else if (key == "count") {
                if (!parseU64(val, f.maxFires) || f.maxFires == 0) {
                    error = strfmt("bad fire count '%s'", val.c_str());
                    return false;
                }
            } else if (key == "prob") {
                if (!parseDouble(val, f.prob) || f.prob < 0.0 ||
                    f.prob > 1.0) {
                    error = strfmt("bad probability '%s'", val.c_str());
                    return false;
                }
            } else {
                error = strfmt("unknown fault field '%s'", key.c_str());
                return false;
            }
        }
        if (f.stage.empty()) {
            error = "fault spec lacks a stage= field";
            return false;
        }
        parsed.push_back(std::move(f));
    }
    if (parsed.empty()) {
        error = "empty fault spec";
        return false;
    }
    for (FaultSpec &f : parsed)
        add(std::move(f));
    return true;
}

void
FaultInjector::add(FaultSpec fault)
{
    std::lock_guard<std::mutex> lock(mu_);
    faults_.push_back({std::move(fault), 0});
}

bool
FaultInjector::empty() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return faults_.empty();
}

size_t
FaultInjector::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return faults_.size();
}

uint64_t
FaultInjector::totalFired() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return totalFired_;
}

std::optional<ErrorKind>
FaultInjector::fire(const std::string &stage, uint32_t proc)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (Armed &a : faults_) {
        if (a.spec.stage != stage)
            continue;
        if (a.spec.proc != FaultSpec::kAnyProc && a.spec.proc != proc)
            continue;
        if (a.fired >= a.spec.maxFires)
            continue;
        if (a.spec.prob < 1.0 && !rng_.chance(a.spec.prob))
            continue;
        ++a.fired;
        ++totalFired_;
        return a.spec.kind;
    }
    return std::nullopt;
}

Status
FaultInjector::check(const char *stage, uint32_t proc)
{
    const std::optional<ErrorKind> kind = fire(stage, proc);
    if (!kind)
        return Status();
    return Status::error(*kind, strfmt("injected fault at %s", stage));
}

} // namespace pathsched
