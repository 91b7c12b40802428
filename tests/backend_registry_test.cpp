/**
 * @file
 * Tests for the scheduler-backend registry (pipeline/backend.hpp): the
 * descriptor table itself, the string-keyed lookup, capability flags,
 * and a grep-style guard that no raw `config == SchedConfig::X`
 * predicate survives outside the registry's own files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "pipeline/backend.hpp"

namespace pathsched::pipeline {
namespace {

TEST(BackendRegistry, BuiltinsRegisteredInCanonicalOrder)
{
    const auto &all = allBackends();
    const std::vector<std::string> expected = {"BB", "M4", "M16", "P4",
                                               "P4e"};
    ASSERT_EQ(all.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(all[i]->name, expected[i]);
}

TEST(BackendRegistry, NamesAndConfigsAreUnique)
{
    std::set<std::string> names;
    std::set<int> configs;
    for (const BackendDesc *be : allBackends()) {
        EXPECT_TRUE(names.insert(be->name).second) << be->name;
        EXPECT_TRUE(configs.insert(int(be->config)).second) << be->name;
        EXPECT_FALSE(std::string(be->summary).empty()) << be->name;
    }
}

TEST(BackendRegistry, StringLookupRoundTrips)
{
    for (const BackendDesc *be : allBackends()) {
        const BackendDesc *found = findBackend(be->name);
        ASSERT_NE(found, nullptr) << be->name;
        EXPECT_EQ(found, be);
        EXPECT_EQ(&backendFor(be->config), be);
        EXPECT_STREQ(configName(be->config), be->name);
    }
    EXPECT_EQ(findBackend("definitely-not-a-backend"), nullptr);
    EXPECT_EQ(findBackend(""), nullptr);
}

TEST(BackendRegistry, CapabilityFlagsMatchTheFamilies)
{
    const auto caps = [](const char *name) {
        const BackendDesc *be = findBackend(name);
        EXPECT_NE(be, nullptr) << name;
        return be;
    };
    // BB: no profile, no transform.
    EXPECT_EQ(caps("BB")->profile, FormProfile::None);
    EXPECT_FALSE(caps("BB")->needsProfile());
    EXPECT_FALSE(caps("BB")->hasTransform());
    // M-family: edge profile, superblocks.
    for (const char *n : {"M4", "M16"}) {
        EXPECT_EQ(caps(n)->profile, FormProfile::Edge) << n;
        EXPECT_TRUE(caps(n)->needsEdgeProfile()) << n;
        EXPECT_FALSE(caps(n)->needsPathProfile()) << n;
        EXPECT_TRUE(caps(n)->hasTransform()) << n;
    }
    // P-family: path profile, superblocks.
    for (const char *n : {"P4", "P4e"}) {
        EXPECT_EQ(caps(n)->profile, FormProfile::Path) << n;
        EXPECT_FALSE(caps(n)->needsEdgeProfile()) << n;
        EXPECT_TRUE(caps(n)->needsPathProfile()) << n;
        EXPECT_TRUE(caps(n)->hasTransform()) << n;
    }
    // The capabilities are derived from the preset, so they can never
    // disagree with it: exactly the profiled rows transform, and no row
    // consumes both profiles.
    for (const BackendDesc *be : allBackends()) {
        EXPECT_EQ(be->hasTransform(), be->needsProfile()) << be->name;
        EXPECT_FALSE(be->needsEdgeProfile() && be->needsPathProfile())
            << be->name;
    }
    EXPECT_STREQ(BackendDesc::transformLabel, "form");
}

// ---------------------------------------------------------------------
// The guard: enumerator comparisons must not come back.

bool
isSourceFile(const std::filesystem::path &p)
{
    const auto ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp";
}

TEST(BackendRegistry, NoRawSchedConfigComparisonsOutsideTheRegistry)
{
#ifndef PATHSCHED_SOURCE_DIR
    GTEST_SKIP() << "source tree location not compiled in";
#else
    namespace fs = std::filesystem;
    const fs::path root(PATHSCHED_SOURCE_DIR);
    ASSERT_TRUE(fs::exists(root / "src" / "pipeline" / "backend.hpp"))
        << "PATHSCHED_SOURCE_DIR does not point at the repo";

    // Built from pieces so this file does not match itself; the
    // registry's own files are the one sanctioned home of the pattern
    // (backend.hpp's doc comment quotes it as the anti-pattern).
    const std::string kind("SchedConfig::");
    const std::vector<std::string> needles = {
        "== " + kind, "!= " + kind, "==" + kind, "!=" + kind};

    std::vector<std::string> offenders;
    for (const char *dir : {"src", "tools", "examples", "bench",
                            "tests"}) {
        for (const auto &ent :
             fs::recursive_directory_iterator(root / dir)) {
            if (!ent.is_regular_file() || !isSourceFile(ent.path()))
                continue;
            const std::string rel =
                fs::relative(ent.path(), root).string();
            if (rel == "src/pipeline/backend.hpp" ||
                rel == "src/pipeline/backend.cpp" ||
                rel == "tests/backend_registry_test.cpp")
                continue;
            std::ifstream in(ent.path());
            std::stringstream ss;
            ss << in.rdbuf();
            const std::string text = ss.str();
            for (const std::string &needle : needles) {
                if (text.find(needle) != std::string::npos) {
                    offenders.push_back(rel + ": '" + needle + "'");
                    break;
                }
            }
        }
    }
    EXPECT_TRUE(offenders.empty())
        << "raw SchedConfig comparisons found — query the BackendDesc "
           "capabilities instead:\n  " +
               [&] {
                   std::string joined;
                   for (const auto &o : offenders)
                       joined += o + "\n  ";
                   return joined;
               }();
#endif
}

} // namespace
} // namespace pathsched::pipeline
