/**
 * @file
 * Whole-pipeline property tests on random programs: every
 * configuration must preserve behaviour on generated control flow too
 * (not just the curated workloads), across generator shapes that
 * stress different passes — call-free (pure CFG), store-heavy (memory
 * dependences), deeply nested (formation), and default.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "form/form.hpp"
#include "ir/verifier.hpp"
#include "pipeline/pipeline.hpp"
#include "profile/serialize.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"

namespace pstest = pathsched::testing;

namespace pathsched::pipeline {
namespace {

struct RandomCase
{
    uint64_t seed;
    SchedConfig config;
    int shape; // generator-parameter variant
};

pstest::GenParams
shapeParams(int shape)
{
    pstest::GenParams p;
    switch (shape) {
      case 0: // default
        break;
      case 1: // pure control flow: stresses formation/scheduling only
        p.allowCalls = false;
        p.allowLoads = false;
        p.allowStores = false;
        p.maxDepth = 4;
        break;
      case 2: // memory heavy: stresses dependence construction
        p.allowCalls = false;
        p.maxStmtsPerRegion = 8;
        break;
      case 3: // deep nesting and calls: stresses trace termination
        p.maxDepth = 5;
        p.numProcs = 5;
        break;
      default:
        break;
    }
    return p;
}

class RandomPipeline : public ::testing::TestWithParam<RandomCase>
{};

TEST_P(RandomPipeline, BehaviourPreservedEndToEnd)
{
    const RandomCase &c = GetParam();
    pstest::GeneratedProgram gen =
        pstest::makeRandomProgram(c.seed, shapeParams(c.shape));

    // Train on one input, test on a different one: derives fresh data
    // for the memory image so formation decisions are profiled on a
    // genuinely different run, as the paper's train/test split does.
    pstest::GeneratedProgram other =
        pstest::makeRandomProgram(c.seed ^ 0x5a5a5a5a,
                                  shapeParams(c.shape));
    interp::ProgramInput test = gen.input;
    if (test.memImage.size() == other.input.memImage.size())
        test.memImage = other.input.memImage;

    PipelineOptions opts;
    // Random programs are tiny; exercise the cache path anyway.
    opts.useICache = (c.seed % 2) == 0;
    const PipelineResult r =
        runPipeline(gen.program, gen.input, test, c.config, opts);
    EXPECT_TRUE(r.outputMatches) << "seed " << c.seed;
    EXPECT_GT(r.test.cycles, 0u);
}

std::vector<RandomCase>
randomCases()
{
    std::vector<RandomCase> cases;
    const SchedConfig configs[] = {SchedConfig::M4, SchedConfig::M16,
                                   SchedConfig::P4, SchedConfig::P4e};
    for (uint64_t seed = 100; seed < 110; ++seed) {
        for (const SchedConfig config : configs)
            cases.push_back({seed, config, int(seed % 4)});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::ValuesIn(randomCases()));

// ---------------------------------------------------------------------
// Corrupt-profile fuzzing: serialized profiles that have been bit
// flipped, digit-mangled, or truncated must either be rejected cleanly
// by loadPathProfile (with an error message) or load into a profile
// that the pipeline's formation layer can consume without crashing —
// and any program it produces must still behave identically.  A
// corrupt profile may make formation pick silly traces; it must never
// make the compiled program compute something else.

/** Apply 1..4 seed-deterministic mutations to serialized profile text. */
std::string
corruptText(std::string text, Rng &rng)
{
    if (text.empty())
        return text;
    const uint64_t edits = 1 + rng.below(4);
    for (uint64_t e = 0; e < edits; ++e) {
        switch (rng.below(4)) {
          case 0: // flip one bit
            text[rng.below(text.size())] ^= char(1u << rng.below(8));
            break;
          case 1: // swap in a random digit (mangles ids and counts)
            text[rng.below(text.size())] =
                char('0' + rng.below(10));
            break;
          case 2: // truncate (mid-record truncation included)
            text.resize(rng.below(text.size() + 1));
            break;
          case 3: { // duplicate a chunk (repeated / overlong records)
            const size_t at = size_t(rng.below(text.size()));
            const size_t len =
                std::min<size_t>(text.size() - at,
                                 size_t(1 + rng.below(40)));
            text.insert(at, text.substr(at, len));
            break;
          }
        }
        if (text.empty())
            return text;
    }
    return text;
}

class CorruptProfile : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(CorruptProfile, RejectsCleanlyOrPreservesBehaviour)
{
    const uint64_t seed = GetParam();
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(seed);
    const interp::RunResult baseline =
        interp::Interpreter(gen.program).run(gen.input);

    // Collect a genuine path profile and serialize it.
    profile::PathProfiler trained(gen.program, {});
    {
        interp::Interpreter interp(gen.program);
        interp.addListener(&trained);
        interp.run(gen.input);
    }
    const std::string text = profile::toText(trained);

    // Many corruption rounds per seed: each round mutates the pristine
    // text independently so late rounds aren't biased by earlier ones.
    Rng rng(seed ^ 0xc0221017u);
    for (int round = 0; round < 32; ++round) {
        const std::string corrupt = corruptText(text, rng);
        profile::PathProfiler loaded(gen.program, {});
        profile::ProfileMeta meta;
        const Status st = profile::loadPathProfile(corrupt, loaded, meta);
        if (!st.ok()) {
            EXPECT_FALSE(st.message().empty()) << "round " << round;
            continue; // clean rejection
        }

        // The corruption survived parsing (e.g. only counts changed).
        // Formation must still be safe: form each procedure the way
        // runPipeline does, restoring the original body when a
        // procedure's formation reports an error (the BB quarantine).
        loaded.finalize();
        ir::Program prog = gen.program;
        form::FormConfig fc;
        fc.mode = form::ProfileMode::Path;
        form::FormStats stats;
        for (ir::ProcId p = 0; p < prog.procs.size(); ++p) {
            const Status st =
                form::formProcedure(prog, p, nullptr, &loaded, fc,
                                    stats);
            if (!st.ok()) {
                prog.procs[p] = gen.program.procs[p];
                prog.procs[p].syncSideTables();
            }
        }
        std::vector<std::string> errors;
        ASSERT_TRUE(
            ir::verify(prog, ir::VerifyMode::Superblock, errors))
            << "round " << round << ": "
            << (errors.empty() ? "" : errors.front());

        const interp::RunResult run =
            interp::Interpreter(prog).run(gen.input);
        EXPECT_EQ(run.output, baseline.output) << "round " << round;
        EXPECT_EQ(run.returnValue, baseline.returnValue)
            << "round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptProfile,
                         ::testing::Range<uint64_t>(200, 208));

} // namespace
} // namespace pathsched::pipeline
