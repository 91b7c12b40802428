/**
 * @file
 * Tests for profile serialization: round-trips, merging, and error
 * handling — including a property test that every query agrees after
 * a save/load cycle.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "interp/interpreter.hpp"
#include "profile/serialize.hpp"
#include "profile/validate.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "testutil.hpp"
#include "workloads/workloads.hpp"

namespace pstest = pathsched::testing;

namespace pathsched::profile {
namespace {

using ir::BlockId;

TEST(SerializeEdge, RoundTripExactCounts)
{
    const auto w = workloads::makeCorr();
    EdgeProfiler ep(w.program);
    interp::Interpreter interp(w.program);
    interp.addListener(&ep);
    interp.run(w.train);

    const std::string text = toText(ep);
    EXPECT_NE(text.find("edgeprofile v1"), std::string::npos);

    EdgeProfiler loaded(w.program);
    ProfileMeta meta;
    const Status st = loadEdgeProfile(text, loaded, meta);
    ASSERT_TRUE(st.ok()) << st.message();

    for (BlockId b = 0; b < w.program.proc(0).blocks.size(); ++b)
        EXPECT_EQ(loaded.blockFreq(0, b), ep.blockFreq(0, b));
    ep.forEachEdge([&](ir::ProcId p, BlockId from, BlockId to,
                       uint64_t n) {
        EXPECT_EQ(loaded.edgeFreq(p, from, to), n);
    });
}

TEST(SerializeEdge, MergingAddsCounts)
{
    const auto w = workloads::makeAlt();
    EdgeProfiler ep(w.program);
    interp::Interpreter interp(w.program);
    interp.addListener(&ep);
    interp.run(w.train);
    const std::string text = toText(ep);

    EdgeProfiler merged(w.program);
    ProfileMeta meta;
    ASSERT_TRUE(loadEdgeProfile(text, merged, meta).ok());
    ASSERT_TRUE(loadEdgeProfile(text, merged, meta).ok()); // load twice
    EXPECT_EQ(merged.blockFreq(0, 1), 2 * ep.blockFreq(0, 1));
}

TEST(SerializeEdge, RejectsGarbage)
{
    const auto w = workloads::makeAlt();
    EdgeProfiler ep(w.program);
    ProfileMeta meta;
    const Status st = loadEdgeProfile("not a profile", ep, meta);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(st.message().empty());
    EXPECT_FALSE(
        loadEdgeProfile("edgeprofile v1\nbogus 1 2 3\n", ep, meta).ok());
}

TEST(SerializePath, HeaderCarriesParameters)
{
    const auto w = workloads::makeCorr();
    PathProfileParams params;
    params.maxBranches = 7;
    params.maxBlocks = 20;
    PathProfiler pp(w.program, params);
    interp::Interpreter interp(w.program);
    interp.addListener(&pp);
    interp.run(w.train);
    const std::string text = toText(pp);
    EXPECT_NE(text.find("pathprofile v1 7 20 0"), std::string::npos);

    PathProfiler loaded(w.program, params);
    ProfileMeta meta;
    const Status st = loadPathProfile(text, loaded, meta);
    EXPECT_TRUE(st.ok()) << st.message();
}

TEST(SerializePath, RejectsParameterMismatch)
{
    const auto w = workloads::makeAlt();
    PathProfiler pp(w.program, {});
    interp::Interpreter interp(w.program);
    interp.addListener(&pp);
    interp.run(w.train);
    const std::string text = toText(pp);

    PathProfileParams other;
    other.maxBranches = 3;
    PathProfiler loaded(w.program, other);
    ProfileMeta meta;
    const Status st = loadPathProfile(text, loaded, meta);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("parameters"), std::string::npos);
}

TEST(SerializePath, RejectsOverBudgetRecord)
{
    const auto w = workloads::makeAlt();
    PathProfiler pp(w.program, {});
    ProfileMeta meta;
    // Block 99 does not exist in alt's main.
    const std::string bogus =
        "pathprofile v1 15 64 0\npath 0 5 2 99 1\n";
    EXPECT_FALSE(loadPathProfile(bogus, pp, meta).ok());
}

// ---------------------------------------------------------------------
// Hardening: corrupt profile text must be rejected with a precise
// error, never wrapped (negative counts), silently truncated, or let
// through to index profiler state out of range.

TEST(SerializeEdge, RejectsOutOfRangeIds)
{
    const auto w = workloads::makeAlt();
    ProfileMeta meta;
    {
        // Proc 99 does not exist.
        EdgeProfiler ep(w.program);
        const Status st =
            loadEdgeProfile("edgeprofile v1\nblock 99 0 1\n", ep, meta);
        EXPECT_FALSE(st.ok());
        const std::string &error = st.message();
        EXPECT_NE(error.find("line 2"), std::string::npos) << error;
        EXPECT_NE(error.find("out-of-range"), std::string::npos);
    }
    {
        // Block 99 does not exist in proc 0.
        EdgeProfiler ep(w.program);
        EXPECT_FALSE(
            loadEdgeProfile("edgeprofile v1\nblock 0 99 1\n", ep, meta)
                .ok());
    }
    {
        // Edge records must range-check both endpoints too.
        EdgeProfiler ep(w.program);
        EXPECT_FALSE(
            loadEdgeProfile("edgeprofile v1\nedge 0 0 99 1\n", ep, meta)
                .ok());
        EXPECT_FALSE(
            loadEdgeProfile("edgeprofile v1\nedge 0 99 0 1\n", ep, meta)
                .ok());
    }
}

TEST(SerializeEdge, RejectsNegativeAndOverflowingCounts)
{
    const auto w = workloads::makeAlt();
    ProfileMeta meta;
    EdgeProfiler ep(w.program);
    // istream >> uint64_t would wrap "-5" to 2^64-5; from_chars must
    // reject the sign outright.
    Status st = loadEdgeProfile("edgeprofile v1\nblock 0 1 -5\n", ep, meta);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("line 2"), std::string::npos)
        << st.message();
    EXPECT_FALSE(loadEdgeProfile(
                     "edgeprofile v1\nblock 0 1 99999999999999999999999\n",
                     ep, meta)
                     .ok());
    EXPECT_FALSE(
        loadEdgeProfile("edgeprofile v1\nblock 0 -1 5\n", ep, meta).ok());
    // Sanity: the uncorrupted record is fine.
    st = loadEdgeProfile("edgeprofile v1\nblock 0 1 5\n", ep, meta);
    EXPECT_TRUE(st.ok()) << st.message();
}

TEST(SerializeEdge, RejectsTruncatedAndOverlongRecords)
{
    const auto w = workloads::makeAlt();
    ProfileMeta meta;
    EdgeProfiler ep(w.program);
    EXPECT_FALSE(
        loadEdgeProfile("edgeprofile v1\nblock 0 1\n", ep, meta).ok());
    EXPECT_FALSE(
        loadEdgeProfile("edgeprofile v1\nedge 0 0 1\n", ep, meta).ok());
    EXPECT_FALSE(
        loadEdgeProfile("edgeprofile v1\nblock 0 1 5 junk\n", ep, meta)
            .ok());
}

TEST(SerializePath, RejectsCorruptRecords)
{
    const auto w = workloads::makeAlt();
    ProfileMeta meta;
    {
        // Unknown proc id: reject, do not abort.
        PathProfiler pp(w.program, {});
        EXPECT_FALSE(loadPathProfile(
                         "pathprofile v1 15 64 0\npath 99 5 1 0\n", pp,
                         meta)
                         .ok());
    }
    {
        // Truncated: record declares 3 ids but carries 2.
        PathProfiler pp(w.program, {});
        const Status st = loadPathProfile(
            "pathprofile v1 15 64 0\npath 0 5 3 0 1\n", pp, meta);
        EXPECT_FALSE(st.ok());
        EXPECT_NE(st.message().find("truncated"), std::string::npos)
            << st.message();
    }
    {
        // Declared length far beyond the block budget must be rejected
        // before any allocation sized by it.
        PathProfiler pp(w.program, {});
        EXPECT_FALSE(loadPathProfile(
                         "pathprofile v1 15 64 0\npath 0 5 99999999999 0\n",
                         pp, meta)
                         .ok());
    }
    {
        // Zero-length and negative-count records.
        PathProfiler pp(w.program, {});
        EXPECT_FALSE(
            loadPathProfile("pathprofile v1 15 64 0\npath 0 5 0\n", pp,
                            meta)
                .ok());
        EXPECT_FALSE(loadPathProfile(
                         "pathprofile v1 15 64 0\npath 0 -5 1 0\n", pp,
                         meta)
                         .ok());
    }
}

/** Property: save/load is invisible to every pathFreq query. */
class PathRoundTrip : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(PathRoundTrip, QueriesAgree)
{
    pstest::GeneratedProgram gen = pstest::makeRandomProgram(GetParam());
    PathProfiler pp(gen.program, {});
    interp::Interpreter interp(gen.program);
    interp.addListener(&pp);
    interp.run(gen.input);

    const std::string text = toText(pp);
    PathProfiler loaded(gen.program, {});
    ProfileMeta meta;
    const Status st = loadPathProfile(text, loaded, meta);
    ASSERT_TRUE(st.ok()) << st.message();

    pp.finalize();
    loaded.finalize();
    EXPECT_EQ(loaded.numPaths(), pp.numPaths());

    // Every recorded window (and its suffixes via subtree sums) must
    // answer identically.
    pp.forEachPath([&](ir::ProcId p, const std::vector<BlockId> &seq,
                       uint64_t) {
        EXPECT_EQ(loaded.pathFreq(p, seq), pp.pathFreq(p, seq));
        if (seq.size() > 1) {
            const std::vector<BlockId> suffix(seq.begin() + 1,
                                              seq.end());
            EXPECT_EQ(loaded.pathFreq(p, suffix),
                      pp.pathFreq(p, suffix));
        }
    });
    for (const auto &proc : gen.program.procs) {
        for (BlockId b = 0; b < proc.blocks.size(); ++b)
            EXPECT_EQ(loaded.blockFreq(proc.id, b),
                      pp.blockFreq(proc.id, b));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathRoundTrip,
                         ::testing::Range<uint64_t>(1, 11));

// ---------------------------------------------------------------------
// v2 format: checksums, fingerprints, typed errors.

/** Train both profilers on @p w in one interpreter run. */
struct TrainedProfiles
{
    EdgeProfiler ep;
    PathProfiler pp;

    explicit TrainedProfiles(const workloads::Workload &w,
                             PathProfileParams params = {})
        : ep(w.program), pp(w.program, params)
    {
        interp::Interpreter interp(w.program);
        interp.addListener(&ep);
        interp.addListener(&pp);
        interp.run(w.train);
    }
};

TEST(SerializeV2, EdgeRoundTripIsLosslessAndChecksumStable)
{
    const auto w = workloads::makeCorr();
    TrainedProfiles t(w);

    const std::string text = toTextV2(t.ep, w.program);
    EXPECT_NE(text.find("edgeprofile v2 crc "), std::string::npos);
    EXPECT_NE(text.find("fingerprint 0 "), std::string::npos);

    EdgeProfiler loaded(w.program);
    ProfileMeta meta;
    ASSERT_TRUE(loadEdgeProfile(text, loaded, meta).ok());
    EXPECT_EQ(meta.version, 2);
    EXPECT_TRUE(meta.hasChecksum);
    EXPECT_TRUE(meta.checksumOk);
    uint64_t fp = 0;
    ASSERT_TRUE(meta.fingerprintFor(0, fp));
    EXPECT_EQ(fp, cfgFingerprint(w.program.proc(0)));

    for (BlockId b = 0; b < w.program.proc(0).blocks.size(); ++b)
        EXPECT_EQ(loaded.blockFreq(0, b), t.ep.blockFreq(0, b));
    t.ep.forEachEdge([&](ir::ProcId p, BlockId from, BlockId to,
                         uint64_t n) {
        EXPECT_EQ(loaded.edgeFreq(p, from, to), n);
    });

    // dump -> load -> dump is byte-identical (checksum included).
    EXPECT_EQ(toTextV2(loaded, w.program), text);
}

TEST(SerializeV2, PathRoundTripIsLosslessAndChecksumStable)
{
    const auto w = workloads::makeCorr();
    TrainedProfiles t(w);

    const std::string text = toTextV2(t.pp, w.program);
    EXPECT_NE(text.find("pathprofile v2 "), std::string::npos);

    PathProfiler loaded(w.program, {});
    ProfileMeta meta;
    ASSERT_TRUE(loadPathProfile(text, loaded, meta).ok());
    EXPECT_EQ(meta.version, 2);
    EXPECT_TRUE(meta.checksumOk);
    EXPECT_EQ(toTextV2(loaded, w.program), text);

    loaded.finalize();
    t.pp.finalize();
    EXPECT_EQ(loaded.numPaths(), t.pp.numPaths());
}

/**
 * The v2 dump of each workload's training profile is pinned byte for
 * byte: the trie's storage layout may change, its node numbering (and
 * so the record order) may not.  The go and gcc rows are the ones with
 * many children per node and many memoised successors per window.
 */
TEST(PathProfiler, V2DumpsArePinned)
{
    struct Pin
    {
        const char *workload;
        uint64_t fnv;
        size_t bytes;
        size_t paths;
    };
    const Pin pins[] = {
        {"wc", 0xa747d5ba16fa7738ull, 7173, 818},
        {"vortex", 0xc81feb42c6e1604eull, 402632, 24762},
        {"go", 0x272dca8321136fbcull, 7353785, 500137},
        {"gcc", 0x4f315a7fde6dee76ull, 19581459, 1325903},
    };
    for (const Pin &pin : pins) {
        const auto w = workloads::makeByName(pin.workload);
        TrainedProfiles t(w);
        t.pp.finalize();
        const std::string text = toTextV2(t.pp, w.program);
        EXPECT_EQ(t.pp.numPaths(), pin.paths) << pin.workload;
        EXPECT_EQ(text.size(), pin.bytes) << pin.workload;
        EXPECT_EQ(hex16(fnv1a64(text.data(), text.size())),
                  hex16(pin.fnv))
            << pin.workload;
    }
}

/**
 * The same pins beyond the default windows: forward paths, and sliding
 * windows at one and two branches, where the budget (not the history)
 * ends most memo-miss walks.  Every value was taken from the build
 * before the trie moved to 32-byte nodes, subtree sums in the memo
 * word and history-bounded miss walks, so these rows prove that change
 * emits the same bytes.
 */
TEST(PathProfiler, V2DumpsArePinnedBeyondTheDefaultWindows)
{
    struct Pin
    {
        const char *workload;
        const char *mode;
        uint64_t fnv;
        size_t bytes;
        size_t paths;
    };
    const Pin pins[] = {
        {"wc", "forward", 0x41cc685e8d99f594ull, 316, 25},
        {"wc", "branches1", 0xd0aa0b1751e3bb5cull, 290, 20},
        {"wc", "branches2", 0x1c9c0654f2c2b52full, 415, 35},
        {"vortex", "forward", 0x744df03190f05145ull, 818, 74},
        {"vortex", "branches1", 0xdda214315117ebbcull, 837, 67},
        {"vortex", "branches2", 0x5f15936055a2a599ull, 1325, 116},
        {"go", "forward", 0x7eaa0487ed98c6e3ull, 65740, 10235},
        {"go", "branches1", 0x1e4747add80dae8dull, 43154, 3149},
        {"go", "branches2", 0xe64ccef21cec6c4aull, 57952, 4639},
        {"gcc", "forward", 0x7d02b867349daf05ull, 71481, 10520},
        {"gcc", "branches1", 0x92be72ef8507913bull, 66287, 5142},
        {"gcc", "branches2", 0xa06f761a77aa54a9ull, 87601, 7196},
    };
    for (const Pin &pin : pins) {
        PathProfileParams params;
        const std::string mode = pin.mode;
        if (mode == "forward")
            params.forwardPathsOnly = true;
        else
            params.maxBranches = mode == "branches1" ? 1 : 2;
        const auto w = workloads::makeByName(pin.workload);
        TrainedProfiles t(w, params);
        t.pp.finalize();
        const std::string text = toTextV2(t.pp, w.program);
        EXPECT_EQ(t.pp.numPaths(), pin.paths) << pin.workload << " " << mode;
        EXPECT_EQ(text.size(), pin.bytes) << pin.workload << " " << mode;
        EXPECT_EQ(hex16(fnv1a64(text.data(), text.size())),
                  hex16(pin.fnv))
            << pin.workload << " " << mode;
    }
}

TEST(SerializeV2, BodyTamperFailsChecksumAsProfileCorrupt)
{
    const auto w = workloads::makeAlt();
    TrainedProfiles t(w);
    std::string text = toTextV2(t.ep, w.program);

    // Flip one digit of one count somewhere in the body.
    const size_t body = text.find('\n') + 1;
    const size_t pos = text.find_last_of("0123456789");
    ASSERT_GT(pos, body);
    text[pos] = text[pos] == '7' ? '8' : '7';

    EdgeProfiler loaded(w.program);
    ProfileMeta meta;
    const Status st = loadEdgeProfile(text, loaded, meta);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::ProfileCorrupt);
    EXPECT_TRUE(meta.hasChecksum);
    EXPECT_FALSE(meta.checksumOk);
}

TEST(SerializeV2, ParameterMismatchIsProfileStale)
{
    const auto w = workloads::makeAlt();
    PathProfileParams trained;
    trained.maxBranches = 3;
    TrainedProfiles t(w, trained);

    PathProfiler other(w.program, {}); // default params differ
    ProfileMeta meta;
    const Status st =
        loadPathProfile(toTextV2(t.pp, w.program), other, meta);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::ProfileStale);
}

TEST(SerializeV2, FinalizedProfilerIsTypedErrorNotAssert)
{
    const auto w = workloads::makeAlt();
    TrainedProfiles t(w);
    const std::string text = toText(t.pp);

    PathProfiler loaded(w.program, {});
    loaded.finalize();
    ProfileMeta meta;
    const Status st = loadPathProfile(text, loaded, meta);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::BadProfile);
}

TEST(SerializeV2, LenientLoadSkipsAndAttributesBadRecords)
{
    const auto w = workloads::makeAlt();
    TrainedProfiles t(w);
    std::string text = toText(t.ep);
    text += "block 0 9999 5\n";   // out-of-range block
    text += "edge 0 zero one 2\n"; // unparseable ids
    text += "block notaproc 0 1\n";

    EdgeProfiler strict(w.program);
    ProfileMeta meta;
    EXPECT_FALSE(loadEdgeProfile(text, strict, meta).ok());

    EdgeProfiler lenient(w.program);
    LoadOptions lo;
    lo.lenient = true;
    ProfileMeta lmeta;
    ASSERT_TRUE(loadEdgeProfile(text, lenient, lmeta, lo).ok());
    EXPECT_EQ(lmeta.recordsSkipped, 3u);
    ASSERT_EQ(lmeta.skippedProcs.size(), 1u);
    EXPECT_EQ(lmeta.skippedProcs[0], 0u);
    EXPECT_EQ(lmeta.unattributedSkips, 1u);
    EXPECT_EQ(lenient.blockFreq(0, 1), t.ep.blockFreq(0, 1));
}

// ---------------------------------------------------------------------
// Mutation fuzz: no input may crash the loaders or the auditors.

/** Apply one random mutation to @p text. */
void
mutateOnce(std::string &text, pathsched::Rng &rng)
{
    if (text.empty()) {
        text.push_back(char('a' + rng.below(26)));
        return;
    }
    switch (rng.below(6)) {
      case 0: // truncate at a random offset (torn write)
        text.resize(rng.below(text.size() + 1));
        break;
      case 1: { // flip one byte to a random printable-or-not value
        text[rng.below(text.size())] = char(rng.below(256));
        break;
      }
      case 2: { // splice: duplicate a random chunk elsewhere
        const size_t from = rng.below(text.size());
        const size_t len =
            std::min<size_t>(rng.below(64) + 1, text.size() - from);
        const size_t at = rng.below(text.size() + 1);
        text.insert(at, text, from, len);
        break;
      }
      case 3: { // count overflow: inject a long digit run
        const size_t at = rng.below(text.size() + 1);
        text.insert(at, std::string(rng.below(30) + 1, '9'));
        break;
      }
      case 4: { // delete a random span
        const size_t from = rng.below(text.size());
        const size_t len =
            std::min<size_t>(rng.below(32) + 1, text.size() - from);
        text.erase(from, len);
        break;
      }
      default: { // fingerprint/hex flip: retarget a random hex digit
        const size_t pos = text.find_last_of("abcdef");
        if (pos != std::string::npos)
            text[pos] = char('0' + rng.below(10));
        else
            text[rng.below(text.size())] = 'f';
        break;
      }
    }
}

TEST(SerializeFuzz, MutatedProfilesNeverCrashLoadersOrAuditors)
{
    const auto w = workloads::makeCorr();
    TrainedProfiles t(w);
    const std::string bases[] = {
        toText(t.ep),
        toTextV2(t.ep, w.program),
        toText(t.pp),
        toTextV2(t.pp, w.program),
    };

    pathsched::Rng rng(0x5EED5EEDull);
    size_t accepted = 0, rejected = 0;
    const int kIters = 1200; // >= 1000 distinct seeded mutants

    for (int i = 0; i < kIters; ++i) {
        std::string text = bases[rng.below(4)];
        const uint64_t nmut = 1 + rng.below(3);
        for (uint64_t m = 0; m < nmut; ++m)
            mutateOnce(text, rng);

        // Every mutant goes through all loaders in both modes and,
        // when it still parses, through the semantic auditors — the
        // full admission surface.  Nothing may assert or crash.
        LoadOptions lenient;
        lenient.lenient = true;
        const AdmissionMode vo = AdmissionMode::Repair;
        bool any_ok = false;

        {
            EdgeProfiler ep(w.program);
            ProfileMeta meta;
            if (loadEdgeProfile(text, ep, meta).ok())
                any_ok = true;
        }
        {
            EdgeProfiler ep(w.program);
            ProfileMeta meta;
            if (loadEdgeProfile(text, ep, meta, lenient).ok()) {
                any_ok = true;
                ProfileAudit audit;
                (void)auditEdgeProfile(w.program, ep, meta, vo, audit);
            }
        }
        {
            PathProfiler pp(w.program, {});
            ProfileMeta meta;
            if (loadPathProfile(text, pp, meta).ok())
                any_ok = true;
        }
        {
            PathProfiler pp(w.program, {});
            ProfileMeta meta;
            if (loadPathProfile(text, pp, meta, lenient).ok()) {
                any_ok = true;
                ProfileAudit audit;
                EdgeProfiler projected(w.program);
                (void)auditPathProfile(w.program, pp, meta, vo, audit,
                                       &projected);
            }
        }
        any_ok ? ++accepted : ++rejected;
    }

    // The harness must exercise both outcomes, or the mutations are
    // too weak (everything rejected) / too gentle (nothing rejected).
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace pathsched::profile
