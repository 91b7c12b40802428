/**
 * @file
 * Aggregation-server tests: wire framing, the admitted-delta algebra,
 * WAL torn-tail recovery, the admission ladder, fingerprint-gated
 * rescheduling, and the headline crash contract — destroying a
 * ServeCore without shutdown (kill -9 semantics) and recovering a
 * fresh one must yield a bit-identical aggregate and a bit-identical
 * schedule versus an uninterrupted run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "interp/interpreter.hpp"
#include "profile/edge_profile.hpp"
#include "profile/path_profile.hpp"
#include "profile/serialize.hpp"
#include "serve/admission.hpp"
#include "serve/aggregate.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "serve/wal.hpp"
#include "serve/wire.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace pathsched::serve {
namespace {

// ---------------------------------------------------------------------
// Wire format.

TEST(WireTest, MessageRoundTrips)
{
    Message m;
    ASSERT_TRUE(decodeMessage(encodeHello("client-7"), m).ok());
    EXPECT_EQ(m.type, MsgType::Hello);
    EXPECT_EQ(m.version, kWireVersion);
    EXPECT_EQ(m.clientId, "client-7");

    ASSERT_TRUE(decodeMessage(encodeDelta(42, 1, "payload text"), m).ok());
    EXPECT_EQ(m.type, MsgType::Delta);
    EXPECT_EQ(m.seq, 42u);
    EXPECT_EQ(m.profileKind, 1);
    EXPECT_EQ(m.text, "payload text");

    ASSERT_TRUE(
        decodeMessage(encodeAck(9, AckCode::Throttled, "slow down"), m)
            .ok());
    EXPECT_EQ(m.type, MsgType::Ack);
    EXPECT_EQ(m.seq, 9u);
    EXPECT_EQ(m.ack, AckCode::Throttled);
    EXPECT_EQ(m.text, "slow down");

    ASSERT_TRUE(decodeMessage(encodeStatsRep("{}"), m).ok());
    EXPECT_EQ(m.type, MsgType::StatsRep);
    EXPECT_EQ(m.text, "{}");
}

TEST(WireTest, DecoderReassemblesFragmentedStream)
{
    std::string stream;
    appendFrame(stream, encodeTick());
    appendFrame(stream, encodeDelta(1, 0, "abc"));

    FrameDecoder dec;
    std::string payload;
    // Feed one byte at a time: every prefix is just "NeedMore".
    for (size_t i = 0; i < stream.size(); ++i) {
        dec.feed(stream.data() + i, 1);
        if (i + 1 < stream.size()) {
            EXPECT_FALSE(dec.corrupt());
        }
    }
    ASSERT_EQ(dec.next(payload), FrameDecoder::Result::Frame);
    Message m;
    ASSERT_TRUE(decodeMessage(payload, m).ok());
    EXPECT_EQ(m.type, MsgType::Tick);
    ASSERT_EQ(dec.next(payload), FrameDecoder::Result::Frame);
    ASSERT_TRUE(decodeMessage(payload, m).ok());
    EXPECT_EQ(m.seq, 1u);
    EXPECT_EQ(dec.next(payload), FrameDecoder::Result::NeedMore);
    EXPECT_EQ(dec.pendingBytes(), 0u);
}

TEST(WireTest, CorruptCrcPoisonsTheDecoder)
{
    std::string stream;
    appendFrame(stream, encodeTick());
    stream[stream.size() - 1] ^= 0x40; // flip a payload bit

    FrameDecoder dec;
    dec.feed(stream.data(), stream.size());
    std::string payload;
    EXPECT_EQ(dec.next(payload), FrameDecoder::Result::Corrupt);
    EXPECT_TRUE(dec.corrupt());
    // Poisoned for good: later valid bytes must not resurrect it.
    std::string more;
    appendFrame(more, encodeTick());
    dec.feed(more.data(), more.size());
    EXPECT_EQ(dec.next(payload), FrameDecoder::Result::Corrupt);
}

TEST(WireTest, OversizeDeclaredLengthIsRejectedBeforeAllocation)
{
    FrameDecoder dec(1024);
    std::string evil;
    putU32(evil, 0x7fffffffu); // 2 GiB declared payload
    putU32(evil, 0);
    dec.feed(evil.data(), evil.size());
    std::string payload;
    EXPECT_EQ(dec.next(payload), FrameDecoder::Result::Corrupt);
}

TEST(WireTest, TruncatedMessageBodyIsATypedError)
{
    const std::string good = encodeDelta(7, 0, "text");
    for (size_t cut = 1; cut < good.size(); ++cut) {
        Message m;
        const Status st = decodeMessage(good.substr(0, cut), m);
        // Every strict prefix must fail loudly, never crash.
        EXPECT_FALSE(st.ok()) << "prefix length " << cut;
    }
}

// ---------------------------------------------------------------------
// AdmittedDelta algebra.

TEST(AdmittedDeltaTest, NormalizeSortsAndFoldsDuplicates)
{
    AdmittedDelta d;
    d.edges.push_back({2, 0, 1, 5});
    d.edges.push_back({1, 3, 4, 7});
    d.edges.push_back({2, 0, 1, 5}); // duplicate key
    d.blocks.push_back({1, 9, 2});
    d.blocks.push_back({1, 9, 3});
    d.paths.push_back({1, {0, 1, 2}, 4});
    d.paths.push_back({1, {0, 1, 2}, 6});
    d.normalize();

    ASSERT_EQ(d.edges.size(), 2u);
    EXPECT_EQ(d.edges[0].proc, 1u);
    EXPECT_EQ(d.edges[1].count, 10u);
    ASSERT_EQ(d.blocks.size(), 1u);
    EXPECT_EQ(d.blocks[0].count, 5u);
    ASSERT_EQ(d.paths.size(), 1u);
    EXPECT_EQ(d.paths[0].count, 10u);
}

TEST(AdmittedDeltaTest, EncodeDecodeRoundTrips)
{
    AdmittedDelta d;
    d.clientId = "shard-3";
    d.seq = 99;
    d.blocks.push_back({0, 1, 100});
    d.edges.push_back({0, 1, 2, 50});
    d.paths.push_back({0, {1, 2, 3}, 25});
    d.normalize();

    std::string blob;
    d.encode(blob);
    AdmittedDelta back;
    size_t pos = 0;
    ASSERT_TRUE(AdmittedDelta::decode(blob, pos, back).ok());
    EXPECT_EQ(pos, blob.size());
    EXPECT_EQ(back.clientId, "shard-3");
    EXPECT_EQ(back.seq, 99u);
    ASSERT_EQ(back.paths.size(), 1u);
    EXPECT_EQ(back.paths[0].blocks, (std::vector<uint32_t>{1, 2, 3}));

    // Every strict prefix is a typed error, not a crash or a hang.
    for (size_t cut = 0; cut < blob.size(); ++cut) {
        AdmittedDelta t;
        size_t p = 0;
        EXPECT_FALSE(
            AdmittedDelta::decode(blob.substr(0, cut), p, t).ok())
            << "prefix length " << cut;
    }
}

// ---------------------------------------------------------------------
// Aggregate: windowing, bounded memory, merge algebra, fingerprints.

AdmittedDelta
randomDelta(Rng &rng, const std::string &client, uint64_t seq)
{
    AdmittedDelta d;
    d.clientId = client;
    d.seq = seq;
    const uint32_t nEdges = uint32_t(rng.below(6));
    for (uint32_t i = 0; i < nEdges; ++i)
        d.edges.push_back({uint32_t(rng.below(3)), uint32_t(rng.below(8)),
                           uint32_t(rng.below(8)),
                           1 + rng.below(1000)});
    const uint32_t nBlocks = uint32_t(rng.below(4));
    for (uint32_t i = 0; i < nBlocks; ++i)
        d.blocks.push_back({uint32_t(rng.below(3)),
                            uint32_t(rng.below(8)), 1 + rng.below(1000)});
    if (rng.chance(0.5)) {
        std::vector<uint32_t> window;
        const uint32_t len = 1 + uint32_t(rng.below(4));
        for (uint32_t i = 0; i < len; ++i)
            window.push_back(uint32_t(rng.below(8)));
        d.paths.push_back(
            {uint32_t(rng.below(3)), window, 1 + rng.below(1000)});
    }
    d.normalize();
    return d;
}

TEST(AggregateTest, WindowRotationDiscardsOldBuckets)
{
    AggregateOptions opts;
    opts.windows = 2;
    Aggregate agg(opts);

    AdmittedDelta d;
    d.clientId = "c";
    d.seq = 1;
    d.edges.push_back({0, 0, 1, 10});
    d.normalize();
    agg.apply(d);
    EXPECT_EQ(agg.liveKeys(), 1u);

    agg.advanceEpoch(1); // still inside the 2-epoch window
    EXPECT_EQ(agg.liveKeys(), 1u);
    agg.advanceEpoch(2); // epoch-0 bucket falls out
    EXPECT_EQ(agg.liveKeys(), 0u);
    EXPECT_TRUE(agg.liveProcs().empty());
    // The seq cursor survives decay: re-sending seq 1 is a duplicate.
    EXPECT_EQ(agg.lastSeq("c"), 1u);
}

TEST(AggregateTest, KeyCapDropsNewKeysButKeepsCounting)
{
    AggregateOptions opts;
    opts.maxKeysPerBucket = 2;
    Aggregate agg(opts);

    AdmittedDelta d;
    d.clientId = "c";
    d.seq = 1;
    d.edges.push_back({0, 0, 1, 5});
    d.edges.push_back({0, 1, 2, 5});
    d.edges.push_back({0, 2, 3, 5}); // third key: over the cap
    d.normalize();
    agg.apply(d);
    EXPECT_EQ(agg.liveKeys(), 2u);
    EXPECT_EQ(agg.droppedKeys(), 1u);

    // Existing keys still accumulate at the cap.
    AdmittedDelta d2;
    d2.clientId = "c";
    d2.seq = 2;
    d2.edges.push_back({0, 0, 1, 7});
    d2.normalize();
    agg.apply(d2);
    EXPECT_EQ(agg.liveKeys(), 2u);
    EXPECT_EQ(agg.droppedKeys(), 1u);
}

/**
 * The merge algebra property: any sharding of a delta stream across
 * any number of aggregates, merged in any grouping and order, must
 * produce a byte-identical canonical serialization.  This is the
 * property that makes sharded ingestion and crash replay equivalent.
 */
TEST(AggregateTest, MergeIsAssociativeAndCommutativeBitExactly)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 0x2545F4914F6CDD1DULL);
        std::vector<AdmittedDelta> stream;
        for (uint64_t i = 0; i < 40; ++i)
            stream.push_back(randomDelta(
                rng, "client-" + std::to_string(rng.below(4)), i + 1));

        // Baseline: one aggregate consumes the whole stream in order.
        Aggregate base;
        for (const auto &d : stream)
            base.apply(d);
        const std::string want = base.serialize();

        // Shard randomly, then merge the shards in a random order.
        const uint32_t nShards = 2 + uint32_t(rng.below(4));
        std::vector<std::unique_ptr<Aggregate>> shards;
        for (uint32_t s = 0; s < nShards; ++s)
            shards.push_back(std::make_unique<Aggregate>());
        for (const auto &d : stream)
            shards[rng.below(nShards)]->apply(d);

        while (shards.size() > 1) {
            const size_t a = rng.below(shards.size());
            size_t b = rng.below(shards.size() - 1);
            if (b >= a)
                ++b;
            shards[a]->merge(*shards[b]);
            shards.erase(shards.begin() + ptrdiff_t(b));
        }
        EXPECT_EQ(shards[0]->serialize(), want) << "seed " << seed;
        EXPECT_EQ(shards[0]->contentHash(), base.contentHash());
    }
}

TEST(AggregateTest, MergeWithEmptyIsIdentity)
{
    Rng rng(7);
    Aggregate a;
    for (uint64_t i = 0; i < 10; ++i)
        a.apply(randomDelta(rng, "c", i + 1));
    const std::string before = a.serialize();

    Aggregate empty;
    a.merge(empty);
    EXPECT_EQ(a.serialize(), before);

    Aggregate empty2;
    empty2.merge(a);
    EXPECT_EQ(empty2.serialize(), before);
}

TEST(AggregateTest, SerializeDeserializeRoundTripsAndRejectsBitRot)
{
    Rng rng(11);
    Aggregate a;
    for (uint64_t i = 0; i < 20; ++i)
        a.apply(randomDelta(rng, "c" + std::to_string(i % 3), i + 1));
    a.advanceEpoch(2);

    const std::string blob = a.serialize();
    Aggregate back;
    ASSERT_TRUE(Aggregate::deserialize(blob, AggregateOptions(), back).ok());
    EXPECT_EQ(back.serialize(), blob);
    EXPECT_EQ(back.epoch(), a.epoch());
    EXPECT_EQ(back.lastSeq("c0"), a.lastSeq("c0"));

    std::string bad = blob;
    bad[bad.size() / 2] ^= 1;
    Aggregate junk;
    EXPECT_FALSE(
        Aggregate::deserialize(bad, AggregateOptions(), junk).ok());
}

TEST(AggregateTest, FingerprintIgnoresUniformScalingButSeesRankMoves)
{
    auto feed = [](Aggregate &agg, uint64_t hotCount, uint64_t coldCount,
                   uint64_t seq) {
        AdmittedDelta d;
        d.clientId = "c";
        d.seq = seq;
        d.edges.push_back({0, 0, 1, hotCount});
        d.edges.push_back({0, 1, 2, coldCount});
        d.normalize();
        agg.apply(d);
    };

    Aggregate a, b, c;
    feed(a, 100, 10, 1);
    feed(b, 1000, 100, 1); // 10x uniform growth: same hot set, same order
    feed(c, 10, 100, 1);   // rank flip: the hot edge changed
    const uint64_t fa = a.hotFingerprint(0);
    const uint64_t fb = b.hotFingerprint(0);
    const uint64_t fc = c.hotFingerprint(0);
    EXPECT_NE(fa, 0u);
    EXPECT_EQ(fa, fb);
    EXPECT_NE(fa, fc);
    // No live data -> fingerprint 0 (reserved).
    EXPECT_EQ(a.hotFingerprint(77), 0u);
}

TEST(AggregateTest, FingerprintsOfAllProcsMatchOneAtATime)
{
    // Several procedures over several live buckets, one of them with
    // block counts only, and older buckets rotated out of the window.
    AggregateOptions opts;
    opts.windows = 3;
    Aggregate agg(opts);
    Rng rng(29);
    uint64_t seq = 0;
    for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
        for (int k = 0; k < 12; ++k) {
            AdmittedDelta d = randomDelta(rng, "c", ++seq);
            for (auto &e : d.edges)
                e.proc += 3 * uint32_t(rng.below(3));
            for (auto &p : d.paths)
                p.proc += 3 * uint32_t(rng.below(3));
            d.blocks.push_back({9, uint32_t(rng.below(8)), 1});
            d.normalize();
            agg.apply(d);
        }
        agg.advanceEpoch(epoch);
    }

    const std::vector<uint32_t> live = agg.liveProcs();
    ASSERT_GE(live.size(), 5u);
    std::map<uint32_t, uint64_t> oneAtATime;
    for (uint32_t proc : live)
        oneAtATime[proc] = agg.hotFingerprint(proc);
    EXPECT_EQ(agg.hotFingerprints(), oneAtATime);
    EXPECT_NE(oneAtATime.at(9), 0u); // block counts alone are live data
}

// ---------------------------------------------------------------------
// WAL: durability, torn tails, snapshots.

class WalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pathsched_wal_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string dir_;
};

TEST_F(WalTest, RecoversAppendedRecordsAfterAbruptClose)
{
    Rng rng(3);
    Aggregate live;
    {
        Wal wal(dir_);
        Aggregate scratch;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(scratch, info).ok());
        for (uint64_t i = 0; i < 12; ++i) {
            const AdmittedDelta d = randomDelta(rng, "c", i + 1);
            ASSERT_TRUE(wal.appendAdmitted(d).ok());
            live.apply(d);
        }
        ASSERT_TRUE(wal.appendEpoch(1).ok());
        live.advanceEpoch(1);
        // Wal destructor closes the fd without any flush — the
        // in-memory aggregate is "lost" as in a crash.
    }
    Wal wal2(dir_);
    Aggregate recovered;
    RecoveryInfo info;
    ASSERT_TRUE(wal2.open(recovered, info).ok());
    EXPECT_EQ(info.recordsReplayed, 12u);
    EXPECT_EQ(info.epochRecords, 1u);
    EXPECT_EQ(info.tornSegments, 0u);
    EXPECT_EQ(recovered.serialize(), live.serialize());
}

TEST_F(WalTest, TornTailIsTruncatedNotTrusted)
{
    Rng rng(5);
    Aggregate upToTear;
    std::string walFile;
    {
        Wal wal(dir_);
        Aggregate scratch;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(scratch, info).ok());
        for (uint64_t i = 0; i < 6; ++i) {
            const AdmittedDelta d = randomDelta(rng, "c", i + 1);
            ASSERT_TRUE(wal.appendAdmitted(d).ok());
            upToTear.apply(d);
        }
        walFile = dir_ + "/wal." + std::to_string(wal.liveGen()) + ".bin";
    }
    // Simulate a torn write: append half a frame of garbage.
    {
        std::ofstream out(walFile, std::ios::app | std::ios::binary);
        const char torn[] = {0x20, 0x00, 0x00, 0x00, 0x11};
        out.write(torn, sizeof torn);
    }
    Wal wal2(dir_);
    Aggregate recovered;
    RecoveryInfo info;
    ASSERT_TRUE(wal2.open(recovered, info).ok());
    EXPECT_EQ(info.recordsReplayed, 6u);
    EXPECT_EQ(info.tornSegments, 1u);
    EXPECT_GT(info.tornBytes, 0u);
    EXPECT_EQ(recovered.serialize(), upToTear.serialize());

    // The torn bytes were truncated away: a third recovery is clean.
    Wal wal3(dir_);
    Aggregate again;
    RecoveryInfo info3;
    ASSERT_TRUE(wal3.open(again, info3).ok());
    EXPECT_EQ(info3.tornSegments, 0u);
    EXPECT_EQ(again.serialize(), upToTear.serialize());
}

TEST_F(WalTest, SnapshotRotatesAndCorruptSnapshotFallsBack)
{
    Rng rng(9);
    Aggregate live;
    uint64_t snapGen = 0;
    {
        Wal wal(dir_);
        Aggregate scratch;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(scratch, info).ok());
        for (uint64_t i = 0; i < 4; ++i) {
            const AdmittedDelta d = randomDelta(rng, "c", i + 1);
            ASSERT_TRUE(wal.appendAdmitted(d).ok());
            live.apply(d);
        }
        ASSERT_TRUE(wal.snapshot(live).ok());
        snapGen = wal.liveGen() - 1;
        // Two more records in the post-snapshot segment.
        for (uint64_t i = 4; i < 6; ++i) {
            const AdmittedDelta d = randomDelta(rng, "c", i + 1);
            ASSERT_TRUE(wal.appendAdmitted(d).ok());
            live.apply(d);
        }
    }
    {
        Wal wal2(dir_);
        Aggregate recovered;
        RecoveryInfo info;
        ASSERT_TRUE(wal2.open(recovered, info).ok());
        EXPECT_EQ(info.snapshotGen, snapGen);
        EXPECT_EQ(info.recordsReplayed, 2u); // only the new segment
        EXPECT_EQ(recovered.serialize(), live.serialize());
    }
    // Corrupt the snapshot: recovery must fall back to full replay of
    // whatever segments remain rather than trusting a bad blob.
    {
        std::fstream f(dir_ + "/snap." + std::to_string(snapGen) + ".bin",
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        f.put('\x5a');
    }
    Wal wal3(dir_);
    Aggregate recovered3;
    RecoveryInfo info3;
    ASSERT_TRUE(wal3.open(recovered3, info3).ok());
    EXPECT_GE(info3.snapshotsSkipped, 1u);
}

TEST_F(WalTest, SnapshotLargerThanOneFrameRoundTrips)
{
    // An aggregate whose canonical blob exceeds kMaxFramePayload must
    // still snapshot and recover bit-identically: the writer chunks
    // the blob across frames, recovery reassembles them.  (Before
    // chunking, recovery's single-frame read classified such a
    // snapshot as corrupt — after snapshot() had already deleted the
    // WAL segments covering it, losing acked state.)
    Aggregate live;
    {
        AdmittedDelta d;
        d.clientId = "c";
        d.seq = 1;
        d.edges.reserve(220000);
        for (uint32_t i = 0; i < 220000; ++i)
            d.edges.push_back({i >> 12, i, i + 1, 7});
        d.normalize();
        live.apply(d);
    }
    const std::string blob = live.serialize();
    ASSERT_GT(blob.size(), size_t(kMaxFramePayload));

    uint64_t snapGen = 0;
    {
        Wal wal(dir_);
        Aggregate scratch;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(scratch, info).ok());
        ASSERT_TRUE(wal.snapshot(live).ok());
        snapGen = wal.liveGen() - 1;
    }
    Wal wal2(dir_);
    Aggregate recovered;
    RecoveryInfo info;
    ASSERT_TRUE(wal2.open(recovered, info).ok());
    EXPECT_EQ(info.snapshotGen, snapGen);
    EXPECT_EQ(info.snapshotsSkipped, 0u);
    EXPECT_EQ(recovered.serialize(), blob);
}

TEST_F(WalTest, OversizedRecordIsRefusedNotWrittenUnreplayably)
{
    // A record beyond kMaxWalPayload must fail the append with a typed
    // error — writing it would make the segment unreplayable (recovery
    // would classify it as corrupt and truncate the tail).
    AdmittedDelta huge;
    huge.clientId = "c";
    huge.seq = 1;
    huge.paths.push_back(
        {0, std::vector<uint32_t>(kMaxWalPayload / 4 + 64, 3), 1});

    Aggregate survivor;
    {
        Wal wal(dir_);
        Aggregate scratch;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(scratch, info).ok());
        const Status st = wal.appendAdmitted(huge);
        ASSERT_FALSE(st.ok());
        EXPECT_EQ(st.kind(), ErrorKind::BudgetExceeded);
        EXPECT_EQ(wal.liveRecords(), 0u);
        // The log stays healthy: later records append and replay.
        AdmittedDelta small;
        small.clientId = "c";
        small.seq = 2;
        small.edges.push_back({0, 0, 1, 5});
        small.normalize();
        ASSERT_TRUE(wal.appendAdmitted(small).ok());
        survivor.apply(small);
    }
    Wal wal2(dir_);
    Aggregate recovered;
    RecoveryInfo info;
    ASSERT_TRUE(wal2.open(recovered, info).ok());
    EXPECT_EQ(info.recordsReplayed, 1u);
    EXPECT_EQ(info.tornSegments, 0u);
    EXPECT_EQ(recovered.serialize(), survivor.serialize());
}

// ---------------------------------------------------------------------
// Serving helpers: a real workload profile as the delta payload.

profile::PathProfileParams
defaultPathParams()
{
    return profile::PathProfileParams{};
}

std::string
pathProfileText(const workloads::Workload &w)
{
    profile::PathProfiler pp(w.program, defaultPathParams());
    interp::Interpreter interp(w.program);
    interp.addListener(&pp);
    interp.run(w.train);
    return profile::toTextV2(pp, w.program);
}

std::string
edgeProfileText(const workloads::Workload &w)
{
    profile::EdgeProfiler ep(w.program);
    interp::Interpreter interp(w.program);
    interp.addListener(&ep);
    interp.run(w.train);
    return profile::toTextV2(ep, w.program);
}

// ---------------------------------------------------------------------
// Admission ladder.

class AdmissionTest : public ::testing::Test
{
  protected:
    AdmissionTest()
        : w_(workloads::makeByName("wc")),
          text_(pathProfileText(w_))
    {}

    Admission
    make(AdmissionOptions opts = AdmissionOptions())
    {
        return Admission(w_.program, defaultPathParams(), opts);
    }

    workloads::Workload w_;
    std::string text_;
};

TEST_F(AdmissionTest, AcceptsAWellFormedDelta)
{
    Admission adm = make();
    const AdmissionResult r = adm.evaluate("c1", 0, 1, 1, text_);
    EXPECT_EQ(r.code, AckCode::Accepted);
    EXPECT_FALSE(r.delta.empty());
    EXPECT_EQ(adm.stats("c1").admitted, 1u);
}

TEST_F(AdmissionTest, DuplicateSeqIsDeduplicated)
{
    Admission adm = make();
    EXPECT_EQ(adm.evaluate("c1", 0, 1, 1, text_).code, AckCode::Accepted);
    // Cursor says 1 was admitted; the blind resend is a duplicate.
    EXPECT_EQ(adm.evaluate("c1", 1, 1, 1, text_).code,
              AckCode::Duplicate);
    EXPECT_EQ(adm.stats("c1").duplicates, 1u);
}

TEST_F(AdmissionTest, EmptyTokenBucketThrottles)
{
    AdmissionOptions opts;
    opts.tokensPerEpoch = 2;
    opts.maxTokens = 2;
    Admission adm = make(opts);
    EXPECT_EQ(adm.evaluate("c1", 0, 1, 1, text_).code, AckCode::Accepted);
    EXPECT_EQ(adm.evaluate("c1", 1, 2, 1, text_).code, AckCode::Accepted);
    EXPECT_EQ(adm.evaluate("c1", 2, 3, 1, text_).code,
              AckCode::Throttled);
    EXPECT_EQ(adm.stats("c1").throttled, 1u);
    // Other clients have their own bucket.
    EXPECT_EQ(adm.evaluate("c2", 0, 1, 1, text_).code, AckCode::Accepted);
    // The epoch refills the offender's bucket.
    adm.onEpoch(1);
    EXPECT_EQ(adm.evaluate("c1", 2, 3, 1, text_).code, AckCode::Accepted);
}

TEST_F(AdmissionTest, RepeatedRejectsEscalateToQuarantineAndExpire)
{
    // Each rejection scores 4; the fourth reaches the threshold of 16
    // and quarantines the client for 4 epochs.
    Admission adm = make();

    for (uint64_t seq = 1; seq <= 3; ++seq)
        EXPECT_EQ(adm.evaluate("bad", 0, seq, 1, "not a profile").code,
                  AckCode::Rejected);
    EXPECT_FALSE(adm.quarantined("bad"));
    EXPECT_EQ(adm.evaluate("bad", 0, 4, 1, "still not a profile").code,
              AckCode::Rejected);
    EXPECT_TRUE(adm.quarantined("bad"));
    EXPECT_EQ(adm.stats("bad").quarantineEntries, 1u);

    // While quarantined even a valid delta is dropped unread.
    EXPECT_EQ(adm.evaluate("bad", 0, 5, 1, text_).code,
              AckCode::Quarantined);
    // A different client is unaffected.
    EXPECT_EQ(adm.evaluate("good", 0, 1, 1, text_).code,
              AckCode::Accepted);

    for (uint64_t e = 1; e <= 4; ++e)
        adm.onEpoch(e);
    EXPECT_TRUE(adm.quarantined("bad"));
    adm.onEpoch(5);
    EXPECT_FALSE(adm.quarantined("bad"));
    EXPECT_EQ(adm.evaluate("bad", 0, 6, 1, text_).code,
              AckCode::Accepted);
}

TEST_F(AdmissionTest, StaleFingerprintRejectsAtFileGranularity)
{
    // A v2 header carries CFG fingerprints; flipping one makes the
    // whole file stale under the PR-4 staleness rules.
    std::string stale = text_;
    const size_t fp = stale.find("fingerprint");
    ASSERT_NE(fp, std::string::npos);
    const size_t digit = stale.find_first_of("0123456789abcdef", fp + 12);
    ASSERT_NE(digit, std::string::npos);
    stale[digit] = stale[digit] == '0' ? '1' : '0';

    Admission adm = make();
    const AdmissionResult r = adm.evaluate("c1", 0, 1, 1, stale);
    // The delta must not land in the aggregate as-is: either the file
    // is rejected outright or every stale proc was stripped.
    if (r.code == AckCode::Accepted)
        EXPECT_GT(adm.stats("c1").procsStale +
                      adm.stats("c1").procsQuarantined,
                  0u);
    else
        EXPECT_EQ(r.code, AckCode::Rejected);
}

// ---------------------------------------------------------------------
// ServeCore: end-to-end frames, crash bit-identity, fingerprint gate.

class ServeCoreTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = ::testing::TempDir() + "pathsched_serve_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name();
        std::filesystem::remove_all(base_);
        std::filesystem::create_directories(base_);
        w_ = workloads::makeByName("wc");
        pathText_ = pathProfileText(w_);
        edgeText_ = edgeProfileText(w_);
    }
    void TearDown() override { std::filesystem::remove_all(base_); }

    std::unique_ptr<ServeCore>
    makeCore(const std::string &sub, ServeOptions opts = ServeOptions())
    {
        auto core = std::make_unique<ServeCore>(w_, opts,
                                                base_ + "/" + sub);
        EXPECT_TRUE(core->init().ok());
        return core;
    }

    /** Hello + one path-profile Delta; returns the ack code. */
    AckCode
    sendDelta(ServeCore &core, const std::string &conn,
              const std::string &client, uint64_t seq,
              const std::string &text)
    {
        bool drop = false;
        auto acks =
            core.handleFrame(conn, encodeHello(client), drop);
        EXPECT_FALSE(drop);
        auto resp =
            core.handleFrame(conn, encodeDelta(seq, 1, text), drop);
        EXPECT_FALSE(drop);
        EXPECT_EQ(resp.size(), 1u);
        Message m;
        EXPECT_TRUE(decodeMessage(resp[0], m).ok());
        EXPECT_EQ(m.type, MsgType::Ack);
        return m.ack;
    }

    std::string base_;
    workloads::Workload w_;
    std::string pathText_;
    std::string edgeText_;
};

TEST_F(ServeCoreTest, HelloIsRequiredAndVersionChecked)
{
    auto core = makeCore("s");
    bool drop = false;
    // Delta before Hello: protocol misuse, connection dropped.
    auto resp = core->handleFrame("conn-a",
                                  encodeDelta(1, 1, pathText_), drop);
    EXPECT_TRUE(drop);
    ASSERT_EQ(resp.size(), 1u);
    Message m;
    ASSERT_TRUE(decodeMessage(resp[0], m).ok());
    EXPECT_EQ(m.ack, AckCode::Error);

    // Wrong wire version is refused up front.
    drop = false;
    resp = core->handleFrame("conn-b", encodeHello("c1", 999), drop);
    EXPECT_TRUE(drop);

    // Bad client id is refused at the trust boundary.
    drop = false;
    resp = core->handleFrame("conn-c", encodeHello("no spaces!"), drop);
    EXPECT_TRUE(drop);
}

TEST_F(ServeCoreTest, DeltaIsAdmittedWalLoggedAndAcked)
{
    auto core = makeCore("s");
    EXPECT_EQ(sendDelta(*core, "conn-a", "c1", 1, pathText_),
              AckCode::Accepted);
    EXPECT_EQ(core->deltasAccepted(), 1u);
    EXPECT_GT(core->aggregate().liveKeys(), 0u);
    EXPECT_EQ(core->aggregate().lastSeq("c1"), 1u);
    // Resending the same seq on a new connection is deduplicated.
    EXPECT_EQ(sendDelta(*core, "conn-b", "c1", 1, pathText_),
              AckCode::Duplicate);
}

/**
 * The headline crash contract.  Stream deltas and epoch ticks into a
 * core and destroy it without any shutdown (exactly what SIGKILL does
 * to the daemon), then recover a fresh core from the same state
 * directory: the aggregate serialization, the aggregate hash and the
 * final schedule must all be bit-identical to an uninterrupted run
 * that performed the same operations.
 */
TEST_F(ServeCoreTest, Kill9RecoveryIsBitIdentical)
{
    ServeOptions opts;
    opts.snapshotEvery = 3; // force a mid-stream snapshot + rotation
    auto drive = [&](ServeCore &core, uint64_t fromSeq, uint64_t toSeq) {
        for (uint64_t s = fromSeq; s <= toSeq; ++s) {
            EXPECT_EQ(sendDelta(core, "conn", "c1", s, pathText_),
                      AckCode::Accepted);
            if (s % 2 == 0) {
                EXPECT_TRUE(core.tick().ok());
            }
        }
    };

    // Uninterrupted control run.
    auto control = makeCore("control", opts);
    drive(*control, 1, 6);
    const RescheduleOutcome cr = control->attemptReschedule(true);
    ASSERT_TRUE(cr.status.ok());
    ASSERT_TRUE(cr.ran);
    const std::string wantAgg = control->aggregate().serialize();
    const std::string wantBlob = control->scheduleBlob();
    ASSERT_FALSE(wantBlob.empty());

    // Crash run: half the stream, then the core dies with no shutdown.
    {
        auto victim = makeCore("crash", opts);
        drive(*victim, 1, 3);
        // ~ServeCore performs no flush; the WAL fd is simply closed.
    }
    auto reborn = makeCore("crash", opts);
    EXPECT_GT(reborn->recovery().recordsReplayed +
                  (reborn->recovery().snapshotGen != 0 ? 1u : 0u),
              0u);
    // The client's blind resend of an already-admitted seq is absorbed.
    EXPECT_EQ(sendDelta(*reborn, "conn", "c1", 3, pathText_),
              AckCode::Duplicate);
    drive(*reborn, 4, 6);
    const RescheduleOutcome rr = reborn->attemptReschedule(true);
    ASSERT_TRUE(rr.status.ok());
    ASSERT_TRUE(rr.ran);

    EXPECT_EQ(reborn->aggregate().serialize(), wantAgg);
    EXPECT_EQ(reborn->aggregate().contentHash(),
              control->aggregate().contentHash());
    EXPECT_EQ(reborn->scheduleBlob(), wantBlob);
    EXPECT_EQ(reborn->scheduleHash(), control->scheduleHash());
}

TEST_F(ServeCoreTest, CrashDuringSnapshotKeepsPreviousGeneration)
{
    ServeOptions opts;
    auto core = makeCore("s", opts);
    EXPECT_EQ(sendDelta(*core, "conn", "c1", 1, pathText_),
              AckCode::Accepted);
    ASSERT_TRUE(core->flush().ok()); // snapshot gen 1
    const std::string want = core->aggregate().serialize();
    core.reset();

    // A crash mid-snapshot leaves a stray temp file; recovery must
    // ignore it and restore from the completed generation.
    {
        std::ofstream junk(base_ + "/s/snap.tmp", std::ios::binary);
        junk << "half-written snapshot";
    }
    auto reborn = makeCore("s", opts);
    EXPECT_EQ(reborn->aggregate().serialize(), want);
}

TEST_F(ServeCoreTest, ScheduleBlobBytesArePinned)
{
    // The schedule blob is serve's output (--schedule-out): the
    // canonical serialization of every scheduled procedure.  A forced
    // wc/P4 reschedule after one fixed delta pins its bytes.
    auto core = makeCore("s");
    ASSERT_EQ(sendDelta(*core, "conn", "c1", 1, pathText_),
              AckCode::Accepted);
    const RescheduleOutcome oc = core->attemptReschedule(true);
    ASSERT_TRUE(oc.status.ok());
    ASSERT_TRUE(oc.ran);
    EXPECT_EQ(oc.scheduleHash, core->scheduleHash());
    EXPECT_EQ(core->scheduleHash(), 0x6c30e42af128f6a0ULL);
}

TEST_F(ServeCoreTest, RescheduleIsFingerprintGatedAndRepeatable)
{
    auto core = makeCore("s");
    EXPECT_EQ(sendDelta(*core, "conn", "c1", 1, pathText_),
              AckCode::Accepted);

    const RescheduleOutcome first = core->attemptReschedule(false);
    ASSERT_TRUE(first.status.ok());
    EXPECT_TRUE(first.ran);
    EXPECT_GT(first.procsMoved, 0u);
    EXPECT_NE(first.scheduleHash, 0u);

    // A forced re-run with the aggregate untouched reproduces the
    // schedule exactly.
    const RescheduleOutcome forced = core->attemptReschedule(true);
    ASSERT_TRUE(forced.status.ok());
    EXPECT_TRUE(forced.ran);
    EXPECT_EQ(forced.scheduleHash, first.scheduleHash);

    // The same profile again (new seq): counts double uniformly, the
    // hot set and its order are unchanged -> the gate skips the run.
    EXPECT_EQ(sendDelta(*core, "conn", "c1", 2, pathText_),
              AckCode::Accepted);
    const RescheduleOutcome second = core->attemptReschedule(false);
    EXPECT_TRUE(second.attempted);
    EXPECT_FALSE(second.ran);
    EXPECT_TRUE(second.skippedUnmoved);
}

TEST_F(ServeCoreTest, ExpiredRescheduleDeadlineKeepsTheGateArmed)
{
    // gcc/P4's chains alone take 10 ms or more, so a 1 ms reschedule
    // deadline expires in every run: the outcome is a typed
    // DeadlineExceeded, no schedule is published, and the fingerprint
    // gate stays armed, so the next trigger runs again.
    w_ = workloads::makeByName("gcc");
    pathText_ = pathProfileText(w_);
    ServeOptions opts;
    opts.reschedDeadlineMs = 1;
    auto core = makeCore("s", opts);
    ASSERT_EQ(sendDelta(*core, "conn", "c1", 1, pathText_),
              AckCode::Accepted);

    const RescheduleOutcome first = core->attemptReschedule(false);
    EXPECT_TRUE(first.ran);
    EXPECT_EQ(first.status.kind(), ErrorKind::DeadlineExceeded)
        << first.status.toString();
    EXPECT_EQ(first.scheduleHash, 0u);
    EXPECT_EQ(core->scheduleHash(), 0u);
    EXPECT_EQ(core->stats().counter("serve.resched.deadlineExpired"), 1u);

    const RescheduleOutcome again = core->attemptReschedule(false);
    EXPECT_FALSE(again.skippedUnmoved);
    EXPECT_TRUE(again.ran);
    EXPECT_EQ(again.status.kind(), ErrorKind::DeadlineExceeded)
        << again.status.toString();
    EXPECT_EQ(core->scheduleHash(), 0u);
}

TEST_F(ServeCoreTest, RotatedOutProcedureCountsAsMoved)
{
    auto core = makeCore("s");
    EXPECT_EQ(sendDelta(*core, "conn", "c1", 1, pathText_),
              AckCode::Accepted);
    const RescheduleOutcome first = core->attemptReschedule(false);
    ASSERT_TRUE(first.status.ok());
    ASSERT_TRUE(first.ran);
    const uint64_t scheduledProcs = first.procsLive;
    ASSERT_GT(scheduledProcs, 0u);

    // Advance past the decay window so every bucket holding the delta
    // rotates out.
    for (uint64_t i = 0; i <= core->aggregate().options().windows; ++i)
        ASSERT_TRUE(core->tick().ok());
    ASSERT_EQ(core->aggregate().liveKeys(), 0u);

    // The scheduled procedures' hot state changed to "no data": the
    // gate must count them as moved rather than read the empty window
    // as "nothing moved" forever.  With nothing live to schedule from
    // the run itself is still skipped (last-known-good retention), but
    // the gate stays armed for when data returns.
    const RescheduleOutcome gone = core->attemptReschedule(false);
    EXPECT_EQ(gone.procsLive, 0u);
    EXPECT_EQ(gone.procsMoved, scheduledProcs);
    EXPECT_FALSE(gone.ran);
}

TEST_F(ServeCoreTest, EdgeProfileDeltasDriveBBConfigs)
{
    ServeOptions opts;
    opts.backend = pipeline::findBackend("M4");
    auto core = makeCore("s", opts);
    bool drop = false;
    core->handleFrame("conn", encodeHello("c1"), drop);
    auto resp =
        core->handleFrame("conn", encodeDelta(1, 0, edgeText_), drop);
    ASSERT_EQ(resp.size(), 1u);
    Message m;
    ASSERT_TRUE(decodeMessage(resp[0], m).ok());
    EXPECT_EQ(m.ack, AckCode::Accepted);

    const RescheduleOutcome oc = core->attemptReschedule(true);
    ASSERT_TRUE(oc.status.ok());
    EXPECT_TRUE(oc.ran);
    EXPECT_NE(oc.scheduleHash, 0u);
}

TEST_F(ServeCoreTest, StatusAndReportDocumentsAreWellFormed)
{
    auto core = makeCore("s");
    EXPECT_EQ(sendDelta(*core, "conn", "c1", 1, pathText_),
              AckCode::Accepted);
    (void)core->attemptReschedule(true);

    const std::string status = core->statusJson();
    EXPECT_NE(status.find("\"pathsched-serve-status-v1\""),
              std::string::npos);
    EXPECT_NE(status.find("\"aggregateHash\""), std::string::npos);
    EXPECT_NE(status.find("serve"), std::string::npos);

    // Satellite: per-client admission attribution in the registry.
    const auto &reg = core->stats();
    EXPECT_EQ(reg.counter("serve.client.c1.admitted"), 1u);
    EXPECT_EQ(reg.counter("serve.ingest.accepted"), 1u);

    const std::string report = core->reportJson();
    EXPECT_NE(report.find("\"runs\""), std::string::npos);
}

TEST_F(ServeCoreTest, StatsReqFlushTickAndByeOverFrames)
{
    auto core = makeCore("s");
    bool drop = false;
    core->handleFrame("conn", encodeHello("c1"), drop);
    ASSERT_FALSE(drop);

    auto resp = core->handleFrame("conn", encodeStatsReq(), drop);
    ASSERT_EQ(resp.size(), 1u);
    Message m;
    ASSERT_TRUE(decodeMessage(resp[0], m).ok());
    EXPECT_EQ(m.type, MsgType::StatsRep);
    EXPECT_FALSE(m.text.empty());

    (void)core->handleFrame("conn", encodeFlush(), drop);
    EXPECT_FALSE(drop);
    const uint64_t epochBefore = core->aggregate().epoch();
    (void)core->handleFrame("conn", encodeTick(), drop);
    EXPECT_FALSE(drop);
    EXPECT_EQ(core->aggregate().epoch(), epochBefore + 1);

    (void)core->handleFrame("conn", encodeBye(), drop);
    EXPECT_TRUE(drop);
}

// ---------------------------------------------------------------------
// Client transport: an oversize delta and a peer that hangs up.

TEST_F(ServeCoreTest, OversizeDeltaFailsTypedAndTheClientCarriesOn)
{
    auto core = makeCore("s");
    Endpoint ep;
    ep.isUnix = true;
    ep.path = base_ + "/sock";
    SocketLoopOptions lo;
    lo.epochMs = 60000;
    lo.maxDeltas = 1;
    Status loop_st;
    std::thread loop([&] { loop_st = runSocketLoop(*core, ep, lo); });

    ClientOptions co;
    co.backoffMs = 1;
    co.maxAttempts = 12; // rides over the loop's start-up
    Client client(ep, "big-client", co);
    ASSERT_TRUE(client.connect().ok());
    const uint64_t reconnects = client.reconnects();

    // 5 MiB is above the 4 MiB frame cap: the server would drop the
    // connection on the declared length, so the client must refuse the
    // delta before sending a byte, and must not resend it.
    const std::string big(5u << 20, 'x');
    ASSERT_GT(big.size(), size_t(kMaxFramePayload));
    const Status st = client.sendDelta(1, 1, big);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::BudgetExceeded) << st.toString();
    EXPECT_EQ(client.reconnects(), reconnects);

    // The connection is intact: the next delta is admitted, which
    // also stops the loop (maxDeltas).
    AckCode ack = AckCode::Error;
    EXPECT_TRUE(client.sendDelta(2, 1, pathText_, &ack).ok());
    EXPECT_EQ(ack, AckCode::Accepted);
    loop.join();
    EXPECT_TRUE(loop_st.ok()) << loop_st.toString();
    EXPECT_EQ(core->deltasAccepted(), 1u);
}

TEST_F(ServeCoreTest, PeerThatHangsUpIsAFailedDeltaNotASignal)
{
    // A peer that acknowledges the Hello and then closes both its
    // connection and its listener.  The client's delta send then fails
    // with EPIPE; a send without MSG_NOSIGNAL would raise SIGPIPE and
    // kill this test process.
    const std::string path = base_ + "/peer.sock";
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(path.size(), sizeof addr.sun_path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr), sizeof addr),
              0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    std::thread peer([lfd] {
        const int fd = ::accept(lfd, nullptr, nullptr);
        FrameDecoder dec;
        std::string payload;
        char buf[4096];
        while (dec.next(payload) != FrameDecoder::Result::Frame) {
            const ssize_t n = ::read(fd, buf, sizeof buf);
            if (n <= 0)
                break;
            dec.feed(buf, size_t(n));
        }
        std::string frame;
        appendFrame(frame, encodeAck(0, AckCode::Accepted, ""));
        EXPECT_EQ(::write(fd, frame.data(), frame.size()),
                  ssize_t(frame.size()));
        ::close(fd);
        ::close(lfd);
    });

    Endpoint ep;
    ep.isUnix = true;
    ep.path = path;
    ClientOptions co;
    co.backoffMs = 1;
    co.maxAttempts = 2;
    Client client(ep, "hangup", co);
    ASSERT_TRUE(client.connect().ok());
    peer.join();
    const Status st = client.sendDelta(1, 1, pathText_);
    EXPECT_FALSE(st.ok());
}

TEST(ServeMiscTest, ClientIdValidation)
{
    EXPECT_TRUE(validClientId("shard-01_a"));
    EXPECT_FALSE(validClientId(""));
    EXPECT_FALSE(validClientId("has space"));
    EXPECT_FALSE(validClientId("dot.dot"));
    EXPECT_FALSE(validClientId(std::string(65, 'a')));
}

// ---------------------------------------------------------------------
// Degraded-mode health machine: injected disk faults against ServeCore.

TEST_F(ServeCoreTest, WalFaultDegradesNacksRecoversAndLosesNothing)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(
        vio.parseFaults("path=wal,op=fsync,kind=eio,count=1", err))
        << err;
    ServeOptions fopts;
    fopts.vio = &vio;
    auto faulty = makeCore("faulty", fopts);
    auto control = makeCore("control");
    ASSERT_EQ(faulty->health(), Health::Healthy);

    // The injected fsync failure turns the append into an Unavailable
    // NACK — never a silent ack of a record that may not be durable.
    EXPECT_EQ(sendDelta(*faulty, "ca", "c1", 1, pathText_),
              AckCode::Unavailable);
    EXPECT_EQ(faulty->health(), Health::Degraded);
    EXPECT_EQ(faulty->deltasAccepted(), 0u);

    // While degraded: reads are served, writes keep NACKing, and the
    // epoch clock stands still so memory and WAL stay in sync.
    bool drop = false;
    auto resp = faulty->handleFrame("ca", encodeStatsReq(), drop);
    EXPECT_FALSE(drop);
    ASSERT_EQ(resp.size(), 1u);
    Message m;
    ASSERT_TRUE(decodeMessage(resp[0], m).ok());
    EXPECT_EQ(m.type, MsgType::StatsRep);
    EXPECT_EQ(sendDelta(*faulty, "ca", "c1", 1, pathText_),
              AckCode::Unavailable);

    // The tick-driven reopen retries, the fault budget is spent, and
    // the server snapshots its way back to healthy — then the epoch
    // advances as usual.
    ASSERT_TRUE(faulty->tick().ok());
    EXPECT_EQ(faulty->health(), Health::Healthy);
    EXPECT_EQ(sendDelta(*faulty, "ca", "c1", 1, pathText_),
              AckCode::Accepted);
    EXPECT_GE(faulty->stats().counter("serve.health.degradeEvents"),
              1u);
    EXPECT_GE(faulty->stats().counter("serve.health.recoveries"), 1u);

    // The NACK'd attempts were side-effect-free: the recovered server
    // is bit-identical to a control that saw only tick + the delta.
    ASSERT_TRUE(control->tick().ok());
    EXPECT_EQ(sendDelta(*control, "cb", "c1", 1, pathText_),
              AckCode::Accepted);
    EXPECT_EQ(faulty->aggregate().serialize(),
              control->aggregate().serialize());

    // No acked delta lost: kill -9 the recovered server; a clean
    // restart replays to the same bytes.
    const std::string pre = faulty->aggregate().serialize();
    faulty.reset();
    auto reborn = makeCore("faulty");
    EXPECT_EQ(reborn->aggregate().serialize(), pre);
}

TEST_F(ServeCoreTest, RepeatedReopenFailureEscalatesToFailing)
{
    // The WAL append fault degrades; the snapshot fault then blocks
    // every recovery attempt, so the server must escalate to Failing
    // while still serving reads and NACKing writes.
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults(
                    "path=wal,op=fsync,kind=eio,count=1;"
                    "path=snap,op=fsync,kind=fsync-fail",
                    err))
        << err;
    ServeOptions fopts;
    fopts.vio = &vio;
    auto core = makeCore("failing", fopts);

    EXPECT_EQ(sendDelta(*core, "ca", "c1", 1, pathText_),
              AckCode::Unavailable);
    EXPECT_EQ(core->health(), Health::Degraded);
    const uint64_t epochBefore = core->aggregate().epoch();
    // The first tick attempts the reopen; each failure then waits
    // 1, 2, 4, ..., 64 ticks (the cap) before the next attempt, and
    // the 8th consecutive failure escalates: 8 attempts plus
    // 1 + 2 + ... + 64 = 127 waiting ticks, which return OK.
    int failedTicks = 0;
    for (int i = 0; i < 134; ++i)
        if (!core->tick().ok())
            ++failedTicks;
    EXPECT_EQ(core->health(), Health::Degraded);
    if (!core->tick().ok())
        ++failedTicks;
    EXPECT_GE(failedTicks, 3);
    EXPECT_EQ(core->health(), Health::Failing);
    // Time stood still: no epoch advanced while the WAL was down.
    EXPECT_EQ(core->aggregate().epoch(), epochBefore);
    EXPECT_GE(core->stats().counter("serve.health.reopenFailures"),
              2u);
    // Still answering reads, still refusing writes.
    EXPECT_EQ(sendDelta(*core, "ca", "c1", 1, pathText_),
              AckCode::Unavailable);
    bool drop = false;
    auto resp = core->handleFrame("ca", encodeStatsReq(), drop);
    EXPECT_FALSE(drop);
    ASSERT_EQ(resp.size(), 1u);
}

TEST_F(ServeCoreTest, HealthBlockIsInStatusAndReportDocuments)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(
        vio.parseFaults("path=wal,op=fsync,kind=eio,count=1", err))
        << err;
    ServeOptions fopts;
    fopts.vio = &vio;
    auto core = makeCore("s", fopts);
    EXPECT_EQ(sendDelta(*core, "ca", "c1", 1, pathText_),
              AckCode::Unavailable);
    ASSERT_TRUE(core->tick().ok());
    EXPECT_EQ(sendDelta(*core, "ca", "c1", 1, pathText_),
              AckCode::Accepted);

    const std::string status = core->statusJson();
    EXPECT_NE(status.find("\"health\""), std::string::npos);
    EXPECT_NE(status.find("\"healthy\""), std::string::npos);
    EXPECT_NE(status.find("\"degradeEvents\""), std::string::npos);
    EXPECT_NE(status.find("\"recoveries\""), std::string::npos);
    EXPECT_NE(status.find("\"nackedUnavailable\""), std::string::npos);

    const std::string report = core->reportJson();
    EXPECT_NE(report.find("\"health\""), std::string::npos);
    EXPECT_NE(report.find("\"runs\""), std::string::npos);
    EXPECT_EQ(core->stats().counter("serve.health.state"), 0u);
}

// ---------------------------------------------------------------------
// Torn-tail byte sweep: recovery at every truncation offset.

TEST_F(WalTest, TornTailSweepRecoversThePrefixAtEveryByteOffset)
{
    Rng rng(11);
    Aggregate expected; // state after all but the final record
    std::string expectedBytes;
    uint64_t sizeBefore = 0, sizeAfter = 0;
    const std::string walFile = dir_ + "/wal.1.bin";
    {
        Wal wal(dir_);
        Aggregate scratch;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(scratch, info).ok());
        const uint64_t kRecords = 4;
        for (uint64_t s = 1; s <= kRecords; ++s) {
            const AdmittedDelta d = randomDelta(rng, "c", s);
            if (s == kRecords) {
                expectedBytes = expected.serialize();
                sizeBefore = std::filesystem::file_size(walFile);
            } else {
                expected.apply(d);
            }
            ASSERT_TRUE(wal.appendAdmitted(d).ok());
        }
        sizeAfter = std::filesystem::file_size(walFile);
    }
    ASSERT_GT(sizeAfter, sizeBefore);
    std::string full;
    {
        std::ifstream in(walFile, std::ios::binary);
        full.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(full.size(), sizeAfter);

    const std::string sweepDir = dir_ + "_sweep";
    std::filesystem::remove_all(sweepDir);
    std::filesystem::create_directories(sweepDir);
    for (uint64_t off = sizeBefore; off < sizeAfter; ++off) {
        {
            std::ofstream out(sweepDir + "/wal.1.bin",
                              std::ios::binary | std::ios::trunc);
            out.write(full.data(), std::streamsize(off));
        }
        Wal wal(sweepDir);
        Aggregate agg;
        RecoveryInfo info;
        ASSERT_TRUE(wal.open(agg, info).ok()) << "offset " << off;
        // The invariant at every byte: the torn record contributes
        // nothing — recovery lands on exactly the pre-record state.
        ASSERT_EQ(agg.serialize(), expectedBytes) << "offset " << off;
        // A cut at the record boundary is a clean end, not a tear.
        ASSERT_EQ(info.tornSegments, off == sizeBefore ? 0u : 1u)
            << "offset " << off;
    }
    std::filesystem::remove_all(sweepDir);
}

} // namespace
} // namespace pathsched::serve
