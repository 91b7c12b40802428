/**
 * @file
 * Virtual-I/O seam tests: the --io-inject grammar, every fault kind's
 * injected behaviour (including short-write's genuine torn prefix),
 * the nth/count/prob selectors, passthrough transparency, and the
 * atomicWriteFile publish protocol under faults.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "support/vio.hpp"

namespace pathsched {
namespace {

class VioTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "pathsched_vio_" +
               std::to_string(::getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    path(const char *name) const
    {
        return dir_ + "/" + name;
    }

    static std::string
    slurp(const std::string &p)
    {
        std::ifstream in(p, std::ios::binary);
        return std::string((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    }

    std::string dir_;
};

// ---------------------------------------------------------------------
// Grammar.

TEST(VioGrammarTest, ParsesFullSpecAndArms)
{
    Vio vio;
    std::string err;
    EXPECT_FALSE(vio.armed());
    ASSERT_TRUE(vio.parseFaults(
        "path=wal,op=fsync,kind=eio,count=2;"
        "path=journal,kind=enospc,nth=3,prob=0.5",
        err))
        << err;
    EXPECT_TRUE(vio.armed());
    EXPECT_EQ(vio.faultsFired(), 0u);
}

TEST(VioGrammarTest, RejectsMalformedSpecsWithAMessage)
{
    const char *bad[] = {
        "",                          // empty
        "path=wal",                  // no kind
        "kind=sparks",               // unknown kind
        "kind=eio,op=chmod",         // unknown op
        "kind=eio,count=0",          // zero count
        "kind=eio,count=x",          // non-numeric
        "kind=eio,nth=0",            // nth is 1-based
        "kind=eio,prob=1.5",         // out of range
        "kind=eio,prob=x",           // non-numeric
        "kind=eio,flavor=spicy",     // unknown field
        "kindeio",                   // missing '='
    };
    for (const char *spec : bad) {
        Vio vio;
        std::string err;
        EXPECT_FALSE(vio.parseFaults(spec, err)) << spec;
        EXPECT_FALSE(err.empty()) << spec;
        EXPECT_FALSE(vio.armed()) << spec;
    }
}

// ---------------------------------------------------------------------
// Passthrough.

TEST_F(VioTest, PassthroughWritesAreTransparent)
{
    Vio vio; // disarmed
    const std::string p = path("plain.bin");
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok()) << fd.status().toString();
    const std::string data = "forty-two bytes of durable payload";
    ASSERT_TRUE(
        vio.writeAll("wal", fd.value(), data.data(), data.size(), p)
            .ok());
    ASSERT_TRUE(vio.fsyncFile("wal", fd.value(), p).ok());
    ASSERT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
    ASSERT_TRUE(vio.fsyncDir("dir", dir_).ok());
    EXPECT_EQ(slurp(p), data);
    EXPECT_EQ(vio.faultsFired(), 0u);

    const std::string p2 = path("renamed.bin");
    ASSERT_TRUE(vio.renameFile("wal", p, p2).ok());
    EXPECT_EQ(slurp(p2), data);
}

TEST_F(VioTest, RealErrorsComeBackTyped)
{
    Vio vio;
    Expected<int> fd = vio.openFile(
        "wal", dir_ + "/no/such/dir/f", O_WRONLY | O_CREAT);
    ASSERT_FALSE(fd.ok());
    EXPECT_EQ(fd.status().kind(), ErrorKind::IoError);
    Status st = vio.renameFile("wal", path("absent"), path("b"));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::IoError);
}

// ---------------------------------------------------------------------
// Fault kinds.

TEST_F(VioTest, EnospcFiresOnWriteOnly)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("path=wal,kind=enospc", err)) << err;
    const std::string p = path("f");
    // Default op for enospc is write: open must still succeed.
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok());
    Status st = vio.writeAll("wal", fd.value(), "x", 1, p);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.kind(), ErrorKind::IoError);
    EXPECT_NE(st.message().find("injected enospc"), std::string::npos);
    EXPECT_EQ(vio.faultsFired(), 1u);
    // Nothing reached the file.
    ASSERT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
    EXPECT_EQ(slurp(p), "");
}

TEST_F(VioTest, EioWithNoOpMatchesEveryOp)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("kind=eio,count=2", err)) << err;
    // Fires on open (first) and then fsyncDir (second).
    Expected<int> fd = vio.openFile("wal", path("f"), O_WRONLY | O_CREAT);
    ASSERT_FALSE(fd.ok());
    Status st = vio.fsyncDir("dir", dir_);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("injected eio"), std::string::npos);
    // Budget of 2 spent: back to passthrough.
    Expected<int> fd2 =
        vio.openFile("wal", path("f"), O_WRONLY | O_CREAT);
    ASSERT_TRUE(fd2.ok());
    ASSERT_TRUE(vio.closeFile("wal", fd2.value(), path("f")).ok());
    EXPECT_EQ(vio.faultsFired(), 2u);
}

TEST_F(VioTest, ShortWritePersistsAGenuineTornPrefix)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(
        vio.parseFaults("path=wal,kind=short-write,count=1", err))
        << err;
    const std::string p = path("torn.bin");
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok());
    const std::string data(64, 'A');
    Status st = vio.writeAll("wal", fd.value(), data.data(),
                             data.size(), p);
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("injected short-write"),
              std::string::npos);
    ASSERT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
    // Exactly half the buffer really landed on disk: a true torn tail,
    // not a clean no-op.
    EXPECT_EQ(slurp(p), data.substr(0, data.size() / 2));
}

TEST_F(VioTest, FsyncFailAndRenameFailTargetTheirDefaultOps)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults(
                    "path=wal,kind=fsync-fail,count=1;"
                    "path=wal,kind=rename-fail,count=1",
                    err))
        << err;
    const std::string p = path("f");
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok()); // open untouched by either fault
    ASSERT_TRUE(vio.writeAll("wal", fd.value(), "x", 1, p).ok());
    EXPECT_FALSE(vio.fsyncFile("wal", fd.value(), p).ok());
    ASSERT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
    EXPECT_FALSE(vio.renameFile("wal", p, path("g")).ok());
    // The real rename never ran.
    EXPECT_TRUE(std::filesystem::exists(p));
    EXPECT_FALSE(std::filesystem::exists(path("g")));
}

TEST_F(VioTest, InjectedCloseStillReallyClosesTheFd)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("kind=eio,op=close,count=1", err))
        << err;
    const std::string p = path("f");
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok());
    EXPECT_FALSE(vio.closeFile("wal", fd.value(), p).ok());
    // The fd must be gone despite the injected error — anything else
    // would turn injection into a real fd leak.
    EXPECT_EQ(::fcntl(fd.value(), F_GETFD), -1);
}

// ---------------------------------------------------------------------
// Selectors.

TEST_F(VioTest, LabelMatchingIsExactOrWildcard)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("path=journal,kind=enospc", err)) << err;
    const std::string p = path("f");
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok());
    // "wal" writes sail through a journal-only fault...
    EXPECT_TRUE(vio.writeAll("wal", fd.value(), "x", 1, p).ok());
    // ...and "journal" writes do not.
    EXPECT_FALSE(vio.writeAll("journal", fd.value(), "x", 1, p).ok());
    ASSERT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
}

TEST_F(VioTest, NthFiresOnExactlyTheNthMatchingQuery)
{
    Vio vio;
    std::string err;
    ASSERT_TRUE(vio.parseFaults("path=wal,kind=enospc,nth=3", err))
        << err;
    const std::string p = path("f");
    Expected<int> fd =
        vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
    ASSERT_TRUE(fd.ok());
    EXPECT_TRUE(vio.writeAll("wal", fd.value(), "a", 1, p).ok());
    EXPECT_TRUE(vio.writeAll("wal", fd.value(), "b", 1, p).ok());
    EXPECT_FALSE(vio.writeAll("wal", fd.value(), "c", 1, p).ok());
    EXPECT_TRUE(vio.writeAll("wal", fd.value(), "d", 1, p).ok());
    ASSERT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
    EXPECT_EQ(vio.faultsFired(), 1u);
    EXPECT_EQ(slurp(p), "abd");
}

TEST_F(VioTest, ProbIsDeterministicUnderASeed)
{
    // Same seed -> identical fire pattern; different seed -> the
    // pattern is allowed to differ, and over 200 queries at p=0.5
    // both some fires and some passes must occur.
    auto pattern = [&](uint64_t seed) {
        Vio vio(seed);
        std::string err;
        EXPECT_TRUE(vio.parseFaults("path=wal,kind=enospc,prob=0.5",
                                    err))
            << err;
        const std::string p = path("f");
        Expected<int> fd =
            vio.openFile("wal", p, O_WRONLY | O_CREAT | O_TRUNC);
        EXPECT_TRUE(fd.ok());
        std::string bits;
        for (int i = 0; i < 200; ++i)
            bits += vio.writeAll("wal", fd.value(), "x", 1, p).ok()
                        ? '1'
                        : '0';
        EXPECT_TRUE(vio.closeFile("wal", fd.value(), p).ok());
        return bits;
    };
    const std::string a1 = pattern(7);
    const std::string a2 = pattern(7);
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1.find('0'), std::string::npos);
    EXPECT_NE(a1.find('1'), std::string::npos);
}

// ---------------------------------------------------------------------
// atomicWriteFile.

TEST_F(VioTest, AtomicWriteFilePublishesWholeFiles)
{
    const std::string p = path("out.json");
    ASSERT_TRUE(atomicWriteFile(nullptr, "status", p, "{\"a\":1}\n").ok());
    EXPECT_EQ(slurp(p), "{\"a\":1}\n");
    // Overwrite is atomic too.
    ASSERT_TRUE(atomicWriteFile(nullptr, "status", p, "{\"a\":2}\n").ok());
    EXPECT_EQ(slurp(p), "{\"a\":2}\n");
    // No temp files left behind.
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir_)) {
        (void)e;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST_F(VioTest, AtomicWriteFileFaultsLeaveTheOldFileAndNoTemp)
{
    const std::string p = path("out.json");
    ASSERT_TRUE(atomicWriteFile(nullptr, "status", p, "old").ok());
    // A failure at each stage of the protocol must leave the published
    // file untouched and clean up its temp file.
    const char *specs[] = {
        "path=status,op=open,kind=eio,count=1",
        "path=status,kind=enospc,count=1",
        "path=status,kind=short-write,count=1",
        "path=status,kind=fsync-fail,count=1",
        "path=status,op=close,kind=eio,count=1",
        "path=status,kind=rename-fail,count=1",
    };
    for (const char *spec : specs) {
        Vio vio;
        std::string err;
        ASSERT_TRUE(vio.parseFaults(spec, err)) << spec << ": " << err;
        Status st = atomicWriteFile(&vio, "status", p, "new");
        EXPECT_FALSE(st.ok()) << spec;
        EXPECT_EQ(st.kind(), ErrorKind::IoError) << spec;
        EXPECT_EQ(slurp(p), "old") << spec;
        size_t files = 0;
        for (const auto &e :
             std::filesystem::directory_iterator(dir_)) {
            (void)e;
            ++files;
        }
        EXPECT_EQ(files, 1u) << spec << " left a temp file";
    }
    // With the budgets spent, the next publish goes through.
    ASSERT_TRUE(atomicWriteFile(nullptr, "status", p, "new").ok());
    EXPECT_EQ(slurp(p), "new");
}

// ---------------------------------------------------------------------
// Taxonomy hooks.

TEST(VioTaxonomyTest, NewErrorKindsRoundTripThroughTheParser)
{
    ErrorKind k;
    ASSERT_TRUE(parseErrorKind("io", k));
    EXPECT_EQ(k, ErrorKind::IoError);
    ASSERT_TRUE(parseErrorKind("IoError", k));
    EXPECT_EQ(k, ErrorKind::IoError);
    ASSERT_TRUE(parseErrorKind("unavailable", k));
    EXPECT_EQ(k, ErrorKind::Unavailable);
    EXPECT_STREQ(errorKindName(ErrorKind::IoError), "IoError");
    EXPECT_STREQ(errorKindName(ErrorKind::Unavailable), "Unavailable");
}

TEST(VioTaxonomyTest, KindNamesAreStableGrammarTokens)
{
    EXPECT_STREQ(ioFaultKindName(IoFaultKind::Enospc), "enospc");
    EXPECT_STREQ(ioFaultKindName(IoFaultKind::Eio), "eio");
    EXPECT_STREQ(ioFaultKindName(IoFaultKind::ShortWrite),
                 "short-write");
    EXPECT_STREQ(ioFaultKindName(IoFaultKind::FsyncFail), "fsync-fail");
    EXPECT_STREQ(ioFaultKindName(IoFaultKind::RenameFail),
                 "rename-fail");
}

} // namespace
} // namespace pathsched
