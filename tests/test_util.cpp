/**
 * @file
 * Unit and property tests for the util foundation library.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <deque>
#include <filesystem>
#include <set>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/runner.hpp"
#include "trace/sink.hpp"
#include "util/bitops.hpp"
#include "util/cancel.hpp"
#include "util/signals.hpp"
#include "workloads/suite.hpp"
#include "util/folded_history.hpp"
#include "util/histogram.hpp"
#include "util/logging.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/sat_counter.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace bpnsp;

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);   // all values hit
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIndependent)
{
    Rng a(5);
    Rng child = a.fork();
    EXPECT_NE(a.next(), child.next());
}

TEST(Rng, Splitmix64KnownVectors)
{
    // Reference values from the splitmix64 test vectors (Vigna); any
    // drift here silently re-seeds every derived stream in the repo.
    EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafull);
    EXPECT_EQ(splitmix64(splitmix64(0)), 0xa706dd2f4d197e6full);
}

TEST(Rng, Fnv1a64Basis)
{
    // Empty input returns the FNV offset basis; the probe string is
    // the classic reference vector.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(Rng, IndexedStreamsReproducibleAndIndependent)
{
    Rng a = Rng::stream(99, uint64_t{3});
    Rng b = Rng::stream(99, uint64_t{3});
    Rng c = Rng::stream(99, uint64_t{4});
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        same += (va == c.next());
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NamedStreamsReproducibleAndIndependent)
{
    Rng a = Rng::stream(7, "faultsim.point");
    Rng b = Rng::stream(7, "faultsim.point");
    Rng c = Rng::stream(7, "synth.structure");
    Rng d = Rng::stream(8, "faultsim.point");
    int sameName = 0;
    int sameSeed = 0;
    for (int i = 0; i < 64; ++i) {
        const uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        sameName += (va == c.next());
        sameSeed += (va == d.next());
    }
    EXPECT_LT(sameName, 2);
    EXPECT_LT(sameSeed, 2);
}

// ------------------------------------------------------------- bitops

TEST(Bitops, Bits)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffull);
    EXPECT_EQ(bits(0xff00, 0, 8), 0x00ull);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
}

TEST(Bitops, PowersOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(7), 2u);
    EXPECT_EQ(log2Floor(8), 3u);
}

TEST(Bitops, Mix64Injective)
{
    std::set<uint64_t> outputs;
    for (uint64_t i = 0; i < 1000; ++i)
        outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Bitops, FoldToWidth)
{
    for (unsigned w = 1; w < 20; ++w)
        EXPECT_LT(foldTo(0x123456789abcdefull, w), 1ull << w);
    EXPECT_EQ(foldTo(0xf, 4), 0xfull);
    // Folding 8 bits to 4: high nibble XOR low nibble.
    EXPECT_EQ(foldTo(0xa5, 4), 0xfull);
}

// -------------------------------------------------------- SatCounter

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.read(), 3u);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.saturated());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.read(), 0u);
    EXPECT_FALSE(c.taken());
}

TEST(SatCounter, Threshold)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.taken());   // 1 of max 3: not taken
    c.increment();
    EXPECT_TRUE(c.taken());    // 2 of 3: taken
}

TEST(SignedSatCounter, Range)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.min(), -4);
    EXPECT_EQ(c.max(), 3);
    for (int i = 0; i < 10; ++i)
        c.update(true);
    EXPECT_EQ(c.read(), 3);
    for (int i = 0; i < 20; ++i)
        c.update(false);
    EXPECT_EQ(c.read(), -4);
}

TEST(SignedSatCounter, TakenAndWeak)
{
    SignedSatCounter c(3, 0);
    EXPECT_TRUE(c.taken());
    EXPECT_TRUE(c.weak());
    c.update(false);
    EXPECT_FALSE(c.taken());
    EXPECT_TRUE(c.weak());
    c.update(false);
    EXPECT_FALSE(c.weak());
}

TEST(SignedSatCounter, Confidence)
{
    SignedSatCounter c(3, 0);
    EXPECT_EQ(c.confidence(), 0u);
    c.update(true);
    EXPECT_EQ(c.confidence(), 1u);
    c.set(-1);
    EXPECT_EQ(c.confidence(), 0u);
    c.set(-4);
    EXPECT_EQ(c.confidence(), 3u);
}

// --------------------------------------------------- FoldedHistory

namespace {

/** Direct XOR fold of the newest `len` outcomes to `width` bits. */
uint32_t
directFold(const HistoryRegister &hist, unsigned len, unsigned width)
{
    uint32_t folded = 0;
    for (unsigned age = 0; age < len; ++age) {
        if (hist.at(age))
            folded ^= 1u << (age % width);
    }
    return folded;
}

/** Folds the bank must keep equal to their definition. */
const std::pair<unsigned, unsigned> kFoldShapes[] = {
    {1, 1},   {1, 9},   {4, 9},    {7, 7},    {37, 7},  {64, 11},
    {64, 1},  {63, 31}, {65, 10},  {128, 12}, {129, 8}, {200, 13},
    {250, 9}, {250, 8}, {250, 31}, {251, 1},
};

/** A bank over a 256-slot ring holding every shape above. */
FoldedHistoryBank
makeShapeBank()
{
    FoldedHistoryBank bank(251);
    for (unsigned f = 0; f < std::size(kFoldShapes); ++f)
        EXPECT_EQ(bank.add(kFoldShapes[f].first, kFoldShapes[f].second),
                  f);
    return bank;
}

void
expectFoldsMatch(const FoldedHistoryBank &bank, int step)
{
    for (unsigned f = 0; f < bank.size(); ++f) {
        const auto [len, width] = kFoldShapes[f];
        ASSERT_EQ(bank.value(f),
                  directFold(bank.history(), len, width))
            << "len " << len << " width " << width << " step " << step;
        if (len <= 64) {
            ASSERT_EQ(bank.value(f),
                      foldTo(bank.history().low(len), width))
                << "len " << len << " width " << width;
        }
    }
}

} // namespace

/**
 * Property: every incrementally-updated fold equals the from-scratch
 * XOR fold of its history window (foldTo of the low bits for windows
 * up to 64), over random outcomes spanning many wraps of the ring.
 */
TEST(FoldedHistory, MatchesDirectFoldProperty)
{
    FoldedHistoryBank bank = makeShapeBank();
    ASSERT_EQ(bank.size(), std::size(kFoldShapes));
    Rng rng(21);
    // 256-slot ring: 4000 pushes wrap it more than 15 times.
    for (int step = 0; step < 4000; ++step) {
        bank.push(rng.chance(step % 700 < 350 ? 0.5 : 0.9));
        expectFoldsMatch(bank, step);
    }
}

TEST(FoldedHistory, ResetMidStreamRestartsFromZero)
{
    FoldedHistoryBank bank = makeShapeBank();
    Rng rng(5);
    for (int round = 0; round < 3; ++round) {
        for (int step = 0; step < 600 + 97 * round; ++step)
            bank.push(rng.chance(0.5));
        bank.reset();
        for (unsigned f = 0; f < bank.size(); ++f)
            EXPECT_EQ(bank.value(f), 0u);
        EXPECT_EQ(bank.history().low(64), 0u);
        for (int step = 0; step < 300; ++step) {
            bank.push(rng.chance(0.5));
            expectFoldsMatch(bank, step);
        }
    }
}

TEST(FoldedHistory, ZeroHistoryFoldsToZero)
{
    FoldedHistoryBank bank(100);
    bank.add(100, 10);
    for (int i = 0; i < 500; ++i)
        bank.push(false);
    EXPECT_EQ(bank.value(0), 0u);
}

TEST(FoldedHistory, DistinctHistoriesUsuallyDiffer)
{
    // Two different histories should (almost always) fold differently.
    FoldedHistoryBank a(40);
    FoldedHistoryBank b(40);
    a.add(32, 8);
    b.add(32, 8);
    Rng rng(3);
    for (int i = 0; i < 32; ++i) {
        a.push(rng.chance(0.5));
        b.push(rng.chance(0.5));
    }
    // Not guaranteed, but overwhelmingly likely for this seed.
    EXPECT_NE(a.value(0), b.value(0));
}

TEST(HistoryRegister, PushAndAt)
{
    HistoryRegister hist(128);
    hist.push(true);
    hist.push(false);
    hist.push(true);
    EXPECT_TRUE(hist.at(0));    // most recent
    EXPECT_FALSE(hist.at(1));
    EXPECT_TRUE(hist.at(2));
}

TEST(HistoryRegister, CrossesWordBoundary)
{
    HistoryRegister hist(128);
    for (int i = 0; i < 70; ++i)
        hist.push(i % 2 == 0);
    // Bit pushed at i is at position 69 - i.
    EXPECT_TRUE(hist.at(69));    // i=0 was true
    EXPECT_FALSE(hist.at(68));   // i=1 false
    EXPECT_TRUE(hist.at(1));     // i=68 true
}

TEST(HistoryRegister, Low)
{
    HistoryRegister hist(64);
    hist.push(true);
    hist.push(true);
    hist.push(false);
    EXPECT_EQ(hist.low(3), 0b110ull);
}

/**
 * Property: at() and low() agree with a plain shift-register model
 * for at least five capacities' worth of pushes, at capacities on
 * both sides of the word and ring-size boundaries.
 */
TEST(HistoryRegister, MatchesShiftRegisterModel)
{
    for (unsigned cap : {1u, 63u, 64u, 65u, 1001u, 3001u}) {
        HistoryRegister hist(cap);
        std::deque<bool> model;   // front = most recent
        Rng rng(cap);
        const unsigned pushes = 5 * cap + 130;
        for (unsigned step = 0; step < pushes; ++step) {
            const bool bit = rng.chance(0.3 + 0.4 * (step % 2));
            hist.push(bit);
            model.push_front(bit);
            if (model.size() > std::max(cap, 64u))
                model.pop_back();

            // Every position on a sparse schedule, a sample otherwise.
            const bool full = step % 97 == 0 || step + 1 == pushes;
            for (unsigned pos = 0; pos < cap;
                 pos += full ? 1 : 1 + rng.below(cap)) {
                const bool want = pos < model.size() && model[pos];
                ASSERT_EQ(hist.at(pos), want)
                    << "cap " << cap << " step " << step << " pos "
                    << pos;
            }
            for (unsigned n : {0u, 1u, 7u, 63u, 64u}) {
                uint64_t want = 0;
                for (unsigned i = 0; i < n && i < model.size(); ++i)
                    want |= static_cast<uint64_t>(model[i]) << i;
                ASSERT_EQ(hist.low(n), want)
                    << "cap " << cap << " step " << step << " n " << n;
            }
        }
        hist.reset();
        EXPECT_EQ(hist.low(64), 0u);
        for (unsigned pos = 0; pos < cap; ++pos)
            ASSERT_FALSE(hist.at(pos)) << "cap " << cap;
    }
}

// ------------------------------------------------------------- stats

TEST(OnlineStats, MeanAndStddev)
{
    OnlineStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, EmptyIsDistinguishableFromZero)
{
    OnlineStats s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    // The accessors fall back to 0.0 when empty — exactly why empty()
    // exists: a real observation of 0 looks the same otherwise.
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);

    s.add(0.0);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(OnlineStats, MergeEqualsCombined)
{
    OnlineStats all;
    OnlineStats a;
    OnlineStats b;
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
        const double v = rng.uniform() * 10;
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
    EXPECT_EQ(medianU64({5, 1, 9}), 5u);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
}

// --------------------------------------------------------- histogram

TEST(Histogram, BinAssignment)
{
    Histogram h({0.0, 1.0, 10.0, 100.0});
    h.add(0.5);
    h.add(1.0);
    h.add(5.0);
    h.add(99.0);
    h.add(100.0);   // last edge goes into the final (closed) bin
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 2u);
    EXPECT_EQ(h.count(2), 2u);
    EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, OutOfRange)
{
    Histogram h({0.0, 10.0});
    h.add(-1.0);
    h.add(11.0);
    EXPECT_EQ(h.underflowCount(), 1u);
    EXPECT_EQ(h.overflowCount(), 1u);
    EXPECT_EQ(h.total(), 0u);
}

TEST(Histogram, Fractions)
{
    Histogram h({0.0, 1.0, 2.0});
    h.add(0.5, 3);
    h.add(1.5, 1);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.75);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.25);
}

TEST(Histogram, Labels)
{
    Histogram h({0.0, 1000.0, 1000000.0});
    EXPECT_EQ(h.binLabel(0), "0-1K");
    EXPECT_EQ(h.binLabel(1), "1K-1M");
}

TEST(Histogram, LinearFactory)
{
    Histogram h = Histogram::linear(0.0, 10.0, 2.0);
    EXPECT_EQ(h.numBins(), 5u);
    EXPECT_DOUBLE_EQ(h.binLo(0), 0.0);
    EXPECT_DOUBLE_EQ(h.binHi(4), 10.0);
}

// ------------------------------------------------------------- table

TEST(TextTable, RenderContainsCells)
{
    TextTable t("Title");
    t.setHeader({"a", "b"});
    t.beginRow();
    t.cell(std::string("x"));
    t.cell(uint64_t{42});
    const std::string out = t.render();
    EXPECT_NE(out.find("Title"), std::string::npos);
    EXPECT_NE(out.find("x"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TextTable, At)
{
    TextTable t;
    t.addRow({"p", "q"});
    EXPECT_EQ(t.at(0, 1), "q");
    EXPECT_EQ(t.numRows(), 1u);
    EXPECT_EQ(t.numCols(), 2u);
}

TEST(TextTable, PercentCell)
{
    TextTable t;
    t.beginRow();
    t.percentCell(0.553);
    EXPECT_EQ(t.render().find("55.3%") != std::string::npos, true);
}

TEST(TextTable, CsvEscaping)
{
    TextTable t;
    t.setHeader({"name"});
    t.addRow({"a,b"});
    const std::string csv = t.renderCsv();
    EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
}

TEST(TextTable, Markdown)
{
    TextTable t;
    t.setHeader({"h1", "h2"});
    t.addRow({"v1", "v2"});
    const std::string md = t.renderMarkdown();
    EXPECT_NE(md.find("| h1 | h2 |"), std::string::npos);
    EXPECT_NE(md.find("| v1 | v2 |"), std::string::npos);
}

TEST(Formatting, Grouped)
{
    EXPECT_EQ(fmtGrouped(0), "0");
    EXPECT_EQ(fmtGrouped(999), "999");
    EXPECT_EQ(fmtGrouped(13865), "13,865");
    EXPECT_EQ(fmtGrouped(1000000), "1,000,000");
}

// ----------------------------------------------------------- options

TEST(Options, ParseForms)
{
    OptionParser p("test");
    p.addInt("n", 5, "an int");
    p.addString("s", "x", "a string");
    p.addFlag("f", "a flag");
    p.addDouble("d", 1.5, "a double");
    const char *argv[] = {"prog", "--n=7", "--s", "hello", "--f",
                          "--d=2.25"};
    p.parse(6, argv);
    EXPECT_EQ(p.getInt("n"), 7);
    EXPECT_EQ(p.getString("s"), "hello");
    EXPECT_TRUE(p.getFlag("f"));
    EXPECT_DOUBLE_EQ(p.getDouble("d"), 2.25);
}

TEST(Options, Defaults)
{
    OptionParser p("test");
    p.addInt("n", 5, "an int");
    p.addFlag("f", "a flag");
    const char *argv[] = {"prog"};
    p.parse(1, argv);
    EXPECT_EQ(p.getInt("n"), 5);
    EXPECT_FALSE(p.getFlag("f"));
}

// -------------------------------------------------------------- logging

TEST(Logging, LevelGatesWarnAndInform)
{
    const LogLevel saved = logLevel();

    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    warn("warn at info level");
    inform("inform at info level");
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: warn at info level"), std::string::npos);
    EXPECT_NE(out.find("info: inform at info level"), std::string::npos);

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    warn("warn at warn level");
    inform("inform at warn level");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn at warn level"), std::string::npos);
    EXPECT_EQ(out.find("inform at warn level"), std::string::npos);

    setLogLevel(LogLevel::Quiet);
    ::testing::internal::CaptureStderr();
    warn("warn at quiet level");
    inform("inform at quiet level");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(out.empty()) << out;

    setLogLevel(saved);
}

// ----------------------------------------------------------- signals

TEST(Signals, FirstSigtermDrainsSecondForceExits)
{
    // Fork so the handler installation and the signals stay out of
    // the gtest process. First SIGTERM in drain mode only fires the
    // cancel token; the second force-exits with 128+SIGTERM.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        signals::installGracefulDrain();
        ::raise(SIGTERM);
        if (!globalCancelToken().cancelled())
            ::_exit(90);   // first signal must fire the token
        if (signals::firedCount() != 1 ||
            signals::lastSignal() != SIGTERM)
            ::_exit(91);
        ::raise(SIGTERM);   // second signal: never returns
        ::_exit(92);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 128 + SIGTERM);
}

TEST(Signals, SigtermDuringColdTraceGenerationDrainsPromptly)
{
    // A supervisor's drain depends on cold trace generation honoring
    // the cancel token: SIGTERM mid-generation must cut the run short
    // (fewer records than asked) and publish no cache entry, instead
    // of blocking the drain until the trace completes. The child
    // raises the signal from a sink at a fixed record, so it always
    // lands mid-generation however loaded the machine is.
    const std::string dir =
        std::string(::testing::TempDir()) + "bpnsp_sig_coldgen";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        signals::installGracefulDrain();
        const TraceCache cache(dir);
        constexpr uint64_t kInstructions = 4000000;
        struct RaiseSigterm : TraceSink
        {
            uint64_t seen = 0;
            void
            onRecord(const TraceRecord &) override
            {
                if (++seen == kInstructions / 4)
                    ::raise(SIGTERM);
            }
        } raiser;
        const Status st = captureTrace(cache, findWorkload("mcf_like"),
                                       0, kInstructions, {&raiser});
        if (!globalCancelToken().cancelled())
            ::_exit(94);   // the sink never reached the raise
        if (st.code() != StatusCode::Cancelled ||
            raiser.seen >= kInstructions)
            ::_exit(93);   // cancelled yet ran to completion
        ::_exit(0);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        EXPECT_NE(entry.path().extension(), ".bpt")
            << "cancelled generation published " << entry.path();
    std::filesystem::remove_all(dir);
}

TEST(Signals, ChildNotifyPipeWakesOnChildDeath)
{
    // The SIGCHLD self-pipe is how the fleet supervisor learns of
    // worker deaths promptly. Repeat calls return the same fd.
    const int fd = signals::installChildNotifyPipe();
    ASSERT_GE(fd, 0);
    EXPECT_EQ(signals::installChildNotifyPipe(), fd);

    // Drain anything stale, then fork a child that dies immediately.
    uint8_t sink[64];
    while (::read(fd, sink, sizeof(sink)) > 0) {
    }
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0)
        ::_exit(0);

    struct pollfd pfd = {fd, POLLIN, 0};
    int rc = 0;
    do {
        rc = ::poll(&pfd, 1, 5000);
    } while (rc < 0 && errno == EINTR);
    ASSERT_EQ(rc, 1);
    EXPECT_NE(pfd.revents & POLLIN, 0);
    EXPECT_GT(::read(fd, sink, sizeof(sink)), 0);

    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}
