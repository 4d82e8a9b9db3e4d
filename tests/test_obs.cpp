/**
 * @file
 * Tests for the obs telemetry subsystem: exact counting under
 * concurrency, histogram percentile math, JSON run-report round-trips
 * through a small in-test parser, empty-stats serialization, the
 * counters and manifest fields of the real runWorkloadTrace() path
 * (which never touches the trace cache), span recording (tree shape, trace-id
 * scoping, ring overflow accounting, Chrome-trace export), and the
 * snapshot sampler's interval deltas and ring wraparound.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"
#include "workloads/suite.hpp"

using namespace bpnsp;

namespace {

/**
 * Minimal JSON reader covering exactly what the run report and the
 * Chrome-trace export emit: objects, arrays, strings, numbers,
 * booleans, and null.
 */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        auto it = object.find(key);
        EXPECT_NE(it, object.end()) << "missing key: " << key;
        static const JsonValue nullValue;
        return it == object.end() ? nullValue : it->second;
    }

    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWs();
        EXPECT_EQ(pos, s.size()) << "trailing bytes after document";
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
    }

    char
    peek()
    {
        skipWs();
        return pos < s.size() ? s[pos] : '\0';
    }

    void
    expect(char c)
    {
        ASSERT_EQ(peek(), c) << "at offset " << pos;
        ++pos;
    }

    JsonValue
    parseValue()
    {
        switch (peek()) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            parseLiteral("null");
            return JsonValue{};
          default:
            return parseNumber();
        }
    }

    void
    parseLiteral(const char *lit)
    {
        skipWs();
        for (const char *c = lit; *c != '\0'; ++c, ++pos) {
            ASSERT_LT(pos, s.size());
            ASSERT_EQ(s[pos], *c) << "bad literal at offset " << pos;
        }
    }

    JsonValue
    parseBool()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        if (peek() == 't') {
            parseLiteral("true");
            v.boolean = true;
        } else {
            parseLiteral("false");
            v.boolean = false;
        }
        return v;
    }

    JsonValue
    parseString()
    {
        expect('"');
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\' && pos + 1 < s.size()) {
                ++pos;
                switch (s[pos]) {
                  case 'n': v.string += '\n'; break;
                  case 't': v.string += '\t'; break;
                  case 'r': v.string += '\r'; break;
                  default: v.string += s[pos]; break;
                }
            } else {
                v.string += s[pos];
            }
            ++pos;
        }
        expect('"');
        return v;
    }

    JsonValue
    parseNumber()
    {
        skipWs();
        const size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
        }
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::strtod(s.substr(start, pos - start).c_str(),
                               nullptr);
        EXPECT_GT(pos, start) << "not a number at offset " << start;
        return v;
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            if (peek() == ',') {
                ++pos;
                continue;
            }
            break;
        }
        expect(']');
        return v;
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (peek() == '}') {
            ++pos;
            return v;
        }
        while (true) {
            JsonValue key = parseString();
            expect(':');
            v.object[key.string] = parseValue();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            break;
        }
        expect('}');
        return v;
    }

    // By value: callers hand in temporaries (renderRunReport()).
    const std::string s;
    size_t pos = 0;
};

uint64_t
counterValue(const std::string &name)
{
    return obs::Registry::instance().counterValue(name);
}

} // namespace

TEST(ObsCounter, ConcurrentIncrementsSumExactly)
{
    obs::Counter &c = obs::counter("test.obs.concurrent_incs");
    const uint64_t before = c.value();
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kIncsPerThread = 100000;

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            // Resolve the handle again on each thread: find-or-create
            // must hand back the same object.
            obs::Counter &mine = obs::counter("test.obs.concurrent_incs");
            for (uint64_t i = 0; i < kIncsPerThread; ++i)
                mine.inc();
        });
    }
    for (auto &w : workers)
        w.join();

    EXPECT_EQ(c.value(), before + kThreads * kIncsPerThread);
}

TEST(ObsCounter, HandleSurvivesResetForTest)
{
    obs::Counter &c = obs::counter("test.obs.reset_survivor");
    c.add(7);
    EXPECT_GE(c.value(), 7u);
    obs::Registry::instance().resetForTest();
    // Identity preserved, value zeroed.
    EXPECT_EQ(&c, &obs::counter("test.obs.reset_survivor"));
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    EXPECT_EQ(counterValue("test.obs.reset_survivor"), 1u);
}

TEST(ObsHistogram, SingleValuePercentilesAreExact)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_single");
    h.observe(1234567);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 1u);
    EXPECT_EQ(snap.sum, 1234567u);
    EXPECT_EQ(snap.min, 1234567u);
    EXPECT_EQ(snap.max, 1234567u);
    // The clamp to [min, max] makes single-valued histograms exact.
    EXPECT_DOUBLE_EQ(snap.p50, 1234567.0);
    EXPECT_DOUBLE_EQ(snap.p90, 1234567.0);
    EXPECT_DOUBLE_EQ(snap.p99, 1234567.0);
    EXPECT_DOUBLE_EQ(snap.mean, 1234567.0);
}

TEST(ObsHistogram, PercentilesMonotonicAndBucketBounded)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_spread");
    // 90 small values and 10 large: p50 must sit in the small cluster,
    // p99 in the large one, and estimates must stay within the power-
    // of-two bucket that holds the true rank.
    for (int i = 0; i < 90; ++i)
        h.observe(100);   // bucket [64, 128)
    for (int i = 0; i < 10; ++i)
        h.observe(10000); // bucket [8192, 16384)

    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.sum(), 90u * 100 + 10u * 10000);

    const double p50 = h.percentile(50);
    const double p90 = h.percentile(90);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    // Rank 50 lands among the 100s: clamped below by min=100,
    // bounded above by the bucket edge 128.
    EXPECT_GE(p50, 100.0);
    EXPECT_LT(p50, 128.0);
    // Rank 99 lands among the 10000s: within [8192, 16384), clamped
    // above by max=10000.
    EXPECT_GE(p99, 8192.0);
    EXPECT_LE(p99, 10000.0);

    // Degenerate percentiles hit the observed extremes exactly.
    EXPECT_DOUBLE_EQ(h.percentile(0), 100.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 10000.0);
}

TEST(ObsHistogram, ZeroValueHasItsOwnBucket)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_zero");
    h.observe(0);
    h.observe(0);
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_EQ(snap.count, 2u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 0u);
    EXPECT_DOUBLE_EQ(snap.p50, 0.0);
}

TEST(ObsHistogram, EmptySnapshot)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_empty");
    const obs::HistogramSnapshot snap = h.snapshot();
    EXPECT_TRUE(snap.empty());
    EXPECT_EQ(snap.count, 0u);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(ObsReport, JsonRoundTripOfPopulatedReport)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.resetForTest();
    reg.setRunField("workload", "leela_like");
    reg.setRunField("predictor", "tage-sc-l-8KB");
    obs::counter("run.instructions").add(123456);
    obs::counter("test.obs.roundtrip_events").add(42);
    obs::gauge("test.obs.roundtrip_width").set(3.5);
    obs::Histogram &h = obs::histogram("test.obs.roundtrip_ns");
    h.observe(1000);
    h.observe(1000);

    const std::string text = obs::renderRunReport();
    JsonParser parser(text);
    const JsonValue doc = parser.parse();

    EXPECT_EQ(doc.at("schema").string, "bpnsp-run-report-v1");

    const JsonValue &run = doc.at("run");
    EXPECT_EQ(run.at("workload").string, "leela_like");
    EXPECT_EQ(run.at("predictor").string, "tage-sc-l-8KB");
    EXPECT_DOUBLE_EQ(run.at("instructions").number, 123456.0);
    EXPECT_GE(run.at("wall_seconds").number, 0.0);
    EXPECT_FALSE(run.at("git").string.empty());

    const JsonValue &counters = doc.at("counters");
    EXPECT_DOUBLE_EQ(counters.at("test.obs.roundtrip_events").number,
                     42.0);
    EXPECT_DOUBLE_EQ(counters.at("run.instructions").number, 123456.0);
    // Contract keys are present even when untouched.
    EXPECT_DOUBLE_EQ(counters.at("tracestore.cache.hits").number, 0.0);
    EXPECT_DOUBLE_EQ(counters.at("tracestore.cache.misses").number, 0.0);
    EXPECT_DOUBLE_EQ(counters.at("bp.predictions").number, 0.0);
    EXPECT_DOUBLE_EQ(counters.at("bp.mispredicts").number, 0.0);

    EXPECT_DOUBLE_EQ(
        doc.at("gauges").at("test.obs.roundtrip_width").number, 3.5);

    const JsonValue &hist =
        doc.at("histograms").at("test.obs.roundtrip_ns");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(hist.at("sum").number, 2000.0);
    EXPECT_DOUBLE_EQ(hist.at("min").number, 1000.0);
    EXPECT_DOUBLE_EQ(hist.at("max").number, 1000.0);
    EXPECT_DOUBLE_EQ(hist.at("p50").number, 1000.0);

    reg.resetForTest();
}

TEST(ObsReport, EmptyHistogramSerializesNullSummaries)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.resetForTest();
    (void)obs::histogram("test.obs.never_observed_ns");

    JsonParser parser(obs::renderRunReport());
    const JsonValue doc = parser.parse();
    const JsonValue &hist =
        doc.at("histograms").at("test.obs.never_observed_ns");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 0.0);
    EXPECT_EQ(hist.at("min").kind, JsonValue::Kind::Null);
    EXPECT_EQ(hist.at("max").kind, JsonValue::Kind::Null);
    EXPECT_EQ(hist.at("mean").kind, JsonValue::Kind::Null);
    EXPECT_EQ(hist.at("p50").kind, JsonValue::Kind::Null);

    reg.resetForTest();
}

TEST(ObsReport, StatsJsonEmptyVsPopulated)
{
    OnlineStats empty;
    EXPECT_TRUE(empty.empty());
    JsonParser emptyParser(obs::statsJson(empty));
    const JsonValue emptyDoc = emptyParser.parse();
    EXPECT_DOUBLE_EQ(emptyDoc.at("count").number, 0.0);
    EXPECT_EQ(emptyDoc.at("min").kind, JsonValue::Kind::Null);
    EXPECT_EQ(emptyDoc.at("max").kind, JsonValue::Kind::Null);
    EXPECT_EQ(emptyDoc.at("mean").kind, JsonValue::Kind::Null);

    OnlineStats stats;
    stats.add(1.0);
    stats.add(3.0);
    EXPECT_FALSE(stats.empty());
    JsonParser parser(obs::statsJson(stats));
    const JsonValue doc = parser.parse();
    EXPECT_DOUBLE_EQ(doc.at("count").number, 2.0);
    EXPECT_DOUBLE_EQ(doc.at("min").number, 1.0);
    EXPECT_DOUBLE_EQ(doc.at("max").number, 3.0);
    EXPECT_DOUBLE_EQ(doc.at("mean").number, 2.0);
}

TEST(ObsReport, WriteRunReportProducesParsableFile)
{
    const std::string path =
        std::string(::testing::TempDir()) + "bpnsp_obs_report.json";
    ASSERT_TRUE(obs::writeRunReport(path));
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonParser parser(text);
    const JsonValue doc = parser.parse();
    EXPECT_EQ(doc.at("schema").string, "bpnsp-run-report-v1");
    std::filesystem::remove(path);
}

TEST(ObsIntegration, UncachedRunsTouchNeitherHitNorMiss)
{
    constexpr uint64_t kInstructions = 20000;
    const uint64_t missBefore = counterValue("tracestore.cache.misses");
    const uint64_t hitBefore = counterValue("tracestore.cache.hits");
    const uint64_t instrBefore = counterValue("run.instructions");
    CountingSink sink;
    ASSERT_EQ(runWorkloadTrace(findWorkload("mcf_like"), 0, {&sink},
                               kInstructions),
              kInstructions);
    EXPECT_EQ(counterValue("tracestore.cache.misses"), missBefore);
    EXPECT_EQ(counterValue("tracestore.cache.hits"), hitBefore);
    EXPECT_EQ(counterValue("run.instructions"),
              instrBefore + kInstructions);

    // The runner also stamps run identity into the manifest.
    const auto fields = obs::Registry::instance().runFields();
    EXPECT_EQ(fields.at("workload"), "mcf_like");
    EXPECT_EQ(fields.at("instruction_budget"),
              std::to_string(kInstructions));
}

// --- span tracing ----------------------------------------------------

namespace {

/** Enable the recorder for one test; restore + drain on exit. */
class TracingGuard
{
  public:
    TracingGuard()
    {
        obs::TraceRecorder::instance().resetForTest();
        obs::TraceRecorder::instance().setEnabled(true);
    }

    ~TracingGuard()
    {
        obs::TraceRecorder::instance().setEnabled(false);
        obs::TraceRecorder::instance().resetForTest();
    }
};

} // namespace

TEST(ObsTrace, DisabledRecorderRecordsNothing)
{
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    rec.setEnabled(false);
    rec.resetForTest();
    const uint64_t recordedBefore = counterValue("obs.spans_recorded");
    {
        obs::Span outer("test.obs.disabled_outer");
        obs::Span inner("test.obs.disabled_inner");
    }
    EXPECT_EQ(rec.bufferedEvents(), 0u);
    EXPECT_TRUE(rec.drain().empty());
    EXPECT_EQ(counterValue("obs.spans_recorded"), recordedBefore);
}

TEST(ObsTrace, SpanTreeIsBalancedAndProperlyNested)
{
    TracingGuard guard;
    {
        obs::Span parent("test.obs.parent");
        {
            obs::Span child("test.obs.child");
            obs::Span grandchild("test.obs.grandchild");
        }
        obs::Span sibling("test.obs.sibling");
    }

    const std::vector<obs::SpanEvent> events =
        obs::TraceRecorder::instance().drain();
    ASSERT_EQ(events.size(), 4u);

    // Events are recorded at span end, so they arrive innermost-first;
    // find them by name to assert on the tree shape.
    auto find = [&](const char *name) -> const obs::SpanEvent & {
        for (const obs::SpanEvent &e : events) {
            if (std::string(e.name) == name)
                return e;
        }
        ADD_FAILURE() << "span not recorded: " << name;
        static obs::SpanEvent missing;
        return missing;
    };
    const obs::SpanEvent &parent = find("test.obs.parent");
    const obs::SpanEvent &child = find("test.obs.child");
    const obs::SpanEvent &grandchild = find("test.obs.grandchild");
    const obs::SpanEvent &sibling = find("test.obs.sibling");

    EXPECT_EQ(parent.depth, 0u);
    EXPECT_EQ(child.depth, 1u);
    EXPECT_EQ(grandchild.depth, 2u);
    EXPECT_EQ(sibling.depth, 1u);

    // Containment: every child interval sits inside its parent's.
    auto contains = [](const obs::SpanEvent &outer,
                       const obs::SpanEvent &inner) {
        return outer.startNs <= inner.startNs &&
               inner.startNs + inner.durNs <=
                   outer.startNs + outer.durNs;
    };
    EXPECT_TRUE(contains(parent, child));
    EXPECT_TRUE(contains(child, grandchild));
    EXPECT_TRUE(contains(parent, sibling));
    // Siblings are disjoint: child ended before sibling began.
    EXPECT_LE(child.startNs + child.durNs, sibling.startNs);

    // All on the calling thread's track.
    EXPECT_EQ(parent.tid, child.tid);
    EXPECT_EQ(parent.tid, sibling.tid);
}

TEST(ObsTrace, ScopedTraceIdTagsSpansAndRestores)
{
    TracingGuard guard;
    EXPECT_EQ(obs::currentTraceId(), 0u);
    {
        obs::ScopedTraceId outer(42);
        EXPECT_EQ(obs::currentTraceId(), 42u);
        obs::Span a("test.obs.tagged_a");
        {
            obs::ScopedTraceId inner(43);
            EXPECT_EQ(obs::currentTraceId(), 43u);
            obs::Span b("test.obs.tagged_b");
        }
        EXPECT_EQ(obs::currentTraceId(), 42u);
    }
    EXPECT_EQ(obs::currentTraceId(), 0u);

    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    const std::vector<obs::SpanEvent> for42 = rec.spansFor(42);
    ASSERT_EQ(for42.size(), 1u);
    EXPECT_EQ(std::string(for42[0].name), "test.obs.tagged_a");
    const std::vector<obs::SpanEvent> for43 = rec.spansFor(43);
    ASSERT_EQ(for43.size(), 1u);
    EXPECT_EQ(std::string(for43[0].name), "test.obs.tagged_b");
    // spansFor copies without consuming: a drain still sees both.
    EXPECT_EQ(rec.drain().size(), 2u);
}

TEST(ObsTrace, FullRingDropsNewestAndCountsTheLoss)
{
    TracingGuard guard;
    obs::TraceRecorder &rec = obs::TraceRecorder::instance();
    constexpr size_t kCapacity = 16;
    constexpr size_t kOverflow = 5;
    rec.setRingCapacity(kCapacity);

    const uint64_t recordedBefore = counterValue("obs.spans_recorded");
    const uint64_t droppedBefore = counterValue("obs.spans_dropped");

    // A fresh thread gets a fresh ring at the small capacity (the
    // main-thread ring was created earlier at the default size).
    std::thread recorder([] {
        for (size_t i = 0; i < kCapacity + kOverflow; ++i)
            obs::Span span("test.obs.overflow");
    });
    recorder.join();

    EXPECT_EQ(counterValue("obs.spans_recorded"),
              recordedBefore + kCapacity);
    EXPECT_EQ(counterValue("obs.spans_dropped"),
              droppedBefore + kOverflow);
    // The oldest events survive (drop-newest, never overwrite).
    EXPECT_EQ(rec.drain().size(), kCapacity);

    // Draining frees the slots: the same ring records again.
    std::thread again([] { obs::Span span("test.obs.refilled"); });
    again.join();
    const std::vector<obs::SpanEvent> refilled = rec.drain();
    ASSERT_EQ(refilled.size(), 1u);
    EXPECT_EQ(std::string(refilled[0].name), "test.obs.refilled");

    rec.setRingCapacity(8192);
}

TEST(ObsTrace, ChromeTraceExportIsValidJson)
{
    TracingGuard guard;
    {
        obs::ScopedTraceId trace(7);
        obs::Span outer("test.obs.export_outer");
        obs::Span inner("test.obs.export_inner");
    }

    const std::string path =
        std::string(::testing::TempDir()) + "bpnsp_obs_trace.json";
    ASSERT_TRUE(
        obs::TraceRecorder::instance().exportChromeTrace(path).ok());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    JsonParser parser(text);
    const JsonValue doc = parser.parse();

    const JsonValue &events = doc.at("traceEvents");
    ASSERT_EQ(events.kind, JsonValue::Kind::Array);
    size_t spans = 0;
    for (const JsonValue &ev : events.array) {
        if (ev.at("ph").string == "M")
            continue;   // process/thread name metadata
        EXPECT_EQ(ev.at("ph").string, "X");
        EXPECT_FALSE(ev.at("name").string.empty());
        EXPECT_GE(ev.at("dur").number, 0.0);
        // 64-bit ids travel as decimal strings, not JSON numbers.
        EXPECT_EQ(ev.at("args").at("trace_id").string, "7");
        ++spans;
    }
    EXPECT_EQ(spans, 2u);
    std::filesystem::remove(path);
}

// --- snapshot sampler ------------------------------------------------

TEST(ObsSnapshot, CounterDeltasAreIntervalsNotTotals)
{
    obs::SnapshotSampler &sampler = obs::SnapshotSampler::instance();
    sampler.resetForTest();
    obs::Counter &c = obs::counter("test.obs.snap_events");

    sampler.sampleOnce();   // baseline: whatever state the run is in
    c.add(5);
    sampler.sampleOnce();
    c.add(3);
    sampler.sampleOnce();

    const std::vector<obs::Snapshot> samples = sampler.samples();
    ASSERT_EQ(samples.size(), 3u);

    auto deltaOf = [](const obs::Snapshot &s, const std::string &name,
                      uint64_t *out) {
        for (const auto &[n, d] : s.counterDeltas) {
            if (n == name) {
                *out = d;
                return true;
            }
        }
        return false;
    };
    uint64_t delta = 0;
    ASSERT_TRUE(deltaOf(samples[1], "test.obs.snap_events", &delta));
    EXPECT_EQ(delta, 5u);
    ASSERT_TRUE(deltaOf(samples[2], "test.obs.snap_events", &delta));
    EXPECT_EQ(delta, 3u);
    // Zero-delta counters are omitted from the sample entirely.
    EXPECT_FALSE(
        deltaOf(samples[2], "tracestore.cache.quarantined", &delta));

    sampler.resetForTest();
}

TEST(ObsSnapshot, RingWrapsKeepingTheNewestOldestFirst)
{
    obs::SnapshotSampler &sampler = obs::SnapshotSampler::instance();
    sampler.resetForTest();
    sampler.setCapacityForTest(4);
    obs::Counter &c = obs::counter("test.obs.snap_wrap");

    // Ten samples whose deltas are 1..10: after wrapping, the ring
    // must hold exactly 7, 8, 9, 10 in that order.
    for (uint64_t i = 1; i <= 10; ++i) {
        c.add(i);
        sampler.sampleOnce();
    }
    EXPECT_EQ(sampler.totalSamples(), 10u);

    const std::vector<obs::Snapshot> samples = sampler.samples();
    ASSERT_EQ(samples.size(), 4u);
    for (size_t i = 0; i < samples.size(); ++i) {
        uint64_t delta = 0;
        bool found = false;
        for (const auto &[n, d] : samples[i].counterDeltas) {
            if (n == "test.obs.snap_wrap") {
                delta = d;
                found = true;
            }
        }
        ASSERT_TRUE(found) << "sample " << i;
        EXPECT_EQ(delta, 7 + i) << "sample " << i;
        if (i > 0) {
            EXPECT_GE(samples[i].tSeconds, samples[i - 1].tSeconds);
        }
    }

    sampler.resetForTest();
}

TEST(ObsSnapshot, HistogramWindowsSeeOnlyTheirInterval)
{
    obs::SnapshotSampler &sampler = obs::SnapshotSampler::instance();
    sampler.resetForTest();
    obs::Histogram &h = obs::histogram("test.obs.snap_hist");

    for (int i = 0; i < 100; ++i)
        h.observe(100);      // bucket [64, 128)
    sampler.sampleOnce();
    for (int i = 0; i < 100; ++i)
        h.observe(100000);   // bucket [65536, 131072)
    sampler.sampleOnce();

    const std::vector<obs::Snapshot> samples = sampler.samples();
    ASSERT_EQ(samples.size(), 2u);

    auto windowOf = [](const obs::Snapshot &s, const std::string &name)
        -> const obs::Snapshot::HistWindow * {
        for (const obs::Snapshot::HistWindow &w : s.histograms) {
            if (w.name == name)
                return &w;
        }
        return nullptr;
    };
    const obs::Snapshot::HistWindow *w0 =
        windowOf(samples[0], "test.obs.snap_hist");
    ASSERT_NE(w0, nullptr);
    EXPECT_EQ(w0->count, 100u);
    EXPECT_LT(w0->p99, 128.0);

    // The second window's quantiles reflect ONLY the second burst —
    // a cumulative view would put its p50 down among the 100s.
    const obs::Snapshot::HistWindow *w1 =
        windowOf(samples[1], "test.obs.snap_hist");
    ASSERT_NE(w1, nullptr);
    EXPECT_EQ(w1->count, 100u);
    EXPECT_GE(w1->p50, 65536.0);
    EXPECT_LE(w1->p999, 131072.0);

    sampler.resetForTest();
}

TEST(ObsHistogram, P999TracksTheExtremeTail)
{
    obs::Histogram &h = obs::histogram("test.obs.hist_p999");
    for (int i = 0; i < 500; ++i)
        h.observe(100);
    h.observe(1000000);
    const obs::HistogramSnapshot snap = h.snapshot();
    // p99 sits in the bulk (rank 495.99 of 501); p999 must reach into
    // the single outlier's bucket (rank 500.499 passes the 500 bulk
    // events).
    EXPECT_LT(snap.p99, 128.0);
    EXPECT_GE(snap.p999, 128.0);
    EXPECT_LE(snap.p999, 1000000.0);
    EXPECT_LE(snap.p50, snap.p90);
    EXPECT_LE(snap.p90, snap.p99);
    EXPECT_LE(snap.p99, snap.p999);
}

TEST(ObsReport, SnapshotsSectionOnlyWhenSamplerRan)
{
    obs::Registry &reg = obs::Registry::instance();
    obs::SnapshotSampler &sampler = obs::SnapshotSampler::instance();
    reg.resetForTest();
    sampler.resetForTest();

    {
        JsonParser parser(obs::renderRunReport());
        const JsonValue doc = parser.parse();
        EXPECT_DOUBLE_EQ(doc.at("schema_rev").number, 9.0);
        EXPECT_FALSE(doc.has("snapshots"));
        // The rev-6/7/8 contract counters are present even untouched.
        const JsonValue &counters = doc.at("counters");
        EXPECT_TRUE(counters.has("obs.spans_recorded"));
        EXPECT_TRUE(counters.has("obs.spans_dropped"));
        EXPECT_TRUE(counters.has("serve.stats_requests"));
        EXPECT_TRUE(counters.has("serve.fleet.worker_deaths"));
        EXPECT_TRUE(counters.has("serve.fleet.respawns"));
        EXPECT_TRUE(counters.has("serve.client.retries"));
        EXPECT_TRUE(counters.has("serve.shed"));
        EXPECT_TRUE(counters.has("serve.expired"));
        EXPECT_TRUE(counters.has("serve.hedges"));
        EXPECT_TRUE(counters.has("serve.hedge_wins"));
    }

    obs::counter("test.obs.report_snap").add(9);
    sampler.sampleOnce();
    {
        JsonParser parser(obs::renderRunReport());
        const JsonValue doc = parser.parse();
        ASSERT_TRUE(doc.has("snapshots"));
        const JsonValue &snaps = doc.at("snapshots");
        EXPECT_DOUBLE_EQ(snaps.at("total").number, 1.0);
        const JsonValue &samples = snaps.at("samples");
        ASSERT_EQ(samples.kind, JsonValue::Kind::Array);
        ASSERT_EQ(samples.array.size(), 1u);
        const JsonValue &sample = samples.array[0];
        EXPECT_GE(sample.at("t_s").number, 0.0);
        EXPECT_DOUBLE_EQ(
            sample.at("counters").at("test.obs.report_snap").number,
            9.0);
    }

    sampler.resetForTest();
    reg.resetForTest();
}

TEST(ObsReport, StatsSnapshotDocumentIsSelfContained)
{
    obs::Registry &reg = obs::Registry::instance();
    reg.resetForTest();
    obs::counter("test.obs.stats_doc").add(11);
    obs::histogram("test.obs.stats_doc_ns").observe(500);

    JsonParser parser(obs::renderStatsSnapshotJson());
    const JsonValue doc = parser.parse();
    EXPECT_EQ(doc.at("schema").string, "bpnsp-stats-v1");
    EXPECT_FALSE(doc.at("git").string.empty());
    EXPECT_GE(doc.at("wall_seconds").number, 0.0);
    EXPECT_DOUBLE_EQ(
        doc.at("counters").at("test.obs.stats_doc").number, 11.0);
    const JsonValue &hist =
        doc.at("histograms").at("test.obs.stats_doc_ns");
    EXPECT_DOUBLE_EQ(hist.at("count").number, 1.0);
    EXPECT_DOUBLE_EQ(hist.at("p999").number, 500.0);

    reg.resetForTest();
}
