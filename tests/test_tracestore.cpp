/**
 * @file
 * Tests for the on-disk trace store: varint/zigzag primitives, lossless
 * round-trips across field extremes, malformed-input rejection
 * (truncation, corrupted frames, bad versions — diagnostics, never
 * crashes), and indexed seek.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "tracestore/format.hpp"
#include "tracestore/store.hpp"
#include "util/rng.hpp"

using namespace bpnsp;

namespace {

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "bpnsp_store_" + tag +
           ".bpt";
}

/** Exhaustive per-field equality (== on structs would miss src[]). */
void
expectRecordsEqual(const TraceRecord &a, const TraceRecord &b,
                   size_t index)
{
    SCOPED_TRACE("record " + std::to_string(index));
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.memAddr, b.memAddr);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.fallthrough, b.fallthrough);
    EXPECT_EQ(a.writtenValue, b.writtenValue);
    EXPECT_EQ(a.cls, b.cls);
    EXPECT_EQ(a.numSrc, b.numSrc);
    EXPECT_EQ(a.src[0], b.src[0]);
    EXPECT_EQ(a.src[1], b.src[1]);
    EXPECT_EQ(a.src[2], b.src[2]);
    EXPECT_EQ(a.hasDst, b.hasDst);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.taken, b.taken);
}

/** Write records to a store file and return the path. */
std::string
writeStore(const char *tag, const std::vector<TraceRecord> &records,
           uint32_t records_per_chunk = kDefaultRecordsPerChunk)
{
    const std::string path = tempPath(tag);
    TraceStoreWriter writer(path, records_per_chunk);
    for (const TraceRecord &rec : records)
        writer.onRecord(rec);
    writer.onEnd();
    return path;
}

std::vector<TraceRecord>
readAll(const std::string &path)
{
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    EXPECT_NE(reader, nullptr) << st.str();
    VectorSink sink;
    EXPECT_TRUE(reader->replay(sink, 0).ok()) << st.str();
    return sink.get();
}

/** Flip one byte of a file in place. */
void
corruptByte(const std::string &path, uint64_t offset)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x5a;
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

void
truncateTo(const std::string &path, uint64_t size)
{
    std::filesystem::resize_file(path, size);
}

/** Write an exact byte value at a file offset. */
void
pokeByte(const std::string &path, uint64_t offset, uint8_t value)
{
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.good());
    file.seekp(static_cast<std::streamoff>(offset));
    const char byte = static_cast<char>(value);
    file.write(&byte, 1);
}

/**
 * Rewrite a freshly written (v2) store as a v1 file: the byte layout
 * of the two versions is identical, only the version stamps differ.
 */
void
downgradeToV1(const std::string &path)
{
    const uint64_t size = std::filesystem::file_size(path);
    pokeByte(path, offsetof(StoreFileHeader, version), 1);
    pokeByte(path,
             size - sizeof(StoreTrailer) + offsetof(StoreTrailer,
                                                    version),
             1);
}

std::vector<TraceRecord>
sequentialRecords(size_t count)
{
    std::vector<TraceRecord> records;
    for (size_t i = 0; i < count; ++i) {
        TraceRecord r;
        r.ip = 0x400000 + i * 4;
        r.fallthrough = r.ip + 4;
        r.cls = (i % 7 == 0) ? InstrClass::CondBranch : InstrClass::Alu;
        r.taken = (i % 2) != 0;
        r.target = r.ip + 64;
        r.memAddr = 0x10000 + (i % 61) * 8;
        r.writtenValue = static_cast<uint32_t>(i * 2654435761u);
        records.push_back(r);
    }
    return records;
}

} // namespace

TEST(Varint, RoundTripEdgeValues)
{
    const uint64_t values[] = {0,
                               1,
                               127,
                               128,
                               16383,
                               16384,
                               (1ull << 32) - 1,
                               1ull << 32,
                               UINT64_MAX - 1,
                               UINT64_MAX};
    for (const uint64_t v : values) {
        std::vector<uint8_t> buf;
        putVarint(buf, v);
        EXPECT_LE(buf.size(), 10u);
        size_t pos = 0;
        uint64_t decoded = 0;
        ASSERT_TRUE(getVarint(buf.data(), buf.size(), &pos, &decoded));
        EXPECT_EQ(decoded, v);
        EXPECT_EQ(pos, buf.size());
    }
}

TEST(Varint, RejectsTruncatedAndOverlong)
{
    std::vector<uint8_t> buf;
    putVarint(buf, UINT64_MAX);
    size_t pos = 0;
    uint64_t v = 0;
    // Every proper prefix must be rejected, not read past the end.
    for (size_t len = 0; len < buf.size(); ++len) {
        pos = 0;
        EXPECT_FALSE(getVarint(buf.data(), len, &pos, &v));
    }
    // 11 continuation bytes can never be a valid 64-bit varint.
    const std::vector<uint8_t> overlong(11, 0xff);
    pos = 0;
    EXPECT_FALSE(getVarint(overlong.data(), overlong.size(), &pos, &v));
}

TEST(Zigzag, RoundTripExtremes)
{
    const int64_t values[] = {0, 1, -1, 63, -64, INT64_MAX, INT64_MIN};
    for (const int64_t v : values)
        EXPECT_EQ(unzigzag(zigzag(v)), v);
    // Small magnitudes must map to small codes (the compression bet).
    EXPECT_LT(zigzag(-3), 8u);
    EXPECT_LT(zigzag(4), 16u);
}

TEST(TraceStore, RoundTripFieldExtremes)
{
    std::vector<TraceRecord> records;

    TraceRecord zeros;   // all defaults
    records.push_back(zeros);

    TraceRecord maxed;
    maxed.ip = UINT64_MAX;
    maxed.memAddr = UINT64_MAX;
    maxed.target = UINT64_MAX;
    maxed.fallthrough = UINT64_MAX;
    maxed.writtenValue = UINT32_MAX;
    maxed.cls = InstrClass::Halt;
    maxed.numSrc = 255;   // lossless even for out-of-contract values
    maxed.src[0] = 255;
    maxed.src[1] = 255;
    maxed.src[2] = 255;
    maxed.hasDst = true;
    maxed.dst = 255;
    maxed.taken = true;
    records.push_back(maxed);

    // Deltas swinging between extremes stress the zigzag paths.
    TraceRecord low;
    low.ip = 1;
    low.memAddr = 1;
    low.target = 0;
    low.fallthrough = 0;
    records.push_back(low);

    // Every instruction class (incl. v2's indirect classes), with
    // distinct values per slot.
    for (uint8_t c = 0; c <= kMaxInstrClass; ++c) {
        TraceRecord r;
        r.cls = static_cast<InstrClass>(c);
        r.ip = 0x400000 + c;
        r.fallthrough = r.ip + 4;
        r.target = 0x500000 - c;
        r.memAddr = c * 0x1000;
        r.writtenValue = c;
        r.numSrc = c % 4;
        r.src[0] = c;
        r.src[1] = static_cast<uint8_t>(c + 1);
        r.src[2] = static_cast<uint8_t>(c + 2);
        r.hasDst = (c % 2) == 0;
        r.dst = static_cast<uint8_t>(17 - c);
        r.taken = (c % 3) == 0;
        records.push_back(r);
    }

    const std::string path = writeStore("extremes", records);
    const std::vector<TraceRecord> decoded = readAll(path);
    ASSERT_EQ(decoded.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        expectRecordsEqual(records[i], decoded[i], i);
    std::remove(path.c_str());
}

TEST(TraceStore, RoundTripRandomAcrossChunks)
{
    Rng rng(0x7ace570e);
    std::vector<TraceRecord> records;
    for (size_t i = 0; i < 5000; ++i) {
        TraceRecord r;
        r.ip = rng.next();
        r.memAddr = rng.next();
        r.target = rng.next();
        r.fallthrough = rng.next();
        r.writtenValue = static_cast<uint32_t>(rng.next());
        r.cls = static_cast<InstrClass>(
            rng.below(static_cast<uint64_t>(kMaxInstrClass) + 1));
        r.numSrc = static_cast<uint8_t>(rng.below(4));
        r.src[0] = static_cast<uint8_t>(rng.next());
        r.src[1] = static_cast<uint8_t>(rng.next());
        r.src[2] = static_cast<uint8_t>(rng.next());
        r.hasDst = rng.chance(0.5);
        r.dst = static_cast<uint8_t>(rng.next());
        r.taken = rng.chance(0.5);
        records.push_back(r);
    }

    // Tiny chunks (67 records) force many chunk boundaries and a
    // non-trivial footer index.
    const std::string path = writeStore("random", records, 67);
    const std::vector<TraceRecord> decoded = readAll(path);
    ASSERT_EQ(decoded.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        expectRecordsEqual(records[i], decoded[i], i);
    std::remove(path.c_str());
}

TEST(TraceStore, EmptyStore)
{
    const std::string path = writeStore("empty", {});
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    EXPECT_EQ(reader->count(), 0u);
    EXPECT_EQ(reader->numChunks(), 0u);
    CountingSink sink;
    EXPECT_TRUE(reader->replay(sink, 0).ok());
    EXPECT_EQ(sink.totalCount(), 0u);
    std::remove(path.c_str());
}

TEST(TraceStore, ReplayLimitAndSeek)
{
    const auto records = sequentialRecords(1000);
    // 64-record chunks force multi-chunk seeks.
    const std::string path = writeStore("seek", records, 64);

    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    EXPECT_EQ(reader->count(), 1000u);
    EXPECT_EQ(reader->numChunks(), (1000 + 63) / 64);

    // Limited replay delivers exactly the prefix.
    VectorSink prefix;
    ASSERT_TRUE(reader->replay(prefix, 10).ok());
    ASSERT_EQ(prefix.get().size(), 10u);

    // Ranged replay from arbitrary offsets, spanning chunk borders.
    for (const uint64_t first : {0ull, 1ull, 63ull, 64ull, 65ull,
                                 511ull, 900ull}) {
        VectorSink slice;
        st = reader->replayRange(first, 100, slice);
        ASSERT_TRUE(st.ok()) << st.str();
        ASSERT_EQ(slice.get().size(), 100u);
        for (size_t i = 0; i < 100; ++i)
            expectRecordsEqual(records[first + i], slice.get()[i],
                               first + i);
    }
    std::remove(path.c_str());
}

TEST(TraceStore, TruncationRejectedWithDiagnostic)
{
    const std::string path =
        writeStore("trunc", sequentialRecords(500), 64);
    const uint64_t fullSize = std::filesystem::file_size(path);

    // Chop at several depths: inside the trailer, inside the footer,
    // inside a chunk, inside the header, and to an empty file.
    for (const uint64_t size :
         {fullSize - 1, fullSize - sizeof(StoreTrailer) - 3,
          fullSize / 2, sizeof(StoreFileHeader) - 2, uint64_t{0}}) {
        truncateTo(path, size);
        Status st;
        auto reader = TraceStoreReader::open(path, &st);
        EXPECT_EQ(reader, nullptr) << "size " << size;
        EXPECT_FALSE(st.ok());
        EXPECT_FALSE(st.message().empty());
    }
    std::remove(path.c_str());
}

TEST(TraceStore, CorruptedChunkRejectedWithDiagnostic)
{
    const std::string path =
        writeStore("corrupt", sequentialRecords(500), 64);

    // Flip a byte inside the first chunk's payload: the store still
    // opens (the index is intact) but replay must fail its checksum.
    corruptByte(path, sizeof(StoreFileHeader) +
                          sizeof(StoreChunkHeader) + 7);
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();
    VectorSink sink;
    st = reader->replay(sink, 0);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    EXPECT_NE(st.message().find("checksum"), std::string::npos)
        << st.str();
    std::remove(path.c_str());
}

TEST(TraceStore, CorruptedFooterRejectedAtOpen)
{
    const std::string path =
        writeStore("footer", sequentialRecords(500), 64);
    const uint64_t fullSize = std::filesystem::file_size(path);
    corruptByte(path, fullSize - sizeof(StoreTrailer) - 4);
    Status st;
    EXPECT_EQ(TraceStoreReader::open(path, &st), nullptr);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    std::remove(path.c_str());
}

TEST(TraceStore, VersionAndMagicMismatchRejected)
{
    const std::string path =
        writeStore("version", sequentialRecords(10));

    // Corrupt the header version field (offset 8).
    corruptByte(path, offsetof(StoreFileHeader, version));
    Status st;
    EXPECT_EQ(TraceStoreReader::open(path, &st), nullptr);
    EXPECT_NE(st.message().find("version"), std::string::npos)
        << st.str();

    // Restore-ish by corrupting magic instead (double-flip restores
    // the version byte first).
    corruptByte(path, offsetof(StoreFileHeader, version));
    corruptByte(path, 0);
    EXPECT_EQ(TraceStoreReader::open(path, &st), nullptr);
    EXPECT_NE(st.message().find("magic"), std::string::npos)
        << st.str();
    std::remove(path.c_str());
}

// ------------------------------------------ version 1 compatibility

TEST(TraceStore, V1FilesDecodeUnderCurrentReader)
{
    // v1 and v2 share the byte layout; only the accepted class range
    // differs. A v1 file holding v1-legal classes must decode exactly.
    const auto records = sequentialRecords(500);
    const std::string path = writeStore("v1ok", records, 67);
    downgradeToV1(path);

    const std::vector<TraceRecord> decoded = readAll(path);
    ASSERT_EQ(decoded.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i)
        expectRecordsEqual(records[i], decoded[i], i);
    std::remove(path.c_str());
}

TEST(TraceStore, V1FileWithIndirectClassesIsCorrupt)
{
    // A chunk claiming JumpInd/CallInd inside a file stamped v1 is
    // corruption: v1 never defined those classes, so accepting them
    // would silently misread genuinely damaged old files.
    auto records = sequentialRecords(10);
    records[4].cls = InstrClass::JumpInd;
    records[7].cls = InstrClass::CallInd;
    const std::string path = writeStore("v1bad", records);
    downgradeToV1(path);

    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();   // header is fine
    VectorSink sink;
    const Status replaySt = reader->replay(sink, 0);
    EXPECT_EQ(replaySt.code(), StatusCode::CorruptData);
    EXPECT_NE(replaySt.message().find("class"), std::string::npos)
        << replaySt.str();
    std::remove(path.c_str());
}

TEST(TraceStore, DecodeChunkVersionGatesClassRange)
{
    TraceRecord ind;
    ind.cls = InstrClass::CallInd;
    ind.ip = 0x4000;
    ind.fallthrough = 0x4004;
    ind.target = 0x8000;
    ind.taken = true;

    std::vector<uint8_t> payload;
    encodeChunk(&ind, 1, payload);

    std::vector<TraceRecord> out;
    EXPECT_TRUE(decodeChunk(payload.data(), payload.size(), 1, out,
                            kStoreVersion)
                    .ok());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].cls, InstrClass::CallInd);

    out.clear();
    const Status v1 =
        decodeChunk(payload.data(), payload.size(), 1, out, 1);
    EXPECT_EQ(v1.code(), StatusCode::CorruptData);
}

TEST(TraceStore, UnknownFutureVersionRejected)
{
    const std::string path = writeStore("future", sequentialRecords(5));
    pokeByte(path, offsetof(StoreFileHeader, version),
             static_cast<uint8_t>(kStoreVersion + 1));
    const uint64_t size = std::filesystem::file_size(path);
    pokeByte(path,
             size - sizeof(StoreTrailer) + offsetof(StoreTrailer,
                                                    version),
             static_cast<uint8_t>(kStoreVersion + 1));
    Status st;
    EXPECT_EQ(TraceStoreReader::open(path, &st), nullptr);
    EXPECT_EQ(st.code(), StatusCode::CorruptData);
    std::remove(path.c_str());
}

TEST(TraceStore, MissingFileRejected)
{
    Status st;
    EXPECT_EQ(TraceStoreReader::open(tempPath("nonexistent"), &st),
              nullptr);
    EXPECT_EQ(st.code(), StatusCode::IoError);
}

TEST(TraceStore, ReplayRangeOutOfBoundsIsErrorNotAbort)
{
    const std::string path =
        writeStore("range", sequentialRecords(100), 64);
    Status st;
    auto reader = TraceStoreReader::open(path, &st);
    ASSERT_NE(reader, nullptr) << st.str();

    VectorSink sink;
    EXPECT_EQ(reader->replayRange(50, 51, sink).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(reader->replayRange(101, 1, sink).code(),
              StatusCode::InvalidArgument);
    // first + n overflowing uint64 must not wrap past the bounds check.
    EXPECT_EQ(reader->replayRange(1, UINT64_MAX, sink).code(),
              StatusCode::InvalidArgument);
    EXPECT_TRUE(sink.get().empty());

    // The exact full range still replays.
    st = reader->replayRange(0, 100, sink);
    EXPECT_TRUE(st.ok()) << st.str();
    EXPECT_EQ(sink.get().size(), 100u);
    std::remove(path.c_str());
}

namespace {

/** File offset of chunk `idx`'s header, read via footer + trailer. */
uint64_t
chunkOffset(const std::string &path, uint64_t idx)
{
    std::ifstream file(path, std::ios::binary);
    file.seekg(-static_cast<std::streamoff>(sizeof(StoreTrailer)),
               std::ios::end);
    StoreTrailer trailer;
    file.read(reinterpret_cast<char *>(&trailer), sizeof(trailer));
    StoreFooterEntry entry;
    file.seekg(static_cast<std::streamoff>(
        trailer.footerOffset + idx * sizeof(StoreFooterEntry)));
    file.read(reinterpret_cast<char *>(&entry), sizeof(entry));
    return entry.offset;
}

} // namespace

TEST(TraceStore, CorruptionMatrixEveryRegionRejected)
{
    const auto records = sequentialRecords(500);

    // Probe a throwaway copy for the file geometry.
    const std::string probe = writeStore("matrix_probe", records, 64);
    const uint64_t fullSize = std::filesystem::file_size(probe);
    const uint64_t numChunks = (500 + 63) / 64;
    const uint64_t footerOff =
        fullSize - sizeof(StoreTrailer) -
        numChunks * sizeof(StoreFooterEntry);
    const uint64_t lastChunkOff = chunkOffset(probe, numChunks - 1);
    std::remove(probe.c_str());

    struct Region
    {
        const char *name;
        uint64_t offset;
    };
    const Region regions[] = {
        {"header magic", 2},
        {"header version", offsetof(StoreFileHeader, version)},
        {"chunk header payloadBytes", sizeof(StoreFileHeader)},
        {"chunk header checksum",
         sizeof(StoreFileHeader) + offsetof(StoreChunkHeader, checksum)},
        {"first chunk payload",
         sizeof(StoreFileHeader) + sizeof(StoreChunkHeader) + 11},
        {"last chunk payload",
         lastChunkOff + sizeof(StoreChunkHeader) + 3},
        {"footer entry", footerOff + 4},
        {"trailer footerOffset", fullSize - sizeof(StoreTrailer) + 1},
        {"trailer magic", fullSize - sizeof(StoreTrailer) +
                              offsetof(StoreTrailer, magic) + 2},
    };

    // Every region, both damage modes: a flipped byte and a file cut
    // short inside the region. Either the store is rejected at open or
    // verify()/replay() return a descriptive error — never a crash,
    // never silently wrong records.
    for (const Region &region : regions) {
        for (const bool truncate : {false, true}) {
            SCOPED_TRACE(std::string(region.name) +
                         (truncate ? " (truncated)" : " (bit flip)"));
            const std::string path = writeStore("matrix", records, 64);
            if (truncate)
                truncateTo(path, region.offset);
            else
                corruptByte(path, region.offset);

            Status st;
            auto reader = TraceStoreReader::open(path, &st);
            if (reader == nullptr) {
                EXPECT_FALSE(st.ok());
                EXPECT_FALSE(st.message().empty());
            } else {
                // The index happened to stay intact; the damage must
                // then surface through verification or replay.
                const Status verified = reader->verify();
                VectorSink sink;
                const Status replayed = reader->replay(sink, 0);
                EXPECT_TRUE(!verified.ok() || !replayed.ok());
                if (!verified.ok()) {
                    EXPECT_EQ(verified.code(), StatusCode::CorruptData)
                        << verified.str();
                }
            }
            std::remove(path.c_str());
        }
    }
}

TEST(DigestSinkTest, SensitiveToEveryField)
{
    // Two records differing in exactly one field must digest apart.
    const auto base = [] {
        TraceRecord r;
        r.ip = 100;
        r.fallthrough = 104;
        return r;
    };
    std::vector<TraceRecord> variants;
    for (int field = 0; field < 12; ++field) {
        TraceRecord r = base();
        switch (field) {
          case 0: r.ip = 101; break;
          case 1: r.memAddr = 1; break;
          case 2: r.target = 1; break;
          case 3: r.fallthrough = 105; break;
          case 4: r.writtenValue = 1; break;
          case 5: r.cls = InstrClass::Load; break;
          case 6: r.numSrc = 1; break;
          case 7: r.src[0] = 1; break;
          case 8: r.src[1] = 1; break;
          case 9: r.src[2] = 1; break;
          case 10: r.hasDst = true; r.dst = 3; break;
          case 11: r.taken = true; break;
        }
        variants.push_back(r);
    }
    DigestSink reference;
    reference.onRecord(base());
    for (size_t i = 0; i < variants.size(); ++i) {
        DigestSink probe;
        probe.onRecord(variants[i]);
        EXPECT_NE(probe.digest(), reference.digest()) << "field " << i;
    }
}
