// Golden wire captures: byte-exact pins of the v2 wire.
//
// The v2 arrays pin the envelope layout documented in envelope.h so a
// refactor cannot silently shift a field — a change here is a wire break
// for every deployed client. The legacy v1 captures at the top (the seed's
// unframed format) pin that every parser rejects them.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/ahead.h"
#include "obs/stats_wire.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/tree_protocol.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using protocol::MechanismTag;
using protocol::ParseError;

// --- legacy v1 captures (unframed, no longer spoken) --------------------

// Every single-report parser refuses a v1 capture at the magic check.
void ExpectEveryParserRejectsWithBadMagic(const std::vector<uint8_t>& capture) {
  HrrReport flat;
  protocol::HaarHrrReport haar;
  protocol::TreeHrrReport tree;
  EXPECT_EQ(protocol::ParseHrrReportDetailed(capture, &flat),
            ParseError::kBadMagic);
  EXPECT_EQ(protocol::ParseHaarHrrReportDetailed(capture, &haar),
            ParseError::kBadMagic);
  EXPECT_EQ(protocol::ParseTreeHrrReportDetailed(capture, &tree),
            ParseError::kBadMagic);
}

TEST(WireGolden, V1FlatCaptureIsRejectedWithBadMagic) {
  // FlatHRR v1: [tag 0x01][index u64 LE][sign u8];
  // index = 0x0123456789ABCDEF, sign = +1.
  ExpectEveryParserRejectsWithBadMagic(
      {0x01, 0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, 0x01});
}

TEST(WireGolden, V1HaarCaptureIsRejectedWithBadMagic) {
  // HaarHRR v1: [tag 0x02][level u8][index u64 LE][sign u8];
  // level = 7, index = 42, sign = -1.
  ExpectEveryParserRejectsWithBadMagic(
      {0x02, 0x07, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00});
}

TEST(WireGolden, V1TreeCaptureIsRejectedWithBadMagic) {
  // TreeHRR v1: [tag 0x03][level u8][index u64 LE][sign u8];
  // level = 3, index = 0x04D2 (= 1234), sign = +1.
  ExpectEveryParserRejectsWithBadMagic(
      {0x03, 0x03, 0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01});
}

// --- v2 layout pins (framed) ---------------------------------------------

TEST(WireGolden, V2FlatLayoutIsPinned) {
  // "LR" | version 2 | tag 0x01 | payload_len 9 | index | sign(-1 -> 0).
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00,
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00};
  HrrReport report{0x0123456789ABCDEFULL, -1};
  EXPECT_EQ(protocol::SerializeHrrReport(report), expected);
  HrrReport back;
  ASSERT_EQ(protocol::ParseHrrReportDetailed(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back.coefficient_index, report.coefficient_index);
  EXPECT_EQ(back.sign, -1);
}

TEST(WireGolden, V2TreeLayoutIsPinned) {
  // "LR" | version 2 | tag 0x03 | payload_len 10 | level | index | sign.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x03, 0x0A, 0x00, 0x00, 0x00,
      0x05, 0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01};
  protocol::TreeHrrReport report;
  report.level = 5;
  report.inner = {1234, +1};
  EXPECT_EQ(protocol::SerializeTreeHrrReport(report), expected);
}

TEST(WireGolden, V2GrrLayoutIsPinned) {
  // Value 300 -> varint AC 02; payload_len 2.
  const std::vector<uint8_t> expected = {0x4C, 0x52, 0x02, 0x04, 0x02,
                                         0x00, 0x00, 0x00, 0xAC, 0x02};
  EXPECT_EQ(protocol::SerializeGrrReport({300}), expected);
  protocol::GrrWireReport back;
  ASSERT_EQ(protocol::ParseGrrReport(expected, &back), ParseError::kOk);
  EXPECT_EQ(back.value, 300u);
}

TEST(WireGolden, V2OlhLayoutIsPinned) {
  // seed u64 LE then cell varint; payload_len 9.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x07, 0x09, 0x00, 0x00, 0x00,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x05};
  protocol::OlhWireReport report{0x1122334455667788ULL, 5};
  EXPECT_EQ(protocol::SerializeOlhReport(report), expected);
}

TEST(WireGolden, V2OueLayoutIsPinned) {
  // 5-bit vector 0b10011 -> num_bits varint 05, packed len u32 = 1,
  // packed byte 0x13; payload_len 6.
  const std::vector<uint8_t> expected = {0x4C, 0x52, 0x02, 0x05,
                                         0x06, 0x00, 0x00, 0x00,
                                         0x05, 0x01, 0x00, 0x00, 0x00, 0x13};
  protocol::UnaryWireReport report;
  report.num_bits = 5;
  report.packed = {0x13};
  EXPECT_EQ(protocol::SerializeUnaryReport(MechanismTag::kOue, report),
            expected);
  protocol::UnaryWireReport back;
  ASSERT_EQ(protocol::ParseUnaryReport(MechanismTag::kOue, expected, &back),
            ParseError::kOk);
  EXPECT_TRUE(back.Bit(0));
  EXPECT_FALSE(back.Bit(2));
  EXPECT_TRUE(back.Bit(4));
}

TEST(WireGolden, V2BatchLayoutIsPinned) {
  // FlatHrrBatch of two reports: payload = count varint 02 then two
  // 9-byte items; payload_len 19.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x81, 0x13, 0x00, 0x00, 0x00,
      0x02,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  std::vector<HrrReport> reports = {{1, +1}, {2, -1}};
  EXPECT_EQ(protocol::SerializeHrrReportBatch(reports), expected);
  std::vector<HrrReport> back;
  ASSERT_EQ(protocol::ParseHrrReportBatch(expected, &back), ParseError::kOk);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].coefficient_index, 1u);
  EXPECT_EQ(back[1].sign, -1);
}

TEST(WireGolden, V2SueLayoutIsPinned) {
  // Same unary payload shape as OUE under tag 0x06: 5-bit vector 0b01010
  // -> num_bits varint 05, packed len u32 = 1, packed byte 0x0A.
  const std::vector<uint8_t> expected = {0x4C, 0x52, 0x02, 0x06,
                                         0x06, 0x00, 0x00, 0x00,
                                         0x05, 0x01, 0x00, 0x00, 0x00, 0x0A};
  protocol::UnaryWireReport report;
  report.num_bits = 5;
  report.packed = {0x0A};
  EXPECT_EQ(protocol::SerializeUnaryReport(MechanismTag::kSue, report),
            expected);
  protocol::UnaryWireReport back;
  ASSERT_EQ(protocol::ParseUnaryReport(MechanismTag::kSue, expected, &back),
            ParseError::kOk);
  EXPECT_FALSE(back.Bit(0));
  EXPECT_TRUE(back.Bit(1));
  EXPECT_TRUE(back.Bit(3));
}

TEST(WireGolden, V2AheadReportLayoutIsPinned) {
  // "LR" | version 2 | tag 0x08 | payload_len 10 | phase | level | node.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x08, 0x0A, 0x00, 0x00, 0x00,
      0x02, 0x03, 0xD2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  protocol::AheadWireReport report{2, 3, 1234};
  EXPECT_EQ(protocol::SerializeAheadReport(report), expected);
  protocol::AheadWireReport back;
  ASSERT_EQ(protocol::ParseAheadReportDetailed(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, report);
}

TEST(WireGolden, V2AheadBatchLayoutIsPinned) {
  // AheadReportBatch of a phase-1 and a phase-2 report: payload = count
  // varint 02 then two 10-byte items; payload_len 21.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x88, 0x15, 0x00, 0x00, 0x00,
      0x02,
      0x01, 0x02, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  std::vector<protocol::AheadWireReport> reports = {{1, 2, 7}, {2, 1, 5}};
  EXPECT_EQ(protocol::SerializeAheadReportBatch(reports), expected);
  std::vector<protocol::AheadWireReport> back;
  ASSERT_EQ(protocol::ParseAheadReportBatch(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, reports);
}

TEST(WireGolden, V2AheadTreeLayoutIsPinned) {
  // Tree over domain 64, fanout 4, with only the root split: payload =
  // domain varint 0x40, fanout varint 0x04, count varint 0x01, one
  // (depth u8 = 0, index varint = 0) entry; tag 0x09, payload_len 5.
  const std::vector<uint8_t> expected = {0x4C, 0x52, 0x02, 0x09,
                                         0x05, 0x00, 0x00, 0x00,
                                         0x40, 0x04, 0x01, 0x00, 0x00};
  TreeShape shape(64, 4);
  AdaptiveTree tree =
      AdaptiveTree::Grow(shape, 0, [](const TreeNode&) { return false; });
  EXPECT_EQ(protocol::SerializeAheadTree(64, 4, tree), expected);
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> back;
  ASSERT_EQ(protocol::ParseAheadTree(expected, &domain, &fanout, &back),
            ParseError::kOk);
  EXPECT_EQ(domain, 64u);
  EXPECT_EQ(fanout, 4u);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->num_levels(), 1u);
  EXPECT_EQ(back->FrontierSize(1), 4u);
}

// A legacy v1 capture never looks like a v2 envelope (and vice versa):
// the v1 tag range 0x01..0x03 differs from the magic byte 0x4C.
TEST(WireGolden, VersionsAreUnambiguousOnTheWire) {
  const std::vector<uint8_t> v1 = {0x01, 0xEF, 0xCD, 0xAB, 0x89,
                                   0x67, 0x45, 0x23, 0x01, 0x01};
  EXPECT_FALSE(protocol::LooksLikeEnvelope(v1));
  HrrReport report{7, +1};
  EXPECT_TRUE(protocol::LooksLikeEnvelope(protocol::SerializeHrrReport(report)));
}

// --- Stream framing + query plane pins (PR 5) -----------------------------

TEST(WireGolden, V2StreamBeginLayoutIsPinned) {
  // "LR" | v2 | tag 0x10 | payload_len 16 | session u64 | server u64.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x10, 0x10, 0x00, 0x00, 0x00,
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  service::StreamBegin msg{0x0102030405060708ULL, 1};
  EXPECT_EQ(service::SerializeStreamBegin(msg), expected);
  service::StreamBegin back;
  ASSERT_EQ(service::ParseStreamBegin(expected, &back), ParseError::kOk);
  EXPECT_EQ(back, msg);
}

TEST(WireGolden, V2StreamChunkLayoutIsPinned) {
  // "LR" | v2 | tag 0x11 | payload_len 11 | session u64 | seq varint |
  // nested bytes (here an opaque 2-byte stand-in).
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x11, 0x0B, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0xAA, 0xBB};
  const std::vector<uint8_t> nested = {0xAA, 0xBB};
  EXPECT_EQ(service::SerializeStreamChunk(7, 2, nested), expected);
  service::StreamChunk back;
  ASSERT_EQ(service::ParseStreamChunk(expected, &back), ParseError::kOk);
  EXPECT_EQ(back.session_id, 7u);
  EXPECT_EQ(back.sequence, 2u);
  EXPECT_EQ(std::vector<uint8_t>(back.payload.begin(), back.payload.end()),
            nested);
}

TEST(WireGolden, V2StreamEndLayoutIsPinned) {
  // "LR" | v2 | tag 0x12 | payload_len 10 | session u64 |
  // chunk_count varint | flags u8 (bit0 = finalize).
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x12, 0x0A, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x01};
  service::StreamEnd msg{7, 3, service::kStreamFlagFinalize};
  EXPECT_EQ(service::SerializeStreamEnd(msg), expected);
  service::StreamEnd back;
  ASSERT_EQ(service::ParseStreamEnd(expected, &back), ParseError::kOk);
  EXPECT_EQ(back, msg);
}

TEST(WireGolden, V2RangeQueryRequestLayoutIsPinned) {
  // "LR" | v2 | tag 0x20 | payload_len 22 | query u64 | server u64 |
  // count varint | count x (lo varint, hi varint); 300 = 0xAC 0x02.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x20, 0x16, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x02, 0x05, 0x00, 0xAC, 0x02};
  service::RangeQueryRequest msg;
  msg.query_id = 9;
  msg.server_id = 0;
  msg.intervals = {{2, 5}, {0, 300}};
  EXPECT_EQ(service::SerializeRangeQueryRequest(msg), expected);
  service::RangeQueryRequest back;
  ASSERT_EQ(service::ParseRangeQueryRequest(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, msg);
}

TEST(WireGolden, V2RangeQueryResponseLayoutIsPinned) {
  // "LR" | v2 | tag 0x21 | payload_len 26 | query u64 | status u8 |
  // count varint | count x (estimate f64 LE, variance f64 LE);
  // 0.5 = 0x3FE0000000000000, 0.25 = 0x3FD0000000000000.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x21, 0x1A, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F};
  service::RangeQueryResponse msg;
  msg.query_id = 9;
  msg.status = service::QueryStatus::kOk;
  msg.estimates = {{0.5, 0.25}};
  EXPECT_EQ(service::SerializeRangeQueryResponse(msg), expected);
  service::RangeQueryResponse back;
  ASSERT_EQ(service::ParseRangeQueryResponse(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, msg);
}

// --- Multidimensional wire pins (PR 6) -------------------------------------

TEST(WireGolden, V2MultiDimReportLayoutIsPinned) {
  // "LR" | v2 | tag 0x0A | payload_len 15 | dims u8 | dims x level u8 |
  // seed u64 LE | cell u32 LE.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x0A, 0x0F, 0x00, 0x00, 0x00,
      0x02, 0x03, 0x00,
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x05, 0x00, 0x00, 0x00};
  protocol::MultiDimReport report;
  report.levels = {3, 0};
  report.seed = 0x0102030405060708ULL;
  report.cell = 5;
  EXPECT_EQ(protocol::SerializeMultiDimReport(report), expected);
  protocol::MultiDimReport back;
  ASSERT_EQ(protocol::ParseMultiDimReport(expected, &back), ParseError::kOk);
  EXPECT_EQ(back, report);
}

TEST(WireGolden, V2MultiDimBatchLayoutIsPinned) {
  // "LR" | v2 | tag 0x8A | payload_len 30 | dims u8 | count varint |
  // count x (dims x level u8, seed u64 LE, cell u32 LE). dims is hoisted
  // to the batch header, so every item is a fixed dims + 12 bytes.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x8A, 0x1E, 0x00, 0x00, 0x00,
      0x02, 0x02,
      0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00,
      0x00, 0x02, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x04, 0x00, 0x00, 0x00};
  std::vector<protocol::MultiDimReport> reports(2);
  reports[0].levels = {1, 0};
  reports[0].seed = 1;
  reports[0].cell = 2;
  reports[1].levels = {0, 2};
  reports[1].seed = 3;
  reports[1].cell = 4;
  EXPECT_EQ(protocol::SerializeMultiDimReportBatch(2, reports), expected);
  std::vector<protocol::MultiDimReport> back;
  ASSERT_EQ(protocol::ParseMultiDimReportBatch(expected, &back, nullptr),
            ParseError::kOk);
  EXPECT_EQ(back, reports);
}

TEST(WireGolden, V2MultiDimQueryRequestLayoutIsPinned) {
  // "LR" | v2 | tag 0x22 | payload_len 23 | query u64 | server u64 |
  // dims u8 | count varint | count x dims x (lo varint, hi varint);
  // 300 = 0xAC 0x02.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x22, 0x17, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x02, 0x01, 0x02, 0x05, 0x00, 0xAC, 0x02};
  service::MultiDimQueryRequest msg;
  msg.query_id = 9;
  msg.server_id = 1;
  msg.dimensions = 2;
  service::QueryBox box;
  box.axes = {{2, 5}, {0, 300}};
  msg.boxes = {box};
  EXPECT_EQ(service::SerializeMultiDimQueryRequest(msg), expected);
  service::MultiDimQueryRequest back;
  ASSERT_EQ(service::ParseMultiDimQueryRequest(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, msg);
}

TEST(WireGolden, V2MultiDimQueryResponseLayoutIsPinned) {
  // "LR" | v2 | tag 0x23 | payload_len 26 | query u64 | status u8 |
  // count varint | count x (estimate f64 LE, variance f64 LE) — the same
  // payload shape as kRangeQueryResponse under its own tag.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x23, 0x1A, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F};
  service::MultiDimQueryResponse msg;
  msg.query_id = 9;
  msg.status = service::QueryStatus::kOk;
  msg.estimates = {{0.5, 0.25}};
  EXPECT_EQ(service::SerializeMultiDimQueryResponse(msg), expected);
  service::MultiDimQueryResponse back;
  ASSERT_EQ(service::ParseMultiDimQueryResponse(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, msg);
}

// --- Stats plane wire pins (PR 9) ------------------------------------------

TEST(WireGolden, V2StatsQueryLayoutIsPinned) {
  // "LR" | v2 | tag 0x24 | payload_len 9 | query_id u64 LE | flags u8
  // (bit0 = include process-global registry).
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x24, 0x09, 0x00, 0x00, 0x00,
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x01};
  obs::StatsQuery msg{0x0102030405060708ULL, obs::kStatsFlagIncludeGlobal};
  EXPECT_EQ(obs::SerializeStatsQuery(msg), expected);
  obs::StatsQuery back;
  ASSERT_EQ(obs::ParseStatsQuery(expected, &back), ParseError::kOk);
  EXPECT_EQ(back, msg);
}

TEST(WireGolden, V2StatsResponseLayoutIsPinned) {
  // "LR" | v2 | tag 0x25 | payload_len 29 | query_id u64 | status u8 |
  // format_version u8 | counter_count varint | (name len+bytes, value
  // varint) | gauge_count | (name, zigzag varint) | histogram_count |
  // (name, sum, min, max, occupied-bucket count, (index u8, count
  // varint)...). One counter a=5, one gauge g=-2 (zigzag 3), one
  // histogram h with values {1, 4}: buckets 1 and 3, sum 5. The
  // histogram's total count is derived, never serialized.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x25, 0x1D, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // query_id = 9
      0x00, 0x01,                                      // status, version
      0x01, 0x01, 0x61, 0x05,                          // counters: a=5
      0x01, 0x01, 0x67, 0x03,                          // gauges: g=-2
      0x01, 0x01, 0x68,                                // histograms: "h"
      0x05, 0x01, 0x04,                                // sum, min, max
      0x02, 0x01, 0x01, 0x03, 0x01};                   // buckets 1+3, x1
  obs::StatsResponse msg;
  msg.query_id = 9;
  msg.metrics.counters = {{"a", 5}};
  msg.metrics.gauges = {{"g", -2}};
  obs::HistogramSnapshot h;
  h.count = 2;
  h.sum = 5;
  h.min = 1;
  h.max = 4;
  h.buckets[obs::HistogramBucketIndex(1)] = 1;
  h.buckets[obs::HistogramBucketIndex(4)] = 1;
  msg.metrics.histograms = {{"h", h}};
  EXPECT_EQ(obs::SerializeStatsResponse(msg), expected);
  obs::StatsResponse back;
  ASSERT_EQ(obs::ParseStatsResponse(expected, &back), ParseError::kOk);
  EXPECT_EQ(back, msg);
}

// --- Distributed fan-in state plane pins (PR 10) ---------------------------

TEST(WireGolden, V2StateSnapshotLayoutIsPinned) {
  // "LR" | v2 | tag 0x30 | payload_len 17 | kind u8 | dims u8 |
  // domain varint | fanout varint | eps f64 LE | accepted varint |
  // rejected varint | state body (opaque 2-byte stand-in here).
  // Flat kind over domain 64, eps 1.0 (0x3FF0000000000000), 300
  // accepted (varint AC 02), 1 rejected.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x30, 0x11, 0x00, 0x00, 0x00,
      0x01, 0x01, 0x40, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
      0xAC, 0x02, 0x01,
      0xAA, 0xBB};
  service::StateSnapshotHeader header;
  header.kind = service::StateKind::kFlat;
  header.dimensions = 1;
  header.domain = 64;
  header.fanout = 0;
  header.eps = 1.0;
  header.accepted = 300;
  header.rejected = 1;
  const std::vector<uint8_t> body = {0xAA, 0xBB};
  EXPECT_EQ(service::SerializeStateSnapshot(header, body), expected);
  service::StateSnapshotHeader back;
  ASSERT_EQ(service::ParseStateSnapshot(expected, &back), ParseError::kOk);
  EXPECT_EQ(back.kind, header.kind);
  EXPECT_EQ(back.dimensions, header.dimensions);
  EXPECT_EQ(back.domain, header.domain);
  EXPECT_EQ(back.fanout, header.fanout);
  EXPECT_EQ(back.eps, header.eps);
  EXPECT_EQ(back.accepted, header.accepted);
  EXPECT_EQ(back.rejected, header.rejected);
  EXPECT_EQ(std::vector<uint8_t>(back.body.begin(), back.body.end()), body);
}

TEST(WireGolden, V2FlatServerSnapshotBodyIsPinned) {
  // A real server's SerializeState: the header above, then the HRR state
  // body [reports varint][padded varint][padded x sum u64 LE, two's
  // complement], written in place through the bulk array codec. Four
  // reports over domain 4 leave coefficient sums {+1, 0, -2, +1}.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x30, 0x30, 0x00, 0x00, 0x00,
      0x01, 0x01, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
      0x04, 0x00,
      0x04, 0x04,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  protocol::FlatHrrServer server(4, 1.0);
  const std::vector<HrrReport> reports = {{0, +1}, {2, -1}, {2, -1}, {3, +1}};
  ASSERT_EQ(server.AbsorbBatchSerialized(
                protocol::SerializeHrrReportBatch(reports)),
            ParseError::kOk);
  EXPECT_EQ(server.SerializeState(), expected);
  protocol::FlatHrrServer restored(4, 1.0);
  ASSERT_EQ(restored.MergeSerializedState(expected),
            service::MergeStatus::kOk);
  EXPECT_EQ(restored.SerializeState(), expected);
}

TEST(WireGolden, V2StateMergeLayoutIsPinned) {
  // "LR" | v2 | tag 0x31 | payload_len 41 | merge_id u64 LE |
  // server_id u64 LE | shard_index varint | shard_count varint |
  // flags u8 (bit0 = finalize) | nested framed kStateSnapshot message
  // (here the smallest valid one: flat, domain 2, eps 1.0, empty body).
  const std::vector<uint8_t> nested = {
      0x4C, 0x52, 0x02, 0x30, 0x0E, 0x00, 0x00, 0x00,
      0x01, 0x01, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,
      0x00, 0x00};
  std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x31, 0x29, 0x00, 0x00, 0x00,
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x02, 0x01};
  expected.insert(expected.end(), nested.begin(), nested.end());
  service::StateMergeRequest request;
  request.merge_id = 0x0102030405060708ULL;
  request.server_id = 1;
  request.shard_index = 1;
  request.shard_count = 2;
  request.flags = service::kMergeFlagFinalize;
  EXPECT_EQ(service::SerializeStateMerge(request, nested), expected);
  service::StateMergeRequest back;
  ASSERT_EQ(service::ParseStateMerge(expected, &back), ParseError::kOk);
  EXPECT_EQ(back.merge_id, request.merge_id);
  EXPECT_EQ(back.server_id, request.server_id);
  EXPECT_EQ(back.shard_index, request.shard_index);
  EXPECT_EQ(back.shard_count, request.shard_count);
  EXPECT_EQ(back.flags, request.flags);
  EXPECT_EQ(std::vector<uint8_t>(back.snapshot.begin(), back.snapshot.end()),
            nested);
}

TEST(WireGolden, V2StateMergeResponseLayoutIsPinned) {
  // "LR" | v2 | tag 0x32 | payload_len 10 | merge_id u64 LE |
  // status u8 (kWouldBlock = 10) | shards_received varint.
  const std::vector<uint8_t> expected = {
      0x4C, 0x52, 0x02, 0x32, 0x0A, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x0A, 0x03};
  service::StateMergeResponse msg;
  msg.merge_id = 9;
  msg.status = service::MergeStatus::kWouldBlock;
  msg.shards_received = 3;
  EXPECT_EQ(service::SerializeStateMergeResponse(msg), expected);
  service::StateMergeResponse back;
  ASSERT_EQ(service::ParseStateMergeResponse(expected, &back),
            ParseError::kOk);
  EXPECT_EQ(back, msg);
}

}  // namespace
}  // namespace ldp
