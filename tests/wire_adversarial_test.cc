// Adversarial parser tests: the decode path must be *total* — for every
// prefix truncation, every single-bit corruption, and forged lengths up
// to UINT32_MAX, each parser returns a clean ParseError (or a valid
// in-spec report) and never reads out of bounds. The asan CTest preset
// runs this suite under ASan+UBSan, which is what turns "never reads
// OOB" from a comment into a checked property.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/oracle_wire.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"
#include "service/aggregator_server.h"

namespace ldp {
namespace {

using protocol::Envelope;
using protocol::MechanismTag;
using protocol::ParseError;

// --- Batch ingestion vs. the typed reference -------------------------
//
// A server's AbsorbBatchSerialized walks the report slots in place. Its
// reference is the typed route: Parse*ReportBatch, then Absorb per report
// on an identically configured twin. Every rejection the typed parser
// decides — the whole message on a structural failure, one per malformed
// slot — is charged to the twin as one unparseable message (an empty
// message never parses).

using ServerPtr = std::unique_ptr<service::AggregatorServer>;

void ChargeRejection(service::AggregatorServer& twin) {
  EXPECT_FALSE(twin.AbsorbSerialized(std::span<const uint8_t>()));
}

template <typename Report, typename Server>
ParseError TypedReference(
    Server& twin, std::span<const uint8_t> bytes,
    ParseError (*parse)(std::span<const uint8_t>, std::vector<Report>*,
                        uint64_t*),
    uint64_t* accepted) {
  std::vector<Report> reports;
  uint64_t malformed = 0;
  *accepted = 0;
  ParseError err = parse(bytes, &reports, &malformed);
  if (err != ParseError::kOk) {
    ChargeRejection(twin);
    return err;
  }
  for (uint64_t i = 0; i < malformed; ++i) ChargeRejection(twin);
  for (const Report& report : reports) *accepted += twin.Absorb(report);
  return err;
}

// One server kind (and, for AHEAD, phase era) under differential test.
struct IngestKind {
  std::string name;
  // A fresh server in the era under test.
  std::function<ServerPtr()> make;
  // The typed reference on `twin` (made by `make`).
  std::function<ParseError(service::AggregatorServer& twin,
                           std::span<const uint8_t> bytes,
                           uint64_t* accepted)>
      reference;
  std::vector<uint8_t> valid_batch;
};

template <typename Server, typename Report>
std::function<ParseError(service::AggregatorServer&, std::span<const uint8_t>,
                         uint64_t*)>
ReferenceFor(ParseError (*parse)(std::span<const uint8_t>,
                                 std::vector<Report>*, uint64_t*)) {
  return [parse](service::AggregatorServer& twin,
                 std::span<const uint8_t> bytes, uint64_t* accepted) {
    return TypedReference(static_cast<Server&>(twin), bytes, parse,
                          accepted);
  };
}

std::vector<IngestKind> AllIngestKinds() {
  Rng rng(77);
  const std::vector<uint64_t> values = {1, 5, 60, 33, 2};
  std::vector<IngestKind> kinds;
  kinds.push_back(
      {"flat", [] { return std::make_unique<protocol::FlatHrrServer>(64, 1.0); },
       ReferenceFor<protocol::FlatHrrServer>(protocol::ParseHrrReportBatch),
       protocol::FlatHrrClient(64, 1.0).EncodeUsersSerialized(values, rng)});
  kinds.push_back(
      {"haar", [] { return std::make_unique<protocol::HaarHrrServer>(64, 1.0); },
       ReferenceFor<protocol::HaarHrrServer>(
           protocol::ParseHaarHrrReportBatch),
       protocol::HaarHrrClient(64, 1.0).EncodeUsersSerialized(values, rng)});
  kinds.push_back(
      {"tree",
       [] { return std::make_unique<protocol::TreeHrrServer>(128, 4, 1.0); },
       ReferenceFor<protocol::TreeHrrServer>(
           protocol::ParseTreeHrrReportBatch),
       protocol::TreeHrrClient(128, 4, 1.0)
           .EncodeUsersSerialized(values, rng)});
  // AHEAD in both eras: phase 1 on a fresh server, phase 2 once a
  // report-free BuildTree has broadcast the full split of 64/4.
  protocol::AheadClient ahead(64, 4, 1.0);
  std::vector<protocol::AheadWireReport> phase1;
  for (uint64_t v : values) phase1.push_back(ahead.EncodePhase1(v, rng));
  kinds.push_back(
      {"ahead_phase1",
       [] { return std::make_unique<protocol::AheadServer>(64, 4, 1.0); },
       ReferenceFor<protocol::AheadServer>(protocol::ParseAheadReportBatch),
       protocol::SerializeAheadReportBatch(phase1)});
  auto make_phase2 = [] {
    auto server = std::make_unique<protocol::AheadServer>(64, 4, 1.0);
    server->BuildTree();
    return server;
  };
  ahead.AbsorbTreeDescription(make_phase2()->BuildTree());
  kinds.push_back(
      {"ahead_phase2", make_phase2,
       ReferenceFor<protocol::AheadServer>(protocol::ParseAheadReportBatch),
       ahead.EncodePhase2UsersSerialized(values, rng)});
  const std::vector<uint64_t> coords = {0, 0, 3, 12, 15, 15, 7, 8};
  kinds.push_back(
      {"grid",
       [] { return std::make_unique<protocol::MultiDimServer>(16, 2, 1.0); },
       ReferenceFor<protocol::MultiDimServer>(
           protocol::ParseMultiDimReportBatch),
       protocol::MultiDimClient(16, 2, 1.0)
           .EncodeUsersSerialized(coords, rng)});
  return kinds;
}

// Runs `bytes` through AbsorbBatchSerialized on a fresh server and through
// the typed reference on a fresh twin, and expects the same ParseError,
// accepted count, counters and snapshot bytes. Returns the error; `stats`
// (may be null) receives the server's counters.
ParseError ExpectIngestMatchesTypedReference(
    const IngestKind& kind, std::span<const uint8_t> bytes,
    service::ServerStats* stats = nullptr) {
  ServerPtr server = kind.make();
  ServerPtr twin = kind.make();
  uint64_t got = 0;
  uint64_t want = 0;
  ParseError err = server->AbsorbBatchSerialized(bytes, &got);
  EXPECT_EQ(err, kind.reference(*twin, bytes, &want)) << kind.name;
  EXPECT_EQ(got, want) << kind.name;
  EXPECT_EQ(server->stats(), twin->stats()) << kind.name;
  EXPECT_EQ(server->SerializeState(), twin->SerializeState()) << kind.name;
  EXPECT_EQ(got, server->accepted_reports()) << kind.name;
  if (stats != nullptr) *stats = server->stats();
  return err;
}

// One parser under attack: returns kOk/err and, via `validate`, asserts
// the parsed result is in-spec whenever it claims kOk.
struct ParserUnderTest {
  std::string name;
  std::vector<uint8_t> valid_message;
  std::function<ParseError(std::span<const uint8_t>)> parse;
};

std::vector<ParserUnderTest> AllParsers() {
  std::vector<ParserUnderTest> parsers;
  Rng rng(42);

  protocol::FlatHrrClient flat(64, 1.0);
  parsers.push_back(
      {"flat_v2", flat.EncodeSerialized(7, rng),
       [](std::span<const uint8_t> bytes) {
         HrrReport r;
         ParseError err = protocol::ParseHrrReportDetailed(bytes, &r);
         if (err == ParseError::kOk) {
           EXPECT_TRUE(r.sign == 1 || r.sign == -1);
         }
         return err;
       }});

  protocol::HaarHrrClient haar(64, 1.0);
  parsers.push_back(
      {"haar_v2", haar.EncodeSerialized(20, rng),
       [](std::span<const uint8_t> bytes) {
         protocol::HaarHrrReport r;
         ParseError err = protocol::ParseHaarHrrReportDetailed(bytes, &r);
         if (err == ParseError::kOk) {
           EXPECT_GE(r.level, 1u);
           EXPECT_TRUE(r.inner.sign == 1 || r.inner.sign == -1);
         }
         return err;
       }});

  protocol::TreeHrrClient tree(128, 4, 1.0);
  parsers.push_back(
      {"tree_v2", tree.EncodeSerialized(100, rng),
       [](std::span<const uint8_t> bytes) {
         protocol::TreeHrrReport r;
         ParseError err = protocol::ParseTreeHrrReportDetailed(bytes, &r);
         if (err == ParseError::kOk) {
           EXPECT_GE(r.level, 1u);
         }
         return err;
       }});

  std::vector<uint64_t> values = {1, 5, 60, 33, 2};
  parsers.push_back(
      {"flat_batch",
       protocol::FlatHrrClient(64, 1.0).EncodeUsersSerialized(values, rng),
       [](std::span<const uint8_t> bytes) {
         std::vector<HrrReport> rs;
         uint64_t malformed = 0;
         ParseError err =
             protocol::ParseHrrReportBatch(bytes, &rs, &malformed);
         if (err == ParseError::kOk) {
           for (const HrrReport& r : rs) {
             EXPECT_TRUE(r.sign == 1 || r.sign == -1);
           }
         }
         return err;
       }});
  parsers.push_back(
      {"tree_batch",
       protocol::TreeHrrClient(128, 4, 1.0)
           .EncodeUsersSerialized(values, rng),
       [](std::span<const uint8_t> bytes) {
         std::vector<protocol::TreeHrrReport> rs;
         return protocol::ParseTreeHrrReportBatch(bytes, &rs);
       }});
  parsers.push_back(
      {"haar_batch",
       protocol::HaarHrrClient(64, 1.0).EncodeUsersSerialized(values, rng),
       [](std::span<const uint8_t> bytes) {
         std::vector<protocol::HaarHrrReport> rs;
         return protocol::ParseHaarHrrReportBatch(bytes, &rs);
       }});

  parsers.push_back(
      {"grr",
       protocol::SerializeGrrReport(
           protocol::EncodeGrrReport(256, 1.0, 37, rng)),
       [](std::span<const uint8_t> bytes) {
         protocol::GrrWireReport r;
         return protocol::ParseGrrReport(bytes, &r);
       }});
  parsers.push_back(
      {"oue",
       protocol::SerializeUnaryReport(
           MechanismTag::kOue, protocol::EncodeOueReport(100, 1.0, 42, rng)),
       [](std::span<const uint8_t> bytes) {
         protocol::UnaryWireReport r;
         ParseError err =
             protocol::ParseUnaryReport(MechanismTag::kOue, bytes, &r);
         if (err == ParseError::kOk) {
           EXPECT_EQ(r.packed.size(), (r.num_bits + 7) / 8);
         }
         return err;
       }});
  parsers.push_back(
      {"sue",
       protocol::SerializeUnaryReport(
           MechanismTag::kSue, protocol::EncodeSueReport(100, 1.0, 17, rng)),
       [](std::span<const uint8_t> bytes) {
         protocol::UnaryWireReport r;
         return protocol::ParseUnaryReport(MechanismTag::kSue, bytes, &r);
       }});
  parsers.push_back(
      {"olh",
       protocol::SerializeOlhReport(
           protocol::EncodeOlhReport(256, 1.0, 99, rng)),
       [](std::span<const uint8_t> bytes) {
         protocol::OlhWireReport r;
         return protocol::ParseOlhReport(bytes, &r);
       }});
  // The bulk state-array reader behind every snapshot restore. The word
  // count is the parser's own configuration (as a server's domain is),
  // never read from the wire.
  const std::vector<uint64_t> words = {0, 1, UINT64_MAX, 0x0123456789ABCDEF,
                                       42};
  std::vector<uint8_t> array_bytes;
  protocol::AppendU64Array(array_bytes, words);
  parsers.push_back(
      {"u64_array", array_bytes,
       [n = words.size()](std::span<const uint8_t> bytes) {
         protocol::WireReader reader(bytes);
         std::vector<uint64_t> out(n, 0);
         if (!reader.ReadU64Array(n, out.data())) {
           // All-or-nothing and sticky: nothing written or consumed, and
           // no later read succeeds.
           EXPECT_EQ(out, std::vector<uint64_t>(n, 0));
           EXPECT_EQ(reader.Remaining(), bytes.size());
           uint64_t word = 0;
           EXPECT_FALSE(reader.ReadU64Array(0, &word));
           EXPECT_FALSE(reader.ReadU64(&word));
           return ParseError::kTruncated;
         }
         return reader.AtEnd() ? ParseError::kOk : ParseError::kTrailingJunk;
       }});
  // Each server kind's batch ingestion, checked against its typed
  // reference on every input the sweeps below produce.
  for (IngestKind& kind : AllIngestKinds()) {
    parsers.push_back(
        {kind.name + "_ingest", kind.valid_batch,
         [kind](std::span<const uint8_t> bytes) {
           return ExpectIngestMatchesTypedReference(kind, bytes);
         }});
  }
  return parsers;
}

TEST(WireAdversarial, ValidMessagesParse) {
  for (const ParserUnderTest& p : AllParsers()) {
    EXPECT_EQ(p.parse(p.valid_message), ParseError::kOk) << p.name;
  }
}

TEST(WireAdversarial, TruncationAtEveryByteOffsetFailsCleanly) {
  for (const ParserUnderTest& p : AllParsers()) {
    for (size_t len = 0; len < p.valid_message.size(); ++len) {
      std::vector<uint8_t> cut(p.valid_message.begin(),
                               p.valid_message.begin() + len);
      EXPECT_NE(p.parse(cut), ParseError::kOk)
          << p.name << " truncated to " << len;
    }
  }
}

TEST(WireAdversarial, BitFlipSweepNeverCrashesOrEmitsOutOfSpec) {
  // Every single-bit corruption of every valid message either still
  // parses (to an in-spec report — the lambdas assert that) or fails
  // with a clean error. Under ASan this also proves no flip drives an
  // OOB read.
  for (const ParserUnderTest& p : AllParsers()) {
    for (size_t byte = 0; byte < p.valid_message.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<uint8_t> mutated = p.valid_message;
        mutated[byte] ^= uint8_t{1} << bit;
        (void)p.parse(mutated);
      }
    }
  }
}

TEST(WireAdversarial, ForgedPayloadLengthsNearUint32MaxFailCleanly) {
  // An 8-byte header claiming up to 4 GiB of payload, followed by almost
  // nothing: must return kLengthMismatch without touching (or
  // allocating) the claimed length.
  for (uint32_t claimed :
       {UINT32_MAX, UINT32_MAX - 1, UINT32_MAX - 7, UINT32_MAX / 2,
        uint32_t{1} << 24}) {
    std::vector<uint8_t> msg;
    protocol::AppendEnvelopeHeader(msg, MechanismTag::kFlatHrr, claimed);
    msg.push_back(0xAB);  // 1 byte present vs ~4 GiB claimed
    Envelope env;
    EXPECT_EQ(protocol::DecodeEnvelope(msg, &env),
              ParseError::kLengthMismatch)
        << claimed;
    for (const ParserUnderTest& p : AllParsers()) {
      std::vector<uint8_t> retagged = msg;
      retagged[3] = p.valid_message.size() > 3 ? p.valid_message[3]
                                               : retagged[3];
      EXPECT_NE(p.parse(retagged), ParseError::kOk) << p.name;
    }
  }
  // The bulk state-array reader checks its word count by division: a
  // forged count near SIZE_MAX / 8, where 8n wraps to a small length,
  // fails without reading, writing or consuming anything.
  const std::vector<uint8_t> few(64, 0xAB);
  for (size_t forged : {SIZE_MAX / 8 + 1, SIZE_MAX / 8 + 2, SIZE_MAX / 8,
                        SIZE_MAX}) {
    protocol::WireReader reader(few);
    uint64_t sink = 0;
    EXPECT_FALSE(reader.ReadU64Array(forged, &sink)) << forged;
    EXPECT_FALSE(reader.ok());
    EXPECT_EQ(reader.Remaining(), few.size());
    EXPECT_EQ(sink, 0u);
  }
}

TEST(WireAdversarial, BatchCountCannotBeInflated) {
  // count varint claims 2^61 items (so count * item_size wraps around
  // 2^64): the overflow guard must reject before any reserve happens.
  std::vector<uint8_t> payload;
  protocol::AppendVarU64(payload, uint64_t{1} << 61);
  for (int i = 0; i < 32; ++i) payload.push_back(0);
  std::vector<uint8_t> msg =
      protocol::EncodeEnvelope(MechanismTag::kFlatHrrBatch, payload);
  std::vector<HrrReport> reports;
  EXPECT_EQ(protocol::ParseHrrReportBatch(msg, &reports),
            ParseError::kBadPayload);
  EXPECT_TRUE(reports.empty());
}

// Overwrites byte `offset` of item `k` in a batch message whose payload is
// [prefix bytes][count varint, one byte][items of item_size bytes].
void PatchItem(std::vector<uint8_t>& msg, size_t prefix, size_t item_size,
               size_t k, size_t offset, uint8_t value) {
  msg[protocol::kEnvelopeHeaderSize + prefix + 1 + k * item_size + offset] =
      value;
}

TEST(WireAdversarial, BatchWithMalformedItemsSkipsAndCounts) {
  // One batch per server kind (and AHEAD era) carrying two valid items and
  // one item of every rejection class — malformed slots the decoder skips
  // and in-range-looking reports the fold refuses. Batch ingestion must
  // count each exactly once and agree with the typed reference.
  struct RejectionCase {
    std::string kind;
    std::vector<uint8_t> message;
    uint64_t accepted;
    uint64_t rejected;
  };
  std::vector<RejectionCase> cases;
  {
    // D = 64: index at the padded domain; a sign byte of 0x55.
    std::vector<uint8_t> msg = protocol::SerializeHrrReportBatch(
        std::vector<HrrReport>{{5, +1}, {63, -1}, {64, +1}, {7, +1}});
    PatchItem(msg, 0, 9, 3, 8, 0x55);
    cases.push_back({"flat", msg, 2, 2});
  }
  {
    // D = 64, height 6: level 0, level above the height, index at its
    // level's size (64 >> 2), bad sign.
    std::vector<uint8_t> msg = protocol::SerializeHaarHrrReportBatch(
        std::vector<protocol::HaarHrrReport>{{1, {5, +1}},
                                             {6, {0, -1}},
                                             {0, {0, +1}},
                                             {7, {0, +1}},
                                             {2, {16, +1}},
                                             {3, {1, +1}}});
    PatchItem(msg, 0, 10, 5, 9, 2);
    cases.push_back({"haar", msg, 2, 4});
  }
  {
    // D = 128, B = 4, height 4 (level l has 4^l nodes): level 0, level
    // above the height, index at the level size, bad sign.
    std::vector<uint8_t> msg = protocol::SerializeTreeHrrReportBatch(
        std::vector<protocol::TreeHrrReport>{{1, {2, +1}},
                                             {4, {200, -1}},
                                             {0, {0, +1}},
                                             {5, {0, +1}},
                                             {1, {4, +1}},
                                             {2, {3, +1}}});
    PatchItem(msg, 0, 10, 5, 9, 2);
    cases.push_back({"tree", msg, 2, 4});
  }
  // AHEAD, D = 64, B = 4, height 3. Items are {phase, level, node}: bad
  // phase, level 0, level above the era's levels, node at the level's
  // size, and a report of the other era.
  cases.push_back({"ahead_phase1",
                   protocol::SerializeAheadReportBatch(
                       std::vector<protocol::AheadWireReport>{{1, 1, 3},
                                                              {1, 3, 63},
                                                              {3, 1, 0},
                                                              {1, 0, 0},
                                                              {1, 4, 0},
                                                              {1, 2, 16},
                                                              {2, 1, 0}}),
                   2, 5});
  // Phase 2 against the full split: frontiers of 4, 16 and 64 nodes; the
  // other-era report is a late phase-1 one.
  cases.push_back({"ahead_phase2",
                   protocol::SerializeAheadReportBatch(
                       std::vector<protocol::AheadWireReport>{{2, 1, 3},
                                                              {2, 3, 63},
                                                              {0, 1, 0},
                                                              {2, 0, 0},
                                                              {2, 4, 0},
                                                              {2, 1, 4},
                                                              {1, 1, 0}}),
                   2, 5});
  {
    // 16 x 16 grid, height 4: the all-root tuple, a level above the
    // height, a cell at the OLH hash range; then a batch of foreign
    // dimensionality, every item of which is rejected.
    const uint32_t g = static_cast<uint32_t>(
        protocol::MultiDimServer(16, 2, 1.0).hash_range());
    std::vector<protocol::MultiDimReport> items = {{{1, 0}, 11, 1},
                                                   {{4, 4}, 12, g - 1},
                                                   {{0, 0}, 13, 0},
                                                   {{5, 0}, 14, 0},
                                                   {{1, 1}, 15, g}};
    cases.push_back(
        {"grid", protocol::SerializeMultiDimReportBatch(2, items), 2, 3});
    std::vector<protocol::MultiDimReport> foreign = {{{1, 0, 2}, 16, 0},
                                                     {{0, 1, 0}, 17, 0}};
    cases.push_back(
        {"grid", protocol::SerializeMultiDimReportBatch(3, foreign), 0, 2});
  }

  const std::vector<IngestKind> kinds = AllIngestKinds();
  for (const RejectionCase& c : cases) {
    const IngestKind* kind = nullptr;
    for (const IngestKind& k : kinds) {
      if (k.name == c.kind) kind = &k;
    }
    ASSERT_NE(kind, nullptr) << c.kind;
    service::ServerStats stats;
    ASSERT_EQ(ExpectIngestMatchesTypedReference(*kind, c.message, &stats),
              ParseError::kOk)
        << c.kind;
    EXPECT_EQ(stats.accepted, c.accepted) << c.kind;
    EXPECT_EQ(stats.rejected, c.rejected) << c.kind;
  }
}

TEST(WireAdversarial, UnaryBitCountMustMatchPackedBytes) {
  // num_bits inconsistent with the packed length (including values that
  // make num_bits + 7 wrap) must be kBadPayload.
  for (uint64_t claimed_bits :
       {uint64_t{9}, uint64_t{0}, UINT64_MAX, UINT64_MAX - 6}) {
    std::vector<uint8_t> payload;
    protocol::AppendVarU64(payload, claimed_bits);
    std::vector<uint8_t> packed = {0xFF};  // 1 byte = at most 8 bits
    protocol::AppendLengthPrefixedBytes(payload, packed);
    std::vector<uint8_t> msg =
        protocol::EncodeEnvelope(MechanismTag::kOue, payload);
    protocol::UnaryWireReport report;
    EXPECT_EQ(protocol::ParseUnaryReport(MechanismTag::kOue, msg, &report),
              ParseError::kBadPayload)
        << claimed_bits;
  }
}

TEST(WireAdversarial, UnaryPaddingBitsMustBeZero) {
  std::vector<uint8_t> payload;
  protocol::AppendVarU64(payload, 5);       // 5 bits
  std::vector<uint8_t> packed = {0xE5};     // bits 5..7 nonzero
  protocol::AppendLengthPrefixedBytes(payload, packed);
  std::vector<uint8_t> msg =
      protocol::EncodeEnvelope(MechanismTag::kOue, payload);
  protocol::UnaryWireReport report;
  EXPECT_EQ(protocol::ParseUnaryReport(MechanismTag::kOue, msg, &report),
            ParseError::kBadPayload);
}

TEST(WireAdversarial, ServersSurviveRandomJunkStorm) {
  // End-to-end robustness: ~50k junk buffers of every length through the
  // full absorb path (both single and batch) — rejection counts move,
  // nothing crashes, service continues.
  Rng rng(99);
  protocol::FlatHrrServer flat(64, 1.0);
  protocol::HaarHrrServer haar(64, 1.0);
  protocol::TreeHrrServer tree(128, 4, 1.0);
  for (int i = 0; i < 50000; ++i) {
    size_t len = rng.UniformInt(64);
    std::vector<uint8_t> junk(len);
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.UniformInt(256));
    }
    // Half the storm gets a valid-looking envelope head so it reaches
    // the payload parsers instead of dying on the magic check.
    if (i % 2 == 0 && junk.size() >= 4) {
      junk[0] = protocol::kEnvelopeMagic0;
      junk[1] = protocol::kEnvelopeMagic1;
      junk[2] = protocol::kWireVersionV2;
    }
    flat.AbsorbSerialized(junk);
    haar.AbsorbSerialized(junk);
    tree.AbsorbSerialized(junk);
    flat.AbsorbBatchSerialized(junk);
    haar.AbsorbBatchSerialized(junk);
    tree.AbsorbBatchSerialized(junk);
  }
  EXPECT_GT(flat.rejected_reports(), 0u);
  flat.Finalize();
  haar.Finalize();
  tree.Finalize();
  EXPECT_TRUE(std::isfinite(flat.RangeQuery(0, 63)));
  EXPECT_TRUE(std::isfinite(haar.RangeQuery(0, 63)));
  EXPECT_TRUE(std::isfinite(tree.RangeQuery(0, 127)));
}

TEST(WireAdversarial, EnvelopeErrorCodesAreSpecific) {
  Rng rng(3);
  protocol::FlatHrrClient client(64, 1.0);
  std::vector<uint8_t> good = client.EncodeSerialized(7, rng);
  Envelope env;

  std::vector<uint8_t> short_header(good.begin(), good.begin() + 5);
  EXPECT_EQ(protocol::DecodeEnvelope(short_header, &env),
            ParseError::kTruncated);

  std::vector<uint8_t> bad_magic = good;
  bad_magic[1] = 0x00;
  EXPECT_EQ(protocol::DecodeEnvelope(bad_magic, &env),
            ParseError::kBadMagic);

  std::vector<uint8_t> future = good;
  future[2] = 9;
  EXPECT_EQ(protocol::DecodeEnvelope(future, &env),
            ParseError::kUnsupportedVersion);

  std::vector<uint8_t> unknown = good;
  unknown[3] = 0x6E;
  EXPECT_EQ(protocol::DecodeEnvelope(unknown, &env),
            ParseError::kUnknownMechanism);

  std::vector<uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_EQ(protocol::DecodeEnvelope(trailing, &env),
            ParseError::kTrailingJunk);

  std::vector<uint8_t> shortened = good;
  shortened.pop_back();
  EXPECT_EQ(protocol::DecodeEnvelope(shortened, &env),
            ParseError::kLengthMismatch);

  EXPECT_EQ(protocol::DecodeEnvelope(good, &env), ParseError::kOk);
  EXPECT_EQ(env.mechanism, MechanismTag::kFlatHrr);
  EXPECT_EQ(env.payload.size(), 9u);

  // Names are stable identifiers for logs.
  EXPECT_EQ(protocol::ParseErrorName(ParseError::kOk), "ok");
  EXPECT_EQ(protocol::ParseErrorName(ParseError::kBadMagic), "bad_magic");
  EXPECT_EQ(protocol::ParseErrorName(ParseError::kTrailingJunk),
            "trailing_junk");
  EXPECT_EQ(protocol::MechanismTagName(MechanismTag::kFlatHrrBatch),
            "FlatHrrBatch");
}

}  // namespace
}  // namespace ldp
