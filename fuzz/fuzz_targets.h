// Fuzz entry points for the wire-protocol report path.
//
// Each function has the libFuzzer TestOneInput contract — consume
// arbitrary bytes, return 0, and crash (trap) only on a genuine bug —
// but lives in a plain static library so the same code runs under three
// harnesses:
//
//   * libFuzzer executables (fuzz/fuzz_*.cc, clang -fsanitize=fuzzer),
//   * the standalone file-replay driver (fuzz/standalone_driver.cc, any
//     compiler — used on toolchains without libFuzzer),
//   * the deterministic corpus-replay GoogleTest
//     (tests/fuzz_regression_test.cc), which turns every checked-in
//     corpus file into a permanent CTest regression.
//
// The targets assert parser totality (never crash, never read OOB — the
// sanitizers see to that) and semantic invariants: whatever parses must
// be in-spec, and a server that ingested arbitrary bytes must still
// finalize and answer queries with finite numbers.

#ifndef LDPRANGE_FUZZ_FUZZ_TARGETS_H_
#define LDPRANGE_FUZZ_FUZZ_TARGETS_H_

#include <cstddef>
#include <cstdint>

namespace ldp::fuzz {

/// DecodeEnvelope plus every typed parser (single, batch, oracle
/// reports, stats plane, and the distributed fan-in state plane) over
/// the same bytes; a snapshot that frames is additionally pushed
/// through MergeSerializedState on one server of every mechanism
/// family.
int FuzzDecodeEnvelope(const uint8_t* data, size_t size);

/// The absorb targets feed the bytes to a server's AbsorbSerialized and
/// AbsorbBatchSerialized, and the batch result must match the typed
/// reference on a twin server — Parse*ReportBatch, then per-report
/// Absorb: the same ParseError, accepted count, counters and
/// SerializeState() bytes.

/// FlatHrrServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize.
int FuzzFlatAbsorb(const uint8_t* data, size_t size);

/// HaarHrrServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize.
int FuzzHaarAbsorb(const uint8_t* data, size_t size);

/// TreeHrrServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize.
int FuzzTreeAbsorb(const uint8_t* data, size_t size);

/// AheadServer across both phase eras: single and batch ingest before
/// BuildTree (phase-1 era), again after (phase-2 era), ParseAheadTree
/// totality, then Finalize + query.
int FuzzAheadAbsorb(const uint8_t* data, size_t size);

/// MultiDimServer::AbsorbSerialized + AbsorbBatchSerialized + Finalize +
/// box query, plus totality of the multidim report/batch/query parsers.
int FuzzMultiDimAbsorb(const uint8_t* data, size_t size);

/// AggregatorService fed the bytes as a concatenated inbound message
/// stream (stream begin/chunk/end, query requests, junk): session
/// bookkeeping must stay consistent, every enqueued chunk must drain,
/// and both hosted servers must still finalize and answer a wire query
/// with a parseable, non-NaN response.
int FuzzStreamSession(const uint8_t* data, size_t size);

/// The incremental HRR state decoder against its in-memory restore.
/// Input: [server u8][n u8][n piece bytes][state body]. The body goes to
/// a flat (D=64), haar (D=64) or tree (D=128, B=4) server, chosen by the
/// first byte, once whole (RestoreShard) and once through
/// HrrStateDecoder in pieces of (piece byte + 1) bytes, cycled: both
/// must reach the same verdict and the same restored SerializeState()
/// bytes. When the body's length opens a snapshot intake, the frame
/// landed in the same pieces through AggregatorService::OpenStateIntake
/// must also give the buffered push's ack, counters and merged state.
int FuzzStateIntake(const uint8_t* data, size_t size);

}  // namespace ldp::fuzz

#endif  // LDPRANGE_FUZZ_FUZZ_TARGETS_H_
