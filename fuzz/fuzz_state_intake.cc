// libFuzzer harness for the incremental HRR state decoder and the query
// node's snapshot intake.

#include "fuzz_targets.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  return ldp::fuzz::FuzzStateIntake(data, size);
}
