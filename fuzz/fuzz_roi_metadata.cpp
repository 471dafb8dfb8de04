// Fuzz target: roi::RoiMetadata::parse over arbitrary bytes.
//
// The sidecar parser feeds the edge-side RoI gate, so it must be a total
// function (parse returns nullopt, never UB/crash/unbounded allocation)
// AND a bijection on its accepted set: serialize(parse(b)) == b for every
// accepted b. The fix-point is what the gated-serving digest check rests
// on — if two byte strings parsed to the same metadata, a spoofed sidecar
// could re-encode to a colliding digest. Any accepted parse is also
// driven through the downstream accessors the gate uses.
//
// Seed corpus: fuzz/corpus/roi_metadata, real sidecars from gen_corpus.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "fuzz_driver.h"
#include "roi/metadata.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace dive;

  const std::span<const std::uint8_t> bytes(data, size);
  const auto meta = roi::RoiMetadata::parse(bytes);
  if (!meta) return 0;

  // Fix-point: an accepted wire form is canonical, so re-serializing the
  // parsed value must reproduce the input byte-for-byte.
  const std::vector<std::uint8_t> again = meta->serialize();
  if (again.size() != bytes.size() ||
      !std::equal(again.begin(), again.end(), bytes.begin()))
    std::abort();

  // And parsing the re-serialized bytes must accept and agree (decode →
  // encode → decode fix-point).
  const auto meta2 = roi::RoiMetadata::parse(again);
  if (!meta2 || !(*meta2 == *meta)) std::abort();

  // Exercise the consumers the gate touches on the hot path.
  (void)meta->width();
  (void)meta->height();
  for (const auto& region : meta->regions) (void)region.hull_px();
  return 0;
}
