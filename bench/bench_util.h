// Shared plumbing for the figure benches: env-scalable dataset sizes and
// consistent headers.
#pragma once

#include <cstdio>

#include "data/dataset.h"
#include "harness/experiment.h"
#include "util/env.h"
#include "util/table.h"

namespace dive::bench {

/// Dataset sized for a bench run; DIVE_BENCH_CLIPS / DIVE_BENCH_FRAMES
/// override the defaults (the paper-scale runs use larger values).
inline data::DatasetSpec scaled(data::DatasetSpec spec, int default_clips,
                                int default_frames) {
  spec.clip_count = util::env_int("DIVE_BENCH_CLIPS", default_clips);
  spec.frames_per_clip = util::env_int("DIVE_BENCH_FRAMES", default_frames);
  return spec;
}

inline void print_header(const char* id, const char* paper_summary) {
  std::printf("==============================================================\n");
  std::printf("%s\n", id);
  std::printf("paper: %s\n", paper_summary);
  std::printf("==============================================================\n");
}

}  // namespace dive::bench
