// Block-matching motion estimation over 16x16 luma macroblocks.
//
// Implements the five x264 search strategies the paper sweeps in Fig. 9
// (DIA, HEX, UMH, TESA, ESA). The pattern searches (DIA/HEX/UMH) start
// from the spatial predictor and pay a rate penalty for straying from it,
// so they produce spatially coherent fields; the exhaustive searches
// chase the global residual minimum, which on aliased or plain texture
// need not be the true motion — exactly the noise source the paper
// observes ("motion estimation methods are designed for obtaining minimal
// residual data but not real object matching").
//
// A sixth method, HME, runs a hierarchical coarse-to-fine pyramid search:
// the luma plane is downsampled 2x per level, a cheap full search at the
// coarsest level covers the entire displacement range, and the top
// candidates are refined at each finer level with the same rate-aware
// `consider` machinery the pattern searches use. HME therefore finds the
// large global displacements only ESA/TESA are guaranteed to reach, at a
// small multiple of HEX's cost, and keeps the predictor bias that makes
// pattern fields spatially coherent.
#pragma once

#include <cstdint>
#include <vector>

#include "codec/ref_planes.h"
#include "codec/sad_kernels.h"
#include "codec/types.h"
#include "video/frame.h"

namespace dive::util {
class ThreadPool;
}

namespace dive::codec {

/// Max |component| of a motion vector in pixels. 24 keeps fast pans
/// (vehicle turns reach ~15-25 px/frame at our focal lengths) inside
/// the window; vectors at the limit are saturated and unreliable.
inline constexpr int kSearchRange = 24;

struct MotionSearchConfig {
  MotionSearchMethod method = MotionSearchMethod::kHex;
  /// SAD kernel policy for the interior 16x16 fast path. kAuto follows
  /// the process-wide dispatch (SIMD when available, see sad_kernels.h);
  /// kScalar pins the canonical scalar kernel. Every kernel returns the
  /// same sums, so the searched field is identical either way. The
  /// differential tests select the scalar reference kernel here.
  SadKernelPolicy sad = SadKernelPolicy::kAuto;  // dive-lint: allow(unset-knob) differential tests
};

/// Downsampled luma pyramid for hierarchical search. levels[0] is the
/// half-resolution plane, levels[1] quarter, ... Each sample is the
/// rounded mean of the 2x2 source quad (odd edges clamp).
struct LumaPyramid {
  std::vector<video::Plane> levels;
};

/// Builds `levels` pyramid planes above `base` (2x downsample each).
LumaPyramid build_pyramid(const video::Plane& base, int levels);

/// Reference definition of a half-pel sample: the reference at half-pel
/// coordinates (hx, hy) = pixel position (hx/2, hy/2), bilinearly
/// averaged on odd components, with reads clamped to the plane border.
/// The codec itself never calls this: it reads references through
/// RefPlanes or mc_predict_u8, which compute exactly these values. It
/// stays as the specification the plane and prediction tests check
/// both against.
int half_pel_sample(const video::Plane& ref, int hx, int hy);

/// Sum of absolute differences between the 16x16 block of `cur` at
/// (cx, cy) and the reference block displaced by `mv` (half-pel units).
/// Full-pel, half-pel and border candidates are all one strided block
/// of `ref`, summed by the dispatched `fast` kernel (null = the
/// process-wide auto dispatch).
std::uint32_t sad_16x16(const video::Plane& cur, const RefPlanes& ref,
                        int cx, int cy, MotionVector mv,
                        Sad16Fn fast = nullptr);

/// Sum of absolute Hadamard-transformed differences (TESA metric), read
/// through `ref` like sad_16x16.
std::uint32_t satd_16x16(const video::Plane& cur, const RefPlanes& ref,
                         int cx, int cy, MotionVector mv);

class MotionSearcher {
 public:
  explicit MotionSearcher(MotionSearchConfig config = {})
      : config_(config), sad_fn_(resolve_sad_fn(config.sad)) {}

  /// The SAD kernel this searcher resolved from its policy.
  [[nodiscard]] Sad16Fn sad_fn() const { return sad_fn_; }

  /// Estimates the motion field of `cur` against reference `ref`
  /// (both luma planes; dimensions must match and be multiples of 16).
  /// Rows are searched independently (the spatial predictor chain resets
  /// per row), so a pool parallelizes over rows with a result that is
  /// bit-identical to the serial field for every thread count. The
  /// padded reference planes every candidate is read through are scratch
  /// of this call: built here, dropped on return.
  [[nodiscard]] MotionField search_frame(const video::Plane& cur,
                                         const video::Plane& ref,
                                         util::ThreadPool* pool = nullptr) const;

 private:
  /// Current/reference pyramids, only populated for kHme. The reference
  /// levels are read through their own padded planes.
  struct PyramidPair {
    LumaPyramid cur;
    LumaPyramid ref;
    std::vector<RefPlanes> ref_planes;  ///< one per ref level
  };

  MotionVector search_block(const video::Plane& cur, const RefPlanes& ref,
                            int cx, int cy, MotionVector pred,
                            std::uint32_t& best_cost,
                            const PyramidPair* pyr) const;

  MotionSearchConfig config_;
  Sad16Fn sad_fn_;  ///< resolved once from config_.sad
};

}  // namespace dive::codec
