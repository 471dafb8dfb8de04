#include "core/preprocess.h"

namespace dive::core {

PreprocessResult Preprocessor::run(const codec::MotionField& field,
                                   const geom::PinholeCamera& camera) {
  PreprocessResult out;
  if (field.empty()) return out;
  out.mb_cols = field.mb_cols;
  out.mb_rows = field.mb_rows;
  out.eta = field.nonzero_ratio();
  out.agent_moving = out.eta > kEtaThreshold;

  if (out.agent_moving) {
    if (const auto est = rotation_estimator_.estimate(field, camera)) {
      out.rotation_valid = true;
      out.rotation = est->rotation;
    }
  }

  out.mvs.reserve(field.size());
  for (int row = 0; row < field.mb_rows; ++row) {
    for (int col = 0; col < field.mb_cols; ++col) {
      CorrectedMv c;
      c.col = col;
      c.row = row;
      c.position = camera.to_centered(field.mb_center(col, row));
      c.raw = field.at(col, row).as_vec2();
      c.nonzero = !field.at(col, row).is_zero();
      c.corrected =
          out.rotation_valid
              ? c.raw - rotational_mv(c.position, out.rotation, camera.focal())
              : c.raw;
      out.mvs.push_back(c);
    }
  }
  return out;
}

}  // namespace dive::core
