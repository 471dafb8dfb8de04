#include "baselines/keyframe_scheme.h"

#include <algorithm>

#include "video/image_ops.h"

namespace dive::baselines {

namespace {

/// Upload every Nth frame as a key frame.
constexpr int kKeyframeInterval = 6;
/// Additional trigger: a key frame is also forced when the mean |luma
/// diff| between consecutive frames spikes above this (scene change).
constexpr double kDiffTrigger = 20.0;

}  // namespace

KeyframeScheme::KeyframeScheme(KeyframeSchemeConfig config,
                               codec::EncoderConfig encoder_config,
                               std::shared_ptr<net::Uplink> uplink,
                               std::shared_ptr<edge::EdgeServer> server)
    : config_(config),
      encoder_(encoder_config),
      tracker_searcher_(encoder_config.search),
      uplink_(std::move(uplink)),
      server_(std::move(server)),
      bandwidth_(config.bandwidth),
      tracker_(config.tracker) {}

bool KeyframeScheme::is_keyframe(const video::Frame& frame) const {
  if (!has_keyframe_) return true;
  if (frame_index_ - last_keyframe_index_ >= kKeyframeInterval)
    return true;
  // Scene-change trigger on the consecutive-frame difference.
  return has_previous_ && video::mean_abs_diff_y(frame, previous_raw_) >
                              kDiffTrigger;
}

void KeyframeScheme::adopt_ready_results(util::SimTime now) {
  while (!pending_.empty() && pending_.front().available_at <= now) {
    PendingResult ready = std::move(pending_.front());
    pending_.pop_front();
    // Fast-forward the key frame's detections through the motion of the
    // frames captured while the result was in flight.
    edge::DetectionList dets = std::move(ready.detections);
    for (const auto& [idx, field] : field_history_) {
      if (idx <= ready.keyframe_index) continue;
      dets = tracker_.track(dets, field, field.mb_cols * codec::kMacroblockSize,
                            field.mb_rows * codec::kMacroblockSize);
    }
    current_ = std::move(dets);
    // History up to this key frame is no longer needed.
    while (!field_history_.empty() &&
           field_history_.front().first <= ready.keyframe_index)
      field_history_.pop_front();
  }
}

core::FrameOutcome KeyframeScheme::process_frame(const video::Frame& frame,
                                                 util::SimTime capture_time) {
  core::FrameOutcome outcome;

  // Per-frame motion field on raw frames (for local tracking).
  codec::MotionField field;
  if (has_previous_) {
    field = tracker_searcher_.search_frame(frame.y, previous_raw_.y);
    field_history_.emplace_back(frame_index_, field);
    if (field_history_.size() > 64) field_history_.pop_front();
    // Advance the live result to this frame...
    if (!current_.empty())
      current_ = tracker_.track(current_, field, frame.width(), frame.height());
  }
  // ...then replace it if a fresher edge result has landed (it is
  // fast-forwarded through the same history, ending at this frame too).
  adopt_ready_results(capture_time + config_.latencies.local_track);

  const bool keyframe = is_keyframe(frame);
  util::SimTime keyframe_result_at = 0;
  if (keyframe) {
    // Budget: the bandwidth accumulated since the previous key frame,
    // capped at what the head-of-line timeout can actually deliver (a
    // bigger key frame would be dropped mid-flight).
    const double budget_rate = bandwidth_.target_bytes_per_sec(capture_time);
    const long spacing =
        has_keyframe_
            ? std::clamp(frame_index_ - last_keyframe_index_, 1L,
                         static_cast<long>(kKeyframeInterval))
            : kKeyframeInterval;
    const double spacing_budget =
        budget_rate * static_cast<double>(spacing) / config_.fps;
    const double deliverable =
        budget_rate * util::to_seconds(uplink_->config().head_timeout) * 0.7;
    const auto budget = static_cast<std::size_t>(
        std::max(1.0, std::min(spacing_budget, deliverable)));
    codec::EncodedFrame encoded = encode_keyframe(frame, budget);
    outcome.base_qp = encoded.base_qp;

    const util::SimTime ready = capture_time + config_.latencies.encode;
    const net::TransmitResult tx = uplink_->transmit_with_timeout(
        static_cast<double>(encoded.bytes()), ready);
    if (tx.delivered) {
      outcome.bytes_sent = encoded.bytes();
      bandwidth_.add_transmission(static_cast<double>(encoded.bytes()),
                                  tx.started, tx.sent_complete);
      edge::InferenceResult inference =
          server_->process(encoded.data, tx.arrival);
      PendingResult pr;
      pr.detections = std::move(inference.detections);
      pr.available_at =
          adjust_result_time(inference.result_at_agent, tx.arrival);
      pr.keyframe_index = frame_index_;
      keyframe_result_at = pr.available_at;
      pending_.push_back(std::move(pr));
    } else {
      // Keyframe lost to an outage; the decoder never saw it, so force
      // the next upload to stand alone.
      encoder_.request_intra();
    }
    last_keyframe_index_ = frame_index_;
    has_keyframe_ = true;
  }

  outcome.detections = current_;
  // Response time: a delivered key frame's own inference result defines
  // its response (the paper's metric); tracked frames answer locally.
  if (keyframe_result_at > 0) {
    outcome.offloaded = true;
    outcome.response_time = keyframe_result_at - capture_time;
  } else {
    outcome.offloaded = false;
    outcome.response_time = config_.latencies.local_track +
                            (keyframe ? config_.latencies.encode : 0);
  }

  previous_raw_ = frame;
  has_previous_ = true;
  ++frame_index_;
  return outcome;
}

}  // namespace dive::baselines
