// Fig. 13: effectiveness of Motion-vector-based Offline Tracking (MOT)
// under periodic link outages: 1 s interruptions every 5/10/15/20 s at
// 2 Mbps, with MOT enabled vs disabled. MOT should recover most of the
// accuracy lost during outages (paper: +12.8% / +8.6% mAP at 5 s).
#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace dive;
  bench::print_header(
      "Fig. 13: mAP with and without offline tracking under outages",
      "MOT recovers accuracy; +12.8%/+8.6% mAP at 5 s intervals");

  // Clips must span more than the largest outage interval (20 s), or all
  // intervals degenerate to "one outage per clip".
  const double clip_seconds =
      util::env_int("DIVE_BENCH_SECONDS", 23);
  data::DatasetSpec specs[] = {
      bench::scaled(data::robotcar_like(), 1, 72),
      bench::scaled(data::nuscenes_like(), 1, 72),
  };
  for (auto& spec : specs) {
    spec.frames_per_clip = std::max(
        spec.frames_per_clip, static_cast<int>(clip_seconds * spec.fps));
  }

  for (const auto& spec : specs) {
    const auto clips = data::generate_dataset(spec);
    util::TextTable t(std::string("Fig. 13 on ") + data::to_string(spec.kind));
    t.set_header({"outage interval", "mAP w/ MOT", "mAP w/o MOT", "gain"});
    for (double interval : {5.0, 10.0, 15.0, 20.0}) {
      harness::NetworkScenario net;
      net.mbps = 2.0;
      net.outage_interval_s = interval;
      net.outage_duration_s = 1.0;
      net.first_outage_s = 2.0;
      net.head_timeout = util::from_millis(250.0);

      harness::SchemeOptions with_mot;
      with_mot.enable_offline_tracking = true;
      const auto on = harness::run_experiment(harness::SchemeKind::kDive,
                                              clips, net, with_mot);
      harness::SchemeOptions without_mot;
      without_mot.enable_offline_tracking = false;
      const auto off = harness::run_experiment(harness::SchemeKind::kDive,
                                               clips, net, without_mot);
      t.add_row({util::TextTable::fmt(interval, 0) + " s",
                 util::TextTable::fmt(on.map, 3),
                 util::TextTable::fmt(off.map, 3),
                 util::TextTable::fmt_pct(on.map - off.map, 1)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  return 0;
}
