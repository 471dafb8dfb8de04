// Fig. 9: effect of the x264 motion-estimation method (DIA/HEX/UMH/TESA/
// ESA) on end-to-end mAP and per-frame motion-estimation time at 2 Mbps.
// The paper picks HEX: mAP on par with UMH at lower cost, while DIA
// under-searches and ESA/TESA chase residual minima that are not true
// motion.
#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "codec/motion_search.h"

int main() {
  using namespace dive;
  bench::print_header(
      "Fig. 9: motion-estimation method vs mAP and time cost (2 Mbps)",
      "HEX/UMH best mAP; HEX cheapest of the two; DIA/ESA/TESA worse");

  const codec::MotionSearchMethod methods[] = {
      codec::MotionSearchMethod::kDia, codec::MotionSearchMethod::kHex,
      codec::MotionSearchMethod::kUmh, codec::MotionSearchMethod::kTesa,
      codec::MotionSearchMethod::kEsa, codec::MotionSearchMethod::kHme};

  const data::DatasetSpec specs[] = {
      bench::scaled(data::robotcar_like(), 1, 24),
      bench::scaled(data::nuscenes_like(), 1, 24),
  };

  for (const auto& spec : specs) {
    const auto clips = data::generate_dataset(spec);
    util::TextTable t(std::string("Fig. 9 on ") + data::to_string(spec.kind));
    t.set_header({"method", "mAP", "AP car", "AP ped", "ME time/frame (ms)"});

    for (const auto method : methods) {
      // Measure pure motion-estimation cost on the raw clip.
      codec::MotionSearcher searcher({.method = method});
      const auto t0 = std::chrono::steady_clock::now();
      int me_frames = 0;
      for (std::size_t i = 1; i < clips[0].frames.size(); i += 6) {
        (void)searcher.search_frame(clips[0].frames[i].image.y,
                                    clips[0].frames[i - 1].image.y);
        ++me_frames;
      }
      const double me_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count() /
                           std::max(1, me_frames);

      harness::NetworkScenario net;
      net.mbps = 2.0;
      harness::SchemeOptions opts;
      opts.search = method;
      const auto r =
          harness::run_experiment(harness::SchemeKind::kDive, clips, net, opts);
      t.add_row({codec::to_string(method), util::TextTable::fmt(r.map, 3),
                 util::TextTable::fmt(r.ap_car, 3),
                 util::TextTable::fmt(r.ap_ped, 3),
                 util::TextTable::fmt(me_ms, 1)});
    }
    std::printf("%s\n", t.to_string().c_str());
  }
  return 0;
}
