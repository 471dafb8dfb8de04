// The benchmark's workloads (README.md explains why each exists):
//   robotcar_t1         one DiVE agent, RobotCar-like clips, 1 encoder thread
//   nuscenes_outage_t2  one DiVE agent, nuScenes-like clips, 2 encoder
//                       threads, uplink outages, RoI lane
//   serve24_roi         24 sessions on one serve::ServeNode, RoI lane
#pragma once

#include "report.h"

namespace perfbench {

/// Runs an agent workload; false when `args.workload` names none.
bool run_agent_workload(const RunArgs& args, Report& report);

/// Runs the serving workload; false when `args.workload` names another.
bool run_serve_workload(const RunArgs& args, Report& report);

}  // namespace perfbench
