// One mobile agent's state on the edge node. A session owns the per-agent
// EdgeServer (its decoder and RoI gate state, so the serving layer shares
// the latency constants, gate policy and jitter contract with the
// single-agent model) and the agent's uplink; the admission controller
// charges queued frames against it.
//
// Lifecycle: ServeNode::open_session() creates the session and seeds its
// server with util::Rng(node_seed).fork(id), so every session draws
// inference jitter from an independent stream and its results do not
// depend on how the scheduler interleaves it with other sessions (see the
// determinism contract in edge/server.h). Sessions live for the duration
// of the node; an agent that stops submitting simply leaves an idle
// session behind.
#pragma once

#include <cstdint>
#include <memory>

#include "edge/server.h"
#include "net/uplink.h"
#include "util/sim_clock.h"

namespace dive::serve {

struct SessionConfig {
  /// End-to-end deadline (capture -> result at the agent) the admission
  /// controller enforces; a frame predicted to miss it is not admitted.
  util::SimTime deadline = util::from_millis(400.0);
  /// RoI gating policy of the per-session EdgeServer (active only for
  /// frames submitted with sidecar metadata).
  edge::RoiGateConfig roi_gate;
};

class Session {
 public:
  Session(std::uint32_t id, SessionConfig config,
          std::shared_ptr<net::Uplink> uplink,
          const edge::ServerConfig& server_config, std::uint64_t node_seed);

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }
  [[nodiscard]] net::Uplink& uplink() { return *uplink_; }
  /// The node decodes and plans through it at submission and runs it at
  /// dispatch, both in per-session frame order, so gated results are
  /// schedule-independent.
  [[nodiscard]] edge::EdgeServer& server() { return server_; }
  [[nodiscard]] const edge::EdgeServer& server() const { return server_; }

  /// Frames currently admitted but not yet dispatched to a worker — the
  /// quantity the admission controller bounds.
  [[nodiscard]] std::size_t queue_depth() const { return queued_; }
  void on_admitted() { ++queued_; }
  void on_dispatched();

 private:
  std::uint32_t id_;
  SessionConfig config_;
  std::shared_ptr<net::Uplink> uplink_;
  edge::EdgeServer server_;
  std::size_t queued_ = 0;
};

}  // namespace dive::serve
