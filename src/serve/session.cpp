#include "serve/session.h"

#include <stdexcept>

#include "util/rng.h"

namespace dive::serve {

Session::Session(std::uint32_t id, SessionConfig config,
                 std::shared_ptr<net::Uplink> uplink,
                 const edge::ServerConfig& server_config,
                 std::uint64_t node_seed)
    : id_(id),
      config_(config),
      uplink_(std::move(uplink)),
      server_(server_config, util::Rng(node_seed).fork(id).seed(),
              config.roi_gate) {
  if (uplink_ == nullptr) throw std::invalid_argument("Session: null uplink");
}

void Session::on_dispatched() {
  if (queued_ == 0) throw std::logic_error("Session: dispatch without admit");
  --queued_;
}

}  // namespace dive::serve
