#include "net/network.h"

#include <cassert>

#include "common/check.h"
#include "common/logging.h"

namespace kd::net {

namespace {
std::pair<std::string, std::string> NormalizedPair(const std::string& a,
                                                   const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

// Shared state of one established connection. Lives as long as either
// side holds its ConnHandle (or a delivery event is in flight).
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(Network& network, std::string addr0, std::string addr1)
      : network_(network) {
    sides_[0].address = std::move(addr0);
    sides_[1].address = std::move(addr1);
  }

  bool open() const { return open_; }
  const std::string& address(int side) const { return sides_[side].address; }

  Status Send(int from_side, Frame frame) {
    if (!open_ || sides_[from_side].closed_seen) {
      return UnavailableError("connection closed");
    }
    network_.AccountSend(frame.bytes());
    const NetworkConfig& cfg = network_.config();
    Duration wire = cfg.latency;
    if (cfg.bytes_per_second > 0) {
      wire += SecondsF(static_cast<double>(frame.bytes()) /
                       cfg.bytes_per_second);
    }
    sim::Engine& engine = network_.engine();
    Side& to = sides_[1 - from_side];
    Time deliver_at = engine.now() + wire;
    // FIFO per direction: never deliver before an earlier message.
    if (deliver_at < to.next_delivery_time) deliver_at = to.next_delivery_time;
    to.next_delivery_time = deliver_at;

    // Sanctioned seam: delivery executes in the receiving endpoint's
    // lane. The receiver lane is resolved at send time; the
    // LaneScope below re-resolves at delivery for the checker, which
    // yields the same lane for any registered endpoint (same address
    // <=> same lane name).
    Endpoint* to_ep = network_.Find(to.address);
    const LaneId to_lane = to_ep != nullptr ? to_ep->lane() : kNoLane;
    auto weak = weak_from_this();
    const int to_side = 1 - from_side;
    engine.ScheduleSeamAt(
        to_lane, deliver_at,
        [weak, to_side, frame = std::move(frame)]() mutable {
          auto conn = weak.lock();
          if (!conn || !conn->open_) return;  // dropped in flight
          Side& side = conn->sides_[to_side];
          if (side.closed_seen) return;
          Network& net = conn->network_;
          Endpoint* ep = net.Find(side.address);
          sim::LaneScope lane_scope(net.engine().lane_checker(),
                                    ep != nullptr ? ep->lane() : kNoLane);
          if (side.on_message) side.on_message(std::move(frame));
        });
    return OkStatus();
  }

  void SetOnMessage(int side, std::function<void(Frame)> cb) {
    sides_[side].on_message = std::move(cb);
  }
  void SetOnDisconnect(int side, std::function<void()> cb) {
    sides_[side].on_disconnect = std::move(cb);
  }

  // Closes the connection. Each side observes the close after its given
  // delay (<0 means "never notify", used for crashed processes whose
  // callbacks must not fire).
  void Close(Duration notify_delay_side0, Duration notify_delay_side1) {
    if (!open_) return;
    open_ = false;
    NotifySide(0, notify_delay_side0);
    NotifySide(1, notify_delay_side1);
  }

  bool side_closed(int side) const { return sides_[side].closed_seen; }

  // Active close by `side`: that side observes the close immediately,
  // the peer after one-way latency (FIN propagation).
  void CloseFrom(int side) {
    const Duration peer_delay = network_.config().latency;
    if (side == 0) {
      Close(/*side0=*/0, /*side1=*/peer_delay);
    } else {
      Close(/*side0=*/peer_delay, /*side1=*/0);
    }
  }

 private:
  void NotifySide(int side, Duration delay) {
    if (delay < 0) {
      sides_[side].closed_seen = true;  // silent: crashed process
      return;
    }
    // Seam to the notified side's lane; an active local close
    // (delay 0) targets the closer's own lane.
    Endpoint* side_ep = network_.Find(sides_[side].address);
    const LaneId side_lane = side_ep != nullptr ? side_ep->lane() : kNoLane;
    auto weak = weak_from_this();
    network_.engine().ScheduleSeamAfter(side_lane, delay, [weak, side] {
      auto conn = weak.lock();
      if (!conn) return;
      Side& s = conn->sides_[side];
      if (s.closed_seen) return;
      s.closed_seen = true;
      Network& net = conn->network_;
      Endpoint* ep = net.Find(s.address);
      sim::LaneScope lane_scope(net.engine().lane_checker(),
                                ep != nullptr ? ep->lane() : kNoLane);
      if (s.on_disconnect) s.on_disconnect();
    });
  }

  struct Side {
    std::string address;
    std::function<void(Frame)> on_message;
    std::function<void()> on_disconnect;
    bool closed_seen = false;
    Time next_delivery_time = 0;
  };

  Network& network_;
  Side sides_[2];
  bool open_ = true;
};

// --- Frame -----------------------------------------------------------

const std::string& Frame::text() const {
  static const std::string kEmpty;
  const std::string* text = std::any_cast<std::string>(&body_);
  return text != nullptr ? *text : kEmpty;
}

// --- ConnHandle ------------------------------------------------------

ConnHandle::ConnHandle(std::shared_ptr<Connection> conn, int side)
    : conn_(std::move(conn)), side_(side) {}

bool ConnHandle::connected() const {
  return conn_->open() && !conn_->side_closed(side_);
}
const std::string& ConnHandle::local_address() const {
  return conn_->address(side_);
}
const std::string& ConnHandle::peer_address() const {
  return conn_->address(1 - side_);
}
Status ConnHandle::Send(Frame frame) {
  return conn_->Send(side_, std::move(frame));
}
void ConnHandle::set_on_message(std::function<void(Frame)> cb) {
  conn_->SetOnMessage(side_, std::move(cb));
}
void ConnHandle::set_on_disconnect(std::function<void()> cb) {
  conn_->SetOnDisconnect(side_, std::move(cb));
}
void ConnHandle::Close() {
  // Local side sees the close now; the peer after one-way latency.
  conn_->CloseFrom(side_);
}

// --- Network ---------------------------------------------------------

Network::Network(sim::Engine& engine, NetworkConfig config)
    : engine_(engine), config_(config) {}

void Network::Register(Endpoint* endpoint) {
  auto [it, inserted] = endpoints_.emplace(endpoint->address(), endpoint);
  (void)it;
  KD_CHECK(inserted, "duplicate endpoint address");
}

void Network::Unregister(Endpoint* endpoint) {
  endpoints_.erase(endpoint->address());
}

Endpoint* Network::Find(const std::string& address) const {
  auto it = endpoints_.find(address);
  return it == endpoints_.end() ? nullptr : it->second;
}

bool Network::Reachable(const std::string& a, const std::string& b) const {
  return partitions_.count(NormalizedPair(a, b)) == 0;
}

void Network::Partition(const std::string& a, const std::string& b) {
  partitions_.insert(NormalizedPair(a, b));
  // Existing connections between the pair die; both sides detect the
  // loss after the keepalive timeout.
  for (auto it = connections_.begin(); it != connections_.end();) {
    auto conn = it->lock();
    if (!conn) {
      it = connections_.erase(it);
      continue;
    }
    const bool matches = (conn->address(0) == a && conn->address(1) == b) ||
                         (conn->address(0) == b && conn->address(1) == a);
    if (matches && conn->open()) {
      conn->Close(config_.disconnect_detect_delay,
                  config_.disconnect_detect_delay);
    }
    ++it;
  }
}

void Network::Heal(const std::string& a, const std::string& b) {
  partitions_.erase(NormalizedPair(a, b));
}

std::uint64_t Network::crash_epoch(const std::string& address) const {
  auto it = crash_epochs_.find(address);
  return it == crash_epochs_.end() ? 0 : it->second;
}

void Network::CrashEndpoint(const std::string& address) {
  ++crash_epochs_[address];
  for (auto it = connections_.begin(); it != connections_.end();) {
    auto conn = it->lock();
    if (!conn) {
      it = connections_.erase(it);
      continue;
    }
    if (conn->open() &&
        (conn->address(0) == address || conn->address(1) == address)) {
      // The crashed side is never notified (its process is gone); the
      // survivor notices after the keepalive timeout.
      const Duration d0 = conn->address(0) == address
                              ? Duration{-1}
                              : config_.disconnect_detect_delay;
      const Duration d1 = conn->address(1) == address
                              ? Duration{-1}
                              : config_.disconnect_detect_delay;
      conn->Close(d0, d1);
    }
    ++it;
  }
}

// --- Endpoint --------------------------------------------------------

Endpoint::Endpoint(Network& network, std::string address)
    : network_(network), address_(std::move(address)) {
  network_.Register(this);
}

Endpoint::~Endpoint() { network_.Unregister(this); }

void Endpoint::Listen(std::function<void(ConnHandlePtr)> on_accept) {
  on_accept_ = std::move(on_accept);
}

void Endpoint::Connect(const std::string& to,
                       std::function<void(StatusOr<ConnHandlePtr>)> done) {
  const std::string from = address_;
  Network& net = network_;
  // SYN travels one way; the accept + SYN-ACK another. Failures are
  // reported after the keepalive timeout, like a real connect timeout.
  // Either endpoint crashing while the handshake is in flight
  // invalidates it (observed via the crash epochs): the connector's
  // own crash silences the callback (its process is gone); the
  // target's crash times the connect out instead of leaving a
  // half-open connection to a dead process.
  const std::uint64_t from_epoch = net.crash_epoch(from);
  const std::uint64_t to_epoch = net.crash_epoch(to);
  // The SYN lands in the target's lane. An unregistered target
  // resolves to kNoLane; the closure re-checks liveness.
  Endpoint* syn_target = net.Find(to);
  const LaneId syn_lane = syn_target != nullptr ? syn_target->lane() : kNoLane;
  net.engine_.ScheduleSeamAfter(syn_lane, net.config_.latency,
                                [&net, from, to, from_epoch, to_epoch,
                                 done = std::move(done)]() {
    if (net.crash_epoch(from) != from_epoch) return;  // connector died
    Endpoint* target = net.Find(to);
    Endpoint* connector = net.Find(from);
    const LaneId from_lane = connector != nullptr ? connector->lane() : kNoLane;
    if (target == nullptr || !target->listening() ||
        !net.Reachable(from, to) || net.crash_epoch(to) != to_epoch) {
      // Connect-timeout report travels back to the connector's lane.
      net.engine_.ScheduleSeamAfter(
          from_lane, net.config_.disconnect_detect_delay,
          [&net, done = std::move(done), from, from_epoch, to] {
            if (net.crash_epoch(from) != from_epoch) return;
            Endpoint* self = net.Find(from);
            sim::LaneScope lane_scope(
                net.engine_.lane_checker(),
                self != nullptr ? self->lane() : kNoLane);
            done(UnavailableError("connect to " + to + " failed"));
          });
      return;
    }
    auto conn = std::make_shared<Connection>(net, from, to);
    net.connections_.insert(conn);
    auto server_handle = std::make_shared<ConnHandle>(conn, 1);
    {
      sim::LaneScope lane_scope(net.engine_.lane_checker(), target->lane());
      target->on_accept_(server_handle);
    }
    // SYN-ACK: back to the connector's lane after one-way latency.
    net.engine_.ScheduleSeamAfter(from_lane, net.config_.latency,
                                  [&net, conn, from, from_epoch, to,
                                   done = std::move(done)]() {
      if (net.crash_epoch(from) != from_epoch) return;  // connector died
      Endpoint* self = net.Find(from);
      sim::LaneScope lane_scope(net.engine_.lane_checker(),
                                self != nullptr ? self->lane() : kNoLane);
      if (!conn->open() || !net.Reachable(from, to)) {
        done(UnavailableError("connection lost during setup"));
        return;
      }
      done(std::make_shared<ConnHandle>(conn, 0));
    });
  });
}

void Endpoint::CloseAll() { network_.CrashEndpoint(address_); }

}  // namespace kd::net
