// Simulated message-passing network.
//
// Models exactly what the paper's state machine (appendix TLA+ spec)
// assumes about the transport between controllers:
//   - a Connection is an ordered FIFO of in-flight messages
//     (`inflight: Seq(...)`);
//   - disconnecting drops everything in flight and flips
//     `connected` to FALSE on both ends;
//   - reconnection is an explicit higher-level act (the handshake
//     protocol of §4.2), not something the transport does silently.
//
// Latency and bandwidth are charged per message so the benches can
// account for the 64 B KubeDirect messages vs 17 KB full API objects.
// Failure injection (partitions, endpoint crashes) is first class: the
// property tests drive it from a seeded RNG.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/lane.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/time.h"
#include "sim/engine.h"

namespace kd::net {

class Endpoint;
class Connection;

// What one Send carries: a body plus the number of bytes it occupies on
// the wire, which is what latency, bandwidth and accounting charge.
// A text frame (line protocols) is charged its length. A structured
// frame hands the receiver an object of the sender's choosing and is
// charged the length of that object's defined encoding, which the
// sender computes without producing it (the Kd link, see
// kubedirect/link.h).
class Frame {
 public:
  Frame(std::string text) : bytes_(text.size()), body_(std::move(text)) {}
  Frame(const char* text) : Frame(std::string(text)) {}
  template <typename T>
  Frame(T body, std::size_t bytes) : bytes_(bytes), body_(std::move(body)) {}

  std::size_t bytes() const { return bytes_; }
  // The body if it is a T, else null.
  template <typename T>
  T* get() {
    return std::any_cast<T>(&body_);
  }
  // The text of a text frame ("" for a structured one).
  const std::string& text() const;

 private:
  std::size_t bytes_;
  std::any body_;
};

// One side's view of an established bidirectional connection.
class KD_LANE_SEAM ConnHandle {
 public:
  ConnHandle(std::shared_ptr<Connection> conn, int side);

  bool connected() const;
  const std::string& local_address() const;
  const std::string& peer_address() const;

  // Queues `frame` for ordered delivery to the peer. Fails with
  // kUnavailable when the connection is already closed. The message may
  // still be lost if the connection closes before delivery — exactly
  // the TLA+ "inflight dropped on disconnect" semantics.
  Status Send(Frame frame);

  // Delivery callback; invoked in FIFO order per direction.
  void set_on_message(std::function<void(Frame)> cb);
  // Invoked once when the connection transitions to closed (from either
  // side or from a partition).
  void set_on_disconnect(std::function<void()> cb);

  // Actively closes the connection: local side observes the close
  // immediately, the peer after one-way latency. All in-flight messages
  // are dropped.
  void Close();

 private:
  friend class Connection;
  std::shared_ptr<Connection> conn_;
  int side_;
};

using ConnHandlePtr = std::shared_ptr<ConnHandle>;

struct NetworkConfig {
  // One-way propagation latency between any two endpoints.
  Duration latency = Microseconds(50);
  // Serialization onto the wire; 0 disables the bandwidth model.
  double bytes_per_second = 1.25e9;  // 10 Gbps
  // How long the survivor of a partition / remote crash takes to notice
  // the connection died (keepalive timeout).
  Duration disconnect_detect_delay = Milliseconds(5);
};

class KD_LANE_SEAM Network {
 public:
  Network(sim::Engine& engine, NetworkConfig config = {});

  sim::Engine& engine() { return engine_; }
  const NetworkConfig& config() const { return config_; }

  // Endpoint registration (done by Endpoint's constructor/destructor).
  void Register(Endpoint* endpoint);
  void Unregister(Endpoint* endpoint);
  Endpoint* Find(const std::string& address) const;

  // --- Failure injection -------------------------------------------
  // Severs connectivity between the two addresses: existing connections
  // close (each side notified after disconnect_detect_delay) and new
  // Connect attempts fail until Heal().
  void Partition(const std::string& a, const std::string& b);
  void Heal(const std::string& a, const std::string& b);
  bool Reachable(const std::string& a, const std::string& b) const;

  // Closes every connection touching `address`, as if the process
  // crashed. The endpoint itself stays registered so a restarted
  // component can listen/connect again.
  void CrashEndpoint(const std::string& address);

  // Bumped on every CrashEndpoint(address). Connect captures both
  // endpoints' epochs at initiation and validates them when the SYN
  // lands, so a crash while the connect is in flight yields a timeout
  // (or, for the connector's own crash, silence) instead of a
  // half-open connection to a dead process.
  std::uint64_t crash_epoch(const std::string& address) const;

  // --- Accounting ---------------------------------------------------
  MetricsRecorder& metrics() { return metrics_; }
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  friend class Connection;
  friend class Endpoint;

  void AccountSend(std::size_t bytes) {
    ++total_messages_;
    total_bytes_ += bytes;
  }

  sim::Engine& engine_;
  NetworkConfig config_;
  std::map<std::string, Endpoint*> endpoints_;
  std::set<std::pair<std::string, std::string>> partitions_;  // normalized
  std::set<std::weak_ptr<Connection>, std::owner_less<>> connections_;
  std::map<std::string, std::uint64_t> crash_epochs_;
  MetricsRecorder metrics_;
  std::uint64_t total_messages_ = 0;
  std::uint64_t total_bytes_ = 0;
};

// A named attachment point: listens for connections and initiates them.
class KD_LANE_SEAM Endpoint {
 public:
  Endpoint(Network& network, std::string address);
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& address() const { return address_; }
  Network& network() { return network_; }

  // Lane-checker seam: message/disconnect/accept callbacks delivered
  // to this endpoint run re-scoped to its owning component's lane
  // (kNoLane for unwired endpoints — their callbacks stay unchecked).
  void SetLane(LaneId lane) { lane_ = lane; }
  LaneId lane() const { return lane_; }

  // Accept handler for inbound connections; replaces any previous one.
  void Listen(std::function<void(ConnHandlePtr)> on_accept);
  bool listening() const { return static_cast<bool>(on_accept_); }
  void StopListening() { on_accept_ = nullptr; }

  // Initiates a connection to `to`. Completes asynchronously after one
  // round trip; fails with kUnavailable if the target is unreachable,
  // not registered, or not listening.
  void Connect(const std::string& to,
               std::function<void(StatusOr<ConnHandlePtr>)> done);

  // Closes all connections touching this endpoint (crash model).
  void CloseAll();

 private:
  friend class Network;
  friend class Connection;

  Network& network_;
  std::string address_;
  std::function<void(ConnHandlePtr)> on_accept_;
  LaneId lane_ = kNoLane;
};

}  // namespace kd::net
