#include "apiserver/client.h"

#include <algorithm>
#include <iterator>
#include <optional>

namespace kd::apiserver {

ApiClient::ApiClient(sim::Engine& engine, ApiServer& server,
                     std::string client_name, double qps, double burst,
                     MetricsRecorder* metrics, RetryPolicy retry)
    : engine_(engine),
      shards_{&server},
      router_(1),
      name_(std::move(client_name)),
      limiter_(engine, qps, burst),
      tracker_(metrics, name_ + ".active"),
      metrics_(metrics),
      retry_(retry) {}

ApiClient::ApiClient(sim::Engine& engine, ControlPlane& plane,
                     std::string client_name, double qps, double burst,
                     MetricsRecorder* metrics, RetryPolicy retry)
    : engine_(engine),
      router_(plane.router()),
      name_(std::move(client_name)),
      limiter_(engine, qps, burst),
      tracker_(metrics, name_ + ".active"),
      metrics_(metrics),
      retry_(retry) {
  shards_.reserve(static_cast<std::size_t>(plane.num_shards()));
  for (int i = 0; i < plane.num_shards(); ++i) {
    shards_.push_back(&plane.shard(i));
  }
}

void ApiClient::CountFault(const char* which) {
  if (metrics_ == nullptr) return;
  metrics_->Count("client." + name_ + "." + which);
}

Duration ApiClient::BackoffDelay(int attempt) {
  // attempt is 1-based: the delay before retry n doubles from
  // initial_backoff, capped at max_backoff.
  Duration base = retry_.initial_backoff;
  for (int i = 1; i < attempt && base < retry_.max_backoff; ++i) base *= 2;
  if (base > retry_.max_backoff) base = retry_.max_backoff;
  // Deterministic jitter from the engine's seeded stream (kdlint R1).
  const double factor =
      1.0 + retry_.jitter * (2.0 * engine_.rng().UniformDouble() - 1.0);
  Duration delay =
      static_cast<Duration>(static_cast<double>(base) * factor);
  return delay < 0 ? 0 : delay;
}

void ApiClient::Dispatch(ApiServer* target, std::size_t request_bytes,
                         std::function<void()> send) {
  limiter_.Acquire([this, target, request_bytes,
                    send = std::move(send)]() mutable {
    ++calls_issued_;
    const CostModel& cost = shards_.front()->cost();
    const Duration client_ser = static_cast<Duration>(
        static_cast<double>(request_bytes) * cost.serialize_ns_per_byte);
    // Uplink seam: the handler runs in the server's lane.
    engine_.ScheduleSeamAfter(target->lane(),
                              client_ser + cost.api_network_latency,
                              std::move(send));
  });
}

void ApiClient::Create(model::ApiObject obj,
                       std::function<void(StatusOr<model::ApiObject>)> done) {
  tracker_.Inc(engine_.now());
  auto finish = [this, done = std::move(done)](
                    StatusOr<model::ApiObject> r) {
    tracker_.Dec(engine_.now());
    done(std::move(r));
  };
  const std::size_t bytes = obj.SerializedSize();
  // Route once: the key is immutable, so every retry goes to the same
  // shard (the one that owns this slice of the keyspace).
  ApiServer* target = &ShardForKey(obj.Key());
  std::function<void(std::function<void(StatusOr<model::ApiObject>)>)>
      issue = [this, target, bytes, obj = std::move(obj)](
                  std::function<void(StatusOr<model::ApiObject>)> cb) {
        Dispatch(target, bytes, [this, target, obj, cb = std::move(cb)]() mutable {
          target->HandleCreate(name_, obj, std::move(cb));
        });
      };
  RetryCall<StatusOr<model::ApiObject>>(std::move(issue), std::move(finish),
                                        1);
}

void ApiClient::Update(model::ApiObject obj,
                       std::function<void(StatusOr<model::ApiObject>)> done) {
  tracker_.Inc(engine_.now());
  auto finish = [this, done = std::move(done)](
                    StatusOr<model::ApiObject> r) {
    tracker_.Dec(engine_.now());
    done(std::move(r));
  };
  const std::size_t bytes = obj.SerializedSize();
  ApiServer* target = &ShardForKey(obj.Key());
  std::function<void(std::function<void(StatusOr<model::ApiObject>)>)>
      issue = [this, target, bytes, obj = std::move(obj)](
                  std::function<void(StatusOr<model::ApiObject>)> cb) {
        Dispatch(target, bytes, [this, target, obj, cb = std::move(cb)]() mutable {
          target->HandleUpdate(name_, obj, std::move(cb));
        });
      };
  RetryCall<StatusOr<model::ApiObject>>(std::move(issue), std::move(finish),
                                        1);
}

void ApiClient::Delete(const std::string& kind, const std::string& name,
                       std::function<void(Status)> done) {
  tracker_.Inc(engine_.now());
  auto finish = [this, done = std::move(done)](Status s) {
    tracker_.Dec(engine_.now());
    done(std::move(s));
  };
  ApiServer* target = &ShardForKey(model::ApiObject::MakeKey(kind, name));
  std::function<void(std::function<void(Status)>)> issue =
      [this, target, kind, name](std::function<void(Status)> cb) {
        Dispatch(target, kind.size() + name.size() + 64,
                 [this, target, kind, name, cb = std::move(cb)]() mutable {
                   target->HandleDelete(name_, kind, name, std::move(cb));
                 });
      };
  RetryCall<Status>(std::move(issue), std::move(finish), 1);
}

void ApiClient::Get(const std::string& kind, const std::string& name,
                    std::function<void(StatusOr<model::ApiObject>)> done) {
  ApiServer* target = &ShardForKey(model::ApiObject::MakeKey(kind, name));
  std::function<void(std::function<void(StatusOr<model::ApiObject>)>)>
      issue = [this, target, kind, name](
                  std::function<void(StatusOr<model::ApiObject>)> cb) {
        Dispatch(target, kind.size() + name.size() + 64,
                 [this, target, kind, name, cb = std::move(cb)]() mutable {
                   target->HandleGet(name_, kind, name, std::move(cb));
                 });
      };
  RetryCall<StatusOr<model::ApiObject>>(std::move(issue), std::move(done), 1);
}

void ApiClient::List(
    const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>)> done) {
  ListAt(kind, [done = std::move(done)](
                   StatusOr<std::vector<model::ApiObject>> objects,
                   std::uint64_t) mutable { done(std::move(objects)); });
}

void ApiClient::ListShard(
    int shard, const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>)> done) {
  ListShardAt(shard, kind,
              [done = std::move(done)](
                  StatusOr<std::vector<model::ApiObject>> objects,
                  std::uint64_t) mutable { done(std::move(objects)); });
}

namespace {
// The retry driver is single-result; carry the revision alongside by
// pairing it into the result the driver sees.
struct ListResult {
  StatusOr<std::vector<model::ApiObject>> objects;
  std::uint64_t revision;
  StatusCode RetryCode() const {
    return objects.ok() ? StatusCode::kOk : objects.status().code();
  }
};
}  // namespace

void ApiClient::ListShardAt(
    int shard, const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>,
                       std::uint64_t)>
        done) {
  ApiServer* target = shards_[static_cast<std::size_t>(shard)];
  std::function<void(std::function<void(ListResult)>)> issue =
      [this, target, kind](std::function<void(ListResult)> cb) {
        Dispatch(target, kind.size() + 64,
                 [this, target, kind, cb = std::move(cb)]() mutable {
                   target->HandleListAt(
                       name_, kind,
                       [cb = std::move(cb)](
                           StatusOr<std::vector<model::ApiObject>> objects,
                           std::uint64_t revision) mutable {
                         cb(ListResult{std::move(objects), revision});
                       });
                 });
      };
  RetryCall<ListResult>(
      std::move(issue),
      [done = std::move(done)](ListResult r) mutable {
        done(std::move(r.objects), r.revision);
      },
      1);
}

void ApiClient::ListAt(
    const std::string& kind,
    std::function<void(StatusOr<std::vector<model::ApiObject>>,
                       std::uint64_t)>
        done) {
  if (shards_.size() == 1) {
    // Unsharded fast path: byte-identical to the pre-sharding client.
    ListShardAt(0, kind, std::move(done));
    return;
  }
  const int num = static_cast<int>(shards_.size());
  // One attempt = one list against every shard. The fan-out is a
  // single retry unit: if any shard's leg fails at the transport level
  // the whole attempt retries (re-listing a shard is idempotent).
  std::function<void(std::function<void(ListResult)>)> issue =
      [this, kind, num](std::function<void(ListResult)> cb) {
        struct Fan {
          // optional<>: StatusOr is not default-constructible.
          std::vector<std::optional<StatusOr<std::vector<model::ApiObject>>>>
              results;
          std::vector<std::uint64_t> revisions;
          int remaining;
        };
        auto fan = std::make_shared<Fan>();
        fan->results.resize(static_cast<std::size_t>(num));
        fan->revisions.assign(static_cast<std::size_t>(num), 0);
        fan->remaining = num;
        auto cb_shared =
            std::make_shared<std::function<void(ListResult)>>(std::move(cb));
        for (int s = 0; s < num; ++s) {
          ApiServer* target = shards_[static_cast<std::size_t>(s)];
          Dispatch(target, kind.size() + 64, [this, target, kind, s, fan,
                                      cb_shared]() mutable {
            target->HandleListAt(
                name_, kind,
                [s, fan, cb_shared](
                    StatusOr<std::vector<model::ApiObject>> objects,
                    std::uint64_t revision) mutable {
                  fan->results[static_cast<std::size_t>(s)] =
                      std::move(objects);
                  fan->revisions[static_cast<std::size_t>(s)] = revision;
                  if (--fan->remaining > 0) return;
                  // Every shard answered. First failure in shard-index
                  // order wins (deterministic); otherwise merge in
                  // global key order. Revision = max across shards (a
                  // freshness hint only — revisions are per-shard).
                  for (auto& r : fan->results) {
                    if (!r->ok()) {
                      (*cb_shared)(ListResult{r->status(), 0});
                      return;
                    }
                  }
                  std::vector<model::ApiObject> merged;
                  std::uint64_t revision_max = 0;
                  for (std::size_t i = 0; i < fan->results.size(); ++i) {
                    auto& part = fan->results[i]->value();
                    merged.insert(merged.end(),
                                  std::make_move_iterator(part.begin()),
                                  std::make_move_iterator(part.end()));
                    revision_max =
                        std::max(revision_max, fan->revisions[i]);
                  }
                  std::sort(merged.begin(), merged.end(),
                            [](const model::ApiObject& a,
                               const model::ApiObject& b) {
                              return a.Key() < b.Key();
                            });
                  (*cb_shared)(
                      ListResult{std::move(merged), revision_max});
                });
          });
        }
      };
  RetryCall<ListResult>(
      std::move(issue),
      [done = std::move(done)](ListResult r) mutable {
        done(std::move(r.objects), r.revision);
      },
      1);
}

}  // namespace kd::apiserver
