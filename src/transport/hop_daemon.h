// One chain hop as a network service (§7: one process per server).
//
// A HopDaemon owns one mixnet::MixServer and serves the hop RPC protocol on
// a loopback TCP listener: kHopForwardConversation / kHopBackwardConversation
// for the two conversation passes, kHopLastConversation for the dead-drop
// exchange at the last hop, and the dialing equivalents. Requests and
// responses are chunked batch messages (hop_wire.h), so paper-scale batches
// stream through in bounded memory.
//
// One connection is served at a time, and frames on it are processed in
// arrival order — the daemon *is* the engine's stage-serialization unit (a
// server cannot start a pass until it has the previous hop's whole batch,
// §8.2); per-request crypto inside a pass still fans out over the global
// thread pool. A pass that throws is reported back as a kHopError frame and
// the daemon keeps serving: one poisoned round must not take the hop down.
//
// Idempotent replay: every successfully served pass reply is cached, keyed
// by (op, round) and fingerprinted by a digest of the request. When a
// coordinator reconnects after a connection failure and re-sends a pass the
// hop already completed — it cannot know whether the reply was lost on the
// wire or never computed — the daemon re-serves the cached reply bytes
// instead of running the pass twice. Combined with MixServer's per-round RNG
// derivation this keeps retried rounds byte-identical to never-failed ones,
// and it protects pass-consumes-state ops (a backward pass erases its round
// state; replaying it without the cache would fail). A re-sent request whose
// digest does NOT match the cached one is processed normally — the cache can
// never serve stale bytes for different input. Entries are pruned by the
// same expiry horizon the engine piggybacks on forward passes (dialing
// rounds, which live in their own number space, keep the most recent
// `replay_keep_dialing`), plus a hard entry cap as a backstop.

#ifndef VUVUZELA_SRC_TRANSPORT_HOP_DAEMON_H_
#define VUVUZELA_SRC_TRANSPORT_HOP_DAEMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "src/crypto/sha256.h"
#include "src/mixnet/mix_server.h"
#include "src/net/tcp.h"
#include "src/obs/http.h"
#include "src/transport/exchange_router.h"
#include "src/transport/hop_wire.h"

namespace vuvuzela::obs {
class Counter;
class Histogram;
}  // namespace vuvuzela::obs

namespace vuvuzela::transport {

struct HopDaemonConfig {
  // 0 picks an ephemeral port (port() reports the binding).
  uint16_t port = 0;
  // Chunk budget for outgoing batch messages.
  size_t chunk_payload = kDefaultChunkPayload;
  // Receive-poll interval on accepted connections: an idle wait between RPCs
  // wakes up this often to honor Stop(). Mid-batch chunk waits are untimed —
  // a slow coordinator stalls only its own connection (EOF still ends it).
  int poll_interval_ms = 500;
  // Exchange partitioning (last hop only). A non-empty partition list makes
  // the daemon drive its dead-drop stage through an ExchangeRouter over
  // vuvuzela-exchanged shard servers instead of the in-process tables.
  ExchangeRouterConfig exchange;
  // Idempotent replay of completed passes after a coordinator reconnect
  // (see the class comment). Conversation-round entries are pruned by the
  // piggybacked expiry horizon; dialing-round entries keep the newest
  // `replay_keep_dialing`; `replay_max_entries` is the backstop cap.
  bool replay_cache = true;
  size_t replay_keep_dialing = 8;
  size_t replay_max_entries = 64;
  // /metrics + /trace HTTP port: < 0 disables the server, 0 picks an
  // ephemeral port (metrics_port() reports the binding).
  int metrics_port = -1;
};

class HopDaemon {
 public:
  // Binds the listener; nullptr if the port is unavailable.
  static std::unique_ptr<HopDaemon> Create(const HopDaemonConfig& config,
                                           std::unique_ptr<mixnet::MixServer> server);

  uint16_t port() const { return listener_.port(); }
  uint64_t rpcs_served() const { return rpcs_served_.load(); }
  // Passes answered from the replay cache / entries currently held
  // (observability; the replay-dedup tests assert these).
  uint64_t replay_hits() const { return replay_hits_.load(); }
  size_t replay_entries() const;
  // Bound /metrics port; 0 when the server is disabled.
  uint16_t metrics_port() const { return metrics_ ? metrics_->port() : 0; }
  // Non-null iff the daemon exchanges through partition servers.
  ExchangeRouter* exchange_router() const { return exchange_router_.get(); }

  // Serves connections until a kShutdown frame arrives or Stop() is called.
  // Connections are served one at a time; a dropped coordinator can
  // reconnect.
  void Serve();

  // Unblocks Serve() from another thread — including a serve loop busy on an
  // active connection (the connection is shut down, so a daemon under
  // continuous traffic still stops promptly; an in-flight pass finishes
  // computing but its reply send fails, which is exactly what a crash looks
  // like to the coordinator).
  void Stop();

 private:
  struct CachedReply {
    crypto::Sha256Digest request_digest{};
    util::Bytes header;
    std::vector<util::Bytes> items;
  };
  // (op, round): one reply per pass kind per round.
  using ReplayKey = std::pair<uint8_t, uint64_t>;

  HopDaemon(const HopDaemonConfig& config, std::unique_ptr<mixnet::MixServer> server,
            net::TcpListener listener);

  // Returns false once the daemon should stop serving entirely.
  bool ServeConnection(net::TcpConnection& conn);
  bool Dispatch(net::TcpConnection& conn, BatchMessage request);
  // The op switch proper (the timed part of Dispatch): runs the pass and
  // sends (and caches) the reply. `items` are views into `request`'s decoded
  // chunks (the zero-copy wire→pass hand-off); `request` outlives the call.
  bool RunPass(net::TcpConnection& conn, BatchMessage& request,
               std::span<const util::ByteSpan> items, wire::Reader& header,
               const crypto::Sha256Digest& digest);
  // Sends the reply and (when the cache is on) retains it for replay.
  bool SendAndCache(net::TcpConnection& conn, const BatchMessage& request,
                    const crypto::Sha256Digest& digest, util::Bytes header,
                    std::vector<util::Bytes> items);
  void PruneReplaySpaceLocked(bool dialing_space, uint64_t newest, uint64_t keep);
  void PruneReplayCache(uint64_t conversation_newest, uint64_t keep);

  HopDaemonConfig config_;
  std::unique_ptr<mixnet::MixServer> server_;
  // Declared after server_ is fine: the server holds only a non-owning
  // backend pointer and makes no calls during destruction.
  std::unique_ptr<ExchangeRouter> exchange_router_;
  net::TcpListener listener_;
  // Optional /metrics + /trace endpoint (config.metrics_port >= 0).
  std::unique_ptr<obs::MetricsHttpServer> metrics_;
  // Global-registry mirrors of this hop's hot-path counters (registration is
  // idempotent, so multiple in-process daemons share one series).
  obs::Counter* obs_rpcs_;
  obs::Counter* obs_replay_hits_;
  obs::Counter* obs_pass_onions_;
  obs::Counter* obs_pass_errors_;
  obs::Histogram* obs_pass_seconds_;
  std::atomic<uint64_t> rpcs_served_{0};
  std::atomic<uint64_t> replay_hits_{0};
  std::atomic<bool> stop_{false};
  // The connection currently being served, so Stop() can interrupt it
  // (TcpConnection::Shutdown is the one member safe to call concurrently
  // with a blocked RecvFrame).
  std::mutex active_conn_mutex_;
  net::TcpConnection* active_conn_ = nullptr;
  // Written only from the serve loop (one connection at a time); the mutex
  // makes the observability accessor safe from other threads.
  mutable std::mutex replay_mutex_;
  std::map<ReplayKey, CachedReply> replay_cache_;
  uint64_t newest_dialing_round_ = 0;
};

}  // namespace vuvuzela::transport

#endif  // VUVUZELA_SRC_TRANSPORT_HOP_DAEMON_H_
