// Remote procedure call package (Section 3.5.3).
//
// Both generations of the paper's RPC are reproduced as configuration:
//
//   * Transport. The prototype used "a reliable byte-stream protocol
//     supported by Unix" — modelled as extra per-message protocol overhead.
//     The revised implementation uses "an unreliable datagram protocol" with
//     RPC-level reliability — modelled without that overhead.
//   * Server structure (Section 3.5.2). The prototype ran one Unix process
//     per (user, workstation), paying a full context switch per call. The
//     revised server is a single process with lightweight processes (LWPs)
//     sharing global state, paying only an LWP dispatch.
//   * Security (Section 3.4). Connection establishment runs the mutual
//     authentication handshake of src/crypto; afterwards every request and
//     reply is sealed under the per-session key. Whole-file transfer rides
//     the same sealed messages ("generalized side-effects").
//   * Dispatch. Every service on this package — the Vice file server, the
//     protection server, the remote-open baseline and the PC surrogate —
//     describes its procedures in an OpSchema and hands its endpoint an
//     OpRegistry (src/rpc/op_registry.h). There is one dispatch path, so
//     every call is traced, fault-injectable and labelled the same way.
//   * Call path. The server endpoint asks its FaultInjector what to do with
//     a call, dispatches it, and records CallStats once. The client stub
//     runs one attempt loop: per-attempt deadline, retries with doubling
//     backoff for idempotent datagram calls only (§3.5.3), one record.
//
// Functionally everything is synchronous and in-process; timing flows
// through src/net (LAN segments) and the server's CPU/disk resources, so
// utilization and latency come out of the same code path that moves bytes.

#ifndef SRC_RPC_RPC_H_
#define SRC_RPC_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/crypto/cbc.h"
#include "src/crypto/handshake.h"
#include "src/crypto/key.h"
#include "src/net/network.h"
#include "src/rpc/call_stats.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/resource.h"

namespace itc::rpc {

class OpRegistry;
class OpSchema;
struct OpSpec;

enum class Transport { kStream, kDatagram };
enum class ServerStructure { kProcessPerClient, kLwp };

// Client-stub retry policy (§3.5.3 RPC-level reliability). Applies to
// datagram-transport calls on ops the schema marks idempotent; mutators are
// never blindly resent (at-most-once). The first retry waits 20 ms, and the
// wait doubles after each failed attempt.
struct RetryPolicy {
  uint32_t max_retries = 0;  // 0: every call gets one attempt
};

struct RpcConfig {
  Transport transport = Transport::kDatagram;
  ServerStructure server_structure = ServerStructure::kLwp;
  // When false, messages travel unsealed (no crypto CPU, no integrity);
  // exists for the security-cost ablation only.
  bool encrypt = true;
  // Client stub: retries and a per-attempt deadline (0 = none).
  RetryPolicy retry;
  SimTime call_deadline = 0;
};

// Adversarial moments inside a mutating Vice operation at which a test can
// schedule a server crash. The server polls FaultInjector::ConsumeCrashAt()
// at each point:
//   kBeforeLogAppend — crash before the intention is logged: the op leaves
//     no trace at all; after restart it is simply absent.
//   kAfterLogAppend — the intention is durable but uncommitted: recovery
//     must DISCARD it (the client never got a reply; §3.5 store-on-close
//     atomicity).
//   kBeforeReply — applied and committed, reply lost: recovery must REPLAY
//     it; the client sees a transport failure for a change that stuck.
enum class CrashPoint : uint8_t {
  kNone = 0,
  kBeforeLogAppend,
  kAfterLogAppend,
  kBeforeReply,
};

// Seeded error injection: each call of `only_class` (every call when unset)
// is answered with `error`, unexecuted, with probability error_probability.
struct FaultConfig {
  double error_probability = 0;
  Status error = Status::kUnavailable;
  std::optional<CallClass> only_class;
};

// The server endpoint's fault injector. Tests fail a server through it
// instead of poking server internals:
//   * set_fail_all(true) — total outage: every call and every handshake
//     fails kUnavailable until cleared;
//   * DropNextReplies(n, cls) — the next n matching calls EXECUTE on the
//     server but their replies are lost, which is exactly the §3.5.3 case
//     that distinguishes retryable idempotent ops from at-most-once mutators;
//   * FailCalls(skip, count, error) — after `skip` calls, the next `count`
//     fail with `error`, unexecuted: targets one call inside a multi-RPC
//     client operation without guessing at seeded probabilities;
//   * ArmCrash(point) — a one-shot crash at a CrashPoint;
//   * set_config — seeded error injection (FaultConfig).
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  void set_config(const FaultConfig& config) { config_ = config; }
  void set_fail_all(bool v) { fail_all_ = v; }
  bool fail_all() const { return fail_all_; }
  void DropNextReplies(uint32_t n, std::optional<CallClass> only_class = std::nullopt) {
    drop_replies_ = n;
    drop_replies_class_ = only_class;
  }
  void FailCalls(uint32_t skip, uint32_t count, Status error = Status::kUnavailable) {
    fail_skip_ = skip;
    fail_count_ = count;
    fail_error_ = error;
  }

  // The next ConsumeCrashAt(point) returns true, once; the handler polling
  // it then crashes the server and aborts the call.
  void ArmCrash(CrashPoint point) { armed_crash_ = point; }
  bool ConsumeCrashAt(CrashPoint point) {
    if (armed_crash_ != point || point == CrashPoint::kNone) return false;
    armed_crash_ = CrashPoint::kNone;
    return true;
  }

  // Decides the fate of one call to `op` (null: outside the schema). An
  // error means "answer with it, unexecuted"; kOk means dispatch, and
  // *drop_reply then says whether the reply is lost after execution.
  [[nodiscard]] Status Admit(const OpSpec* op, bool* drop_reply);

 private:
  FaultConfig config_;
  Rng rng_;
  bool fail_all_ = false;
  uint32_t drop_replies_ = 0;
  std::optional<CallClass> drop_replies_class_;
  uint32_t fail_skip_ = 0;
  uint32_t fail_count_ = 0;
  Status fail_error_ = Status::kUnavailable;
  CrashPoint armed_crash_ = CrashPoint::kNone;
};

// Per-call server-side context handed to the op handler. The handler
// reports the resources its work consumes; the endpoint serializes those
// demands through the server's CPU and disk.
class CallContext {
 public:
  CallContext(UserId user, NodeId client_node, SimTime arrival)
      : user_(user), client_node_(client_node), arrival_(arrival) {}

  UserId user() const { return user_; }
  NodeId client_node() const { return client_node_; }
  SimTime arrival() const { return arrival_; }

  // Extra CPU demand beyond the per-call base cost.
  void ChargeCpu(SimTime t) { cpu_demand_ += t; }
  // One disk operation moving `bytes` (0 for a pure seek, e.g. status read).
  void ChargeDisk(uint64_t bytes) {
    disk_ops_ += 1;
    disk_bytes_ += bytes;
  }
  // Pre-computed disk time (log appends/fsyncs, whose cost is not a plain
  // seek + per-kb transfer). Added to the disk demand as-is.
  void ChargeDiskTime(SimTime t) { disk_time_ += t; }
  // Holds the reply back until at least virtual time `t`: the handler waited
  // on something other than a server resource (a lease on an unreachable
  // holder running out, a post-restart grant embargo). The endpoint takes
  // the max of this floor and the resource completion time.
  void DelayCompletionUntil(SimTime t) {
    if (t > completion_floor_) completion_floor_ = t;
  }

  SimTime cpu_demand() const { return cpu_demand_; }
  uint32_t disk_ops() const { return disk_ops_; }
  uint64_t disk_bytes() const { return disk_bytes_; }
  SimTime disk_time() const { return disk_time_; }
  SimTime completion_floor() const { return completion_floor_; }

 private:
  UserId user_;
  NodeId client_node_;
  SimTime arrival_;
  SimTime cpu_demand_ = 0;
  uint32_t disk_ops_ = 0;
  uint64_t disk_bytes_ = 0;
  SimTime disk_time_ = 0;
  SimTime completion_floor_ = 0;
};

struct RpcStats {
  uint64_t calls = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;
  uint64_t handshakes = 0;
  uint64_t auth_failures = 0;
};

// Server side of the RPC package: owns the server's simulated CPU and disk,
// the per-connection session state, and the registered service's OpRegistry.
class ServerEndpoint {
 public:
  using KeyLookup = std::function<std::optional<crypto::Key>(UserId)>;

  ServerEndpoint(NodeId node, net::Network* network, const sim::CostModel& cost,
                 RpcConfig config, KeyLookup key_lookup, uint64_t nonce_seed);

  // The service's typed op table and handlers; every call dispatches through
  // it. Must be set before the first call.
  void set_registry(const OpRegistry* registry) { registry_ = registry; }

  // Simulated outage: while offline the endpoint accepts no handshakes and
  // answers no calls (kUnavailable). Toggling this alone keeps connection
  // state (a network partition); a machine crash additionally calls
  // DropAllConnections — the paper's servers kept no hard client state that
  // a reboot plus salvage could not rebuild.
  void set_online(bool v) { online_ = v; }
  bool online() const { return online_; }

  // Volatile-state teardown for a simulated machine crash, and targeted
  // cleanup when one workstation disconnects or crashes. Orchestration-only
  // under the sharded scheduler: they touch the connection table, which the
  // server's shard owns.
  ITC_KERNEL_QUIESCENT void DropAllConnections() { connections_.clear(); }
  ITC_KERNEL_QUIESCENT void CloseConnectionsFrom(NodeId client_node);
  ITC_KERNEL_QUIESCENT size_t ConnectionCountFrom(NodeId client_node) const;

  NodeId node() const { return node_; }
  sim::Resource& cpu() { return cpu_; }
  sim::Resource& disk() { return disk_; }
  ITC_KERNEL_QUIESCENT const RpcStats& stats() const { return stats_; }
  // Per-op tracing: every call that reaches dispatch, recorded once.
  CallStats& call_stats() { return call_stats_; }
  const CallStats& call_stats() const { return call_stats_; }
  FaultInjector& fault() { return fault_; }
  void ResetStats() {
    stats_ = RpcStats{};
    call_stats_.Reset();
  }

  // Internal API used by ClientConnection (in-process message delivery).
  struct ConnState {
    UserId user = kAnonymousUser;
    crypto::SessionSecret secret;
    uint64_t seq = 0;              // reply counter (IV diversification)
    uint64_t last_client_seq = 0;  // anti-replay: requests must increase
    NodeId client_node = kInvalidNode;  // workstation that opened the channel
  };

  // Processes one sealed call on connection `conn_id`, arriving at
  // `arrival`; returns the sealed reply and sets `*completion` to the time
  // the reply leaves the server. Request and reply travel as envelopes: the
  // in-process client hands over a deferred one, which opens under the
  // session key without running the cipher, while observed bytes (a
  // forgery, a replay, garbage) go through the real Open and its integrity
  // check. The reply is deferred too and is sealed only if someone reads its
  // bytes. Unencrypted, the envelope carries the frame itself.
  [[nodiscard]] Result<crypto::Sealed> HandleCall(uint64_t conn_id, NodeId client_node,
                                                  crypto::Sealed sealed_request, SimTime arrival,
                                                  SimTime* completion);

  // Called from the client connection's destructor, i.e. potentially from
  // the client's shard. Known cross-shard touch under kSharded: a mid-run
  // teardown erases server-side state from the client's thread. Today every
  // connection teardown in the tree happens quiescently (prologue/epilogue,
  // crash orchestration) or on the server's own shard; the lint rule keeps
  // new callers honest.
  ITC_SHARD_FOREIGN void CloseConnection(uint64_t conn_id) { connections_.erase(conn_id); }

 private:
  friend class ClientConnection;

  // Dispatches one admitted call and charges its CPU and disk; sets
  // *completion to when the reply leaves the server.
  [[nodiscard]] Result<Bytes> Serve(UserId user, NodeId client_node, uint32_t proc,
                                    const Bytes& body, SimTime arrival, SimTime* completion);

  NodeId node_;
  net::Network* network_;
  sim::CostModel cost_;
  RpcConfig config_;
  KeyLookup key_lookup_;
  uint64_t nonce_seed_;
  bool online_ = true;
  ITC_OWNED_BY_SHARD uint64_t next_connection_id_ = 1;
  const OpRegistry* registry_ = nullptr;
  sim::Resource cpu_;
  sim::Resource disk_;
  ITC_OWNED_BY_SHARD std::unordered_map<uint64_t, ConnState> connections_;
  ITC_OWNED_BY_SHARD RpcStats stats_;
  ITC_OWNED_BY_SHARD CallStats call_stats_;
  FaultInjector fault_;
};

// Optional client-stub wiring: the op schema of the service being called
// (enables retries, which need its idempotency flags, and labels traces) and
// a CallStats table to record the client-observed round trips into.
struct ClientOptions {
  const OpSchema* schema = nullptr;
  CallStats* stats = nullptr;
};

// Client side: an authenticated, encrypted connection from one user on one
// workstation to one server. Created via Connect(); each Call() advances the
// workstation's clock through the full network/server round trip.
class ClientConnection {
 public:
  // Establishes the connection, running the mutual handshake over the
  // simulated network. Fails with kAuthFailed if either side cannot prove
  // knowledge of the user's key.
  [[nodiscard]] static Result<std::unique_ptr<ClientConnection>> Connect(
      NodeId client_node, UserId user, const crypto::Key& user_key, ServerEndpoint* server,
      net::Network* network, const sim::CostModel& cost, sim::Clock* clock,
      uint64_t nonce_seed, ClientOptions options = {});

  ~ClientConnection();
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  // Performs one RPC: seals `request`, ships it to the server, runs the
  // service, ships the reply back, advancing the client clock to the moment
  // the reply has been decrypted. An attempt that outlasts call_deadline
  // fails kTimedOut; a failed transport attempt of an idempotent datagram
  // call is retried after a doubling backoff. Recorded once, retries and
  // backoff included, into the ClientOptions stats.
  [[nodiscard]] Result<Bytes> Call(uint32_t proc, const Bytes& request);

  UserId user() const { return user_; }
  NodeId server_node() const { return server_->node(); }
  ServerEndpoint* server() const { return server_; }

 private:
  ClientConnection(NodeId client_node, UserId user, ServerEndpoint* server,
                   net::Network* network, const sim::CostModel& cost, sim::Clock* clock,
                   uint64_t conn_id, crypto::SessionSecret secret, RpcConfig config,
                   ClientOptions options);

  // One wire attempt: frame, seal, ship, await, unseal.
  [[nodiscard]] Result<Bytes> SendOnce(uint32_t proc, const Bytes& request);

  NodeId client_node_;
  UserId user_;
  ServerEndpoint* server_;
  net::Network* network_;
  sim::CostModel cost_;
  sim::Clock* clock_;
  uint64_t conn_id_;
  crypto::SessionSecret secret_;
  RpcConfig config_;
  ClientOptions options_;
  uint64_t seq_ = 0;
};

}  // namespace itc::rpc

#endif  // SRC_RPC_RPC_H_
