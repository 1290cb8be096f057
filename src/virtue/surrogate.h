// Surrogate server for low-function workstations (Section 3.3).
//
// "An approach we are exploring is to provide a Surrogate Server running on
//  a Virtue workstation. This surrogate would behave as a single-site
//  network file server for the Virtue file system. Clients of this server
//  would then be transparently accessing Vice files on account of a Virtue
//  workstation's transparent Vice attachment... Work is currently in
//  progress to build such a surrogate server for IBM PCs."
//
// The SurrogateServer is an RPC service hosted on a full Virtue
// workstation; it exposes a simple single-site file interface (read/write
// whole files, stat, mkdir, unlink, list) over the host's ordinary Unix
// API. A PcClient (the low-function machine) therefore reaches both the
// host's local files and — through the host's /vice mount and Venus cache —
// the entire shared name space, without running Venus or the crypto stack
// for Vice itself. PC-to-surrogate traffic still authenticates and encrypts
// with the standard handshake — and because every operation executes under
// the HOST workstation's Vice session, the surrogate only serves the user
// who owns that session (anyone else is refused, or Vice's protection
// checks would be evaluated against the wrong identity).

#ifndef SRC_VIRTUE_SURROGATE_H_
#define SRC_VIRTUE_SURROGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/rpc/op_registry.h"
#include "src/rpc/rpc.h"
#include "src/virtue/workstation.h"

namespace itc::virtue {

enum class SurrogateProc : uint32_t {
  kReadFile = 1,
  kWriteFile = 2,
  kStat = 3,
  kMkDir = 4,
  kUnlink = 5,
  kReadDir = 6,
};

// The surrogate's typed op table, wire formats included. Only the pure reads
// (ReadFile, Stat, ReadDir) are idempotent.
const rpc::OpSchema& SurrogateOpSchema();

class SurrogateServer {
 public:
  // The surrogate listens at the host workstation's own node. The host must
  // be logged in to Vice for shared paths to work; local paths always work.
  SurrogateServer(Workstation* host, net::Network* network, const sim::CostModel& cost,
                  rpc::RpcConfig rpc_config, rpc::ServerEndpoint::KeyLookup key_lookup,
                  uint64_t nonce_seed);

  rpc::ServerEndpoint& endpoint() { return endpoint_; }
  Workstation* host() { return host_; }

 private:
  void BindOps();

  Workstation* host_;
  rpc::OpRegistry registry_;
  rpc::ServerEndpoint endpoint_;
};

// The low-function client (an IBM PC on a cheap network, modelled as a node
// in the surrogate's cluster).
class PcClient {
 public:
  PcClient(NodeId node, sim::Clock* clock, SurrogateServer* surrogate,
           net::Network* network, const sim::CostModel& cost);

  [[nodiscard]] Status Connect(UserId user, const crypto::Key& user_key, uint64_t seed);

  [[nodiscard]] Result<Bytes> ReadFile(const std::string& path);
  [[nodiscard]] Status WriteFile(const std::string& path, const Bytes& data);
  struct PcStat {
    uint64_t size = 0;
    bool is_directory = false;
    bool shared = false;
  };
  [[nodiscard]] Result<PcStat> Stat(const std::string& path);
  [[nodiscard]] Status MkDir(const std::string& path);
  [[nodiscard]] Status Unlink(const std::string& path);
  [[nodiscard]] Result<std::vector<std::string>> ReadDir(const std::string& path);

 private:
  [[nodiscard]] Result<Bytes> Call(SurrogateProc proc, const Bytes& request);

  NodeId node_;
  sim::Clock* clock_;
  SurrogateServer* surrogate_;
  net::Network* network_;
  sim::CostModel cost_;
  std::unique_ptr<rpc::ClientConnection> conn_;
};

}  // namespace itc::virtue

#endif  // SRC_VIRTUE_SURROGATE_H_
