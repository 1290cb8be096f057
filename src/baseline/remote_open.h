// Remote-open baseline: a Locus/Newcastle-Connection-style file service
// (Section 6.3).
//
// "In systems such as Locus and the Newcastle Connection, the inter-machine
//  interface is very similar to the application program interface.
//  Operations on remote files are forwarded to the appropriate storage site,
//  where state information on these files is maintained."
//
// Here every open, per-page read, per-page write, and close is an RPC to the
// storage site; nothing is cached at the workstation. This is the comparator
// for the whole-file-transfer-vs-page-access experiment (A2): it wins only
// when a large file is touched sparsely, and loses everywhere the paper says
// whole-file caching wins (per-call protocol overhead, server contact on
// every read/write).

#ifndef SRC_BASELINE_REMOTE_OPEN_H_
#define SRC_BASELINE_REMOTE_OPEN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/net/network.h"
#include "src/rpc/op_registry.h"
#include "src/rpc/rpc.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/unixfs/file_system.h"

namespace itc::baseline {

inline constexpr uint64_t kPageSize = 4096;

enum class Proc : uint32_t {
  kOpen = 1,
  kClose = 2,
  kRead = 3,
  kWrite = 4,
  kStat = 5,
  kMkDir = 6,
  kUnlink = 7,
  kReadDir = 8,
  kRename = 9,
  kRmDir = 10,
  kTruncate = 11,
};

// The remote-open service's typed op table, wire formats included. Only the
// pure reads (Read, Stat, ReadDir) are idempotent.
const rpc::OpSchema& RemoteOpenOpSchema();

class RemoteOpenServer {
 public:
  RemoteOpenServer(NodeId node, net::Network* network, const sim::CostModel& cost,
                   rpc::RpcConfig rpc_config, rpc::ServerEndpoint::KeyLookup key_lookup,
                   uint64_t nonce_seed);

  rpc::ServerEndpoint& endpoint() { return endpoint_; }
  // Direct access for pre-population (zero-cost, like Campus::PopulateDirect).
  unixfs::FileSystem& storage() { return storage_; }

  uint64_t open_handles() const { return handles_.size(); }

 private:
  void BindOps();

  sim::CostModel cost_;
  rpc::OpRegistry registry_;
  rpc::ServerEndpoint endpoint_;
  unixfs::FileSystem storage_;
  std::map<uint64_t, unixfs::InodeNum> handles_;
  uint64_t next_handle_ = 1;
};

// Client side: forwards every operation; no caching whatsoever.
class RemoteOpenClient {
 public:
  RemoteOpenClient(NodeId node, sim::Clock* clock, RemoteOpenServer* server,
                   net::Network* network, const sim::CostModel& cost);

  // Authenticated connection, same handshake as itcfs proper.
  [[nodiscard]] Status Connect(UserId user, const crypto::Key& user_key, uint64_t seed);

  [[nodiscard]] Result<uint64_t> Open(const std::string& path, bool create);
  [[nodiscard]] Status Close(uint64_t handle);
  [[nodiscard]] Result<Bytes> Read(uint64_t handle, uint64_t offset, uint64_t length);
  [[nodiscard]] Status Write(uint64_t handle, uint64_t offset, const Bytes& data);

  struct RemoteStat {
    uint64_t size = 0;
    SimTime mtime = 0;
    bool is_directory = false;
  };
  [[nodiscard]] Result<RemoteStat> Stat(const std::string& path);
  [[nodiscard]] Status MkDir(const std::string& path);
  [[nodiscard]] Status Unlink(const std::string& path);
  [[nodiscard]] Result<std::vector<std::string>> ReadDir(const std::string& path);
  [[nodiscard]] Status Rename(const std::string& from, const std::string& to);
  [[nodiscard]] Status RmDir(const std::string& path);
  [[nodiscard]] Status Truncate(uint64_t handle, uint64_t size);

  // Whole-file conveniences built from page-at-a-time RPCs.
  [[nodiscard]] Result<Bytes> ReadWholeFile(const std::string& path);
  [[nodiscard]] Status WriteWholeFile(const std::string& path, const Bytes& data);

 private:
  [[nodiscard]] Result<Bytes> Call(Proc proc, const Bytes& request);

  NodeId node_;
  sim::Clock* clock_;
  RemoteOpenServer* server_;
  net::Network* network_;
  sim::CostModel cost_;
  std::unique_ptr<rpc::ClientConnection> conn_;
};

}  // namespace itc::baseline

#endif  // SRC_BASELINE_REMOTE_OPEN_H_
