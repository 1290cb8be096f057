// Fundamental identifier types shared across the itcfs library.

#ifndef SRC_COMMON_TYPES_H_
#define SRC_COMMON_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace itc {

// Principals in the protection domain (src/protection). Users are humans;
// groups are recursive collections of users and groups (Grapevine-style).
using UserId = uint32_t;
using GroupId = uint32_t;

// A network node: either a Virtue workstation or a Vice cluster server.
using NodeId = uint32_t;
// A Vice cluster server. Servers are also network nodes; ServerId indexes the
// registry of servers, NodeId addresses the node on the (simulated) network.
using ServerId = uint32_t;
// A cluster on the campus network (Figure 2-2 of the paper).
using ClusterId = uint32_t;

// Volumes are relocatable subtrees of Vice files (Section 5.3).
using VolumeId = uint32_t;

// Raw byte payloads moved by the RPC layer and stored by the file systems.
using Bytes = std::vector<uint8_t>;

// Simulated time, in microseconds. All timing in the library is virtual:
// advanced by the cost model in src/sim, never by the host clock, so every
// run is deterministic.
using SimTime = int64_t;

constexpr SimTime Micros(int64_t n) { return n; }
constexpr SimTime Millis(int64_t n) { return n * 1000; }
constexpr SimTime Seconds(int64_t n) { return n * 1000 * 1000; }
constexpr double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e6; }

constexpr NodeId kInvalidNode = 0xffffffffu;
constexpr ServerId kInvalidServer = 0xffffffffu;
constexpr VolumeId kInvalidVolume = 0;

// The "anonymous" user: a principal with no authenticated identity. Vice
// grants it only the rights explicitly given to System:AnyUser.
constexpr UserId kAnonymousUser = 0;

inline Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }
inline std::string ToString(const Bytes& b) { return std::string(b.begin(), b.end()); }
// `prefix` followed by `n` in decimal: Numbered("f", 12) == "f12". Spelled
// out because GCC 12 at -O3 flags `"f" + std::to_string(n)` with a false
// -Wrestrict.
inline std::string Numbered(std::string_view prefix, uint64_t n) {
  std::string s(prefix);
  s += std::to_string(n);
  return s;
}

}  // namespace itc

#endif  // SRC_COMMON_TYPES_H_
