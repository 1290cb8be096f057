// Property test: the two directory decoders agree on every input. Venus
// resolves a path hop with FindDirectoryEntry and lists a directory with
// DeserializeDirectory, so a hostile or damaged directory must be rejected
// by both or by neither, and an accepted one must yield the same entry for
// every name, present or absent. Random DirMaps are serialized and then
// mutated: truncation at every offset, an out-of-range kind, a trailing
// byte, a repeated name, and counts that disagree with the body.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rpc/wire.h"
#include "src/vice/vnode.h"

namespace itc::vice {
namespace {

// Wire size of one entry with an empty name (see SerializeDirectory).
constexpr size_t kEntryFixedBytes = 4 + 1 + rpc::kFidWireBytes + 4;

std::string RandomName(Rng& rng) {
  std::string name;
  const uint64_t len = rng.Below(7);  // "" is a legal wire name
  for (uint64_t i = 0; i < len; ++i) name += static_cast<char>('a' + rng.Below(4));
  return name;
}

DirItem RandomItem(Rng& rng) {
  DirItem item;
  item.kind = static_cast<DirItem::Kind>(rng.Below(4));
  item.fid = Fid{static_cast<uint32_t>(rng.Below(50)), static_cast<uint32_t>(rng.Below(1000)),
                 static_cast<uint32_t>(rng.Below(5))};
  item.mount_volume = static_cast<VolumeId>(rng.Below(100));
  return item;
}

DirMap RandomDirMap(Rng& rng) {
  DirMap map;
  const uint64_t n = rng.Below(25);
  for (uint64_t i = 0; i < n; ++i) map.emplace(RandomName(rng), RandomItem(rng));
  return map;
}

// Byte offset of each entry's kind byte in SerializeDirectory(map).
std::vector<size_t> KindOffsets(const DirMap& map) {
  std::vector<size_t> out;
  size_t pos = 4;
  for (const auto& [name, item] : map) {
    out.push_back(pos + 4 + name.size());
    pos += kEntryFixedBytes + name.size();
  }
  return out;
}

void PutCount(Bytes& data, uint32_t count) {
  for (int i = 0; i < 4; ++i) data[static_cast<size_t>(i)] = static_cast<uint8_t>(count >> (8 * i));
}

// The property, for one input and a set of probe names.
void ExpectDecodersAgree(const Bytes& data, const std::vector<std::string>& probes,
                         const std::string& what) {
  SCOPED_TRACE(what);
  const auto map = DeserializeDirectory(data);
  if (!map.ok()) {
    EXPECT_EQ(map.status(), Status::kProtocolError);
  }
  for (const std::string& name : probes) {
    const auto found = FindDirectoryEntry(data, name);
    ASSERT_EQ(found.ok(), map.ok()) << "name '" << name << "'";
    if (!map.ok()) {
      EXPECT_EQ(found.status(), Status::kProtocolError);
      continue;
    }
    auto it = map->find(name);
    if (it == map->end()) {
      EXPECT_FALSE(found->has_value()) << "name '" << name << "'";
    } else {
      ASSERT_TRUE(found->has_value()) << "name '" << name << "'";
      EXPECT_EQ(**found, it->second) << "name '" << name << "'";
    }
  }
}

std::vector<std::string> ProbesFor(const DirMap& map) {
  std::vector<std::string> probes = {"", "absent", "aaaaaaa", "e"};
  for (const auto& [name, item] : map) {
    probes.push_back(name);
    probes.push_back(name + "x");
  }
  return probes;
}

TEST(DirectoryDecoders, AgreeOnWellFormedAndMutatedDirectories) {
  Rng rng(0xd1ec7);
  for (int round = 0; round < 60; ++round) {
    const DirMap map = RandomDirMap(rng);
    const Bytes data = SerializeDirectory(map);
    const std::vector<std::string> probes = ProbesFor(map);
    ASSERT_EQ(*DeserializeDirectory(data), map);
    ExpectDecodersAgree(data, probes, "intact");

    // Truncation at every offset. A short probe list keeps this quadratic
    // sweep cheap; the full list runs on the other mutations.
    std::vector<std::string> few = {"absent"};
    if (!map.empty()) {
      few.push_back(map.begin()->first);
      few.push_back(map.rbegin()->first);
    }
    for (size_t cut = 0; cut < data.size(); ++cut) {
      ExpectDecodersAgree(Bytes(data.begin(), data.begin() + static_cast<ptrdiff_t>(cut)), few,
                          "truncated at " + std::to_string(cut));
    }

    // A kind byte past kMountPoint.
    for (size_t off : KindOffsets(map)) {
      Bytes bad = data;
      bad[off] = static_cast<uint8_t>(4 + rng.Below(252));
      ExpectDecodersAgree(bad, probes, "kind at " + std::to_string(off));
    }

    Bytes trailing = data;
    trailing.push_back(0);
    ExpectDecodersAgree(trailing, probes, "trailing byte");

    // Counts that disagree with the body, including one no buffer could
    // hold.
    for (uint32_t count : {static_cast<uint32_t>(map.size() + 1),
                           static_cast<uint32_t>(map.size()) - 1, 0xFFFFFFFFu}) {
      Bytes bad = data;
      PutCount(bad, count);
      ExpectDecodersAgree(bad, probes, "count " + std::to_string(count));
    }

    // A repeated name: the first occurrence wins in both decoders.
    if (!map.empty()) {
      auto it = map.begin();
      std::advance(it, static_cast<ptrdiff_t>(rng.Below(map.size())));
      DirItem second = it->second;
      second.mount_volume += 1;
      rpc::Writer w;
      w.PutU32(static_cast<uint32_t>(map.size() + 1));
      for (const auto& [name, item] : map) {
        w.PutString(name);
        w.PutU8(static_cast<uint8_t>(item.kind));
        w.PutFid(item.fid);
        w.PutU32(item.mount_volume);
      }
      w.PutString(it->first);
      w.PutU8(static_cast<uint8_t>(second.kind));
      w.PutFid(second.fid);
      w.PutU32(second.mount_volume);
      const Bytes dup = w.Take();
      ExpectDecodersAgree(dup, probes, "duplicate '" + it->first + "'");
      EXPECT_EQ(**FindDirectoryEntry(dup, it->first), it->second);
    }
  }
}

TEST(DirectoryDecoders, HostileCountIsRejectedBeforeTheBody) {
  // 0xFFFFFFFF entries announced, one entry's worth of body present.
  rpc::Writer w;
  w.PutU32(0xFFFFFFFFu);
  w.PutString("a");
  w.PutU8(0);
  w.PutFid(Fid{1, 2, 3});
  w.PutU32(0);
  const Bytes data = w.Take();
  EXPECT_EQ(DeserializeDirectory(data).status(), Status::kProtocolError);
  EXPECT_EQ(FindDirectoryEntry(data, "a").status(), Status::kProtocolError);
}

}  // namespace
}  // namespace itc::vice
