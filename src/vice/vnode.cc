#include "src/vice/vnode.h"

#include "src/rpc/wire.h"

namespace itc::vice {

namespace {

// Smallest encoding of one entry: string name, u8 kind, fid, u32 mount
// volume, with the name empty.
constexpr size_t kDirEntryMinWireBytes = rpc::kStringMinWireBytes + 1 + rpc::kFidWireBytes + 4;

// The one reader of the directory wire format: calls visit(name, item) for
// each entry in wire order, `name` viewing into `data`. Allocates nothing.
template <typename Visit>
Status WalkDirectory(const Bytes& data, Visit&& visit) {
  rpc::Reader r(data);
  ASSIGN_OR_RETURN(uint32_t count, r.Count(kDirEntryMinWireBytes));
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string_view name, r.StringView());
    ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > 3) return Status::kProtocolError;
    DirItem item;
    item.kind = static_cast<DirItem::Kind>(kind);
    ASSIGN_OR_RETURN(item.fid, r.FidField());
    ASSIGN_OR_RETURN(item.mount_volume, r.U32());
    visit(name, item);
  }
  if (!r.AtEnd()) return Status::kProtocolError;
  return Status::kOk;
}

}  // namespace

Bytes SerializeDirectory(const DirMap& entries) {
  rpc::Writer w;
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const auto& [name, item] : entries) {
    w.PutString(name);
    w.PutU8(static_cast<uint8_t>(item.kind));
    w.PutFid(item.fid);
    w.PutU32(item.mount_volume);
  }
  return w.Take();
}

uint64_t DirectoryDataSize(const DirMap& entries) {
  uint64_t size = 4;  // the entry count
  for (const auto& [name, item] : entries) size += kDirEntryMinWireBytes + name.size();
  return size;
}

Result<DirMap> DeserializeDirectory(const Bytes& data) {
  DirMap out;
  // Serialized maps arrive sorted, so the end hint makes each insert O(1);
  // emplace_hint, like emplace, keeps the first of two equal names.
  RETURN_IF_ERROR(WalkDirectory(data, [&out](std::string_view name, const DirItem& item) {
    out.emplace_hint(out.end(), name, item);
  }));
  return out;
}

Result<std::optional<DirItem>> FindDirectoryEntry(const Bytes& data, std::string_view name) {
  std::optional<DirItem> found;
  RETURN_IF_ERROR(WalkDirectory(data, [&](std::string_view entry, const DirItem& item) {
    if (!found && entry == name) found = item;
  }));
  return found;
}

}  // namespace itc::vice
