#include "src/vice/vnode.h"

#include "src/rpc/wire.h"

namespace itc::vice {

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
  // u32 count, then per entry: string name, u8 kind, fid, u32 mount volume.
  uint64_t size = 4;
  for (const auto& [name, item] : entries) {
    size += rpc::kStringMinWireBytes + name.size() + 1 + rpc::kFidWireBytes + 4;
  }
  return size;
}

Result<DirMap> DeserializeDirectory(const Bytes& data) {
  rpc::Reader r(data);
  DirMap out;
  ASSIGN_OR_RETURN(uint32_t count, r.U32());
  for (uint32_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(std::string name, r.String());
    ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > 3) return Status::kProtocolError;
    DirItem item;
    item.kind = static_cast<DirItem::Kind>(kind);
    ASSIGN_OR_RETURN(item.fid, r.FidField());
    ASSIGN_OR_RETURN(item.mount_volume, r.U32());
    out.emplace(std::move(name), item);
  }
  if (!r.AtEnd()) return Status::kProtocolError;
  return out;
}

}  // namespace itc::vice
