#include "src/protection/access_list.h"

#include "src/rpc/wire.h"

namespace itc::protection {

void AccessList::SetPositive(Principal who, Rights rights) {
  if (rights == kNone) {
    positive_.erase(who);
  } else {
    positive_[who] = rights;
  }
}

void AccessList::SetNegative(Principal who, Rights rights) {
  if (rights == kNone) {
    negative_.erase(who);
  } else {
    negative_[who] = rights;
  }
}

void AccessList::Remove(Principal who) {
  positive_.erase(who);
  negative_.erase(who);
}

Rights AccessList::PositiveFor(Principal who) const {
  auto it = positive_.find(who);
  return it == positive_.end() ? kNone : it->second;
}

Rights AccessList::NegativeFor(Principal who) const {
  auto it = negative_.find(who);
  return it == negative_.end() ? kNone : it->second;
}

Rights AccessList::Effective(const std::vector<Principal>& cps) const {
  Rights granted = kNone;
  Rights denied = kNone;
  for (const Principal& p : cps) {
    granted = granted | PositiveFor(p);
    denied = denied | NegativeFor(p);
  }
  return granted & ~denied;
}

Bytes AccessList::Serialize() const {
  rpc::Writer w;
  auto put_side = [&w](const std::map<Principal, Rights>& side) {
    w.PutU32(static_cast<uint32_t>(side.size()));
    for (const auto& [who, rights] : side) {
      w.PutU8(static_cast<uint8_t>(who.kind));
      w.PutU32(who.id);
      w.PutU32(static_cast<uint32_t>(rights));
    }
  };
  put_side(positive_);
  put_side(negative_);
  return w.Take();
}

Result<AccessList> AccessList::Deserialize(const Bytes& data) {
  rpc::Reader r(data);
  AccessList out;
  for (int side = 0; side < 2; ++side) {
    // Each entry: u8 principal kind, u32 id, u32 rights.
    ASSIGN_OR_RETURN(uint32_t count, r.Count(1 + 4 + 4));
    for (uint32_t i = 0; i < count; ++i) {
      ASSIGN_OR_RETURN(uint8_t kind, r.U8());
      if (kind > 1) return Status::kProtocolError;
      ASSIGN_OR_RETURN(uint32_t id, r.U32());
      ASSIGN_OR_RETURN(uint32_t rights, r.U32());
      if ((rights & ~static_cast<uint32_t>(kAllRights)) != 0) return Status::kProtocolError;
      const Principal who{static_cast<Principal::Kind>(kind), id};
      if (side == 0) {
        out.SetPositive(who, static_cast<Rights>(rights));
      } else {
        out.SetNegative(who, static_cast<Rights>(rights));
      }
    }
  }
  if (!r.AtEnd()) return Status::kProtocolError;
  return out;
}

}  // namespace itc::protection
