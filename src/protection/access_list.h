// Access lists with positive and negative rights (Section 3.4).
//
// "The rights possessed by a user on a protected object are the union of the
//  rights specified for all the groups that he belongs to ... The union of
//  all the negative rights specified for a user's CPS is subtracted from his
//  positive rights."
//
// Negative rights are the rapid-revocation mechanism: revoking via group
// removal touches the replicated protection database (slow, distributed);
// granting a negative right edits one access list at one site.

#ifndef SRC_PROTECTION_ACCESS_LIST_H_
#define SRC_PROTECTION_ACCESS_LIST_H_

#include <map>
#include <vector>

#include "src/common/result.h"
#include "src/common/types.h"
#include "src/protection/principal.h"
#include "src/protection/rights.h"

namespace itc::protection {

class AccessList {
 public:
  // Grants (replaces) positive rights for a principal. kNone removes the
  // entry.
  void SetPositive(Principal who, Rights rights);
  // Sets (replaces) negative rights for a principal. kNone removes the entry.
  void SetNegative(Principal who, Rights rights);
  // Removes both positive and negative entries for a principal.
  void Remove(Principal who);

  Rights PositiveFor(Principal who) const;
  Rights NegativeFor(Principal who) const;

  // Effective rights for a user whose Current Protection Subdomain is `cps`:
  // union of positive entries matching the CPS minus union of negative
  // entries matching the CPS.
  Rights Effective(const std::vector<Principal>& cps) const;

  size_t entry_count() const { return positive_.size() + negative_.size(); }
  bool empty() const { return positive_.empty() && negative_.empty(); }

  const std::map<Principal, Rights>& positive() const { return positive_; }
  const std::map<Principal, Rights>& negative() const { return negative_; }

  // Wire/storage encoding (stable, versionless).
  Bytes Serialize() const;
  // Serialize().size() without serializing: per side a u32 count, then per
  // entry a u8 principal kind, u32 id and u32 rights.
  size_t WireSize() const { return 2 * 4 + (1 + 4 + 4) * entry_count(); }
  [[nodiscard]] static Result<AccessList> Deserialize(const Bytes& data);

  friend bool operator==(const AccessList&, const AccessList&) = default;

 private:
  std::map<Principal, Rights> positive_;
  std::map<Principal, Rights> negative_;
};

}  // namespace itc::protection

#endif  // SRC_PROTECTION_ACCESS_LIST_H_
