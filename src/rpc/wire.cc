#include "src/rpc/wire.h"

namespace itc::rpc {

void Writer::Append(const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + n);
}

}  // namespace itc::rpc
