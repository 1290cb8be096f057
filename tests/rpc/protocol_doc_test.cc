// Guards docs/PROTOCOL.md against drift: the opcode tables embedded between
// BEGIN/END GENERATED markers must match RenderOpTable() over the live op
// schemas. On mismatch the test prints the expected block — paste it into the
// document to regenerate.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/baseline/remote_open.h"
#include "src/protection/protection_rpc.h"
#include "src/rpc/op_registry.h"
#include "src/vice/protocol.h"
#include "src/virtue/surrogate.h"

namespace itc {
namespace {

std::string ReadProtocolDoc() {
  const std::string path = std::string(ITC_SOURCE_DIR) + "/docs/PROTOCOL.md";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The text between "<!-- BEGIN GENERATED: tag -->\n" and
// "<!-- END GENERATED: tag -->".
std::string ExtractBlock(const std::string& doc, const std::string& tag) {
  const std::string begin = "<!-- BEGIN GENERATED: " + tag + " -->\n";
  const std::string end = "<!-- END GENERATED: " + tag + " -->";
  const size_t b = doc.find(begin);
  if (b == std::string::npos) return "";
  const size_t start = b + begin.size();
  const size_t e = doc.find(end, start);
  if (e == std::string::npos) return "";
  return doc.substr(start, e - start);
}

TEST(ProtocolDocTest, ViceOpTableMatchesSchema) {
  const std::string expected = rpc::RenderOpTable(vice::ViceOpSchema());
  const std::string actual = ExtractBlock(ReadProtocolDoc(), "vice-op-table");
  EXPECT_EQ(actual, expected)
      << "docs/PROTOCOL.md vice-op-table is stale; regenerate it with:\n"
      << expected;
}

TEST(ProtocolDocTest, ProtectionOpTableMatchesSchema) {
  const std::string expected = rpc::RenderOpTable(protection::ProtectionOpSchema());
  const std::string actual = ExtractBlock(ReadProtocolDoc(), "protection-op-table");
  EXPECT_EQ(actual, expected)
      << "docs/PROTOCOL.md protection-op-table is stale; regenerate it with:\n"
      << expected;
}

TEST(ProtocolDocTest, RemoteOpenOpTableMatchesSchema) {
  const std::string expected = rpc::RenderOpTable(baseline::RemoteOpenOpSchema());
  const std::string actual = ExtractBlock(ReadProtocolDoc(), "remote-open-op-table");
  EXPECT_EQ(actual, expected)
      << "docs/PROTOCOL.md remote-open-op-table is stale; regenerate it with:\n"
      << expected;
}

TEST(ProtocolDocTest, SurrogateOpTableMatchesSchema) {
  const std::string expected = rpc::RenderOpTable(virtue::SurrogateOpSchema());
  const std::string actual = ExtractBlock(ReadProtocolDoc(), "surrogate-op-table");
  EXPECT_EQ(actual, expected)
      << "docs/PROTOCOL.md surrogate-op-table is stale; regenerate it with:\n"
      << expected;
}

}  // namespace
}  // namespace itc
