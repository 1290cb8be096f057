// Tests for the RPC call path: per-op tracing into CallStats, the client
// stub's retries and deadline (§3.5.3 — idempotent ops only are resent;
// mutators run at most once), and the server endpoint's fault injector.

#include <gtest/gtest.h>

#include "src/campus/campus.h"
#include "src/rpc/op_registry.h"
#include "src/rpc/rpc.h"
#include "src/rpc/wire.h"
#include "src/vice/protocol.h"

namespace itc::rpc {
namespace {

// --- LatencyHistogram --------------------------------------------------------

TEST(LatencyHistogramTest, RecordsAndSummarizes) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);

  h.Record(100);
  h.Record(200);
  h.Record(400);
  h.Record(Millis(10));
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.min(), 100);
  EXPECT_EQ(h.max(), Millis(10));
  EXPECT_EQ(h.sum(), 100 + 200 + 400 + Millis(10));
  EXPECT_DOUBLE_EQ(h.Mean(), static_cast<double>(h.sum()) / 4.0);
  // p100 lands in the top bucket, clamped to the observed max.
  EXPECT_EQ(h.Percentile(1.0), Millis(10));
  // With 4 samples p99 has rank 3, so it reports the 400-sample's bucket edge.
  EXPECT_GE(h.Percentile(0.99), 400);
  EXPECT_LT(h.Percentile(0.99), Millis(10));
  // p50 is bounded by its bucket's upper edge, never below the sample.
  EXPECT_GE(h.Percentile(0.5), 200);
  EXPECT_LT(h.Percentile(0.5), 400);
}

TEST(LatencyHistogramTest, MergeCombines) {
  LatencyHistogram a, b;
  a.Record(10);
  b.Record(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

// --- Op schema / registry ----------------------------------------------------

TEST(OpSchemaTest, ViceSchemaLookup) {
  const OpSchema& schema = vice::ViceOpSchema();
  EXPECT_EQ(schema.ops().size(), 25u);
  const OpSpec* fetch = schema.Find(static_cast<uint32_t>(vice::Proc::kFetch));
  ASSERT_NE(fetch, nullptr);
  const OpSpec* renew = schema.Find(static_cast<uint32_t>(vice::Proc::kRenewLeases));
  ASSERT_NE(renew, nullptr);
  EXPECT_EQ(renew->name, "RenewLeases");
  EXPECT_EQ(fetch->name, "Fetch");
  EXPECT_EQ(fetch->call_class, CallClass::kFetch);
  EXPECT_TRUE(fetch->idempotent);
  const OpSpec* store = schema.Find(static_cast<uint32_t>(vice::Proc::kStore));
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->idempotent);
  EXPECT_EQ(schema.Find(9999), nullptr);
  EXPECT_EQ(schema.Find(51), nullptr);
  EXPECT_EQ(schema.Find(53), nullptr);
}

TEST(OpRegistryTest, UnknownAndUnboundOpcodesAreProtocolErrors) {
  static const OpSchema schema("toy", {{1, "Ping"}, {2, "Unbound"}});
  OpRegistry registry(&schema);
  registry.Bind(1, [](CallContext&, const Bytes& req) -> Result<Bytes> { return req; });

  CallContext ctx(1, 0, 0);
  EXPECT_TRUE(registry.Dispatch(ctx, 1, Bytes{}).ok());
  EXPECT_EQ(registry.Dispatch(ctx, 2, Bytes{}).status(), Status::kProtocolError);
  EXPECT_EQ(registry.Dispatch(ctx, 42, Bytes{}).status(), Status::kProtocolError);
}

TEST(OpRegistryTest, RenderOpTableShape) {
  const std::string table = RenderOpTable(vice::ViceOpSchema());
  EXPECT_NE(table.find("| proc | name | class | idempotent |"), std::string::npos);
  EXPECT_NE(table.find("| 10 | Fetch | fetch | yes |"), std::string::npos);
  EXPECT_NE(table.find("| 13 | Store | store | no |"), std::string::npos);
}

// --- End-to-end: campus-level stats -----------------------------------------

class InterceptorCampusTest : public ::testing::Test {
 protected:
  void Build(campus::CampusConfig config) {
    campus_ = std::make_unique<campus::Campus>(config);
    ASSERT_TRUE(campus_->SetupRootVolume().ok());
    auto home = campus_->AddUserWithHome("u", "pw", 0);
    ASSERT_TRUE(home.ok());
    home_ = *home;
    ws_ = &campus_->workstation(0);
    ASSERT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kOk);
  }

  std::unique_ptr<campus::Campus> campus_;
  campus::Campus::UserHome home_;
  virtue::Workstation* ws_ = nullptr;
};

TEST_F(InterceptorCampusTest, ServerCallStatsPopulatedAndAggregated) {
  Build(campus::CampusConfig::Revised(1, 1));
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("data")), Status::kOk);
  ws_->venus().FlushCache();
  ASSERT_TRUE(ws_->ReadWholeFile("/vice/usr/u/f").ok());

  const CallStats total = campus_->TotalCallStats();
  EXPECT_GT(total.total_calls(), 0u);
  const OpStats* fetch = total.Find(static_cast<uint32_t>(vice::Proc::kFetch));
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->name, "Fetch");
  EXPECT_GE(fetch->calls, 1u);
  EXPECT_GT(fetch->bytes_out, 0u);
  EXPECT_GT(fetch->latency.max(), 0);

  // The class collapse agrees with the per-server histogram path.
  EXPECT_EQ(campus_->TotalCallHistogram(), campus_->server(0).CallHistogram());
  EXPECT_EQ(campus_->TotalCalls(), campus_->server(0).total_calls());

  // The client stub records its own view, including round-trip latencies.
  const CallStats& client = ws_->venus().call_stats();
  EXPECT_GT(client.total_calls(), 0u);
  ASSERT_NE(client.Find(static_cast<uint32_t>(vice::Proc::kFetch)), nullptr);

  campus_->ResetAllStats();
  EXPECT_EQ(campus_->TotalCalls(), 0u);
  EXPECT_EQ(ws_->venus().call_stats().total_calls(), 0u);
}

TEST_F(InterceptorCampusTest, DroppedFetchReplyIsRetriedTransparently) {
  auto config = campus::CampusConfig::Revised(1, 1);
  config.rpc.retry.max_retries = 2;
  Build(config);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("survives")), Status::kOk);
  ws_->venus().FlushCache();

  auto& endpoint = campus_->server(0).endpoint();
  endpoint.ResetStats();
  endpoint.fault().DropNextReplies(1, CallClass::kFetch);

  // The fetch's reply is lost; the stub retries the idempotent op and the
  // read succeeds without the application seeing anything.
  auto data = ws_->ReadWholeFile("/vice/usr/u/f");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(ToString(*data), "survives");

  const OpStats* fetch =
      endpoint.call_stats().Find(static_cast<uint32_t>(vice::Proc::kFetch));
  ASSERT_NE(fetch, nullptr);
  EXPECT_GE(fetch->calls, 2u);  // the dropped attempt plus the retry
  EXPECT_GE(fetch->errors, 1u);
}

TEST_F(InterceptorCampusTest, StoreIsNeverBlindlyRetried) {
  auto config = campus::CampusConfig::Revised(1, 1);
  config.rpc.retry.max_retries = 2;
  Build(config);
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("v1")), Status::kOk);

  auto& endpoint = campus_->server(0).endpoint();
  endpoint.ResetStats();
  endpoint.fault().DropNextReplies(1, CallClass::kStore);

  // The store executes server-side but its reply is lost. At-most-once: the
  // stub must NOT resend a non-idempotent op; the failure surfaces.
  EXPECT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("v2")),
            Status::kUnavailable);

  const OpStats* store =
      endpoint.call_stats().Find(static_cast<uint32_t>(vice::Proc::kStore));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->calls, 1u);  // executed exactly once, never resent
}

TEST_F(InterceptorCampusTest, SeededFaultInjectionByClass) {
  Build(campus::CampusConfig::Revised(1, 1));
  ASSERT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("x")), Status::kOk);
  ws_->venus().FlushCache();

  // Every store is answered with the fault; fetches (including the directory
  // fetches path resolution needs) are untouched.
  FaultConfig fault;
  fault.error_probability = 1.0;
  fault.error = Status::kTimedOut;
  fault.only_class = CallClass::kStore;
  campus_->server(0).endpoint().fault().set_config(fault);

  EXPECT_TRUE(ws_->ReadWholeFile("/vice/usr/u/f").ok());
  EXPECT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("y")), Status::kTimedOut);

  // Lifting the fault restores normal service.
  campus_->server(0).endpoint().fault().set_config(FaultConfig{});
  EXPECT_EQ(ws_->WriteWholeFile("/vice/usr/u/f", ToBytes("y")), Status::kOk);
}

TEST_F(InterceptorCampusTest, FailAllBlocksHandshake) {
  Build(campus::CampusConfig::Revised(1, 1));
  campus_->server(0).endpoint().fault().set_fail_all(true);
  ws_->Logout();
  EXPECT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kUnavailable);
  campus_->server(0).endpoint().fault().set_fail_all(false);
  EXPECT_EQ(ws_->LoginWithPassword(home_.user, "pw"), Status::kOk);
}

// --- Deadline ---------------------------------------------------------------

// Slow echo: procs 1-3 return the request; proc 2 charges 500ms of server
// CPU.
const OpSchema& SlowEchoSchema() {
  static const OpSchema schema("slow-echo", {{1, "Echo"}, {2, "SlowEcho"}, {3, "Echo3"}});
  return schema;
}

struct SlowEchoService {
  SlowEchoService() {
    for (uint32_t proc : {1u, 2u, 3u}) {
      registry.Bind(proc, [proc](CallContext& ctx, const Bytes& request) -> Result<Bytes> {
        if (proc == 2) ctx.ChargeCpu(Millis(500));
        return request;
      });
    }
  }
  OpRegistry registry{&SlowEchoSchema()};
};

TEST(DeadlineTest, SlowCallTimesOut) {
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  SlowEchoService service;

  // A bare round trip costs ~18ms under the 1985 model (2 x 4ms network plus
  // 10ms of server CPU per call); 100ms comfortably admits it while catching
  // the 500ms op.
  RpcConfig config;
  config.call_deadline = Millis(100);
  ServerEndpoint server(
      topo.ServerNode(0, 0), &network, cost, config,
      [&key](UserId) -> std::optional<crypto::Key> { return key; }, 999);
  server.set_registry(&service.registry);

  sim::Clock clock;
  auto conn = ClientConnection::Connect(topo.WorkstationNode(0, 0), 7, key, &server,
                                        &network, cost, &clock, 555);
  ASSERT_TRUE(conn.ok());

  // A fast call fits inside the deadline...
  EXPECT_TRUE((*conn)->Call(1, ToBytes("quick")).ok());
  // ...the 500ms one does not.
  EXPECT_EQ((*conn)->Call(2, ToBytes("slow")).status(), Status::kTimedOut);
}

TEST(FailCallsTest, SkipsThenFailsExactlyCountCalls) {
  net::Topology topo(net::TopologyConfig{1, 1, 2});
  const sim::CostModel cost = sim::CostModel::Default1985();
  net::Network network(topo, cost);
  const crypto::Key key = crypto::DeriveKeyFromPassword("pw", "realm");
  SlowEchoService service;

  ServerEndpoint server(
      topo.ServerNode(0, 0), &network, cost, RpcConfig{},
      [&key](UserId) -> std::optional<crypto::Key> { return key; }, 999);
  server.set_registry(&service.registry);

  sim::Clock clock;
  auto conn = ClientConnection::Connect(topo.WorkstationNode(0, 0), 7, key, &server,
                                        &network, cost, &clock, 555);
  ASSERT_TRUE(conn.ok());

  // Skip 2, fail 1 with a chosen status, then clear: calls 1-2 succeed,
  // call 3 fails with exactly that status, call 4 succeeds again.
  server.fault().FailCalls(/*skip=*/2, /*count=*/1, Status::kConnectionBroken);
  EXPECT_TRUE((*conn)->Call(1, ToBytes("a")).ok());
  EXPECT_TRUE((*conn)->Call(1, ToBytes("b")).ok());
  EXPECT_EQ((*conn)->Call(1, ToBytes("c")).status(), Status::kConnectionBroken);
  EXPECT_TRUE((*conn)->Call(1, ToBytes("d")).ok());
}

// --- Call-path semantics -----------------------------------------------------

// Proc 1: idempotent echo. Proc 2: idempotent, charges 500ms of server CPU.
// Proc 3: a mutator (not idempotent) that counts its executions.
const OpSchema& CallPathSchema() {
  static const OpSchema schema("call-path", {{1, "Echo", CallClass::kFetch, true},
                                             {2, "SlowEcho", CallClass::kFetch, true},
                                             {3, "Store", CallClass::kStore, false}});
  return schema;
}

class CallPathTest : public ::testing::Test {
 protected:
  CallPathTest()
      : topo_(net::TopologyConfig{1, 1, 2}),
        cost_(sim::CostModel::Default1985()),
        network_(topo_, cost_),
        key_(crypto::DeriveKeyFromPassword("pw", "realm")) {
    for (uint32_t proc : {1u, 2u, 3u}) {
      registry_.Bind(proc, [this, proc](CallContext& ctx, const Bytes&) -> Result<Bytes> {
        if (proc == 2) ctx.ChargeCpu(Millis(500));
        if (proc == 3) stores_ += 1;
        return StatusOnlyReply(Status::kOk);
      });
    }
  }

  void Start(const RpcConfig& config) {
    server_ = std::make_unique<ServerEndpoint>(
        topo_.ServerNode(0, 0), &network_, cost_, config,
        [this](UserId) -> std::optional<crypto::Key> { return key_; }, 999);
    server_->set_registry(&registry_);
    auto conn = ClientConnection::Connect(topo_.WorkstationNode(0, 0), 7, key_,
                                          server_.get(), &network_, cost_, &clock_, 555,
                                          ClientOptions{&CallPathSchema(), &client_stats_});
    ASSERT_TRUE(conn.ok());
    conn_ = std::move(*conn);
  }

  static uint64_t Count(const OpStats* op, Status outcome) {
    auto it = op->error_codes.find(outcome);
    return it == op->error_codes.end() ? 0 : it->second;
  }

  net::Topology topo_;
  sim::CostModel cost_;
  net::Network network_;
  crypto::Key key_;
  OpRegistry registry_{&CallPathSchema()};
  sim::Clock clock_;
  CallStats client_stats_;
  int stores_ = 0;
  std::unique_ptr<ServerEndpoint> server_;
  std::unique_ptr<ClientConnection> conn_;
};

TEST_F(CallPathTest, DroppedIdempotentReplyIsOneClientCallSpanningBothAttempts) {
  RpcConfig config;
  config.retry.max_retries = 2;
  Start(config);

  SimTime start = clock_.now();
  ASSERT_TRUE(conn_->Call(1, Bytes{}).ok());
  const SimTime clean = clock_.now() - start;
  client_stats_.Reset();
  server_->ResetStats();

  server_->fault().DropNextReplies(1);
  start = clock_.now();
  ASSERT_TRUE(conn_->Call(1, Bytes{}).ok());
  const SimTime elapsed = clock_.now() - start;

  // The client records the whole call once, as its caller saw it: the lost
  // attempt, the 20ms backoff and the clean retry.
  const OpStats* client = client_stats_.Find(1);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->calls, 1u);
  EXPECT_EQ(client->errors, 0u);
  EXPECT_EQ(client->latency.sum(), elapsed);
  EXPECT_GT(elapsed, clean + Millis(20));
  EXPECT_LE(elapsed, 2 * clean + Millis(20));

  // The server served both attempts.
  const OpStats* served = server_->call_stats().Find(1);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->calls, 2u);
  EXPECT_EQ(Count(served, Status::kUnavailable), 1u);
}

TEST_F(CallPathTest, DeadlineAppliesToEveryAttempt) {
  RpcConfig config;
  config.retry.max_retries = 2;
  config.call_deadline = Millis(100);
  Start(config);

  EXPECT_EQ(conn_->Call(2, Bytes{}).status(), Status::kTimedOut);

  const OpStats* served = server_->call_stats().Find(2);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->calls, 1u + config.retry.max_retries);
  const OpStats* client = client_stats_.Find(2);
  ASSERT_NE(client, nullptr);
  EXPECT_EQ(client->calls, 1u);
  EXPECT_EQ(Count(client, Status::kTimedOut), 1u);
}

TEST_F(CallPathTest, DroppedStoreReplyIsOneServerCallThatApplied) {
  RpcConfig config;
  config.retry.max_retries = 2;
  Start(config);

  server_->fault().DropNextReplies(1, CallClass::kStore);
  EXPECT_EQ(conn_->Call(3, Bytes{}).status(), Status::kUnavailable);

  EXPECT_EQ(stores_, 1);  // applied once, never resent
  const OpStats* served = server_->call_stats().Find(3);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->calls, 1u);
  EXPECT_EQ(served->errors, 1u);
  EXPECT_EQ(Count(served, Status::kUnavailable), 1u);
  EXPECT_GT(served->latency.max(), 0);
}

}  // namespace
}  // namespace itc::rpc
