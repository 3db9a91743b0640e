// Networked serving layer tests: wire protocol (frames, CRC, codecs),
// socket fault injection (torn frame, mid-write close, stalled read),
// end-to-end parity of the paper query shapes over real TCP vs in-process,
// deadline/cancellation semantics, and admission-control fast-reject.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "query/session.h"
#include "server/tv_server.h"
#include "util/cancel.h"
#include "util/io.h"

namespace tigervector {
namespace {

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// ---------------- CRC and payload primitives ----------------

TEST(NetFrameTest, Crc32KnownVector) {
  // The canonical CRC-32 (IEEE) check value.
  EXPECT_EQ(net::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(net::Crc32("", 0), 0u);
}

TEST(NetFrameTest, WireWriterReaderRoundTrip) {
  net::WireWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEF);
  w.PutU64(uint64_t{1} << 60);
  w.PutI64(-42);
  w.PutF32(1.5f);
  w.PutF64(-0.25);
  w.PutString("hello");
  w.PutFloatVec({1, 2, 3});
  const std::string buf = w.Take();

  net::WireReader r(buf);
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  float f32;
  double f64;
  std::string s;
  std::vector<float> vec;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  ASSERT_TRUE(r.GetU32(&u32).ok());
  ASSERT_TRUE(r.GetU64(&u64).ok());
  ASSERT_TRUE(r.GetI64(&i64).ok());
  ASSERT_TRUE(r.GetF32(&f32).ok());
  ASSERT_TRUE(r.GetF64(&f64).ok());
  ASSERT_TRUE(r.GetString(&s).ok());
  ASSERT_TRUE(r.GetFloatVec(&vec).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, uint64_t{1} << 60);
  EXPECT_EQ(i64, -42);
  EXPECT_EQ(f32, 1.5f);
  EXPECT_EQ(f64, -0.25);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(vec, (std::vector<float>{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(NetFrameTest, WireReaderUnderrunIsTypedError) {
  const std::string two_bytes("\x01\x02", 2);
  net::WireReader r(two_bytes);
  uint32_t v;
  Status st = r.GetU32(&v);
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("underrun"), std::string::npos);
}

TEST(NetFrameTest, WireReaderStringLengthBeyondBufferFails) {
  net::WireWriter w;
  w.PutU32(1000);  // claims 1000 bytes follow; none do
  const std::string buf = w.Take();
  net::WireReader r(buf);
  std::string s;
  EXPECT_EQ(r.GetString(&s).code(), StatusCode::kIOError);
}

// ---------------- Status wire codec ----------------

TEST(NetProtocolTest, StatusWireIdsAreStable) {
  // Pinned: these ids are the wire contract, independent of enum order.
  EXPECT_EQ(net::StatusCodeToWire(StatusCode::kOk), 0u);
  EXPECT_EQ(net::StatusCodeToWire(StatusCode::kAborted), 7u);
  EXPECT_EQ(net::StatusCodeToWire(StatusCode::kIOError), 9u);
  EXPECT_EQ(net::StatusCodeToWire(StatusCode::kDeadlineExceeded), 12u);
  EXPECT_EQ(net::StatusCodeToWire(StatusCode::kUnavailable), 13u);
}

TEST(NetProtocolTest, StatusRoundTripAllCodes) {
  for (uint32_t wire = 0; wire <= 13; ++wire) {
    const StatusCode code = net::StatusCodeFromWire(wire);
    EXPECT_EQ(net::StatusCodeToWire(code), wire);
    Status original(code, "m" + std::to_string(wire));
    Status decoded = Status::OK();
    ASSERT_TRUE(net::DecodeStatus(net::EncodeStatus(original), &decoded).ok());
    EXPECT_EQ(decoded.code(), original.code());
    EXPECT_EQ(decoded.message(), original.message());
  }
  // Unknown future ids degrade to kInternal, not garbage.
  EXPECT_EQ(net::StatusCodeFromWire(999), StatusCode::kInternal);
}

TEST(NetProtocolTest, QueryRequestRoundTripAllParamKinds) {
  net::QueryRequest request;
  request.script = "R = SELECT s FROM (s:Post); PRINT R;";
  request.params["k"] = int64_t{-5};
  request.params["threshold"] = 0.75;
  request.params["lang"] = std::string("English");
  request.params["qv"] = std::vector<float>{1.5f, -2.25f, 0.0f};

  net::QueryRequest decoded;
  ASSERT_TRUE(
      net::DecodeQueryRequest(net::EncodeQueryRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.script, request.script);
  EXPECT_EQ(decoded.params, request.params);
}

TEST(NetProtocolTest, ScriptResultRoundTripAllFields) {
  ScriptResult result;
  ScriptResult::Printed printed;
  printed.name = "R";
  printed.vertices = {3, 5, 9};
  printed.distances = {{3, 0.5f}, {5, 1.25f}};
  printed.is_distance_map = true;
  result.prints.push_back(printed);
  result.last_plan = "EmbeddingAction[Top 2]";
  result.last_join_pairs.push_back({1, 2, 0.125f});
  result.last_load_report.vertices_loaded = 7;
  result.last_load_report.embeddings_loaded = 6;
  result.last_load_report.rows_skipped = 1;
  result.last_load_report.warnings = {"w1", "w2"};
  result.profiled = true;
  result.profile_stage_micros = {{"execute", 12.5}};
  result.profile_counters = {{"hnsw.hops", 42}};
  result.profile = "table";
  result.explained = true;
  result.analyzed = true;
  result.explain = "plan text";
  result.flight_id = 77;

  ScriptResult decoded;
  ASSERT_TRUE(
      net::DecodeScriptResult(net::EncodeScriptResult(result), &decoded).ok());
  ASSERT_EQ(decoded.prints.size(), 1u);
  EXPECT_EQ(decoded.prints[0].name, "R");
  EXPECT_EQ(decoded.prints[0].vertices, printed.vertices);
  EXPECT_EQ(decoded.prints[0].distances, printed.distances);
  EXPECT_TRUE(decoded.prints[0].is_distance_map);
  EXPECT_EQ(decoded.last_plan, result.last_plan);
  ASSERT_EQ(decoded.last_join_pairs.size(), 1u);
  EXPECT_EQ(decoded.last_join_pairs[0].source, 1u);
  EXPECT_EQ(decoded.last_join_pairs[0].target, 2u);
  EXPECT_EQ(decoded.last_join_pairs[0].distance, 0.125f);
  EXPECT_EQ(decoded.last_load_report.vertices_loaded, 7u);
  EXPECT_EQ(decoded.last_load_report.warnings, result.last_load_report.warnings);
  EXPECT_TRUE(decoded.profiled);
  EXPECT_EQ(decoded.profile_stage_micros, result.profile_stage_micros);
  EXPECT_EQ(decoded.profile_counters, result.profile_counters);
  EXPECT_EQ(decoded.profile, "table");
  EXPECT_TRUE(decoded.explained);
  EXPECT_TRUE(decoded.analyzed);
  EXPECT_EQ(decoded.explain, "plan text");
  EXPECT_EQ(decoded.flight_id, 77u);
}

// ---------------- Frames over real TCP ----------------

// A connected (client, server) socket pair through a loopback listener.
struct SocketPair {
  net::Socket client;
  net::Socket server;
};

SocketPair MakePair() {
  auto listener = net::Listener::Listen(0, 4);
  EXPECT_TRUE(listener.ok());
  SocketPair pair;
  std::thread accepter([&] {
    auto accepted = listener->Accept();
    if (accepted.ok()) pair.server = std::move(accepted).value();
  });
  auto connected = net::Socket::Connect("127.0.0.1", listener->port(), 2000);
  EXPECT_TRUE(connected.ok()) << connected.status().ToString();
  pair.client = std::move(connected).value();
  accepter.join();
  return pair;
}

TEST(NetFrameTest, FrameRoundTripOverTcp) {
  SocketPair pair = MakePair();
  net::Frame frame;
  frame.type = net::MsgType::kQuery;
  frame.request_id = 0x1122334455667788ull;
  frame.deadline_micros = 250000;
  frame.payload = std::string("payload \x00 with binary", 21);
  ASSERT_TRUE(net::WriteFrame(pair.client, frame).ok());
  auto read = net::ReadFrame(pair.server);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->type, frame.type);
  EXPECT_EQ(read->request_id, frame.request_id);
  EXPECT_EQ(read->deadline_micros, frame.deadline_micros);
  EXPECT_EQ(read->payload, frame.payload);
}

TEST(NetFrameTest, BadMagicIsTypedError) {
  SocketPair pair = MakePair();
  const std::string junk(net::kFrameHeaderBytes, 'X');
  ASSERT_TRUE(pair.client.SendAll(junk.data(), junk.size()).ok());
  auto read = net::ReadFrame(pair.server);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().message().find("magic"), std::string::npos);
}

TEST(NetFrameTest, CorruptPayloadFailsChecksum) {
  SocketPair pair = MakePair();
  net::Frame frame;
  frame.type = net::MsgType::kText;
  frame.payload = "the payload bytes";
  // Serialize by hand so one payload byte can be flipped after the CRC was
  // computed (line corruption the length prefix alone cannot catch).
  std::string wire;
  {
    net::WireWriter w;
    w.PutU32(net::kWireMagic);
    wire = w.Take();
    wire.push_back(static_cast<char>(net::kWireVersion & 0xff));
    wire.push_back(static_cast<char>(net::kWireVersion >> 8));
    wire.push_back(static_cast<char>(frame.type));
    wire.push_back(0);  // flags
    for (int i = 0; i < 16; ++i) wire.push_back(0);  // request id + deadline
    const uint32_t len = static_cast<uint32_t>(frame.payload.size());
    const uint32_t crc = net::Crc32(frame.payload.data(), frame.payload.size());
    for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>(len >> (8 * i)));
    for (int i = 0; i < 4; ++i) wire.push_back(static_cast<char>(crc >> (8 * i)));
    wire += frame.payload;
  }
  wire[net::kFrameHeaderBytes + 3] ^= 0x40;  // flip a payload bit
  ASSERT_TRUE(pair.client.SendAll(wire.data(), wire.size()).ok());
  auto read = net::ReadFrame(pair.server);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().message().find("checksum"), std::string::npos);
}

TEST(NetFrameTest, TornWriteYieldsTypedErrorBothEnds) {
  SocketPair pair = MakePair();
  pair.client.set_fault_site("net.test.torn");
  io::FaultInjector::Instance().Arm("net.test.torn",
                                    {io::FaultKind::kTornWrite, 16});
  net::Frame frame;
  frame.type = net::MsgType::kQuery;
  frame.payload = std::string(100, 'q');
  // Sender: typed error, connection gone.
  Status sent = net::WriteFrame(pair.client, frame);
  EXPECT_EQ(sent.code(), StatusCode::kIOError);
  EXPECT_NE(sent.message().find("torn"), std::string::npos);
  EXPECT_FALSE(pair.client.is_open());
  // Receiver: typed torn-frame error, never a truncated payload.
  auto read = net::ReadFrame(pair.server);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  io::FaultInjector::Instance().Reset();
}

TEST(NetFrameTest, MidWriteCloseBeforeAnyByteIsCleanPeerClose) {
  SocketPair pair = MakePair();
  pair.client.set_fault_site("net.test.close");
  io::FaultInjector::Instance().Arm("net.test.close",
                                    {io::FaultKind::kTornWrite, 0});
  net::Frame frame;
  frame.type = net::MsgType::kPing;
  EXPECT_FALSE(net::WriteFrame(pair.client, frame).ok());
  auto read = net::ReadFrame(pair.server);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().message().find("closed"), std::string::npos);
  io::FaultInjector::Instance().Reset();
}

TEST(NetFrameTest, StalledPeerTripsReceiveTimeout) {
  SocketPair pair = MakePair();
  ASSERT_TRUE(pair.server.SetRecvTimeout(100).ok());
  pair.client.set_fault_site("net.test.stall");
  io::FaultInjector::Instance().Arm("net.test.stall",
                                    {io::FaultKind::kStall, 400});
  std::thread sender([&] {
    net::Frame frame;
    frame.type = net::MsgType::kPing;
    (void)net::WriteFrame(pair.client, frame);
  });
  auto read = net::ReadFrame(pair.server);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDeadlineExceeded);
  sender.join();
  io::FaultInjector::Instance().Reset();
}

// ---------------- End-to-end: server + client ----------------

// Same dataset as the query-session fixture: persons 0..3 with knows
// edges, 3 posts each, post embeddings [10*i + j, 0, 0, 0].
class NetServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Database::Options options;
    options.store.segment_capacity = 32;
    options.embeddings.index_params.m = 8;
    options.embeddings.index_params.ef_construction = 64;
    db_ = std::make_unique<Database>(options);
    GsqlSession ddl_session(db_.get());
    auto ddl = ddl_session.Run(
        "CREATE VERTEX Person (firstName STRING, age INT);"
        "CREATE VERTEX Post (language STRING, length INT);"
        "CREATE UNDIRECTED EDGE knows (FROM Person, TO Person);"
        "CREATE DIRECTED EDGE hasCreator (FROM Post, TO Person);"
        "CREATE EMBEDDING SPACE space1 (DIMENSION = 4, MODEL = M, INDEX = HNSW,"
        " DATATYPE = FLOAT, METRIC = L2);"
        "ALTER VERTEX Post ADD EMBEDDING ATTRIBUTE content_emb"
        " IN EMBEDDING SPACE space1;");
    ASSERT_TRUE(ddl.ok()) << ddl.status().ToString();

    Transaction txn = db_->Begin();
    const char* names[] = {"Alice", "Bob", "Carol", "Dave"};
    for (int i = 0; i < 4; ++i) {
      auto vid = txn.InsertVertex("Person", {std::string(names[i]), int64_t{20 + i}});
      ASSERT_TRUE(vid.ok());
      persons_.push_back(*vid);
    }
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[1]).ok());
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[0], persons_[2]).ok());
    ASSERT_TRUE(txn.InsertEdge("knows", persons_[2], persons_[3]).ok());
    ASSERT_TRUE(txn.Commit().ok());
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 3; ++j) {
        Transaction ptxn = db_->Begin();
        auto vid = ptxn.InsertVertex(
            "Post", {std::string(j == 0 ? "English" : "German"),
                     int64_t{500 + 300 * j}});
        ASSERT_TRUE(vid.ok());
        ASSERT_TRUE(ptxn.InsertEdge("hasCreator", *vid, persons_[i]).ok());
        ASSERT_TRUE(ptxn.SetEmbedding(*vid, "Post", "content_emb",
                                      {static_cast<float>(10 * i + j), 0, 0, 0})
                        .ok());
        ASSERT_TRUE(ptxn.Commit().ok());
        posts_.push_back(*vid);
      }
    }
    ASSERT_TRUE(db_->Vacuum().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    io::FaultInjector::Instance().Reset();
  }

  void StartServer(server::ServerOptions options = server::ServerOptions()) {
    server_ = std::make_unique<server::TvServer>(db_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  net::TvClient MakeClient(int max_retries = 0) {
    net::ClientOptions options;
    options.port = server_->port();
    options.max_retries = max_retries;
    return net::TvClient(options);
  }

  QueryParams Params(std::vector<float> qv) {
    QueryParams p;
    p["qv"] = std::move(qv);
    return p;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<server::TvServer> server_;
  std::vector<VertexId> persons_;
  std::vector<VertexId> posts_;
};

TEST_F(NetServerFixture, PingPong) {
  StartServer();
  net::TvClient client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

// The acceptance bar: the five paper query shapes (pure top-k, filtered
// search, graph-pattern search, range search, similarity join — plus the
// Q2/Q3 composition forms) return bit-for-bit identical results via
// tv_client as via the in-process session.
TEST_F(NetServerFixture, FiveQueryShapesBitForBitParity) {
  StartServer();
  net::TvClient client = MakeClient();
  GsqlSession local(db_.get());

  struct Shape {
    const char* name;
    const char* script;
    std::vector<float> qv;
  };
  const Shape shapes[] = {
      {"topk",
       "R = SELECT s FROM (s:Post)"
       " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
       {21, 0, 0, 0}},
      {"filtered",
       "R = SELECT s FROM (s:Post) WHERE s.language = \"English\""
       " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 4; PRINT R;",
       {0, 0, 0, 0}},
      {"graph_pattern",
       "R = SELECT t FROM (s:Person) -[:knows]- (:Person) <-[:hasCreator]-"
       " (t:Post) WHERE s.firstName = \"Alice\""
       " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 3; PRINT R;",
       {10, 0, 0, 0}},
      {"range",
       "R = SELECT s FROM (s:Post) WHERE VECTOR_DIST(s.content_emb, $qv) < 2.0;"
       " PRINT R;",
       {1, 0, 0, 0}},
      {"similarity_join",
       "SELECT s, t FROM (s:Post) -[:hasCreator]-> (u:Person)"
       " -[:knows]- (v:Person) <-[:hasCreator]- (t:Post)"
       " WHERE u.firstName = \"Alice\""
       " ORDER BY VECTOR_DIST(s.content_emb, t.content_emb) LIMIT 2;",
       {0, 0, 0, 0}},
      {"composition_filter",
       "EnglishPosts = SELECT t FROM (t:Post) WHERE t.language = \"English\";"
       "TopK = VectorSearch({Post.content_emb}, $qv, 2,"
       " {filter: EnglishPosts, ef: 64, distanceMap: @@disMap});"
       "PRINT TopK; PRINT @@disMap;",
       {0, 0, 0, 0}},
  };

  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    auto local_result = local.Run(shape.script, Params(shape.qv));
    ASSERT_TRUE(local_result.ok()) << local_result.status().ToString();
    auto remote_result = client.Run(shape.script, Params(shape.qv));
    ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();

    ASSERT_EQ(remote_result->prints.size(), local_result->prints.size());
    for (size_t i = 0; i < local_result->prints.size(); ++i) {
      EXPECT_EQ(remote_result->prints[i].name, local_result->prints[i].name);
      EXPECT_EQ(remote_result->prints[i].vertices,
                local_result->prints[i].vertices);
      // Bit-for-bit: distances are compared with exact float equality.
      EXPECT_EQ(remote_result->prints[i].distances,
                local_result->prints[i].distances);
      EXPECT_EQ(remote_result->prints[i].is_distance_map,
                local_result->prints[i].is_distance_map);
    }
    EXPECT_EQ(remote_result->last_plan, local_result->last_plan);
    ASSERT_EQ(remote_result->last_join_pairs.size(),
              local_result->last_join_pairs.size());
    for (size_t i = 0; i < local_result->last_join_pairs.size(); ++i) {
      EXPECT_EQ(remote_result->last_join_pairs[i].source,
                local_result->last_join_pairs[i].source);
      EXPECT_EQ(remote_result->last_join_pairs[i].target,
                local_result->last_join_pairs[i].target);
      EXPECT_EQ(remote_result->last_join_pairs[i].distance,
                local_result->last_join_pairs[i].distance);
    }
  }
}

TEST_F(NetServerFixture, ExplainAndQueryErrorsTravelTyped) {
  StartServer();
  net::TvClient client = MakeClient();
  // EXPLAIN works remotely (shared shell surface).
  auto explained = client.Run(
      "EXPLAIN SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(explained->explained);
  EXPECT_NE(explained->explain.find("EmbeddingAction"), std::string::npos);
  // A parse error comes back as kParseError, not a transport failure.
  auto bad = client.Run("SELECT FROM;");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  // Sessions are per-connection: an unknown variable is a semantic error.
  auto missing = client.Run("PRINT NoSuchVar;");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kSemanticError);
}

TEST_F(NetServerFixture, SessionStatePersistsAcrossRequestsOnOneConnection) {
  StartServer();
  net::TvClient client = MakeClient();
  auto first = client.Run(
      "TopKPosts = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 1;",
      Params({30, 0, 0, 0}));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  // Second request on the same connection sees the variable.
  auto second = client.Run(
      "Authors = SELECT p FROM (m:TopKPosts) -[:hasCreator]-> (p:Person);"
      "PRINT Authors;");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(second->prints.size(), 1u);
  ASSERT_EQ(second->prints[0].vertices.size(), 1u);
  EXPECT_EQ(second->prints[0].vertices[0], persons_[3]);
}

TEST_F(NetServerFixture, MetricsAndFlightRecOverTheWire) {
  StartServer();
  net::TvClient client = MakeClient();
  auto run = client.Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 1; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(run.ok());
  auto metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  auto list = client.FlightRec(0);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
#if !defined(TIGERVECTOR_NO_METRICS)
  EXPECT_NE(metrics->find("tv_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics->find("tv_net_frames_recv_total"), std::string::npos);
  ASSERT_NE(run->flight_id, 0u);
  auto detail = client.FlightRec(run->flight_id);
  ASSERT_TRUE(detail.ok()) << detail.status().ToString();
  EXPECT_NE(detail->find("VECTOR_DIST"), std::string::npos);
#endif
  auto missing = client.FlightRec(~uint64_t{0});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ---------------- Faults against a live server ----------------

TEST_F(NetServerFixture, ClientTornSendIsTypedErrorNeverWrongResult) {
  StartServer();
  net::ClientOptions options;
  options.port = server_->port();
  options.max_retries = 0;
  options.fault_site = "net.test.client_torn";
  net::TvClient client(options);
  ASSERT_TRUE(client.Ping().ok());
  io::FaultInjector::Instance().Arm("net.test.client_torn",
                                    {io::FaultKind::kTornWrite, 20});
  auto result = client.Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  io::FaultInjector::Instance().Reset();
  // The torn request never reached the session; the connection heals on
  // the next request and results are correct.
  auto retry = client.Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->prints[0].vertices.size(), 2u);
}

TEST_F(NetServerFixture, ServerTornResponseIsTypedErrorNeverTruncated) {
  server::ServerOptions options;
  options.fault_site = "net.test.server_torn";
  StartServer(options);
  net::TvClient client = MakeClient();
  // Tear the response mid-frame: the client must see a typed transport
  // error, never a silently truncated result payload.
  io::FaultInjector::Instance().Arm("net.test.server_torn",
                                    {io::FaultKind::kTornWrite, 24});
  auto result = client.Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
      Params({0, 0, 0, 0}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  io::FaultInjector::Instance().Reset();
}

TEST_F(NetServerFixture, StalledServerTripsClientRequestTimeout) {
  server::ServerOptions options;
  options.fault_site = "net.test.server_stall";
  StartServer(options);
  net::ClientOptions copts;
  copts.port = server_->port();
  copts.max_retries = 0;
  copts.request_timeout_ms = 150;
  net::TvClient client(copts);
  ASSERT_TRUE(client.Ping().ok());
  io::FaultInjector::Instance().Arm("net.test.server_stall",
                                    {io::FaultKind::kStall, 600});
  Status st = client.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  io::FaultInjector::Instance().Reset();
}

TEST_F(NetServerFixture, ServerStopSurfacesTypedErrorToIdleClient) {
  StartServer();
  net::TvClient client = MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  server_->Stop();
  Status st = client.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kIOError ||
              st.code() == StatusCode::kDeadlineExceeded)
      << st.ToString();
}

// ---------------- Deadlines and cancellation ----------------

TEST_F(NetServerFixture, ExpiredDeadlineOverWireIsDeadlineExceeded) {
  StartServer();
  net::TvClient client = MakeClient();
  const uint64_t before = CounterValue("tv.server.deadline_exceeded_total");
  net::RunOptions run;
  run.deadline_micros = 1;  // expired by the first cooperative check
  auto result = client.Run(
      "R = SELECT s FROM (s:Post)"
      " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 2; PRINT R;",
      Params({0, 0, 0, 0}), run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
#if !defined(TIGERVECTOR_NO_METRICS)
  EXPECT_EQ(CounterValue("tv.server.deadline_exceeded_total"), before + 1);
#else
  (void)before;
#endif
  // The connection survives; the next request is fine.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(NetServerFixture, ServerDefaultDeadlineAppliesWhenClientShipsNone) {
  server::ServerOptions options;
  options.default_deadline_micros = 1;
  StartServer(options);
  net::TvClient client = MakeClient();
  auto result = client.Run("R = SELECT s FROM (s:Post); PRINT R;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(NetServerFixture, MaxDeadlineClampsClientBudget) {
  server::ServerOptions options;
  options.max_deadline_micros = 1;
  StartServer(options);
  net::TvClient client = MakeClient();
  net::RunOptions run;
  run.deadline_micros = 60'000'000;  // client asks for a minute; clamped
  auto result = client.Run("R = SELECT s FROM (s:Post); PRINT R;", QueryParams(),
                           run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

// Deterministic mid-scan expiry: the token trips on its n-th cooperative
// check, firing inside the executor/HNSW scan loops — the query returns
// DEADLINE_EXCEEDED and no partial top-k ever surfaces.
TEST(NetCancelTest, DeadlineFiringMidScanNeverYieldsPartialTopK) {
  Database::Options options;
  options.store.segment_capacity = 32;
  Database db(options);
  GsqlSession session(&db);
  // Bypass the query cache: a cached top-k legitimately completes before
  // any scan poll, which would desynchronize the poll schedule below.
  session.SetCacheBypass(true);
  ASSERT_TRUE(session
                  .Run("CREATE VERTEX Doc (title STRING);"
                       "ALTER VERTEX Doc ADD EMBEDDING ATTRIBUTE emb"
                       " (DIMENSION = 4, MODEL = M, INDEX = HNSW,"
                       " DATATYPE = FLOAT, METRIC = L2);")
                  .ok());
  for (int i = 0; i < 200; ++i) {
    Transaction txn = db.Begin();
    auto vid = txn.InsertVertex("Doc", {std::string("d")});
    ASSERT_TRUE(vid.ok());
    ASSERT_TRUE(txn.SetEmbedding(*vid, "Doc", "emb",
                                 {static_cast<float>(i), 1, 2, 3})
                    .ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(db.Vacuum().ok());
  QueryParams params;
  params["qv"] = std::vector<float>{100, 1, 2, 3};
  const std::string script =
      "R = SELECT s FROM (s:Doc)"
      " ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 5; PRINT R;";

  // Measure how many cooperative checks a full run performs with a passive
  // token (never fires): N is the complete poll schedule of this query.
  uint64_t total_checks = 0;
  {
    CancelToken passive;
    ScopedCancel scope(&passive);
    auto baseline = session.Run(script, params);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_EQ(baseline->prints[0].vertices.size(), 5u);
    total_checks = passive.checks();
  }
  ASSERT_GE(total_checks, 3u) << "query too small to poll mid-scan";

  // Trip the deadline at every point of that schedule — statement gate,
  // mid-scan polls, the authoritative post-fan-out gate. Each run must
  // fail typed, never returning a partial top-k.
  for (uint64_t trip_at = 1; trip_at <= total_checks; ++trip_at) {
    CancelToken token;
    token.TripAfterChecks(trip_at);
    ScopedCancel scope(&token);
    auto result = session.Run(script, params);
    ASSERT_FALSE(result.ok()) << "trip_at=" << trip_at << " of " << total_checks;
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status().ToString();
    EXPECT_TRUE(token.fired());
  }
}

// Promptness: once the token fires, the scan abandons work within one
// check interval — the token is never polled unboundedly many more times.
TEST(NetCancelTest, CancellationIsPromptlyObserved) {
  CancelToken token;
  token.TripAfterChecks(1);
  ScopedCancel scope(&token);
  EXPECT_TRUE(CancelCheckExpired());
  const uint64_t checks_at_fire = token.checks();
  // Subsequent checks stay cheap and sticky-expired.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(CancelCheckExpired());
  EXPECT_EQ(token.checks(), checks_at_fire + 10);
  EXPECT_EQ(CancelCheckStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(NetCancelTest, ExplicitCancelIsUnavailable) {
  CancelToken token;
  token.Cancel("server shutting down");
  ScopedCancel scope(&token);
  EXPECT_TRUE(CancelCheckExpired());
  Status st = CancelCheckStatus();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("server shutting down"), std::string::npos);
}

// ---------------- Sessions under concurrency ----------------

// A loading job reading from a FIFO blocks inside GsqlSession::Run until
// the test writes the other end — a deterministic long-running statement.
class FifoFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fifo_path_ = "/tmp/tv_net_fifo_" + std::to_string(::getpid()) + "_" +
                 std::to_string(counter_++);
    ASSERT_EQ(::mkfifo(fifo_path_.c_str(), 0600), 0);
  }
  void TearDown() override { ::unlink(fifo_path_.c_str()); }

  std::string LoadScript() const {
    return "CREATE LOADING JOB j FOR GRAPH g {"
           "  LOAD \"" + fifo_path_ + "\" TO VERTEX Doc VALUES (id, title);"
           "}";
  }
  void ReleaseFifo(const std::string& contents) {
    std::ofstream out(fifo_path_);
    out << contents;
  }

  static int counter_;
  std::string fifo_path_;
};

int FifoFixture::counter_ = 0;

TEST_F(FifoFixture, ConcurrentRunOnOneSessionIsRejectedNotRaced) {
  Database db;
  GsqlSession session(&db);
  ASSERT_TRUE(session.Run("CREATE VERTEX Doc (id INT, title STRING);").ok());
  std::atomic<bool> blocked{false};
  std::thread runner([&] {
    blocked.store(true);
    auto result = session.Run(LoadScript());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->last_load_report.vertices_loaded, 1u);
  });
  while (!blocked.load()) std::this_thread::yield();
  // Give the runner time to actually enter Run and block on the FIFO.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto second = session.Run("PRINT NoSuchVar;");
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAborted);
  EXPECT_NE(second.status().message().find("session busy"), std::string::npos);
  ReleaseFifo("7,hello\n");
  runner.join();
  // The session is usable again afterwards.
  EXPECT_TRUE(session.Run("R = SELECT d FROM (d:Doc); PRINT R;").ok());
}

// ---------------- Admission control ----------------

TEST_F(NetServerFixture, SaturationFastRejectsWithRetryLater) {
  server::ServerOptions options;
  options.max_inflight = 0;  // every query rejected: deterministic saturation
  StartServer(options);
  const uint64_t rejected_before =
      CounterValue("tv.server.rejected_total{reason=inflight}");
  net::TvClient client = MakeClient(/*max_retries=*/2);
  auto result = client.Run("R = SELECT s FROM (s:Post); PRINT R;");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  // Driver counts reconcile with the server metrics: initial attempt plus
  // two retries, each fast-rejected.
  EXPECT_EQ(client.rejected(), 3u);
  EXPECT_EQ(client.retries(), 2u);
#if !defined(TIGERVECTOR_NO_METRICS)
  EXPECT_EQ(CounterValue("tv.server.rejected_total{reason=inflight}"),
            rejected_before + 3);
#else
  (void)rejected_before;
#endif
  // Pings are not admission-controlled; the server is alive, just full.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(FifoFixture, BusyServerRejectsOverflowQueryDeterministically) {
  Database db;
  {
    GsqlSession ddl(&db);
    ASSERT_TRUE(ddl.Run("CREATE VERTEX Doc (id INT, title STRING);").ok());
  }
  server::ServerOptions options;
  options.max_inflight = 1;
  server::TvServer server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  net::ClientOptions copts;
  copts.port = server.port();
  copts.max_retries = 0;
  net::TvClient blocker(copts);
  std::thread blocked_runner([&] {
    // Occupies the only execution slot until the FIFO is released.
    auto result = blocker.Run(LoadScript());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  while (server.inflight() < 1) std::this_thread::yield();

  net::TvClient overflow(copts);
  auto rejected = overflow.Run("R = SELECT d FROM (d:Doc); PRINT R;");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(overflow.rejected(), 1u);

  ReleaseFifo("1,x\n");
  blocked_runner.join();
  // Slot released: the same query now succeeds (with retries for the
  // small window between FIFO release and slot release).
  net::TvClient retry_client(
      [&] { net::ClientOptions o = copts; o.max_retries = 20; return o; }());
  auto ok = retry_client.Run("R = SELECT d FROM (d:Doc); PRINT R;",
                             QueryParams(), net::RunOptions{0, true});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  server.Stop();
}

TEST_F(NetServerFixture, ConnectionLimitFastRejects) {
  server::ServerOptions options;
  options.max_connections = 0;
  StartServer(options);
  net::TvClient client = MakeClient();
  Status st = client.Ping();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace tigervector
