/// Chaos torture for the serving resilience layer (DESIGN.md §16): retrying
/// clients hammer a live server while a reloader thread hot-swaps the model
/// — including deliberately corrupt artifacts — a vandal kills connections
/// mid-frame, and the main thread cycles failpoints through the write,
/// deadline, and batch paths. The certification bar:
///
///   1. Zero wrong answers: every ok response's labels must bit-match the
///      offline prediction of the generation stamped into that response —
///      a swap mid-batch must never mix generations.
///   2. Corrupt reloads are rejected with the generation unchanged.
///   3. No wedged threads: every client, the reloader, and the vandal
///      join, and Stop() drains cleanly (a parked-frame leak or a lost
///      queue entry hangs the test, which IS the failure signal).
///   4. Hostile JSON in whole frames (overflowing geometry, out-of-range
///      deadlines and ids, float-overflowing features, fuzz mutants) gets
///      an addressed invalid_argument error on a connection that stays
///      open.
///
/// CI runs this under both ASan (chaos-smoke job) and TSan.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ensemble/ensemble_io.h"
#include "ensemble/ensemble_model.h"
#include "nn/mlp.h"
#include "serve/client.h"
#include "serve/server.h"
#include "test_util.h"
#include "utils/failpoint.h"
#include "utils/socket.h"

namespace edde {
namespace {

using testing::MakeBlobs;

constexpr int kDim = 6;
constexpr int kClasses = 4;
constexpr int kRows = 48;        // distinct feature rows clients draw from
constexpr int kClients = 4;
constexpr int kRequestsPerClient = 120;
constexpr int kReloads = 24;

/// A whole frame of hostile JSON and the id its error response must carry.
struct HostileFrame {
  std::string payload;
  int64_t id;
};

std::vector<HostileFrame> HostileFrames() {
  const std::string row = "[0.5,1,2,3,4,5]";
  const auto req = [](const std::string& fields) {
    return "{\"type\":\"predict\"," + fields + "}";
  };
  return {
      // rows*dim would wrap to 0 in int64 and match the empty features.
      {req("\"id\":901,\"rows\":4611686018427387904,\"dim\":108,"
           "\"features\":[]"),
       901},
      // 1e300 would cast to INT64_MIN, i.e. no deadline at all.
      {req("\"id\":902,\"rows\":1,\"dim\":6,\"features\":" + row +
           ",\"deadline_ms\":1e300"),
       902},
      // An id outside int64 is absent, so the error goes to id -1.
      {req("\"id\":1e300,\"rows\":1,\"dim\":6,\"features\":[1e999,1,2,3,4,5]"),
       -1},
      // Finite as a double, inf as a float.
      {req("\"id\":904,\"rows\":1,\"dim\":6,\"features\":[1e39,1,2,3,4,5]"),
       904},
      // Fuzz mutants: a spliced-in string, a duplicate short features
      // array, nesting past the reader's limit, a truncation, a bare array.
      {req("\"id\":905,\"rows\":1,\"dim\":6,\"features\":[0.5,1,\"2\",3,4,5]"),
       905},
      {req("\"id\":906,\"rows\":1,\"dim\":6,\"features\":" + row +
           ",\"features\":[1]"),
       906},
      {req("\"id\":907,\"pad\":" + std::string(80, '[') +
           std::string(80, ']')),
       -1},
      {req("\"id\":908,\"rows\":1,\"dim\":6,\"features\":[0.5,1,2"), -1},
      {"[908]", -1},
  };
}

/// Sends every hostile frame on `conn` and checks each answer. False when
/// the connection failed underneath (an injected write fault); a wrong
/// answer is a test failure.
bool SendHostileFrames(serve::ServeClient* conn) {
  for (const HostileFrame& frame : HostileFrames()) {
    if (!conn->SendRaw(frame.payload).ok()) return false;
    Result<std::string> raw = conn->RecvRaw();
    if (!raw.ok()) return false;
    serve::PredictResponse resp;
    EXPECT_TRUE(serve::ParsePredictResponse(raw.ValueOrDie(), &resp).ok());
    EXPECT_FALSE(resp.ok) << frame.payload;
    EXPECT_EQ(resp.code, "invalid_argument") << frame.payload;
    EXPECT_EQ(resp.id, frame.id) << frame.payload;
  }
  return true;
}

std::unique_ptr<Mlp> SmallMlp(uint64_t seed) {
  MlpConfig cfg;
  cfg.in_features = kDim;
  cfg.hidden = {10};
  cfg.num_classes = kClasses;
  return std::make_unique<Mlp>(cfg, seed);
}

EnsembleModel MakeVariant(int which) {
  EnsembleModel m;
  const uint64_t base = which == 0 ? 11 : 71;
  m.AddMember(SmallMlp(base), 2.5);
  m.AddMember(SmallMlp(base + 1), 0.7);
  m.AddMember(SmallMlp(base + 2), 1.4);
  return m;
}

TEST(ServeChaosTest, TortureWithReloadsFailpointsAndConnectionKills) {
  failpoint::Clear();
  const Dataset data = MakeBlobs(kRows, kDim, kClasses, 31);

  // The two healthy model variants and their offline references. Variant
  // index → per-row labels; a response pinned to generation g must match
  // variant_of_gen[g]'s labels exactly.
  std::vector<EnsembleModel> variants;
  variants.push_back(MakeVariant(0));
  variants.push_back(MakeVariant(1));
  std::vector<std::vector<int>> ref_labels;
  ref_labels.push_back(variants[0].PredictLabels(data));
  ref_labels.push_back(variants[1].PredictLabels(data));

  // Which variant the reloader hands out next; -1 = a corrupt candidate
  // that must be rejected. Owned by the reloader thread.
  std::atomic<int> candidate{1};
  serve::ServerConfig config;
  config.max_batch_rows = 6;      // small batches: swaps land mid-stream
  config.max_delay_ms = 1;
  config.num_batch_workers = 3;   // pipelined stages across generations
  config.max_request_ms = 2000;   // server deadline cap (generous)
  config.send_timeout_ms = 1000;
  config.reload_source = [&]() -> Result<serve::ReloadCandidate> {
    const int which = candidate.load();
    if (which < 0) {
      return Status::Corruption("injected corrupt artifact");
    }
    serve::ReloadCandidate c;
    c.model = std::make_shared<EnsembleModel>(MakeVariant(which));
    c.source = "variant-" + std::to_string(which);
    return c;
  };

  const EnsembleModel serving = MakeVariant(0);  // generation 1 == variant 0
  serve::InferenceServer server(&serving, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // generation id → variant index. Written only by the reloader (and the
  // initial entry here); clients validate post-join, so no read races.
  std::map<uint64_t, int> variant_of_gen;
  variant_of_gen[1] = 0;

  std::atomic<bool> stop_chaos{false};
  std::atomic<int64_t> ok_responses{0};
  std::atomic<int64_t> shed_responses{0};
  std::atomic<int64_t> exhausted_requests{0};
  std::atomic<int64_t> wrong_answers{0};

  // What each client saw: (request row-start, rows, generation, labels),
  // validated against the offline references after everything joins.
  struct Observation {
    int64_t start;
    int64_t rows;
    uint64_t gen;
    std::vector<int> labels;
  };
  std::vector<std::vector<Observation>> seen(kClients);

  // --- Clients: retrying, deadline-carrying, reconnect-on-kill. ---
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::RetryPolicy policy;
      policy.max_attempts = 5;
      policy.base_backoff_ms = 1;
      policy.max_backoff_ms = 8;
      policy.seed = 1000 + static_cast<uint64_t>(c);
      policy.deadline_ms = 1500;
      policy.recv_timeout_ms = 2000;
      serve::RetryingServeClient client("127.0.0.1", port, policy);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const int64_t start = (c * 7 + i) % (kRows - 3);
        const int64_t rows = 1 + (i % 3);
        serve::PredictRequest req;
        req.id = c * 100000 + i;
        req.rows = rows;
        req.dim = kDim;
        const float* p = data.features().data() + start * kDim;
        req.features.assign(p, p + rows * kDim);
        Result<serve::PredictResponse> resp = client.Predict(req);
        if (!resp.ok()) {
          // Retries exhausted under injected faults — allowed, counted.
          ++exhausted_requests;
          continue;
        }
        const serve::PredictResponse& r = resp.ValueOrDie();
        if (!r.ok) {
          // Shed (deadline/overload) — allowed. Anything else is a bug.
          if (r.code == "deadline_exceeded" || r.code == "unavailable" ||
              r.code == "failed_precondition") {
            ++shed_responses;
          } else {
            ADD_FAILURE() << "unexpected error [" << r.code
                          << "]: " << r.error;
            ++wrong_answers;
          }
          continue;
        }
        if (r.generation == 0 ||
            static_cast<int64_t>(r.labels.size()) != rows) {
          ADD_FAILURE() << "malformed ok response (gen=" << r.generation
                        << " labels=" << r.labels.size() << ")";
          ++wrong_answers;
          continue;
        }
        ++ok_responses;
        seen[static_cast<size_t>(c)].push_back(
            Observation{start, rows, r.generation, r.labels});
      }
    });
  }

  // --- Reloader: good swaps interleaved with corrupt candidates. ---
  std::thread reloader([&] {
    int next_variant = 1;
    for (int i = 0; i < kReloads; ++i) {
      const bool corrupt = (i % 3 == 2);
      candidate.store(corrupt ? -1 : next_variant);
      const uint64_t before = server.generation();
      const Status s = server.ReloadFromSource();
      if (corrupt) {
        EXPECT_FALSE(s.ok()) << "corrupt artifact was accepted";
        EXPECT_EQ(server.generation(), before)
            << "corrupt reload changed the serving generation";
      } else if (s.ok()) {
        // Record the mapping before clients can *validate* it (they only
        // read `variant_of_gen` after joining).
        variant_of_gen[server.generation()] = next_variant;
        next_variant = 1 - next_variant;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  // --- Vandal: hostile frames, half-written frames, abrupt disconnects. ---
  std::atomic<int> hostile_rounds{0};
  std::thread vandal([&] {
    while (!stop_chaos.load()) {
      Result<serve::ServeClient> conn =
          serve::ServeClient::Connect("127.0.0.1", port);
      if (conn.ok()) {
        (void)SetRecvTimeout(conn.ValueOrDie().fd(), 2000);
        if (SendHostileFrames(&conn.ValueOrDie())) ++hostile_rounds;
        // A torn frame: promise 64 bytes, deliver 3, hang up. The reader
        // must classify this as a dead peer, not wedge waiting.
        const uint32_t len = 64;
        char prefix[4];
        std::memcpy(prefix, &len, sizeof(len));
        (void)::send(conn.ValueOrDie().fd(), prefix, 4, MSG_NOSIGNAL);
        (void)::send(conn.ValueOrDie().fd(), "abc", 3, MSG_NOSIGNAL);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // --- Failpoint phases while the load runs. ---
  const char* phases[] = {
      "serve.write=error:2",     // kill a couple of connections server-side
      "serve.deadline=delay:2",  // widen the dispatch window
      "serve.batch=delay:1",     // slow batches → queue pressure
      "serve.reload.swap=error:1",
  };
  for (const char* spec : phases) {
    ASSERT_TRUE(failpoint::SetSpec(spec).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  failpoint::Clear();

  for (std::thread& t : clients) t.join();
  reloader.join();
  stop_chaos.store(true);
  vandal.join();
  failpoint::Clear();

  // Post-join validation: every ok response against the generation it was
  // served by. This is the zero-wrong-answers bar.
  for (const std::vector<Observation>& per_client : seen) {
    for (const Observation& o : per_client) {
      auto it = variant_of_gen.find(o.gen);
      ASSERT_NE(it, variant_of_gen.end())
          << "response stamped with unknown generation " << o.gen;
      const std::vector<int>& ref = ref_labels[static_cast<size_t>(
          it->second)];
      for (int64_t i = 0; i < o.rows; ++i) {
        if (o.labels[static_cast<size_t>(i)] !=
            ref[static_cast<size_t>(o.start + i)]) {
          ++wrong_answers;
          ADD_FAILURE() << "gen " << o.gen << " row " << o.start + i
                        << ": served "
                        << o.labels[static_cast<size_t>(i)] << ", offline "
                        << ref[static_cast<size_t>(o.start + i)];
        }
      }
    }
  }
  EXPECT_EQ(wrong_answers.load(), 0);

  // The chaos must not have starved the test into vacuity: most requests
  // succeed (faults are transient and clients retry).
  const int64_t total = kClients * kRequestsPerClient;
  EXPECT_GE(ok_responses.load(), total * 3 / 4)
      << "ok=" << ok_responses << " shed=" << shed_responses
      << " exhausted=" << exhausted_requests;
  // At least one hot swap actually landed while traffic flowed.
  EXPECT_GE(server.generation(), 2u);

  // Clean drain: a fresh connection still works — after a round of
  // hostile frames on it, so the connection must have stayed open — then
  // Stop() returns.
  Result<serve::ServeClient> last =
      serve::ServeClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(last.ok());
  EXPECT_TRUE(SendHostileFrames(&last.ValueOrDie()));
  EXPECT_GE(hostile_rounds.load(), 1);
  std::vector<float> row(data.features().data(),
                         data.features().data() + kDim);
  Result<int> label = last.ValueOrDie().PredictRow(row);
  ASSERT_TRUE(label.ok()) << label.status();
  server.Stop();
}

/// End-to-end reload through real artifacts: save two models, serve the
/// first, hot-reload to the second via a reload_source that actually reads
/// the file, and corrupt the artifact for the third swap — the CRC-framed
/// reader must reject it and generation stay put.
TEST(ServeChaosTest, ArtifactReloadPathRejectsCorruptFiles) {
  failpoint::Clear();
  const Dataset data = MakeBlobs(8, kDim, kClasses, 32);
  const std::string path = ::testing::TempDir() + "/chaos_reload.edde";

  EnsembleModel v1 = MakeVariant(0);
  EnsembleModel v2 = MakeVariant(1);
  const std::vector<int> ref_v2 = v2.PredictLabels(data);
  ASSERT_TRUE(SaveEnsemble(v1, path).ok());

  const ModelFactory factory = [](uint64_t seed) { return SmallMlp(seed); };
  serve::ServerConfig config;
  config.reload_source = [&]() -> Result<serve::ReloadCandidate> {
    // LoadEnsemble CRC-checks every section it reads — the same load the
    // edde-serve binary uses.
    Result<EnsembleModel> loaded = LoadEnsemble(path, factory);
    if (!loaded.ok()) return loaded.status();
    serve::ReloadCandidate c;
    c.model =
        std::make_shared<EnsembleModel>(std::move(loaded).ValueOrDie());
    c.source = path;
    return c;
  };

  serve::InferenceServer server(&v1, kDim, kClasses, config);
  ASSERT_TRUE(server.Start().ok());

  // Swap the artifact to v2 on disk, reload, and verify the served labels
  // are v2's.
  ASSERT_TRUE(SaveEnsemble(v2, path).ok());
  ASSERT_TRUE(server.ReloadFromSource().ok());
  EXPECT_EQ(server.generation(), 2u);
  Result<serve::ServeClient> conn =
      serve::ServeClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(conn.ok());
  for (int64_t i = 0; i < 8; ++i) {
    const float* p = data.features().data() + i * kDim;
    Result<int> label = conn.ValueOrDie().PredictRow(
        std::vector<float>(p, p + kDim), /*id=*/i);
    ASSERT_TRUE(label.ok()) << label.status();
    EXPECT_EQ(label.ValueOrDie(), ref_v2[static_cast<size_t>(i)]);
  }

  // Corrupt the artifact in place: flip a byte deep in the member payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, -24, SEEK_END);
    int byte = std::fgetc(f);
    std::fseek(f, -24, SEEK_END);
    std::fputc(byte ^ 0x40, f);
    std::fclose(f);
  }
  const Status corrupt = server.ReloadFromSource();
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kCorruption) << corrupt;
  EXPECT_EQ(server.generation(), 2u) << "corrupt artifact changed serving";

  // Still serving v2 on the same connection.
  const float* p = data.features().data();
  Result<int> label = conn.ValueOrDie().PredictRow(
      std::vector<float>(p, p + kDim), /*id=*/99);
  ASSERT_TRUE(label.ok()) << label.status();
  EXPECT_EQ(label.ValueOrDie(), ref_v2[0]);
  server.Stop();
}

}  // namespace
}  // namespace edde
