// The benchmark's workloads. Each one generates its inputs from the seed,
// loads them through the public Transaction API, and then hands the run
// loop (main.cc) read operations to send through net::TvClient, the writes
// of the write probe, and a checker that validates every reply against an
// exact oracle computed from the generator's vectors.
#ifndef TVBENCH_WORKLOADS_H_
#define TVBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/database.h"
#include "query/session.h"
#include "util/bitmap.h"

namespace tvbench {

using tigervector::Bitmap;
using tigervector::Database;
using tigervector::QueryParams;
using tigervector::ScriptResult;
using tigervector::Status;
using tigervector::VertexId;
using tigervector::VertexSet;

constexpr VertexId kNoVertex = ~VertexId{0};
// k of every top-k read (the scripts' LIMIT / VectorSearch k).
constexpr size_t kTopK = 10;
// Closed-loop read clients, each with its own connection (nproc = 4).
constexpr int kReadClients = 4;
// Writes of the write probe that follows the timed reads.
constexpr size_t kProbeWrites = 2000;

// One read as a client sends it, plus what the checks and the traced
// replays need to reproduce it layer by layer.
struct ReadOp {
  int shape = 0;
  std::string script;
  QueryParams params;
  std::vector<float> qv;
  std::vector<std::pair<std::string, std::string>> attrs;
  const VertexSet* filter = nullptr;  // candidate set; null = every vertex
  const Bitmap* filter_bitmap = nullptr;
  bool range = false;
  float threshold = 0;
  int64_t ref = -1;  // query index or pool entry
};

// What one client observed for one read.
struct ReadRecord {
  Clock::time_point send;
  Clock::time_point recv;
  bool ok = false;
  int shape = 0;
  int64_t ref = -1;
  std::vector<VertexId> ids;  // ascending distance
  std::vector<float> dists;
};

// One write of the write probe.
struct WriteRecord {
  enum Kind { kReembed, kInsert, kDelete } kind = kReembed;
  VertexId vid = kNoVertex;
  // The vertex's vector after the write, or before it for a delete.
  const float* vec = nullptr;
  Clock::time_point begin;
  Clock::time_point end;
  double commit_us = 0;  // Transaction::Commit alone
  uint64_t wal_bytes = 0;
  bool ok = false;
};

struct CheckSummary {
  uint64_t failed_checks = 0;  // ops that failed a correctness check
  // recall@10 per checked top-k read, with the read's shape
  std::vector<std::pair<int, double>> recall;
  std::vector<double> range_recall;  // share of the exact range set returned
  std::vector<std::string> first_failures;  // a few, for the log
  void Fail(const std::string& why) {
    ++failed_checks;
    if (first_failures.size() < 5) first_failures.push_back(why);
  }
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  // Generates the inputs from the seed; nothing touches the engine yet.
  virtual void Generate(uint64_t seed) = 0;
  // Loads the inputs through Transaction batches and runs the two-stage
  // vacuum.
  virtual Status Load() = 0;
  // Builds the exact oracles the checks need, from the generator's vectors
  // and the store's raw attributes and adjacency (never through a query).
  virtual Status PrepareChecks() = 0;
  virtual Database* db() = 0;
  virtual size_t dim() const = 0;
  virtual std::vector<std::string> shape_names() const = 0;
  // Next read of client `client`; called only from that client's thread.
  virtual ReadOp NextRead(int client) = 0;
  // Reads sent once each, untimed, after the timed reads and before the
  // write probe, so recall covers a fixed query set per seed.
  virtual std::vector<ReadOp> SweepReads() { return {}; }

  // Builds and commits the next write of the probe and fills the record's
  // kind/vid/vec/commit_us/ok fields.
  virtual void DoWrite(WriteRecord* record) = 0;
  // An unfiltered top-k read over the written vertex type for `vec`.
  virtual ReadOp VerifyRead(const float* vec) const = 0;

  // Validates every recorded read against the exact oracle.
  virtual CheckSummary Check(const std::vector<ReadRecord>& reads) = 0;

  // Dataset sizes for the result metadata.
  virtual std::string Describe() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// Ids and distances of a reply that prints one vertex set and one distance
// map (`PRINT R; PRINT @@R_dist;`), ascending by distance, ties by id.
// Returns false when the reply does not carry a distance for every vertex.
bool ExtractHits(const ScriptResult& result, std::vector<VertexId>* ids,
                 std::vector<float>* dists);

}  // namespace tvbench

#endif  // TVBENCH_WORKLOADS_H_
