// End-to-end benchmark program: hosts server::TvServer on an ephemeral
// loopback port in this process, drives reads through net::TvClient from
// closed-loop client threads, then runs a write probe and one vacuum,
// checks every reply against an exact oracle, and prints each metric by
// name with its unit and sample count, then one JSON line.
//
//   tvbench --workload ann_topk|hybrid_rag --seed N --seconds S --trace 0|1
//           [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload for the same time, the first half untraced and the second half
// with per-layer replays of a sample of reads (tracing.h), and reports the
// per-layer metrics, the reconciliation against client latency, and the
// tracing overhead (traced half against untraced half).
#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "net/client.h"
#include "server/tv_server.h"
#include "simd/distance.h"
#include "tracing.h"
#include "workloads.h"

namespace tvbench {
namespace {

namespace net = tigervector::net;
using tigervector::server::ServerOptions;
using tigervector::server::TvServer;

constexpr int kSetupRuns = 3;          // set-ups per run; setup_s is their median
constexpr double kWarmupSeconds = 3.0;  // untimed traffic before measuring
constexpr uint64_t kTraceEvery = 10;    // traced half: replay one read in ten
// Write probe: batches of back-to-back writes, apart in time so that the
// figures over batches are not one moment of the host's load.
constexpr size_t kProbeBatches = 40;
constexpr size_t kProbeWritesPerBatch = kProbeWrites / kProbeBatches;
constexpr double kProbeBatchGapSeconds = 0.05;
constexpr size_t kVerifyVertices = 256;  // read-your-write targets per pass

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// Phases of the timed part of a run. Reads are tagged with the phase
// current when they were sent.
enum Phase : int { kWarmup = 0, kMeasure = 1, kTraced = 2, kDone = 3, kSweep = 4 };

struct ClientResult {
  std::vector<ReadRecord> reads;
  std::vector<int> phase;
  std::vector<uint64_t> rejected, retries;
};

struct Server {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<TvServer> server;
};

Status StartServer(Server* s) {
  ServerOptions options;
  options.port = 0;
  s->server = std::make_unique<TvServer>(s->workload->db(), options);
  TV_RETURN_NOT_OK(s->server->Start());
  net::ClientOptions co;
  co.port = s->server->port();
  net::TvClient client(co);
  return client.Ping();
}

// Sends one read and records what the client observed; `result` receives
// the decoded reply.
ReadRecord SendRead(net::TvClient& client, const ReadOp& op, ScriptResult* result) {
  net::RunOptions run;
  run.idempotent = true;  // reads are safe to retry on a transport error
  ReadRecord rec;
  rec.shape = op.shape;
  rec.ref = op.ref;
  rec.send = Clock::now();
  auto reply = client.Run(op.script, op.params, run);
  rec.recv = Clock::now();
  rec.ok = reply.ok() && ExtractHits(*reply, &rec.ids, &rec.dists);
  if (reply.ok()) *result = std::move(reply).value();
  return rec;
}

// CPU time (user + system) this process has used, in seconds. Time the
// host takes the CPU away (steal) does not count, so a per-read figure
// follows the program's cost rather than the neighbours' load.
double ProcessCpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PercentileWithFailures(std::vector<double> ok_values, size_t failed, double q,
                              double failed_value) {
  // A failed or refused operation misses every latency limit.
  ok_values.insert(ok_values.end(), failed, failed_value);
  return Quantile(std::move(ok_values), q);
}

std::string MetaJson(const Args& args, const Workload& w) {
  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  struct utsname uts {};
  ::uname(&uts);
  const char* rev = std::getenv("TVBENCH_SOURCE_REV");
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::string out = "{";
  out += "\"workload\": \"" + args.workload + "\"";
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + std::to_string(args.seconds);
  out += ", \"trace\": " + std::to_string(args.trace ? 1 : 0);
  out += ", \"dataset\": \"" + JsonEscape(w.Describe()) + "\"";
  out += ", \"host\": \"" + JsonEscape(host) + "\"";
  out += ", \"kernel\": \"" + JsonEscape(std::string(uts.sysname) + " " + uts.release) +
         "\"";
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_isa\": \"" + std::string(tigervector::simd::ActiveIsaName()) + "\"";
  out += ", \"source_rev\": \"" + JsonEscape(rev != nullptr ? rev : "unknown") + "\"";
  out += ", \"build_type\": \"" + std::string(TVBENCH_BUILD_TYPE) + "\"";
  out += std::string(", \"optimized\": ") + (optimized ? "true" : "false");
  out += ", \"flush_policy\": \"in-memory WAL, no file\"";
  out += ", \"warmup_s\": " + std::to_string(kWarmupSeconds);
  out += ", \"setup_runs\": " + std::to_string(kSetupRuns);
  out += "}";
  return out;
}

int Run(const Args& args) {
  // ---- set-up, several times; keep the last ----
  std::vector<double> setup_s;
  Server live;
  double rss_base_mib = 0;
  bool peak_reset = false;
  for (int i = 0; i < kSetupRuns; ++i) {
    live.server.reset();  // before the database it serves
    live.workload.reset();
    ::malloc_trim(0);  // hand the previous set-up's memory back first
    const auto t0 = Clock::now();
    live.workload = MakeWorkload(args.workload);
    if (live.workload == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    live.workload->Generate(args.seed);
    if (i + 1 == kSetupRuns) {
      // The engine's memory is measured from here: what the generated
      // inputs and the process already hold is the baseline.
      peak_reset = ResetPeakRss();
      rss_base_mib = RssMib();
    }
    Status st = live.workload->Load();
    if (st.ok()) st = StartServer(&live);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (i + 1 < kSetupRuns) live.server->Stop();
  }
  Workload& w = *live.workload;
  Database* db = w.db();
  if (Status st = w.PrepareChecks(); !st.ok()) {
    std::fprintf(stderr, "oracle preparation failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint16_t port = live.server->port();
  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>(db, kReadClients, w.dim());

  // ---- timed reads: closed-loop clients ----
  std::atomic<int> phase{kWarmup};
  std::vector<ClientResult> results(kReadClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReadClients; ++c) {
    threads.emplace_back([&, c] {
      net::ClientOptions co;
      co.port = port;
      co.jitter_seed = 0x7ea5 + c;
      net::TvClient client(co);
      ClientResult& out = results[c];
      uint64_t traced_index = 0;
      for (;;) {
        const int ph = phase.load(std::memory_order_acquire);
        if (ph == kDone) break;
        const ReadOp op = w.NextRead(c);
        const uint64_t rejected0 = client.rejected(), retries0 = client.retries();
        ScriptResult result;
        ReadRecord rec = SendRead(client, op, &result);
        if (rec.ok && ph == kTraced && traced_index++ % kTraceEvery == 0) {
          tracer->TraceOp(c, op, result, rec.send, rec.recv, &client);
        }
        if (ph == kWarmup) continue;  // unchecked, so nothing is kept yet
        out.reads.push_back(std::move(rec));
        out.phase.push_back(ph);
        out.rejected.push_back(client.rejected() - rejected0);
        out.retries.push_back(client.retries() - retries0);
      }
      client.Disconnect();
    });
  }

  net::ClientOptions mo;
  mo.port = port;
  net::TvClient scraper(mo);
  auto scrape = [&](double* sum, uint64_t* count) {
    auto text = scraper.Metrics();
    if (!text.ok() || !ScrapeHistogram(*text, "tv_server_query_seconds", sum, count)) {
      *sum = 0;
      *count = 0;
    }
  };
  const double measure_s = args.trace ? args.seconds / 2.0 : args.seconds;
  auto sleep_s = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };

  sleep_s(kWarmupSeconds);
  // The engine's peak memory over the last set-up and the warm-up traffic,
  // read before any read record is kept: the peak since the
  // baseline, less the baseline. Later cache growth is not in it, which
  // keeps the figure independent of how many reads a run manages.
  const double process_peak_mib = PeakRssMib();
  const double engine_peak_mib = process_peak_mib - rss_base_mib;
  double exec_sum0 = 0, exec_sum1 = 0;
  uint64_t exec_n0 = 0, exec_n1 = 0;
  scrape(&exec_sum0, &exec_n0);
  const auto cache_topk0 = db->cache()->topk_stats();
  const auto cache_bitmap0 = db->cache()->bitmap_stats();
  const auto index0 = db->embeddings()->AggregateStats();
  const auto m0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  const HostCpu host0 = ReadHostCpu();
  phase.store(kMeasure, std::memory_order_release);
  sleep_s(measure_s);
  const auto m1 = Clock::now();
  const double cpu1 = ProcessCpuSeconds();
  const HostCpu host1 = ReadHostCpu();
  const auto cache_topk1 = db->cache()->topk_stats();
  const auto cache_bitmap1 = db->cache()->bitmap_stats();
  const auto index1 = db->embeddings()->AggregateStats();
  scrape(&exec_sum1, &exec_n1);
  auto t1 = m1;
  if (args.trace) {
    phase.store(kTraced, std::memory_order_release);
    sleep_s(measure_s);
    t1 = Clock::now();
  }
  phase.store(kDone, std::memory_order_release);
  for (auto& t : threads) t.join();

  {
    ClientResult sweep;
    net::ClientOptions co;
    co.port = port;
    net::TvClient client(co);
    for (const ReadOp& op : w.SweepReads()) {
      ScriptResult result;
      sweep.reads.push_back(SendRead(client, op, &result));
      sweep.phase.push_back(kSweep);
      sweep.rejected.push_back(0);
      sweep.retries.push_back(0);
    }
    client.Disconnect();
    results.push_back(std::move(sweep));
  }

  // ---- write probe: batches of back-to-back commits after the reads ----
  std::vector<WriteRecord> writes;
  for (size_t batch = 0; batch < kProbeBatches; ++batch) {
    if (batch > 0) sleep_s(kProbeBatchGapSeconds);
    for (size_t i = 0; i < kProbeWritesPerBatch; ++i) {
      WriteRecord rec;
      const uint64_t wal0 = db->store()->wal().appended_bytes();
      rec.begin = Clock::now();
      w.DoWrite(&rec);
      rec.end = Clock::now();
      rec.wal_bytes = db->store()->wal().appended_bytes() - wal0;
      writes.push_back(rec);
    }
  }
  // Read-your-write checks on the newest write of each of the last few
  // vertices written, through the delta overlay before the vacuum and
  // through the merged indexes after it. A deleted vertex must never come
  // back. Before the vacuum the deltas are scanned exactly, so a written
  // vector must come back first at distance 0. After it the vector lives in
  // an approximate index, where missing it costs recall: those misses are
  // counted (update_self_recall), not failed.
  std::vector<const WriteRecord*> verify_targets;
  {
    std::unordered_set<VertexId> seen;
    for (auto it = writes.rbegin();
         it != writes.rend() && verify_targets.size() < kVerifyVertices; ++it) {
      if (it->ok && seen.insert(it->vid).second) verify_targets.push_back(&*it);
    }
  }
  CheckSummary verify;
  uint64_t verify_attempted = 0, self_queries = 0, self_found = 0;
  auto verify_writes = [&](const char* when, bool exact) {
    net::ClientOptions co;
    co.port = port;
    net::TvClient client(co);
    for (const WriteRecord* wr : verify_targets) {
      ScriptResult result;
      const ReadRecord r = SendRead(client, w.VerifyRead(wr->vec), &result);
      ++verify_attempted;
      const bool found = std::find(r.ids.begin(), r.ids.end(), wr->vid) != r.ids.end();
      const bool first = r.ok && !r.ids.empty() && r.ids[0] == wr->vid &&
                         DistanceMatches(r.dists[0], 0.0);
      std::string problem;
      if (!r.ok) {
        problem = "failed";
      } else if (wr->kind == WriteRecord::kDelete) {
        if (found) problem = "returned the deleted vertex";
      } else if (!exact) {
        ++self_queries;
        self_found += first;
        if (found && !first) problem = "returned the vertex at a wrong distance";
      } else if (!first) {
        problem = "did not return the vertex first at distance 0";
      }
      if (problem.empty()) continue;
      if (r.ok && !r.ids.empty()) {
        problem += " (first vertex " + std::to_string(r.ids[0]) + " at " +
                   std::to_string(r.dists[0]) + ")";
      }
      verify.Fail(std::string("read-your-write ") + when + " of vertex " +
                  std::to_string(wr->vid) + ": " + problem);
    }
    client.Disconnect();
  };
  verify_writes("before vacuum", true);
  // One vacuum folding the probe's deltas in: both stages, Vacuum()'s order.
  TracedExtras extras;
  const auto v0 = Clock::now();
  const bool delta_ok = db->embeddings()->RunDeltaMerge().ok();
  const auto v1 = Clock::now();
  const bool index_ok = db->embeddings()->RunIndexMerge(db->pool()).ok();
  const auto v2 = Clock::now();
  db->store()->VacuumGraph();
  const uint64_t vacuum_failures = (delta_ok && index_ok) ? 0 : 1;
  extras.delta_merge_s.push_back(SecondsBetween(v0, v1));
  extras.index_merge_s.push_back(SecondsBetween(v1, v2));
  verify_writes("after vacuum", false);
  const double update_self_recall =
      self_queries == 0 ? 0.0 : static_cast<double>(self_found) / self_queries;
  scraper.Disconnect();
  live.server->Stop();

  // ---- checks ----
  std::vector<ReadRecord> all_reads;
  std::vector<int> all_phase;
  for (auto& r : results) {
    for (size_t i = 0; i < r.reads.size(); ++i) {
      all_phase.push_back(r.phase[i]);
      all_reads.push_back(std::move(r.reads[i]));
    }
  }
  CheckSummary checks = w.Check(all_reads);
  // Failed checks are attributed by re-running the check on the measured
  // reads alone when any failed.
  uint64_t measured_check_failures = 0;
  if (checks.failed_checks > 0) {
    std::vector<ReadRecord> measured;
    for (size_t i = 0; i < all_reads.size(); ++i) {
      if (all_phase[i] == kMeasure) measured.push_back(all_reads[i]);
    }
    measured_check_failures = w.Check(measured).failed_checks;
  }

  // ---- end-to-end metrics over the measured phase ----
  std::vector<double> read_ms;
  uint64_t reads_attempted = 0, reads_failed = 0, rejected = 0, retries = 0;
  double latency_sum_us = 0;
  for (size_t c = 0; c < results.size(); ++c) {
    for (size_t i = 0; i < results[c].phase.size(); ++i) {
      if (results[c].phase[i] != kMeasure) continue;
      rejected += results[c].rejected[i];
      retries += results[c].retries[i];
    }
  }
  for (size_t i = 0; i < all_reads.size(); ++i) {
    if (all_phase[i] != kMeasure) continue;
    ++reads_attempted;
    const ReadRecord& r = all_reads[i];
    if (!r.ok) {
      ++reads_failed;
      continue;
    }
    const double us = MicrosBetween(r.send, r.recv);
    latency_sum_us += us;
    read_ms.push_back(us / 1e3);
  }
  const double measured_s = SecondsBetween(m0, m1);
  const double fail_ms = 1e3 * measured_s;  // no limit is met by a failure
  const double read_qps = static_cast<double>(read_ms.size()) / measured_s;
  const double read_p50 = PercentileWithFailures(read_ms, reads_failed, 0.5, fail_ms);
  const double read_p99 = PercentileWithFailures(read_ms, reads_failed, 0.99, fail_ms);
  const double read_cpu_ms =
      read_ms.empty() ? 0.0 : 1e3 * (cpu1 - cpu0) / static_cast<double>(read_ms.size());

  // Writes are timed from the start of the write to its commit; their
  // percentiles are medians over the probe's batches.
  uint64_t writes_failed = 0;
  const double write_fail_ms = 1e3 * SecondsBetween(writes.front().begin, Clock::now());
  std::vector<double> write_p50_b, write_p99_b;
  for (size_t batch = 0; batch < kProbeBatches; ++batch) {
    std::vector<double> ms;
    size_t failed_here = 0;
    for (size_t i = batch * kProbeWritesPerBatch; i < (batch + 1) * kProbeWritesPerBatch;
         ++i) {
      const WriteRecord& wr = writes[i];
      if (args.trace) {
        extras.commit_us.push_back(wr.commit_us);
        extras.wal_bytes.push_back(static_cast<double>(wr.wal_bytes));
      }
      if (wr.ok) {
        ms.push_back(1e3 * SecondsBetween(wr.begin, wr.end));
      } else {
        ++failed_here;
      }
    }
    writes_failed += failed_here;
    write_p50_b.push_back(PercentileWithFailures(ms, failed_here, 0.5, write_fail_ms));
    write_p99_b.push_back(PercentileWithFailures(ms, failed_here, 0.99, write_fail_ms));
  }

  const uint64_t attempted = reads_attempted + writes.size() + verify_attempted;
  const uint64_t failed = reads_failed + writes_failed + measured_check_failures +
                          verify.failed_checks + vacuum_failures;
  const bool correct = checks.failed_checks == 0 && verify.failed_checks == 0 &&
                       vacuum_failures == 0 && reads_attempted > 0;

  std::vector<double> recall_values;
  for (const auto& [shape, rc] : checks.recall) recall_values.push_back(rc);
  const double recall_all = Mean(recall_values);

  Report report;
  report.Note("meta " + MetaJson(args, w));
  report.Note("workload " + w.name() + ": " + w.Describe());
  {
    char line[256];
    std::snprintf(line, sizeof(line),
                  "checks: %zu reads checked, %llu failed (%llu in the measured "
                  "phase), %llu read-your-write reads (%llu failed), recall samples %zu",
                  all_reads.size(), static_cast<unsigned long long>(checks.failed_checks),
                  static_cast<unsigned long long>(measured_check_failures),
                  static_cast<unsigned long long>(verify_attempted),
                  static_cast<unsigned long long>(verify.failed_checks),
                  checks.recall.size());
    report.Note(line);
    if (!checks.range_recall.empty()) {
      std::snprintf(line, sizeof(line),
                    "range recall (exact range set returned): %.4f (n=%zu)",
                    Mean(checks.range_recall), checks.range_recall.size());
      report.Note(line);
    }
    for (const auto* summary : {&checks, &verify}) {
      for (const std::string& f : summary->first_failures) {
        report.Note("check failed: " + f);
      }
    }
    const std::vector<std::string> shapes = w.shape_names();
    for (size_t shape = 0; shape < shapes.size(); ++shape) {
      std::vector<double> recall;
      for (const auto& [sh, rc] : checks.recall) {
        if (sh == static_cast<int>(shape)) recall.push_back(rc);
      }
      std::vector<double> ms;
      for (size_t i = 0; i < all_reads.size(); ++i) {
        if (all_phase[i] == kMeasure && all_reads[i].ok &&
            all_reads[i].shape == static_cast<int>(shape)) {
          ms.push_back(MicrosBetween(all_reads[i].send, all_reads[i].recv) / 1e3);
        }
      }
      if (ms.empty()) continue;
      std::snprintf(line, sizeof(line),
                    "shape %-22s p50 %8.3f ms  p99 %8.3f ms  (n=%zu)  "
                    "recall@10 %.4f (n=%zu)",
                    shapes[shape].c_str(), Quantile(ms, 0.5), Quantile(ms, 0.99),
                    ms.size(), Mean(recall), recall.size());
      report.Note(line);
    }
    std::snprintf(line, sizeof(line),
                  "measured phase: this process used %.2f CPUs; steal was %.1f%% of "
                  "the host's CPU time",
                  (cpu1 - cpu0) / SecondsBetween(m0, m1),
                  host1.total > host0.total
                      ? 100.0 * static_cast<double>(host1.steal - host0.steal) /
                            static_cast<double>(host1.total - host0.total)
                      : 0.0);
    report.Note(line);
    std::snprintf(line, sizeof(line),
                  "failed_ops_share %.6f ratio (failed %llu of %llu attempted; "
                  "errors, exhausted retries and failed checks)",
                  static_cast<double>(failed) / std::max<uint64_t>(1, attempted),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(attempted));
    report.Note(line);
  }

  if (!args.trace) {
    report.Add("setup_s", Quantile(setup_s, 0.5), "s", setup_s.size());
    report.Add("read_cpu_ms", read_cpu_ms, "ms", read_ms.size());
    // Read latency and throughput in wall time follow how much CPU the
    // host's hypervisor leaves the process (steal, printed above) more than
    // the program's own cost, so they are printed here and bounded nowhere;
    // the traced run reports them as per-layer metrics.
    char line[256];
    std::snprintf(line, sizeof(line),
                  "read_p50_ms %.4f ms, read_p99_ms %.4f ms (n=%llu); read_qps %.3f "
                  "1/s (n=%zu); write_p99_ms %.4f ms (n=%zu)",
                  read_p50, read_p99, static_cast<unsigned long long>(reads_attempted),
                  read_qps, read_ms.size(), Quantile(write_p99_b, 0.5), writes.size());
    report.Note(line);
    report.Add("recall_at_10", recall_all, "ratio", checks.recall.size());
    std::snprintf(line, sizeof(line),
                  "update_self_recall %.4f ratio (n=%llu): written vectors found first "
                  "at distance 0 after the vacuum merged them into the indexes",
                  update_self_recall, static_cast<unsigned long long>(self_queries));
    report.Note(line);
    report.Add("write_p50_ms", Quantile(write_p50_b, 0.5), "ms", writes.size());
    report.Add("ok_ops_share",
               1.0 - static_cast<double>(failed) / std::max<uint64_t>(1, attempted),
               "ratio", attempted);
    std::snprintf(line, sizeof(line),
                  "peak_rss_mb: process peak %.1f MiB at the end of the warm-up - "
                  "baseline %.1f MiB (inputs generated)%s",
                  process_peak_mib, rss_base_mib,
                  peak_reset ? "" : "; the peak could not be reset");
    report.Note(line);
    report.Add("peak_rss_mb", engine_peak_mib, "MiB", 1);
  } else {
    UntracedCounters u;
    u.reads = read_ms.size();
    u.client_latency_us = read_ms.empty() ? 0 : latency_sum_us / read_ms.size();
    u.qps = read_qps;
    u.p50_ms = Quantile(read_ms, 0.5);
    u.server_requests = exec_n1 - exec_n0;
    u.server_exec_us = u.server_requests == 0
                           ? 0
                           : 1e6 * (exec_sum1 - exec_sum0) / u.server_requests;
    u.rejected = rejected;
    u.retries = retries;
    u.topk_hits = cache_topk1.hits - cache_topk0.hits;
    u.topk_misses = cache_topk1.misses - cache_topk0.misses;
    u.bitmap_hits = cache_bitmap1.hits - cache_bitmap0.hits;
    u.bitmap_misses = cache_bitmap1.misses - cache_bitmap0.misses;
    u.evictions = (cache_topk1.evictions - cache_topk0.evictions) +
                  (cache_bitmap1.evictions - cache_bitmap0.evictions);
    u.distance_evals = index1.distance_computations - index0.distance_computations;
    u.hops = index1.hops - index0.hops;
    std::vector<double> traced_ms;
    for (size_t i = 0; i < all_reads.size(); ++i) {
      if (all_phase[i] == kTraced && all_reads[i].ok) {
        traced_ms.push_back(MicrosBetween(all_reads[i].send, all_reads[i].recv) / 1e3);
      }
    }
    extras.qps = static_cast<double>(traced_ms.size()) / SecondsBetween(m1, t1);
    extras.p50_ms = Quantile(traced_ms, 0.5);
    const std::string spans_path = args.workdir + "/spans_" + args.workload + "_" +
                                   std::to_string(args.seed) + ".jsonl";
    tracer->Summarize(u, extras, spans_path, &report);
    report.Add("read_qps", read_qps, "1/s", read_ms.size());
    report.Add("read_p50_ms", read_p50, "ms", reads_attempted);
    report.Add("read_p99_ms", read_p99, "ms", reads_attempted);
    report.Add("write_p99_ms", Quantile(write_p99_b, 0.5), "ms", writes.size());
    report.Add("hnsw.update_self_recall", update_self_recall, "ratio", self_queries);
    report.Note("spans written to " + spans_path);
  }
  report.Print(correct, std::max<uint64_t>(1, attempted), failed);
  return 0;
}

}  // namespace
}  // namespace tvbench

int main(int argc, char** argv) {
  tvbench::Args args;
  if (!tvbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload ann_topk|hybrid_rag --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  return tvbench::Run(args);
}
