#ifndef TIGERVECTOR_HNSW_HNSW_INDEX_H_
#define TIGERVECTOR_HNSW_HNSW_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hnsw/row_scan.h"
#include "hnsw/vector_index.h"
#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/bitmap.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"

namespace tigervector {

class ThreadPool;

// Construction / search parameters (paper Sec. 6.1 uses M=16, efb=128).
struct HnswParams {
  size_t dim = 0;
  Metric metric = Metric::kL2;
  size_t m = 16;                // out-degree at upper layers; 2*m at layer 0
  size_t ef_construction = 128; // beam width during build
  size_t max_elements = 0;      // hard capacity of the index
  uint64_t seed = 42;           // level-draw seed (deterministic builds)
  bool sq8 = false;             // keep an int8 SQ8 tier beside the fp32 rows
};

// Cumulative counters the index reports so the engine can measure its
// performance (paper Sec. 4.4: "we enhance the indexes to report relevant
// statistics").
struct HnswStats {
  uint64_t distance_computations = 0;
  uint64_t hops = 0;
  uint64_t searches = 0;
  uint64_t inserts = 0;
  uint64_t updates = 0;
};

// From-scratch HNSW (Malkov & Yashunin, TPAMI'20) with the heuristic
// neighbor selection of Algorithm 4. Supports concurrent reads, locked
// concurrent inserts, tombstone deletes, in-place updates (re-linked as
// inserts are), and filtered search through a FilterView evaluated on
// result collection (filtered-out nodes are still traversed, as in hnswlib).
//
// This is the "open-source HNSW library" substrate of the paper (Sec. 4.4);
// the four generic functions TigerVector needs are GetEmbedding,
// TopKSearch, RangeSearch, and UpdateItems.
class HnswIndex : public VectorIndex {
 public:
  // Batch records keep their historical nested name.
  using UpdateItem = VectorIndexUpdate;

  explicit HnswIndex(const HnswParams& params);
  ~HnswIndex() override;

  HnswIndex(const HnswIndex&) = delete;
  HnswIndex& operator=(const HnswIndex&) = delete;

  // Inserts a new point or updates an existing label in place.
  // Thread-safe with respect to other AddPoint/TopKSearch calls.
  Status AddPoint(uint64_t label, const float* vec) override;

  // Batch upsert/delete used by the index-merge vacuum (paper Sec. 4.4:
  // UpdateItems performs parallel incremental index building). Items with
  // `is_delete` set are tombstoned. When `pool` is non-null the batch is
  // partitioned across its threads; each thread works on a disjoint subset
  // of ids so per-label ordering within the batch is preserved.
  Status UpdateItems(const std::vector<UpdateItem>& items, ThreadPool* pool) override;

  // Tombstones a label; it will no longer be returned by searches.
  Status MarkDeleted(uint64_t label) override;

  bool Contains(uint64_t label) const override;
  bool IsDeleted(uint64_t label) const override;

  // Copies the stored vector for `label` into `out` (size dim).
  Status GetEmbedding(uint64_t label, float* out) const override;

  using VectorIndex::BruteForceSearch;
  using VectorIndex::RangeSearch;
  using VectorIndex::TopKSearch;

  // Approximate k-nearest search. `ef` is the layer-0 beam width (must be
  // >= k to be meaningful; clamped up internally). `filter` restricts the
  // result set. Results are sorted by ascending distance, ties by label.
  std::vector<SearchHit> TopKSearch(const float* query, size_t k, size_t ef,
                                    const FilterView& filter) const override;

  // Returns all points with distance < threshold, following the DiskANN
  // adaptation described in the paper (Sec. 4.4): repeat TopKSearch with
  // doubled k until the threshold is smaller than the median returned
  // distance (or the whole index is covered).
  std::vector<SearchHit> RangeSearch(const float* query, float threshold,
                                     size_t initial_k, size_t ef,
                                     const FilterView& filter) const override;

  // Scan over live (and filter-accepted) points through RowScan; used when
  // the number of valid candidates is below the brute-force threshold
  // (paper Sec. 5.1). Adds its distance evaluations to the search stats.
  std::vector<SearchHit> BruteForceSearch(const float* query, size_t k,
                                          const FilterView& filter) const override;

  size_t size() const override;  // live (non-deleted) points
  size_t capacity() const { return params_.max_elements; }
  size_t dim() const override { return params_.dim; }
  Metric metric() const override { return params_.metric; }
  std::string index_type() const override { return "HNSW"; }
  const HnswParams& params() const { return params_; }

  // (Re)trains the SQ8 tier from the currently stored rows: per-dimension
  // min/max over the segment, one symmetric scale, then every row encoded.
  // No-op unless the index was built with params.sq8. Safe to call while
  // searches run; searches pick up the new tier on their next snapshot.
  Status TrainQuantization() override;
  bool quant_active() const override;

  // Snapshot of the cumulative counters. Distance evaluations and hops are
  // tallied per thread and published once per AddPoint, TopKSearch or
  // BruteForceSearch call, so they count in every build.
  HnswStats stats() const;

  // Serialization (index snapshot files, paper Fig. 4).
  Status SaveToFile(const std::string& path) const;
  static Result<std::unique_ptr<HnswIndex>> LoadFromFile(const std::string& path);

  // All live labels (unordered).
  std::vector<uint64_t> Labels() const override;

  // Structural check: an error for a dangling or self link, a link to a
  // node without that level, or a degree above the level's maximum. A
  // non-null `unreachable` receives the number of live nodes the entry point
  // cannot reach at layer 0, which is no error: heuristic pruning can strand
  // a node even in a serial build. Stable only on a quiescent index.
  Status CheckInvariants(size_t* unreachable) const;

 private:
  struct Node {
    // links[level] holds the out-neighbors at that level; level 0 allows
    // 2*m links, upper levels m.
    std::vector<std::vector<uint32_t>> links;
    uint64_t label = 0;
    bool deleted = false;
  };

  struct Candidate {
    float distance;
    uint32_t id;
    bool operator<(const Candidate& other) const { return distance < other.distance; }
    bool operator>(const Candidate& other) const { return distance > other.distance; }
  };

  // The quantized tier living beside the fp32 rows. Immutable once
  // installed except for the `encoded` high-water mark (ids below it have
  // valid codes) and in-place row re-encodes, which race searches the same
  // benign way fp32 in-place updates do. The tier pointer itself is guarded
  // by global_mu_; searches copy the shared_ptr once per call.
  struct Sq8Tier {
    simd::Sq8Params params;
    std::vector<int8_t> codes;         // capacity * dim
    std::vector<int64_t> norms;        // capacity (code self-dot, for cosine)
    std::atomic<uint32_t> encoded{0};  // ids [0, encoded) are encoded
  };

  // Per-query view of the tier: the encoded query plus the high-water mark
  // snapshot, so one search scores against a consistent prefix.
  struct Sq8View {
    const Sq8Tier* tier;
    Sq8Query query;
    uint32_t encoded;
  };

  const float* DataAt(uint32_t id) const { return data_.data() + size_t{id} * params_.dim; }
  float Dist(const float* query, uint32_t id) const;

  // Scores `ids[0..n)` against `query` into `dists`. With a quant view,
  // encoded ids rank on int8 codes and ids past the encoded prefix (inserted
  // after training) fall back to exact fp32 (Sq8ScoreGather), so beam
  // ordering stays coherent. n <= kScanBatch.
  void ScoreBatchGather(const float* query, const Sq8View* qv, const uint32_t* ids,
                        size_t n, float* dists) const;

  // Node count published for lock-free readers. nodes_ is reserved to
  // max_elements up front so its buffer never moves; a reader that acquires
  // the count sees every node below it fully constructed.
  uint32_t NodeCount() const { return node_count_.load(std::memory_order_acquire); }

  int DrawLevel();

  // Greedy single-entry descent at `level` starting from `entry`.
  uint32_t GreedySearchLayer(const float* query, uint32_t entry, int level) const;

  // Best-first beam search at `level`; returns up to ef closest candidates.
  // A non-null `qv` switches neighbor scoring to the quantized tier (used
  // only at layer 0; the greedy upper-layer descent stays fp32).
  std::vector<Candidate> SearchLayer(const float* query, uint32_t entry, size_t ef,
                                     int level, const Sq8View* qv = nullptr) const;

  // Heuristic neighbor selection (HNSW Algorithm 4). Each candidate carries
  // its distance to the point being linked.
  void SelectNeighbors(std::vector<Candidate>& candidates, size_t m) const;

  // Connects `id` at `level` to neighbors (never itself), adding pruned
  // backlinks. The only code that rewrites a link list.
  void ConnectNode(uint32_t id, int level, std::vector<Candidate>& candidates);

  // Greedy descent from `entry`, then SearchLayer + ConnectNode at each of
  // the node's levels: the one link routine of inserts and updates.
  void LinkNode(uint32_t id, const float* vec, int node_level, uint32_t entry,
                int top_level);

  Status InsertInternal(uint64_t label, const float* vec);
  Status UpdateInternal(uint32_t id, const float* vec);

  size_t MaxLinks(int level) const { return level == 0 ? 2 * params_.m : params_.m; }

  HnswParams params_;
  double level_mult_;

  std::vector<float> data_;                 // capacity*dim, filled on insert
  std::vector<Node> nodes_;                 // internal id -> node
  std::unordered_map<uint64_t, uint32_t> label_to_id_;
  std::unique_ptr<std::mutex[]> node_locks_;  // one per internal slot
  mutable std::mutex global_mu_;            // entry point + node allocation
  std::atomic<uint32_t> node_count_{0};  // == nodes_.size(), release-published
  std::shared_ptr<Sq8Tier> sq8_tier_;   // guarded by global_mu_ (pointer only)
  uint32_t entry_point_ = UINT32_MAX;
  int max_level_ = -1;
  Rng level_rng_;
  std::atomic<size_t> live_count_{0};

  mutable std::atomic<uint64_t> stat_dist_comps_{0};
  mutable std::atomic<uint64_t> stat_hops_{0};
  mutable std::atomic<uint64_t> stat_searches_{0};
  std::atomic<uint64_t> stat_inserts_{0};
  std::atomic<uint64_t> stat_updates_{0};
};

}  // namespace tigervector

#endif  // TIGERVECTOR_HNSW_HNSW_INDEX_H_
