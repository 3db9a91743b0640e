#include "hnsw/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>

#include "hnsw/row_scan.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace tigervector {

namespace {
constexpr uint32_t kInvalidId = UINT32_MAX;
constexpr uint64_t kFileMagic = 0x54475648'4e535731ULL;  // "TGVHNSW1"
// Quantizer trailer appended after the v1 body. v1 readers stop at the end
// of the body, so the trailer is invisible to them; a missing trailer means
// a legacy fp32-only snapshot.
constexpr uint64_t kQuantTrailerMagic = 0x54475651'38543152ULL;  // "TGVQ8T1R"

#if defined(__SANITIZE_THREAD__)
#define TV_NO_SANITIZE_THREAD __attribute__((no_sanitize_thread))
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TV_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#else
#define TV_NO_SANITIZE_THREAD
#endif
#else
#define TV_NO_SANITIZE_THREAD
#endif

// In-place vector overwrite (UpdateInternal). It intentionally races with
// unlocked distance reads during concurrent searches — hnswlib semantics: a
// reader may observe a torn vector, which only perturbs that one query's
// approximation, never the graph structure. The copy goes through this
// helper (not memcpy) so the benign race is explicit and not reported by
// TSan.
TV_NO_SANITIZE_THREAD void RelaxedCopyVector(float* dst, const float* src,
                                             size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[i];
}

// In-place code overwrite for the SQ8 tier (same benign-race contract as
// RelaxedCopyVector): a concurrent quantized search may observe a torn code
// row, which only perturbs that query's candidate ranking — never its
// reported distances, which are reranked against exact fp32.
TV_NO_SANITIZE_THREAD void RelaxedEncodeRow(const simd::Sq8Params& params,
                                            const float* vec, size_t dim,
                                            int8_t* codes, int64_t* norm) {
  simd::Sq8Encode(params, vec, dim, codes);
  *norm = simd::Sq8CodeNorm(codes, dim);
}

// FNV-1a over the trailer's parameter bytes: cheap tear detection for the
// crash-recovery path (a torn trailer must demote the index to fp32, never
// install garbage quantizer statistics).
uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t QuantParamsChecksum(const simd::Sq8Params& p) {
  uint64_t h = Fnv1a(&p.scale, sizeof(p.scale), 1469598103934665603ULL);
  h = Fnv1a(p.min.data(), p.min.size() * sizeof(float), h);
  return Fnv1a(p.max.data(), p.max.size() * sizeof(float), h);
}

// The cost of HNSW work on this thread, in plain increments: the hot loops
// touch no shared cache line, so a pooled build or merge scales with its
// threads. A CostScope at each public entry point publishes what its call
// added, once, on exit.
struct CostTally {
  uint64_t distance_evals = 0;
  uint64_t hops = 0;
};
thread_local CostTally tl_cost;

// Publishes one call's tally to the index's own stats (per-segment
// attribution), to the process-wide registry (one aggregate without walking
// segments) and, for a search, to the active query trace. A segment search
// never spans threads, so the thread's tally is that query's exact cost even
// under concurrent queries and background inserts. A nested scope publishes
// its own part and leaves it out of the outer one's.
class CostScope {
 public:
  CostScope(std::atomic<uint64_t>& distance_evals, std::atomic<uint64_t>& hops,
            bool search)
      : distance_evals_(distance_evals), hops_(hops), search_(search), outer_(tl_cost) {
    tl_cost = CostTally{};
  }
  ~CostScope() {
    const CostTally cost = tl_cost;
    tl_cost = outer_;
    distance_evals_.fetch_add(cost.distance_evals, std::memory_order_relaxed);
    hops_.fetch_add(cost.hops, std::memory_order_relaxed);
    TV_COUNTER_ADD("tv.hnsw.distance_evals_total", cost.distance_evals);
    TV_COUNTER_ADD("tv.hnsw.hops_total", cost.hops);
    if (search_) {
      TV_TRACE_COUNTER_ADD("hnsw.distance_evals", cost.distance_evals);
      TV_TRACE_COUNTER_ADD("hnsw.hops", cost.hops);
    }
  }

  CostScope(const CostScope&) = delete;
  CostScope& operator=(const CostScope&) = delete;

 private:
  std::atomic<uint64_t>& distance_evals_;
  std::atomic<uint64_t>& hops_;
  const bool search_;
  const CostTally outer_;
};
}  // namespace

HnswIndex::HnswIndex(const HnswParams& params)
    : params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(std::max<size_t>(2, params.m)))),
      level_rng_(params.seed) {
  data_.resize(params_.max_elements * params_.dim);
  nodes_.reserve(params_.max_elements);
  node_locks_ = std::make_unique<std::mutex[]>(params_.max_elements);
}

HnswIndex::~HnswIndex() = default;

float HnswIndex::Dist(const float* query, uint32_t id) const {
  ++tl_cost.distance_evals;
  return ComputeDistance(params_.metric, query, DataAt(id), params_.dim);
}

void HnswIndex::ScoreBatchGather(const float* query, const Sq8View* qv,
                                 const uint32_t* ids, size_t n,
                                 float* dists) const {
  const float* rows[kScanBatch];
  for (size_t j = 0; j < n; ++j) rows[j] = DataAt(ids[j]);
  if (qv == nullptr) {
    ComputeDistanceBatchGather(params_.metric, query, rows, params_.dim, n, dists);
  } else {
    const int8_t* codes[kScanBatch];
    int64_t norms[kScanBatch];
    for (size_t j = 0; j < n; ++j) {
      const bool encoded = ids[j] < qv->encoded;
      codes[j] =
          encoded ? qv->tier->codes.data() + size_t{ids[j]} * params_.dim : nullptr;
      norms[j] = encoded ? qv->tier->norms[ids[j]] : 0;
    }
    Sq8ScoreGather(params_.metric, query, qv->query, rows, codes, norms,
                   params_.dim, n, dists);
  }
  tl_cost.distance_evals += n;
}

int HnswIndex::DrawLevel() {
  double u = level_rng_.NextDouble();
  if (u < 1e-12) u = 1e-12;
  return static_cast<int>(-std::log(u) * level_mult_);
}

uint32_t HnswIndex::GreedySearchLayer(const float* query, uint32_t entry,
                                      int level) const {
  uint32_t curr = entry;
  float curr_dist = Dist(query, curr);
  bool improved = true;
  while (improved) {
    improved = false;
    std::vector<uint32_t> neighbors;
    {
      std::lock_guard<std::mutex> lock(node_locks_[curr]);
      const auto& links = nodes_[curr].links;
      if (static_cast<int>(links.size()) > level) neighbors = links[level];
    }
    // All of a node's neighbors are scored in one batched kernel call; the
    // greedy step then walks to the best improvement found in the batch.
    const float* rows[kScanBatch];
    float dists[kScanBatch];
    for (size_t n0 = 0; n0 < neighbors.size(); n0 += kScanBatch) {
      const size_t n = std::min(kScanBatch, neighbors.size() - n0);
      for (size_t j = 0; j < n; ++j) rows[j] = DataAt(neighbors[n0 + j]);
      ComputeDistanceBatchGather(params_.metric, query, rows, params_.dim, n,
                                 dists);
      tl_cost.distance_evals += n;
      for (size_t j = 0; j < n; ++j) {
        if (dists[j] < curr_dist) {
          curr_dist = dists[j];
          curr = neighbors[n0 + j];
          improved = true;
        }
      }
    }
    ++tl_cost.hops;
  }
  return curr;
}

std::vector<HnswIndex::Candidate> HnswIndex::SearchLayer(const float* query,
                                                         uint32_t entry, size_t ef,
                                                         int level,
                                                         const Sq8View* qv) const {
  // top: max-heap of the ef closest found so far; frontier: min-heap of
  // nodes to expand.
  std::priority_queue<Candidate> top;
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<Candidate>>
      frontier;
  std::vector<uint8_t> visited(NodeCount(), 0);

  float entry_dist;
  ScoreBatchGather(query, qv, &entry, 1, &entry_dist);
  top.push(Candidate{entry_dist, entry});
  frontier.push(Candidate{entry_dist, entry});
  visited[entry] = 1;

  uint32_t hops_since_check = 0;
  while (!frontier.empty()) {
    const Candidate c = frontier.top();
    if (top.size() >= ef && c.distance > top.top().distance) break;
    frontier.pop();
    ++tl_cost.hops;
    // Cooperative cancellation: a request deadline expiring mid-scan stops
    // the traversal within one check interval. The partial beam is
    // discarded by the caller (EmbeddingService checks the token after the
    // fan-out), so an expired query never surfaces a truncated top-k.
    if (++hops_since_check >= kCancelCheckInterval) {
      hops_since_check = 0;
      if (CancelCheckExpired()) break;
    }

    std::vector<uint32_t> neighbors;
    {
      std::lock_guard<std::mutex> lock(node_locks_[c.id]);
      const auto& links = nodes_[c.id].links;
      if (static_cast<int>(links.size()) > level) neighbors = links[level];
    }
    // Neighbor expansion is the hot loop of HNSW search: score all
    // unvisited neighbors of the popped node in one batched kernel call
    // (prefetching upcoming rows), then admit survivors one by one. With a
    // quant view the batch ranks on int8 codes instead of fp32 rows.
    uint32_t ids[kScanBatch];
    float dists[kScanBatch];
    size_t n = 0;
    auto admit = [&] {
      ScoreBatchGather(query, qv, ids, n, dists);
      for (size_t j = 0; j < n; ++j) {
        if (top.size() < ef || dists[j] < top.top().distance) {
          top.push(Candidate{dists[j], ids[j]});
          if (top.size() > ef) top.pop();
          frontier.push(Candidate{dists[j], ids[j]});
        }
      }
      n = 0;
    };
    for (uint32_t nb : neighbors) {
      if (nb >= visited.size() || visited[nb]) continue;
      visited[nb] = 1;
      ids[n] = nb;
      if (++n == kScanBatch) admit();
    }
    if (n > 0) admit();
  }

  std::vector<Candidate> out;
  out.reserve(top.size());
  while (!top.empty()) {
    out.push_back(top.top());
    top.pop();
  }
  std::reverse(out.begin(), out.end());  // ascending distance
  return out;
}

void HnswIndex::SelectNeighbors(std::vector<Candidate>& candidates, size_t m) const {
  if (candidates.size() <= m) return;
  // Heuristic selection (HNSW Algorithm 4): keep a candidate only if it is
  // closer to the base point than to every already-selected neighbor. This
  // spreads links in different directions and is what gives HNSW its
  // navigability on clustered data.
  std::sort(candidates.begin(), candidates.end());
  std::vector<Candidate> selected;
  selected.reserve(m);
  for (const Candidate& c : candidates) {
    if (selected.size() >= m) break;
    bool good = true;
    for (const Candidate& s : selected) {
      const float d = ComputeDistance(params_.metric, DataAt(c.id), DataAt(s.id),
                                      params_.dim);
      ++tl_cost.distance_evals;
      if (d < c.distance) {
        good = false;
        break;
      }
    }
    if (good) selected.push_back(c);
  }
  // Backfill with the nearest rejected candidates if the heuristic was too
  // aggressive (keeps the graph connected for tiny m).
  for (const Candidate& c : candidates) {
    if (selected.size() >= m) break;
    bool already = false;
    for (const Candidate& s : selected) {
      if (s.id == c.id) {
        already = true;
        break;
      }
    }
    if (!already) selected.push_back(c);
  }
  candidates = std::move(selected);
}

void HnswIndex::ConnectNode(uint32_t id, int level,
                            std::vector<Candidate>& candidates) {
  // An update, or a concurrent insert's backlink, can bring `id` itself back.
  candidates.erase(std::remove_if(candidates.begin(), candidates.end(),
                                  [id](const Candidate& c) { return c.id == id; }),
                   candidates.end());
  SelectNeighbors(candidates, params_.m);
  const size_t max_links = MaxLinks(level);
  {
    // Merge, never overwrite: the new selection goes first, then the list's
    // current entries fill the remaining room. Those are backlinks that
    // concurrent inserts pushed meanwhile and, on an update, the old
    // out-neighbours, which may have no other in-link.
    std::lock_guard<std::mutex> lock(node_locks_[id]);
    auto& links = nodes_[id].links[level];
    std::vector<uint32_t> merged;
    for (const Candidate& c : candidates) merged.push_back(c.id);
    for (uint32_t n : links) {
      if (merged.size() < max_links &&
          std::find(merged.begin(), merged.end(), n) == merged.end()) {
        merged.push_back(n);
      }
    }
    links = std::move(merged);
  }
  for (const Candidate& c : candidates) {
    std::lock_guard<std::mutex> lock(node_locks_[c.id]);
    auto& peer_links = nodes_[c.id].links;
    if (static_cast<int>(peer_links.size()) <= level) continue;
    auto& links = peer_links[level];
    if (std::find(links.begin(), links.end(), id) != links.end()) continue;
    if (links.size() < max_links) {
      links.push_back(id);
      continue;
    }
    // Prune the peer's links with the same heuristic, considering the new
    // backlink as a candidate.
    std::vector<Candidate> peer_cands;
    peer_cands.reserve(links.size() + 1);
    const float* peer_vec = DataAt(c.id);
    for (uint32_t n : links) {
      peer_cands.push_back(
          Candidate{ComputeDistance(params_.metric, peer_vec, DataAt(n), params_.dim), n});
    }
    tl_cost.distance_evals += links.size() + 1;
    peer_cands.push_back(
        Candidate{ComputeDistance(params_.metric, peer_vec, DataAt(id), params_.dim), id});
    SelectNeighbors(peer_cands, max_links);
    links.clear();
    for (const Candidate& pc : peer_cands) links.push_back(pc.id);
  }
}

void HnswIndex::LinkNode(uint32_t id, const float* vec, int node_level,
                         uint32_t entry, int top_level) {
  uint32_t curr = entry;
  for (int level = top_level; level > node_level; --level) {
    curr = GreedySearchLayer(vec, curr, level);
  }
  for (int level = std::min(node_level, top_level); level >= 0; --level) {
    std::vector<Candidate> cands = SearchLayer(vec, curr, params_.ef_construction, level);
    if (!cands.empty()) curr = cands.front().id;
    ConnectNode(id, level, cands);
  }
}

Status HnswIndex::AddPoint(uint64_t label, const float* vec) {
  TV_SPAN("hnsw.insert");
  CostScope cost_scope(stat_dist_comps_, stat_hops_, /*search=*/false);
  uint32_t existing = kInvalidId;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    auto it = label_to_id_.find(label);
    if (it != label_to_id_.end()) existing = it->second;
  }
  if (existing != kInvalidId) return UpdateInternal(existing, vec);
  return InsertInternal(label, vec);
}

Status HnswIndex::InsertInternal(uint64_t label, const float* vec) {
  uint32_t id;
  int node_level;
  uint32_t entry;
  int search_from_level;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    if (nodes_.size() >= params_.max_elements) {
      return Status::OutOfRange("hnsw index is full (capacity " +
                                std::to_string(params_.max_elements) + ")");
    }
    id = static_cast<uint32_t>(nodes_.size());
    node_level = DrawLevel();
    nodes_.push_back(Node{});
    Node& node = nodes_.back();
    node.label = label;
    node.links.resize(node_level + 1);
    label_to_id_.emplace(label, id);
    std::memcpy(data_.data() + size_t{id} * params_.dim, vec,
                params_.dim * sizeof(float));
    node_count_.store(static_cast<uint32_t>(nodes_.size()),
                      std::memory_order_release);
    // Inserts are serialized under global_mu_ with dense ids, so extending
    // the encoded prefix here keeps it contiguous: searches taking an
    // `encoded` snapshot never see a gap.
    if (sq8_tier_ != nullptr &&
        sq8_tier_->encoded.load(std::memory_order_relaxed) == id) {
      Sq8Tier* tier = sq8_tier_.get();
      simd::Sq8Encode(tier->params, vec, params_.dim,
                      tier->codes.data() + size_t{id} * params_.dim);
      tier->norms[id] = simd::Sq8CodeNorm(
          tier->codes.data() + size_t{id} * params_.dim, params_.dim);
      tier->encoded.store(id + 1, std::memory_order_release);
    }
    entry = entry_point_;
    search_from_level = max_level_;
    if (entry_point_ == kInvalidId) {
      entry_point_ = id;
      max_level_ = node_level;
    }
  }

  // A no-op for the first node: there is no level -1 to descend from.
  LinkNode(id, vec, node_level, entry, search_from_level);

  if (node_level > search_from_level) {
    std::lock_guard<std::mutex> lock(global_mu_);
    if (node_level > max_level_) {
      max_level_ = node_level;
      entry_point_ = id;
    }
  }
  live_count_.fetch_add(1);
  stat_inserts_.fetch_add(1, std::memory_order_relaxed);
  TV_COUNTER_INC("tv.hnsw.inserts_total");
  return Status::OK();
}

Status HnswIndex::UpdateInternal(uint32_t id, const float* vec) {
  int node_level;
  {
    std::lock_guard<std::mutex> lock(node_locks_[id]);
    RelaxedCopyVector(data_.data() + size_t{id} * params_.dim, vec, params_.dim);
    node_level = static_cast<int>(nodes_[id].links.size()) - 1;
    if (nodes_[id].deleted) {
      nodes_[id].deleted = false;
      live_count_.fetch_add(1);
    }
  }
  uint32_t entry;
  int top_level;
  std::shared_ptr<Sq8Tier> tier;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    entry = entry_point_;
    top_level = max_level_;
    tier = sq8_tier_;
  }
  // Keep the code row of an in-place update in sync with its fp32 row
  // (stale segment params are fine — the rerank is exact; stale codes
  // pointing at the old vector would not be).
  if (tier != nullptr && id < tier->encoded.load(std::memory_order_acquire)) {
    RelaxedEncodeRow(tier->params, vec, params_.dim,
                     tier->codes.data() + size_t{id} * params_.dim,
                     &tier->norms[id]);
  }
  // Linked as an insert is; the in-links other nodes hold to it stay valid.
  LinkNode(id, vec, node_level, entry, top_level);
  stat_updates_.fetch_add(1, std::memory_order_relaxed);
  TV_COUNTER_INC("tv.hnsw.updates_total");
  return Status::OK();
}

Status HnswIndex::UpdateItems(const std::vector<UpdateItem>& items, ThreadPool* pool) {
  if (items.empty()) return Status::OK();
  const size_t num_buckets = pool != nullptr ? pool->num_threads() : 1;
  // Partition items by label so each worker owns a disjoint label subset;
  // this preserves per-label record order within the batch (paper Sec. 4.4).
  std::vector<std::vector<const UpdateItem*>> buckets(num_buckets);
  for (const UpdateItem& item : items) {
    buckets[item.label % num_buckets].push_back(&item);
  }
  std::vector<Status> statuses(num_buckets);
  auto run_bucket = [this, &buckets, &statuses](size_t b) {
    for (const UpdateItem* item : buckets[b]) {
      Status st;
      if (item->is_delete) {
        st = MarkDeleted(item->label);
        // Deleting a label that never reached the index is a no-op.
        if (st.code() == StatusCode::kNotFound) st = Status::OK();
      } else {
        st = AddPoint(item->label, item->value.data());
      }
      if (!st.ok()) {
        statuses[b] = st;
        return;
      }
    }
  };
  if (pool != nullptr && num_buckets > 1) {
    pool->ParallelFor(num_buckets, run_bucket);
  } else {
    for (size_t b = 0; b < num_buckets; ++b) run_bucket(b);
  }
  for (const Status& st : statuses) TV_RETURN_NOT_OK(st);
  return Status::OK();
}

Status HnswIndex::MarkDeleted(uint64_t label) {
  uint32_t id;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) {
      return Status::NotFound("label " + std::to_string(label) + " not in index");
    }
    id = it->second;
  }
  std::lock_guard<std::mutex> lock(node_locks_[id]);
  if (!nodes_[id].deleted) {
    nodes_[id].deleted = true;
    live_count_.fetch_sub(1);
  }
  return Status::OK();
}

bool HnswIndex::Contains(uint64_t label) const {
  std::lock_guard<std::mutex> lock(global_mu_);
  return label_to_id_.count(label) > 0;
}

bool HnswIndex::IsDeleted(uint64_t label) const {
  uint32_t id;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) return true;
    id = it->second;
  }
  std::lock_guard<std::mutex> lock(node_locks_[id]);
  return nodes_[id].deleted;
}

Status HnswIndex::GetEmbedding(uint64_t label, float* out) const {
  uint32_t id;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    auto it = label_to_id_.find(label);
    if (it == label_to_id_.end()) {
      return Status::NotFound("label " + std::to_string(label) + " not in index");
    }
    id = it->second;
  }
  // Node lock so the copy can't interleave with an in-place update of the
  // same slot (exact reads stay consistent; only search traversal reads raw).
  std::lock_guard<std::mutex> lock(node_locks_[id]);
  std::memcpy(out, DataAt(id), params_.dim * sizeof(float));
  return Status::OK();
}

std::vector<SearchHit> HnswIndex::TopKSearch(const float* query, size_t k, size_t ef,
                                             const FilterView& filter) const {
  TV_SPAN("hnsw.search");
  CostScope cost_scope(stat_dist_comps_, stat_hops_, /*search=*/true);
  stat_searches_.fetch_add(1, std::memory_order_relaxed);
  TV_COUNTER_INC("tv.hnsw.searches_total");
  std::vector<SearchHit> out;
  uint32_t entry;
  int top_level;
  std::shared_ptr<Sq8Tier> tier;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    entry = entry_point_;
    top_level = max_level_;
    tier = sq8_tier_;
  }
  if (entry == kInvalidId || k == 0) return out;
  ef = std::max(ef, k);

  const bool use_quant = tier != nullptr && simd::ScopedQuantQuery::Enabled();

  uint32_t curr = entry;
  // The greedy upper-layer descent stays fp32: it touches O(log n) nodes,
  // so quantizing it saves nothing measurable and would add a second place
  // recall can leak.
  for (int level = top_level; level > 0; --level) {
    curr = GreedySearchLayer(query, curr, level);
  }

  // Quantized search widens the beam to at least the rerank budget, ranks it
  // on int8 codes, then rescores the best rerank_factor*k surviving
  // candidates with exact fp32, so reported distances are always exact.
  const size_t budget = use_quant ? RerankBudget(k) : k;
  Sq8View qv{};
  if (use_quant) {
    qv = Sq8View{tier.get(), Sq8Query(tier->params, query, params_.dim),
                 tier->encoded.load(std::memory_order_acquire)};
  }
  std::vector<Candidate> cands =
      SearchLayer(query, curr, std::max(ef, budget), 0, use_quant ? &qv : nullptr);
  // The beam orders on distance alone, so the fp32 path also takes the
  // candidates that tie the last one kept and lets the scan break the tie
  // on the label, as every other scan does: a LIMIT k answer is then a
  // prefix of the LIMIT k+n one.
  RowScan rerank = RowScan::TopK(query, params_.dim, params_.metric, k);
  size_t kept = 0;
  float last_kept = 0.f;
  for (const Candidate& c : cands) {
    if (kept >= budget && (use_quant || c.distance != last_kept)) break;
    uint64_t label;
    {
      std::lock_guard<std::mutex> lock(node_locks_[c.id]);
      const Node& node = nodes_[c.id];
      if (node.deleted) continue;
      label = node.label;
    }
    if (!filter.Accepts(label)) continue;
    ++kept;
    last_kept = c.distance;
    if (!use_quant) {
      rerank.AddHit(SearchHit{c.distance, label});
    } else if (!rerank.Offer(label, DataAt(c.id))) {
      break;
    }
  }
  out = rerank.Finish();
  tl_cost.distance_evals += rerank.distance_evals();
  if (use_quant) simd::NoteQuantScan(kept);
  return out;
}

std::vector<SearchHit> HnswIndex::RangeSearch(const float* query, float threshold,
                                              size_t initial_k, size_t ef,
                                              const FilterView& filter) const {
  return ExpandingRangeSearch(query, threshold, initial_k, ef, filter, NodeCount());
}

std::vector<SearchHit> HnswIndex::BruteForceSearch(const float* query, size_t k,
                                                   const FilterView& filter) const {
  CostScope cost_scope(stat_dist_comps_, stat_hops_, /*search=*/true);
  const uint32_t count = NodeCount();
  std::shared_ptr<Sq8Tier> tier;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    tier = sq8_tier_;
  }
  RowScan scan = RowScan::TopK(query, params_.dim, params_.metric, k,
                               tier != nullptr ? &tier->params : nullptr);
  const uint32_t encoded =
      tier != nullptr ? tier->encoded.load(std::memory_order_acquire) : 0;
  for (uint32_t id = 0; id < count; ++id) {
    uint64_t label;
    {
      std::lock_guard<std::mutex> lock(node_locks_[id]);
      const Node& node = nodes_[id];
      if (node.deleted) continue;
      label = node.label;
    }
    if (!filter.Accepts(label)) continue;
    const int8_t* code =
        id < encoded ? tier->codes.data() + size_t{id} * params_.dim : nullptr;
    if (!scan.Offer(label, DataAt(id), code,
                    code != nullptr ? tier->norms[id] : 0)) {
      break;
    }
  }
  std::vector<SearchHit> hits = scan.Finish();
  tl_cost.distance_evals += scan.distance_evals();
  return hits;
}

Status HnswIndex::TrainQuantization() {
  if (!params_.sq8) return Status::OK();
  const uint32_t count = NodeCount();
  if (count == 0) return Status::OK();
  // Pass 1: per-dimension min/max over every stored row (deleted rows too —
  // they only widen the range, never skew it). Rows may race in-place
  // updates; the annotated copy makes that benign torn read explicit.
  std::vector<float> row(params_.dim);
  simd::Sq8Trainer trainer(params_.dim);
  for (uint32_t id = 0; id < count; ++id) {
    RelaxedCopyVector(row.data(), DataAt(id), params_.dim);
    trainer.Observe(row.data());
  }
  auto tier = std::make_shared<Sq8Tier>();
  tier->params = trainer.Finish();
  if (!tier->params.valid()) return Status::OK();
  tier->codes.resize(params_.max_elements * params_.dim);
  tier->norms.resize(params_.max_elements);
  // Pass 2: encode everything observed so far.
  for (uint32_t id = 0; id < count; ++id) {
    RelaxedCopyVector(row.data(), DataAt(id), params_.dim);
    int8_t* codes = tier->codes.data() + size_t{id} * params_.dim;
    simd::Sq8Encode(tier->params, row.data(), params_.dim, codes);
    tier->norms[id] = simd::Sq8CodeNorm(codes, params_.dim);
  }
  {
    // Rows inserted while we trained get encoded under the same lock that
    // serializes inserts, so the installed tier's prefix is gap-free.
    std::lock_guard<std::mutex> lock(global_mu_);
    for (uint32_t id = count; id < nodes_.size(); ++id) {
      int8_t* codes = tier->codes.data() + size_t{id} * params_.dim;
      simd::Sq8Encode(tier->params, DataAt(id), params_.dim, codes);
      tier->norms[id] = simd::Sq8CodeNorm(codes, params_.dim);
    }
    tier->encoded.store(static_cast<uint32_t>(nodes_.size()),
                        std::memory_order_release);
    sq8_tier_ = std::move(tier);
  }
  TV_COUNTER_INC("tv.quant.trainings_total");
  return Status::OK();
}

bool HnswIndex::quant_active() const {
  std::lock_guard<std::mutex> lock(global_mu_);
  return sq8_tier_ != nullptr;
}

size_t HnswIndex::size() const { return live_count_.load(); }

HnswStats HnswIndex::stats() const {
  HnswStats s;
  s.distance_computations = stat_dist_comps_.load(std::memory_order_relaxed);
  s.hops = stat_hops_.load(std::memory_order_relaxed);
  s.searches = stat_searches_.load(std::memory_order_relaxed);
  s.inserts = stat_inserts_.load(std::memory_order_relaxed);
  s.updates = stat_updates_.load(std::memory_order_relaxed);
  return s;
}

std::vector<uint64_t> HnswIndex::Labels() const {
  std::lock_guard<std::mutex> lock(global_mu_);
  std::vector<uint64_t> labels;
  labels.reserve(label_to_id_.size());
  for (const auto& [label, id] : label_to_id_) {
    std::lock_guard<std::mutex> node_lock(node_locks_[id]);
    if (!nodes_[id].deleted) labels.push_back(label);
  }
  return labels;
}

Status HnswIndex::CheckInvariants(size_t* unreachable) const {
  uint32_t entry;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    entry = entry_point_;
  }
  const uint32_t count = NodeCount();
  for (uint32_t id = 0; id < count; ++id) {
    std::lock_guard<std::mutex> lock(node_locks_[id]);
    const auto& links = nodes_[id].links;
    for (size_t level = 0; level < links.size(); ++level) {
      std::string fault = links[level].size() > MaxLinks(level) ? "degree above max" : "";
      for (uint32_t n : links[level]) {
        // Levels are sized before a node is published, so reading another
        // node's level needs no lock.
        if (n >= NodeCount()) {
          fault = "dangling link " + std::to_string(n);
        } else if (n == id) {
          fault = "self link";
        } else if (nodes_[n].links.size() <= level) {
          fault = "link to " + std::to_string(n) + ", which lacks this level";
        }
      }
      if (!fault.empty()) {
        return Status::Internal("hnsw node " + std::to_string(id) + " level " +
                                std::to_string(level) + ": " + fault);
      }
    }
  }
  if (unreachable == nullptr) return Status::OK();
  // Layer-0 reachability from the entry point, through tombstones as
  // searches go.
  std::vector<uint8_t> seen(count, 0);
  std::vector<uint32_t> stack;
  if (entry < count) stack.push_back(entry);
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    if (seen[id] != 0) continue;
    seen[id] = 1;
    std::lock_guard<std::mutex> lock(node_locks_[id]);
    for (uint32_t n : nodes_[id].links[0]) {
      if (n < count && seen[n] == 0) stack.push_back(n);
    }
  }
  *unreachable = 0;
  for (uint32_t id = 0; id < count; ++id) {
    std::lock_guard<std::mutex> lock(node_locks_[id]);
    if (seen[id] == 0 && !nodes_[id].deleted) ++*unreachable;
  }
  return Status::OK();
}

namespace {

template <typename T>
bool WritePod(io::AtomicFile* f, const T& v) {
  return f->Write(&v, sizeof(T)).ok();
}

template <typename T>
bool ReadPod(io::File* f, T* v) {
  return f->Read(v, sizeof(T)).ok();
}

}  // namespace

Status HnswIndex::SaveToFile(const std::string& path) const {
  // Atomic tmp + fsync + rename ("snapshot.save" fault site): a crash mid-
  // save leaves the previous snapshot intact, never a torn file recovery
  // would have to reject.
  auto create = io::AtomicFile::Create(path, "snapshot.save");
  if (!create.ok()) return create.status();
  io::AtomicFile f = std::move(create).value();
  bool ok = WritePod(&f, kFileMagic);
  const uint64_t dim = params_.dim;
  const uint32_t metric = static_cast<uint32_t>(params_.metric);
  const uint64_t m = params_.m;
  const uint64_t efc = params_.ef_construction;
  const uint64_t cap = params_.max_elements;
  const uint64_t count = nodes_.size();
  const uint32_t entry = entry_point_;
  const int32_t max_level = max_level_;
  ok = ok && WritePod(&f, dim) && WritePod(&f, metric) && WritePod(&f, m) &&
       WritePod(&f, efc) && WritePod(&f, cap) && WritePod(&f, count) &&
       WritePod(&f, entry) && WritePod(&f, max_level);
  for (uint64_t i = 0; ok && i < count; ++i) {
    const Node& node = nodes_[i];
    const uint8_t deleted = node.deleted ? 1 : 0;
    const uint32_t num_levels = static_cast<uint32_t>(node.links.size());
    ok = WritePod(&f, node.label) && WritePod(&f, deleted) && WritePod(&f, num_levels);
    for (uint32_t l = 0; ok && l < num_levels; ++l) {
      const uint32_t n = static_cast<uint32_t>(node.links[l].size());
      ok = WritePod(&f, n) &&
           f.Write(node.links[l].data(), n * sizeof(uint32_t)).ok();
    }
    ok = ok && f.Write(data_.data() + i * params_.dim,
                       params_.dim * sizeof(float)).ok();
  }
  // Quantizer trailer: mode byte plus (when trained) the per-dimension
  // min/max statistics and derived scale, checksummed so recovery can tell
  // a torn trailer from a trained one. Codes are NOT persisted — they are
  // re-derived deterministically from the fp32 rows at load, which is what
  // makes the rerank set bit-for-bit stable across crash/recover.
  std::shared_ptr<Sq8Tier> tier;
  {
    std::lock_guard<std::mutex> lock(global_mu_);
    tier = sq8_tier_;
  }
  const uint8_t quant_mode = params_.sq8 ? 1 : 0;
  const uint8_t has_params = tier != nullptr ? 1 : 0;
  ok = ok && WritePod(&f, kQuantTrailerMagic) && WritePod(&f, quant_mode) &&
       WritePod(&f, has_params);
  if (ok && has_params != 0) {
    const simd::Sq8Params& qp = tier->params;
    ok = WritePod(&f, qp.scale) &&
         f.Write(qp.min.data(), qp.min.size() * sizeof(float)).ok() &&
         f.Write(qp.max.data(), qp.max.size() * sizeof(float)).ok() &&
         WritePod(&f, QuantParamsChecksum(qp));
  }
  if (!ok) return Status::IOError("short write to " + path);
  return f.Commit();
}

Result<std::unique_ptr<HnswIndex>> HnswIndex::LoadFromFile(const std::string& path) {
  auto open = io::File::Open(path, "rb", "snapshot.load");
  if (!open.ok()) return open.status();
  io::File file = std::move(open).value();
  io::File* f = &file;
  uint64_t magic = 0, dim = 0, m = 0, efc = 0, cap = 0, count = 0;
  uint32_t metric = 0, entry = kInvalidId;
  int32_t max_level = -1;
  bool ok = ReadPod(f, &magic) && magic == kFileMagic && ReadPod(f, &dim) &&
            ReadPod(f, &metric) && ReadPod(f, &m) && ReadPod(f, &efc) &&
            ReadPod(f, &cap) && ReadPod(f, &count) && ReadPod(f, &entry) &&
            ReadPod(f, &max_level);
  if (!ok || count > cap || dim == 0) {
    return Status::IOError("corrupt hnsw file header: " + path);
  }
  HnswParams params;
  params.dim = dim;
  params.metric = static_cast<Metric>(metric);
  params.m = m;
  params.ef_construction = efc;
  params.max_elements = cap;
  auto index = std::make_unique<HnswIndex>(params);
  index->entry_point_ = entry;
  index->max_level_ = max_level;
  size_t live = 0;
  for (uint64_t i = 0; ok && i < count; ++i) {
    Node node;
    uint8_t deleted = 0;
    uint32_t num_levels = 0;
    ok = ReadPod(f, &node.label) && ReadPod(f, &deleted) && ReadPod(f, &num_levels);
    node.deleted = deleted != 0;
    node.links.resize(num_levels);
    for (uint32_t l = 0; ok && l < num_levels; ++l) {
      uint32_t n = 0;
      ok = ReadPod(f, &n);
      if (ok) {
        node.links[l].resize(n);
        ok = f->Read(node.links[l].data(), n * sizeof(uint32_t)).ok();
      }
    }
    if (ok) {
      ok = f->Read(index->data_.data() + i * dim, dim * sizeof(float)).ok();
    }
    if (ok) {
      index->label_to_id_.emplace(node.label, static_cast<uint32_t>(i));
      if (!node.deleted) ++live;
      index->nodes_.push_back(std::move(node));
    }
  }
  if (!ok) return Status::IOError("corrupt hnsw file body: " + path);
  index->live_count_.store(live);
  index->node_count_.store(static_cast<uint32_t>(index->nodes_.size()),
                           std::memory_order_release);

  // Quantizer trailer. Absent (clean EOF right after the body) means a
  // legacy fp32-only snapshot; present-but-torn demotes to fp32 with a
  // warning instead of installing garbage quantizer statistics — the graph
  // itself is intact either way.
  uint64_t qmagic = 0;
  if (ReadPod(f, &qmagic)) {
    uint8_t quant_mode = 0, has_params = 0;
    simd::Sq8Params qp;
    bool qok = qmagic == kQuantTrailerMagic && ReadPod(f, &quant_mode) &&
               ReadPod(f, &has_params) && quant_mode <= 1 && has_params <= 1;
    if (qok && has_params != 0) {
      qp.min.resize(dim);
      qp.max.resize(dim);
      uint64_t checksum = 0;
      qok = ReadPod(f, &qp.scale) &&
            f->Read(qp.min.data(), dim * sizeof(float)).ok() &&
            f->Read(qp.max.data(), dim * sizeof(float)).ok() &&
            ReadPod(f, &checksum) && checksum == QuantParamsChecksum(qp);
    }
    if (!qok) {
      TV_LOG(Warn) << "hnsw: torn or corrupt quantizer trailer in " << path
                   << ", serving fp32 only";
      TV_COUNTER_INC("tv.quant.trailer_corrupt_total");
    } else {
      index->params_.sq8 = quant_mode == 1;
      if (index->params_.sq8 && has_params != 0 && qp.valid()) {
        auto tier = std::make_shared<Sq8Tier>();
        tier->params = std::move(qp);
        tier->codes.resize(cap * dim);
        tier->norms.resize(cap);
        for (uint64_t i = 0; i < count; ++i) {
          int8_t* codes = tier->codes.data() + i * dim;
          simd::Sq8Encode(tier->params, index->data_.data() + i * dim, dim, codes);
          tier->norms[i] = simd::Sq8CodeNorm(codes, dim);
        }
        tier->encoded.store(static_cast<uint32_t>(count),
                            std::memory_order_release);
        index->sq8_tier_ = std::move(tier);
      }
    }
  }
  return index;
}

}  // namespace tigervector
