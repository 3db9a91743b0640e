#ifndef TIGERVECTOR_CACHE_QUERY_CACHE_H_
#define TIGERVECTOR_CACHE_QUERY_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bitmap.h"

namespace tigervector {
namespace cache {

// --- 128-bit fingerprints -------------------------------------------------
//
// Cache keys are built from fingerprints of query structure (predicate
// text, parameter values, query vectors, candidate sets). 128 bits keeps
// the accidental-collision probability negligible across any realistic
// workload; the MVCC version components of each key are stored exactly, so
// staleness can never hide behind a hash collision.

struct Fingerprint {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Fingerprint& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const Fingerprint& o) const { return !(*this == o); }
};

// splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Fingerprints an arbitrary byte string (length-salted, order-dependent).
Fingerprint FingerprintBytes(const void* data, size_t len);

inline Fingerprint FingerprintString(const std::string& s) {
  return FingerprintBytes(s.data(), s.size());
}

// Folds one more 64-bit component into a fingerprint (order-dependent).
inline Fingerprint CombineFingerprint(Fingerprint a, uint64_t v) {
  const uint64_t m = Mix64(v);
  return Fingerprint{Mix64(a.hi ^ m), Mix64(a.lo + (m ^ 0xc2b2ae3d27d4eb4fULL))};
}

inline Fingerprint CombineFingerprints(Fingerprint a, const Fingerprint& b) {
  a = CombineFingerprint(a, b.hi);
  return CombineFingerprint(a, b.lo);
}

// Fingerprint of a candidate filter bitmap over global vids, for the top-k
// key: its words up to the last non-zero one, so the same set in bitmaps of
// different sizes shares a key. A null filter (accept all) is the default
// Fingerprint{}; an empty set fingerprints zero bytes, which differs.
Fingerprint FingerprintFilter(const Bitmap* filter);

// --- cache keys -----------------------------------------------------------

// 256-bit key: a 128-bit content fingerprint plus two exact 64-bit MVCC
// components. The version words are compared exactly (not hashed), so a
// stale entry can only be returned if the fingerprint itself collides.
struct CacheKey {
  uint64_t w[4] = {0, 0, 0, 0};

  bool operator==(const CacheKey& o) const {
    return w[0] == o.w[0] && w[1] == o.w[1] && w[2] == o.w[2] && w[3] == o.w[3];
  }
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = Mix64(k.w[0]);
    h = Mix64(h ^ k.w[1]);
    h = Mix64(h + k.w[2]);
    h = Mix64(h ^ k.w[3]);
    return static_cast<size_t>(h);
  }
};

// Bitmap tier: (predicate fingerprint, graph segment id, segment version).
inline CacheKey BitmapKey(const Fingerprint& predicate_fp, uint64_t segment_id,
                          uint64_t segment_version) {
  return CacheKey{{predicate_fp.hi, predicate_fp.lo, segment_id, segment_version}};
}

// Top-k tier: (request fingerprint = attrs/query/k/ef, filter fingerprint,
// commit horizon read_tid, embedding structure version).
inline CacheKey TopKKey(const Fingerprint& request_fp, const Fingerprint& filter_fp,
                        uint64_t read_tid, uint64_t structure_version) {
  const Fingerprint f = CombineFingerprints(request_fp, filter_fp);
  return CacheKey{{f.hi, f.lo, read_tid, structure_version}};
}

// Per-lookup outcome, surfaced as `cache: hit|miss|bypass` in EXPLAIN
// ANALYZE node actuals.
enum class Outcome { kHit, kMiss, kBypass };

inline const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kHit:
      return "hit";
    case Outcome::kMiss:
      return "miss";
    case Outcome::kBypass:
      return "bypass";
  }
  return "bypass";
}

// --- lock-sharded LRU -----------------------------------------------------

// A capacity-bounded (in bytes) LRU map sharded by key hash. Each shard has
// its own mutex, intrusive LRU list, and byte budget of capacity/shards;
// eviction is per shard from the LRU tail. Values are cheap to copy
// (shared_ptr in both tiers). The LRU list is threaded through the map's
// own nodes, whose addresses survive rehashing, so an entry costs one
// allocation besides its value.
template <typename Value>
class ShardedLruCache {
 public:
  ShardedLruCache(size_t capacity_bytes, size_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        shards_(new Shard[num_shards == 0 ? 1 : num_shards]),
        per_shard_capacity_(
            std::max<size_t>(1, capacity_bytes / (num_shards == 0 ? 1 : num_shards))) {}

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  // Copies the value out on hit (refreshing LRU recency) and returns true.
  bool Lookup(const CacheKey& key, Value* out) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.map.find(key);
    if (it == s.map.end()) return false;
    s.Unlink(&*it);
    s.PushFront(&*it);
    *out = it->second.value;
    return true;
  }

  // Inserts (or replaces) an entry charged `bytes` against the shard
  // budget, evicting LRU entries as needed. Returns the number of entries
  // evicted. An entry larger than a whole shard is not admitted.
  size_t Insert(const CacheKey& key, Value value, size_t bytes) {
    Shard& s = ShardFor(key);
    std::lock_guard<std::mutex> lock(s.mu);
    // Reject an oversized entry before touching any existing entry for the
    // key: a replacement that cannot be admitted must not silently drop
    // the (still valid — keys are content-addressed) value it would have
    // replaced.
    if (bytes > per_shard_capacity_) return 0;
    auto it = s.map.find(key);
    if (it != s.map.end()) s.Erase(&*it);
    size_t evicted = 0;
    while (s.bytes + bytes > per_shard_capacity_ && s.tail != nullptr) {
      s.Erase(s.tail);
      ++evicted;
    }
    Node* node = &*s.map.emplace(key, Entry{std::move(value), bytes}).first;
    s.PushFront(node);
    s.bytes += bytes;
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
  }

  void Clear() {
    for (size_t i = 0; i < num_shards_; ++i) {
      Shard& s = shards_[i];
      std::lock_guard<std::mutex> lock(s.mu);
      s.map.clear();
      s.head = s.tail = nullptr;
      s.bytes = 0;
    }
  }

  size_t entries() const {
    size_t n = 0;
    for (size_t i = 0; i < num_shards_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      n += shards_[i].map.size();
    }
    return n;
  }

  size_t bytes() const {
    size_t n = 0;
    for (size_t i = 0; i < num_shards_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      n += shards_[i].bytes;
    }
    return n;
  }

  uint64_t evictions() const { return evictions_.load(std::memory_order_relaxed); }
  size_t capacity_bytes() const { return per_shard_capacity_ * num_shards_; }

 private:
  struct Entry;
  using Node = std::pair<const CacheKey, Entry>;
  struct Entry {
    Value value;
    size_t bytes;
    Node* prev = nullptr;  // toward the most recent entry
    Node* next = nullptr;  // toward the least recent entry
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map;
    Node* head = nullptr;  // most recent
    Node* tail = nullptr;  // least recent, evicted first
    size_t bytes = 0;

    void Unlink(Node* n) {
      Entry& e = n->second;
      (e.prev != nullptr ? e.prev->second.next : head) = e.next;
      (e.next != nullptr ? e.next->second.prev : tail) = e.prev;
      e.prev = e.next = nullptr;
    }
    void PushFront(Node* n) {
      n->second.next = head;
      (head != nullptr ? head->second.prev : tail) = n;
      head = n;
    }
    void Erase(Node* n) {
      Unlink(n);
      bytes -= n->second.bytes;
      const CacheKey key = n->first;  // erase must not read the dying node
      map.erase(key);
    }
  };

  Shard& ShardFor(const CacheKey& key) {
    return shards_[CacheKeyHash{}(key) % num_shards_];
  }

  size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
  size_t per_shard_capacity_;
  std::atomic<uint64_t> evictions_{0};
};

// --- the two-tier query cache ---------------------------------------------

// Owned by a Database instance. Tier 1 memoizes per-segment predicate
// bitmaps produced while building pre-filter candidate sets; tier 2
// memoizes whole top-k answers for repeated RAG queries. Invalidation is
// implicit: every key embeds the MVCC version of the state it was computed
// from (segment version / commit horizon / index structure version), so a
// mutation simply makes old entries unreachable and LRU pressure reclaims
// them — there are no invalidation walks.
class QueryCache {
 public:
  struct Options {
    size_t bitmap_capacity_bytes = 16u << 20;
    size_t topk_capacity_bytes = 16u << 20;
    size_t shards = 8;
    // Initial state; the TV_CACHE environment variable (off/0/false or
    // on/1/true) overrides it at construction.
    bool enabled = true;
  };

  // A cached top-k answer plus the result statistics EXPLAIN ANALYZE
  // reports. Hits are (distance, global vid) in ascending merge order.
  struct TopKEntry {
    std::vector<std::pair<float, uint64_t>> hits;
    size_t segments_searched = 0;
    size_t bruteforce_segments = 0;
    size_t delta_candidates = 0;
    size_t quant_segments = 0;  // so hit-path EXPLAIN ANALYZE stays faithful
    size_t reranked = 0;
  };

  using BitmapPtr = std::shared_ptr<const Bitmap>;
  using TopKPtr = std::shared_ptr<const TopKEntry>;

  QueryCache() : QueryCache(Options{}) {}
  explicit QueryCache(Options options);

  // Runtime toggle (shell \cache on|off, fuzz differential legs). Disabling
  // retains entries; lookups and inserts become no-ops counted as bypasses.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }

  // Tier 1 — predicate bitmaps (nullptr = miss or bypass).
  BitmapPtr LookupBitmap(const CacheKey& key);
  void InsertBitmap(const CacheKey& key, BitmapPtr bitmap);

  // Tier 2 — top-k results (nullptr = miss or bypass).
  TopKPtr LookupTopK(const CacheKey& key);
  void InsertTopK(const CacheKey& key, TopKPtr entry);

  void Clear();

  struct TierStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t bypasses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t capacity_bytes = 0;
  };
  TierStats bitmap_stats() const;
  TierStats topk_stats() const;

  // Human-readable stats block for the shell's \cache command.
  std::string RenderStats() const;

 private:
  Options options_;
  std::atomic<bool> enabled_{true};
  ShardedLruCache<BitmapPtr> bitmaps_;
  ShardedLruCache<TopKPtr> topk_;
  std::atomic<uint64_t> bitmap_hits_{0}, bitmap_misses_{0}, bitmap_bypasses_{0};
  std::atomic<uint64_t> topk_hits_{0}, topk_misses_{0}, topk_bypasses_{0};
};

}  // namespace cache
}  // namespace tigervector

#endif  // TIGERVECTOR_CACHE_QUERY_CACHE_H_
