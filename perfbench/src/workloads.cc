#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "util/rng.h"
#include "workload/datasets.h"
#include "workload/snb.h"

namespace tvbench {

using tigervector::GsqlSession;
using tigervector::Rng;
using tigervector::Transaction;
using tigervector::VectorDataset;

namespace {

std::vector<float> Row(const float* v, size_t dim) { return {v, v + dim}; }

// ---------------------------------------------------------------------------
// ann_topk: SIFT-like Item vectors, unique top-k queries.
// ---------------------------------------------------------------------------
class ItemWorkload : public Workload {
 public:
  static constexpr size_t kItems = 20000;
  static constexpr size_t kDim = 128;
  // Reads whose recall is checked against brute force, evenly spaced.
  static constexpr size_t kRecallSamples = 1600;
  // Query vectors are base rows plus noise at the generator's own scale.
  static constexpr float kQueryNoise = 55.0f;
  // Query streams: reads draw indices from the first, writes from the second.
  static constexpr uint64_t kWriteStream = uint64_t{1} << 40;

  std::string name() const override { return "ann_topk"; }
  Database* db() override { return db_.get(); }
  size_t dim() const override { return kDim; }
  std::vector<std::string> shape_names() const override { return {"topk"}; }

  void Generate(uint64_t seed) override {
    seed_ = seed;
    data_ = tigervector::MakeSiftLike(kItems, 0, seed);
    write_vecs_.clear();
    for (size_t i = 0; i < kProbeWrites; ++i) {
      write_vecs_.push_back(QueryVector(kWriteStream + i));
    }
  }

  Status Load() override {
    db_ = std::make_unique<Database>(Database::Options{});
    GsqlSession boot(db_.get());
    auto ddl = boot.Run(
        "CREATE VERTEX Item (id INT);"
        "ALTER VERTEX Item ADD EMBEDDING ATTRIBUTE emb (DIMENSION = 128, "
        "MODEL = M, INDEX = HNSW, DATATYPE = FLOAT, METRIC = L2);");
    if (!ddl.ok()) return ddl.status();
    row_vid_.assign(kItems, kNoVertex);
    constexpr size_t kBatch = 1000;
    for (size_t begin = 0; begin < kItems; begin += kBatch) {
      Transaction txn = db_->Begin();
      for (size_t i = begin; i < std::min(kItems, begin + kBatch); ++i) {
        auto vid = txn.InsertVertex("Item", {static_cast<int64_t>(i)});
        if (!vid.ok()) return vid.status();
        TV_RETURN_NOT_OK(
            txn.SetEmbedding(*vid, "Item", "emb", Row(data_.BaseVector(i), kDim)));
        row_vid_[i] = *vid;
      }
      TV_RETURN_NOT_OK(txn.Commit().status());
    }
    TV_RETURN_NOT_OK(db_->Vacuum().status());
    writer_rng_ = Rng(seed_ * 7919 + 17);
    writes_issued_ = 0;
    writer_vid_ = row_vid_;
    writer_vec_.clear();
    for (size_t i = 0; i < kItems; ++i) writer_vec_.push_back(data_.BaseVector(i));
    return Status::OK();
  }

  Status PrepareChecks() override {
    vid_row_.clear();
    for (size_t i = 0; i < kItems; ++i) vid_row_[row_vid_[i]] = i;
    return Status::OK();
  }

  ReadOp NextRead(int /*client*/) override {
    const size_t q = next_query_.fetch_add(1);
    return TopK(QueryVector(q), static_cast<int64_t>(q));
  }

  ReadOp VerifyRead(const float* vec) const override {
    return TopK(Row(vec, kDim), -1);
  }

  // 80% re-embed an existing vertex, 10% insert, 10% delete.
  void DoWrite(WriteRecord* rec) override {
    const uint64_t pick = writer_rng_.NextBounded(10);
    const float* vec = write_vecs_[writes_issued_++ % kProbeWrites].data();
    Transaction txn = db_->Begin();
    Status st;
    size_t row = 0;
    if (pick == 0) {
      rec->kind = WriteRecord::kDelete;
      row = RandomLiveRow();
      rec->vid = writer_vid_[row];
      rec->vec = writer_vec_[row];
      st = txn.DeleteVertex(rec->vid);
    } else if (pick == 1) {
      rec->kind = WriteRecord::kInsert;
      rec->vec = vec;
      auto vid = txn.InsertVertex("Item", {static_cast<int64_t>(writer_vid_.size())});
      st = vid.status();
      if (st.ok()) {
        rec->vid = *vid;
        st = txn.SetEmbedding(rec->vid, "Item", "emb", Row(vec, kDim));
      }
    } else {
      rec->kind = WriteRecord::kReembed;
      rec->vec = vec;
      row = RandomLiveRow();
      rec->vid = writer_vid_[row];
      st = txn.SetEmbedding(rec->vid, "Item", "emb", Row(vec, kDim));
    }
    if (st.ok()) {
      const auto c0 = Clock::now();
      st = txn.Commit().status();
      rec->commit_us = MicrosBetween(c0, Clock::now());
    }
    rec->ok = st.ok();
    if (!rec->ok) return;
    if (rec->kind == WriteRecord::kInsert) {
      writer_vid_.push_back(rec->vid);
      writer_vec_.push_back(vec);
    } else if (rec->kind == WriteRecord::kDelete) {
      writer_vec_[row] = nullptr;
    } else {
      writer_vec_[row] = vec;
    }
  }

  CheckSummary Check(const std::vector<ReadRecord>& reads) override;

  std::string Describe() const override {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "items=%zu dim=%zu metric=L2 index=HNSW segments=%zu "
                  "segment_capacity=%u read_clients=%d query_vectors_unique=1 "
                  "writes=80%%reembed/10%%insert/10%%delete (probe after reads) "
                  "wal=in-memory",
                  kItems, kDim, db_->embeddings()->NumEmbeddingSegments(),
                  db_->store()->options().segment_capacity, kReadClients);
    return buf;
  }

 private:
  // Query vector `index`: a base row picked by an index-seeded generator,
  // plus Gaussian noise folded to non-negative values as the data's are.
  // Made on demand, so no run can exhaust or repeat them.
  std::vector<float> QueryVector(uint64_t index) const {
    Rng rng((seed_ + 1) * 0x9e3779b97f4a7c15ULL ^ (index * 0xbf58476d1ce4e5b9ULL + 1));
    const float* base = data_.BaseVector(rng.NextBounded(kItems));
    std::vector<float> v(kDim);
    for (size_t d = 0; d < kDim; ++d) {
      v[d] = base[d] + rng.NextGaussian() * kQueryNoise;
      if (v[d] < 0) v[d] = -v[d] * 0.3f;
    }
    return v;
  }

  ReadOp TopK(std::vector<float> qv, int64_t ref) const {
    ReadOp op;
    op.attrs = {{"Item", "emb"}};
    op.script =
        "R = SELECT s FROM (s:Item) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10;"
        " PRINT R; PRINT @@R_dist;";
    op.params["qv"] = qv;
    op.qv = std::move(qv);
    op.ref = ref;
    return op;
  }

  size_t RandomLiveRow() {
    for (;;) {
      const size_t row = writer_rng_.NextBounded(writer_vid_.size());
      if (writer_vec_[row] != nullptr) return row;
    }
  }

  uint64_t seed_ = 0;
  VectorDataset data_;
  std::unique_ptr<Database> db_;
  std::vector<VertexId> row_vid_;  // base row -> vid
  std::unordered_map<VertexId, size_t> vid_row_;
  std::atomic<uint64_t> next_query_{0};

  // Write-probe state: row -> vid and current vector (null once deleted).
  Rng writer_rng_;
  std::vector<VertexId> writer_vid_;
  std::vector<const float*> writer_vec_;
  std::vector<std::vector<float>> write_vecs_;
  size_t writes_issued_ = 0;
};

CheckSummary ItemWorkload::Check(const std::vector<ReadRecord>& reads) {
  // Every checked read ran before the first write, against the base rows.
  CheckSummary out;
  // Recall is computed on an evenly spaced sample of top-k reads; every
  // read gets the cheap checks.
  size_t topk_reads = 0;
  for (const ReadRecord& r : reads) topk_reads += r.ok;
  const size_t recall_every = std::max<size_t>(1, topk_reads / kRecallSamples);
  size_t topk_seen = 0;
  for (const ReadRecord& r : reads) {
    if (!r.ok) continue;
    const std::vector<float> qv = QueryVector(static_cast<uint64_t>(r.ref));
    // Fewer hits than asked for costs recall; more is wrong.
    if (r.ids.size() > kTopK) {
      out.Fail("top-k reply with " + std::to_string(r.ids.size()) + " hits");
      continue;
    }
    bool bad = false;
    std::vector<double> exact(r.ids.size());
    for (size_t i = 0; i < r.ids.size() && !bad; ++i) {
      auto it = vid_row_.find(r.ids[i]);
      if (it == vid_row_.end()) {
        out.Fail("unknown vertex " + std::to_string(r.ids[i]));
        bad = true;
        break;
      }
      exact[i] = ExactL2(qv.data(), data_.BaseVector(it->second), kDim);
      if (!DistanceMatches(r.dists[i], exact[i])) {
        out.Fail("distance mismatch for vertex " + std::to_string(r.ids[i]));
        bad = true;
      }
    }
    if (bad) continue;
    if (topk_seen++ % recall_every != 0) continue;
    const auto truth = ExactTopK(qv.data(), data_.base, {}, kDim, kTopK);
    out.recall.push_back({0, TieTolerantRecall(exact, truth.back().first, kTopK)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// hybrid_rag: SNB-like social graph with 64-d message embeddings and a
// Zipf-skewed pool of filtered, graph-pattern, composed and range queries.
// ---------------------------------------------------------------------------
class SnbWorkload : public Workload {
 public:
  static constexpr size_t kPersons = 2000;
  static constexpr size_t kDim = 64;
  static constexpr size_t kPool = 1000;
  static constexpr double kZipfS = 1.0;

  enum Shape { kTag, kLanguage, kPattern, kCompose, kRange, kNumShapes };
  // Share of reads per shape, in percent.
  static constexpr int kMix[kNumShapes] = {15, 15, 30, 30, 10};

  std::string name() const override { return "hybrid_rag"; }
  Database* db() override { return db_.get(); }
  size_t dim() const override { return kDim; }
  std::vector<std::string> shape_names() const override {
    return {"tag_topk", "language_topk", "pattern_2hop", "compose_vectorsearch",
            "range"};
  }

  void Generate(uint64_t seed) override {
    seed_ = seed;
    config_.num_persons = kPersons;
    config_.embedding_dim = kDim;
    config_.seed = seed;
    const size_t num_messages = config_.num_persons * config_.posts_per_person *
                                (1 + config_.comments_per_post);
    // The same generator call LoadSnb makes, so row i is message i's vector;
    // the extra rows are query and write vectors from the same clusters.
    vectors_ = tigervector::MakeSiftLikeWithDim(kDim, num_messages,
                                                kPool + kProbeWrites, seed + 1);
  }

  Status Load() override {
    db_ = std::make_unique<Database>(Database::Options{});
    stats_ = tigervector::SnbStats{};
    TV_RETURN_NOT_OK(tigervector::CreateSnbSchema(db_.get(), config_));
    return tigervector::LoadSnb(db_.get(), config_, &stats_);
  }

  Status PrepareChecks() override;

  ReadOp NextRead(int client) override {
    // The shape follows the fixed mix; the entry within the shape is
    // Zipf-skewed, so every seed sends the same share of each shape.
    Rng& rng = client_rngs_[client];
    int draw = static_cast<int>(rng.NextBounded(100));
    int shape = 0;
    while (draw >= kMix[shape]) draw -= kMix[shape++];
    const std::vector<size_t>& entries = by_shape_[shape];
    return OpFor(pool_[entries[zipf_[shape]->Next(rng)]]);
  }

  // Every top-k entry of the pool once: recall_at_10 then averages the
  // whole pool, whichever entries the Zipf head drew.
  std::vector<ReadOp> SweepReads() override {
    std::vector<ReadOp> ops;
    for (const Entry& e : pool_) {
      if (e.shape != kRange) ops.push_back(OpFor(e));
    }
    return ops;
  }

  ReadOp VerifyRead(const float* vec) const override {
    ReadOp op;
    op.script =
        "R = SELECT s FROM (s:Post) ORDER BY VECTOR_DIST(s.content_emb, $qv)"
        " LIMIT 10; PRINT R; PRINT @@R_dist;";
    op.qv = Row(vec, kDim);
    op.params["qv"] = op.qv;
    op.attrs = {{"Post", "content_emb"}};
    return op;
  }

  void DoWrite(WriteRecord* rec) override {
    rec->kind = WriteRecord::kReembed;
    rec->vid = stats_.posts[writer_rng_.NextBounded(stats_.posts.size())];
    rec->vec = vectors_.QueryVector(kPool + writes_issued_++ % kProbeWrites);
    Transaction txn = db_->Begin();
    Status st = txn.SetEmbedding(rec->vid, "Post", "content_emb", Row(rec->vec, kDim));
    if (st.ok()) {
      const auto c0 = Clock::now();
      st = txn.Commit().status();
      rec->commit_us = MicrosBetween(c0, Clock::now());
    }
    rec->ok = st.ok();
  }

  CheckSummary Check(const std::vector<ReadRecord>& reads) override;

  std::string Describe() const override {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "persons=%zu posts=%zu comments=%zu knows_edges=%zu dim=%zu "
                  "metric=L2 segments=%zu pool=%zu zipf_s=%.1f read_clients=%d "
                  "writes=100%%reembed (probe after reads) wal=in-memory",
                  stats_.num_persons, stats_.num_posts, stats_.num_comments,
                  stats_.num_knows_edges, kDim,
                  db_->embeddings()->NumEmbeddingSegments(), kPool, kZipfS,
                  kReadClients);
    return buf;
  }

 private:
  struct Cand {
    VertexSet set;
    Bitmap bitmap;  // the same set over vids, for the traced replays
  };

  struct Entry {
    int shape = 0;
    std::string script;
    QueryParams params;
    size_t query = 0;
    const Cand* cand = nullptr;  // filter (top-k shapes)
    float threshold = 0;
    double kth = 0;               // exact 10th distance (top-k shapes)
    size_t expect = 0;            // expected hit count
    std::vector<VertexId> truth;  // exact range result (range shape)
  };

  ReadOp OpFor(const Entry& e) const {
    ReadOp op;
    op.shape = e.shape;
    op.script = e.script;
    op.params = e.params;
    op.qv = Row(vectors_.QueryVector(e.query), kDim);
    op.params["qv"] = op.qv;
    op.attrs = {{"Post", "content_emb"}};
    if (e.cand != nullptr) {
      op.filter = &e.cand->set;
      op.filter_bitmap = &e.cand->bitmap;
    }
    op.range = e.shape == kRange;
    op.threshold = e.threshold;
    op.ref = &e - pool_.data();
    return op;
  }

  // The posts (index into stats_.posts) for which `keep` holds, as a
  // candidate set cached under `key`.
  template <typename Keep>
  const Cand* Candidates(const std::string& key, Keep keep) {
    auto it = cands_.find(key);
    if (it != cands_.end()) return &it->second;
    Cand& cand = cands_[key];
    cand.bitmap.Resize(db_->store()->vid_upper_bound());
    for (size_t j = 0; j < stats_.posts.size(); ++j) {
      if (!keep(j)) continue;
      cand.set.insert(stats_.posts[j]);
      cand.bitmap.Set(stats_.posts[j]);
    }
    return &cand;
  }

  const float* VectorOf(VertexId vid) const {
    auto it = vid_row_.find(vid);
    return it == vid_row_.end() ? nullptr : vectors_.BaseVector(it->second);
  }

  // What the oracle knows of each post, read from the store's attributes
  // and adjacency.
  struct PostFacts {
    int64_t tag = 0;
    int64_t length = 0;
    std::string language;
    VertexId creator = kNoVertex;
    VertexId country = kNoVertex;
  };
  Status ReadFacts();

  uint64_t seed_ = 0;
  tigervector::SnbConfig config_;
  tigervector::SnbStats stats_;
  VectorDataset vectors_;
  std::unique_ptr<Database> db_;
  std::unordered_map<VertexId, size_t> vid_row_;
  std::vector<PostFacts> posts_;
  std::unordered_map<std::string, VertexId> person_by_last_name_;
  std::unordered_map<std::string, VertexId> country_by_name_;
  std::unordered_map<VertexId, std::vector<VertexId>> friends_;
  std::map<std::string, Cand> cands_;
  std::vector<Entry> pool_;
  std::vector<size_t> by_shape_[kNumShapes];  // pool entries of each shape
  std::unique_ptr<Zipf> zipf_[kNumShapes];
  std::vector<Rng> client_rngs_;
  Rng writer_rng_;
  size_t writes_issued_ = 0;
};

Status SnbWorkload::ReadFacts() {
  const tigervector::GraphStore& store = *db_->store();
  const tigervector::Tid tid = store.visible_tid();
  auto edge = [&](const char* name) -> tigervector::Result<tigervector::EdgeTypeId> {
    auto def = db_->schema()->GetEdgeType(name);
    if (!def.ok()) return def.status();
    return (*def)->id;
  };
  auto knows = edge("knows"), has_creator = edge("hasCreator"),
       located = edge("isLocatedIn");
  for (const auto* e : {&knows, &has_creator, &located}) {
    if (!e->ok()) return e->status();
  }
  auto attr = [&](VertexId vid, const char* name, auto* out) -> Status {
    auto value = store.GetAttr(vid, name, tid);
    if (!value.ok()) return value.status();
    using T = std::remove_pointer_t<decltype(out)>;
    if (!std::holds_alternative<T>(*value)) {
      return Status::Internal(std::string("unexpected type of attribute ") + name);
    }
    *out = std::get<T>(*value);
    return Status::OK();
  };
  // The single out-neighbour over `etype` (hasCreator, isLocatedIn).
  auto only_neighbor = [&](VertexId vid, tigervector::EdgeTypeId etype,
                           VertexId* out) -> Status {
    size_t n = 0;
    store.ForEachNeighbor(vid, etype, tigervector::Direction::kOut, tid,
                          [&](VertexId peer) { *out = peer, ++n; });
    return n == 1 ? Status::OK() : Status::Internal("post without a single edge");
  };
  for (VertexId p : stats_.persons) {
    std::string last_name;
    TV_RETURN_NOT_OK(attr(p, "lastName", &last_name));
    person_by_last_name_[last_name] = p;
    std::vector<VertexId>& friends = friends_[p];
    store.ForEachNeighbor(p, *knows, tigervector::Direction::kAny, tid,
                          [&](VertexId peer) { friends.push_back(peer); });
    std::sort(friends.begin(), friends.end());
    friends.erase(std::unique(friends.begin(), friends.end()), friends.end());
  }
  for (VertexId c : stats_.countries) {
    std::string name;
    TV_RETURN_NOT_OK(attr(c, "name", &name));
    country_by_name_[name] = c;
  }
  posts_.resize(stats_.posts.size());
  for (size_t j = 0; j < stats_.posts.size(); ++j) {
    PostFacts& f = posts_[j];
    const VertexId vid = stats_.posts[j];
    TV_RETURN_NOT_OK(attr(vid, "tag", &f.tag));
    TV_RETURN_NOT_OK(attr(vid, "length", &f.length));
    TV_RETURN_NOT_OK(attr(vid, "language", &f.language));
    TV_RETURN_NOT_OK(only_neighbor(vid, *has_creator, &f.creator));
    TV_RETURN_NOT_OK(only_neighbor(vid, *located, &f.country));
  }
  return Status::OK();
}

Status SnbWorkload::PrepareChecks() {
  vid_row_.clear();
  for (size_t j = 0; j < stats_.posts.size(); ++j) vid_row_[stats_.posts[j]] = j;
  for (size_t j = 0; j < stats_.comments.size(); ++j) {
    vid_row_[stats_.comments[j]] = stats_.posts.size() + j;
  }
  // The oracle reads vectors from the generator; make sure they are the
  // ones the loader stored.
  for (size_t j = 0; j < stats_.posts.size(); j += 97) {
    std::vector<float> stored(kDim);
    TV_RETURN_NOT_OK(db_->embeddings()->GetEmbedding("Post", "content_emb",
                                                     stats_.posts[j], stored.data()));
    if (stored != Row(VectorOf(stats_.posts[j]), kDim)) {
      return Status::Internal("generator and stored vectors differ");
    }
  }
  TV_RETURN_NOT_OK(ReadFacts());

  static const char* kLanguages[] = {"Chinese", "Spanish", "German", "Hindi"};
  const char* kDistTail = " PRINT R; PRINT @@R_dist;";
  Rng rng(seed_ * 31 + 5);
  std::vector<float> post_rows(stats_.posts.size() * kDim);
  for (size_t j = 0; j < stats_.posts.size(); ++j) {
    std::copy_n(vectors_.BaseVector(j), kDim, post_rows.begin() + j * kDim);
  }
  pool_.resize(kPool);
  for (size_t i = 0; i < kPool; ++i) {
    Entry& e = pool_[i];
    int draw = static_cast<int>(rng.NextBounded(100));
    e.shape = 0;
    while (draw >= kMix[e.shape]) draw -= kMix[e.shape++];
    e.query = i;
    const float* qv = vectors_.QueryVector(e.query);
    // Parameters are redrawn until the exact answer is non-empty, so an
    // empty reply can never count as perfect recall.
    for (int attempt = 0;; ++attempt) {
      if (attempt == 100) return Status::Internal("no parameters with a non-empty answer");
      e.params.clear();
      e.truth.clear();
      switch (e.shape) {
        case kTag: {
          const int64_t tag = static_cast<int64_t>(rng.NextBounded(config_.num_tags));
          e.params["tag"] = tag;
          e.script =
              "R = SELECT s FROM (s:Post) WHERE s.tag = $tag AND s.length < 1000"
              " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10;";
          e.cand = Candidates("tag" + std::to_string(tag), [&](size_t j) {
            return posts_[j].tag == tag && posts_[j].length < 1000;
          });
          break;
        }
        case kLanguage: {
          const size_t a = rng.NextBounded(4);
          const size_t b = (a + 1 + rng.NextBounded(3)) % 4;
          const std::string la = kLanguages[a], lb = kLanguages[b];
          e.params["la"] = la;
          e.params["lb"] = lb;
          e.script =
              "R = SELECT s FROM (s:Post) WHERE s.language = $la OR s.language = $lb"
              " ORDER BY VECTOR_DIST(s.content_emb, $qv) LIMIT 10;";
          e.cand = Candidates(std::string("lang") + kLanguages[std::min(a, b)] +
                                  kLanguages[std::max(a, b)],
                              [&](size_t j) {
                                return posts_[j].language == la ||
                                       posts_[j].language == lb;
                              });
          break;
        }
        case kPattern: {
          // Posts written by the friends of one person (a personalised RAG
          // retrieval); lastName "P<i>" is unique per person.
          const std::string who = "P" + std::to_string(rng.NextBounded(kPersons));
          e.params["who"] = who;
          e.script =
              "R = SELECT t FROM (p:Person) -[:knows]- (:Person) <-[:hasCreator]-"
              " (t:Post) WHERE p.lastName = $who"
              " ORDER BY VECTOR_DIST(t.content_emb, $qv) LIMIT 10;";
          const auto person = person_by_last_name_.find(who);
          if (person == person_by_last_name_.end()) {
            return Status::Internal("no person named " + who);
          }
          const std::vector<VertexId>& friends = friends_[person->second];
          e.cand = Candidates("who" + who, [&](size_t j) {
            return std::binary_search(friends.begin(), friends.end(),
                                      posts_[j].creator);
          });
          break;
        }
        case kCompose: {
          const std::string country =
              "Country" + std::to_string(rng.NextBounded(config_.num_countries));
          e.params["country"] = country;
          e.script =
              "Cand = SELECT t FROM (c:Country) <-[:isLocatedIn]- (t:Post)"
              " WHERE c.name = $country;"
              " R = VectorSearch({Post.content_emb}, $qv, 10,"
              " {filter: Cand, distanceMap: @@R_dist});";
          const auto it = country_by_name_.find(country);
          if (it == country_by_name_.end()) {
            return Status::Internal("no country named " + country);
          }
          e.cand = Candidates("country" + country, [&](size_t j) {
            return posts_[j].country == it->second;
          });
          break;
        }
        case kRange: {
          // A threshold between the 150th and 400th exact neighbour
          // distance, so replies carry hundreds of hits.
          const size_t rank = 150 + rng.NextBounded(250);
          const auto near = ExactTopK(qv, post_rows, {}, kDim, rank + 1);
          e.threshold = static_cast<float>(
              0.5 * (near[rank - 1].first + near[rank].first));
          char thr[64];
          std::snprintf(thr, sizeof(thr), "%.9g", e.threshold);
          e.script = std::string("R = SELECT s FROM (s:Post) WHERE "
                                 "VECTOR_DIST(s.content_emb, $qv) < ") +
                     thr + ";";
          for (size_t j = 0; j < stats_.posts.size(); ++j) {
            if (ExactL2(qv, post_rows.data() + j * kDim, kDim) < e.threshold) {
              e.truth.push_back(stats_.posts[j]);
            }
          }
          std::sort(e.truth.begin(), e.truth.end());
          e.expect = e.truth.size();
          break;
        }
      }
      if ((e.shape == kRange ? e.truth.size() : e.cand->set.size()) > 0) break;
    }
    e.script += kDistTail;
    if (e.shape == kRange) continue;
    std::vector<uint8_t> alive(stats_.posts.size(), 0);
    for (size_t j = 0; j < stats_.posts.size(); ++j) {
      alive[j] = e.cand->set.count(stats_.posts[j]) > 0;
    }
    const auto truth = ExactTopK(qv, post_rows, alive, kDim, kTopK);
    e.expect = truth.size();
    e.kth = truth.back().first;
  }
  for (size_t i = 0; i < kPool; ++i) by_shape_[pool_[i].shape].push_back(i);
  for (int shape = 0; shape < kNumShapes; ++shape) {
    if (by_shape_[shape].empty()) return Status::Internal("pool lacks a query shape");
    zipf_[shape] = std::make_unique<Zipf>(by_shape_[shape].size(), kZipfS);
  }
  client_rngs_.clear();
  for (int c = 0; c < kReadClients; ++c) client_rngs_.emplace_back(seed_ * 101 + c);
  writer_rng_ = Rng(seed_ * 7919 + 17);
  return Status::OK();
}

CheckSummary SnbWorkload::Check(const std::vector<ReadRecord>& reads) {
  // Every checked read ran before the first write of the probe.
  CheckSummary out;
  // A repeated pool entry is answered alike every time (often from the
  // cache), so recall is counted once per distinct entry read: the figure
  // then describes the index, not which entries the Zipf head drew.
  std::vector<uint8_t> recall_done(pool_.size(), 0);
  for (const ReadRecord& r : reads) {
    if (!r.ok) continue;
    const Entry& e = pool_[r.ref];
    const float* qv = vectors_.QueryVector(e.query);
    // Fewer hits than asked for costs recall; more is wrong.
    if (e.shape != kRange && r.ids.size() > std::min(kTopK, e.expect)) {
      out.Fail(shape_names()[e.shape] + " reply with " +
               std::to_string(r.ids.size()) + " hits, expected " +
               std::to_string(std::min(kTopK, e.expect)));
      continue;
    }
    bool bad = false;
    std::vector<double> exact(r.ids.size());
    for (size_t i = 0; i < r.ids.size() && !bad; ++i) {
      const float* v = VectorOf(r.ids[i]);
      if (v == nullptr || (e.cand != nullptr && e.cand->set.count(r.ids[i]) == 0)) {
        out.Fail(shape_names()[e.shape] + " returned vertex " +
                 std::to_string(r.ids[i]) + " outside its filter");
        bad = true;
        break;
      }
      exact[i] = ExactL2(qv, v, kDim);
      if (!DistanceMatches(r.dists[i], exact[i])) {
        out.Fail(shape_names()[e.shape] + " distance mismatch");
        bad = true;
      } else if (e.shape == kRange && !(exact[i] < e.threshold + 1e-4 * e.threshold)) {
        out.Fail("range hit beyond the threshold");
        bad = true;
      }
    }
    if (bad) continue;
    if (e.shape != kRange) {
      if (!recall_done[r.ref]) {
        recall_done[r.ref] = 1;
        out.recall.push_back(
            {e.shape, TieTolerantRecall(exact, e.kth, std::min(kTopK, e.expect))});
      }
    } else {
      size_t found = 0;
      for (VertexId v : r.ids) {
        found += std::binary_search(e.truth.begin(), e.truth.end(), v);
      }
      out.range_recall.push_back(static_cast<double>(found) /
                                 static_cast<double>(e.truth.size()));
    }
  }
  return out;
}

}  // namespace

bool ExtractHits(const ScriptResult& result, std::vector<VertexId>* ids,
                 std::vector<float>* dists) {
  const ScriptResult::Printed* set = nullptr;
  const ScriptResult::Printed* map = nullptr;
  for (const auto& p : result.prints) {
    if (p.is_distance_map) {
      map = &p;
    } else {
      set = &p;
    }
  }
  if (set == nullptr || map == nullptr) return false;
  std::vector<std::pair<float, VertexId>> hits;
  for (VertexId v : set->vertices) {
    auto it = map->distances.find(v);
    if (it == map->distances.end()) return false;
    hits.push_back({it->second, v});
  }
  std::sort(hits.begin(), hits.end());
  ids->clear();
  dists->clear();
  ids->reserve(hits.size());
  dists->reserve(hits.size());
  for (const auto& [d, v] : hits) {
    ids->push_back(v);
    dists->push_back(d);
  }
  return true;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "ann_topk") return std::make_unique<ItemWorkload>();
  if (name == "hybrid_rag") return std::make_unique<SnbWorkload>();
  return nullptr;
}

}  // namespace tvbench
