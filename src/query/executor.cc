#include "query/executor.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>

#include "cache/query_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/cancel.h"
#include "simd/distance.h"
#include "simd/sq8.h"
#include "util/timer.h"
#include "util/topk_heap.h"

namespace tigervector {

namespace {

#define TV_RETURN_NOT_OK_STMT(expr)      \
  do {                                   \
    ::tigervector::Status _st = (expr);  \
    if (!_st.ok()) return _st;           \
  } while (false)

const char* OpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

// Collects the aliases referenced by an expression.
void CollectAliases(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kAttrRef) {
    if (std::find(out->begin(), out->end(), expr.alias) == out->end()) {
      out->push_back(expr.alias);
    }
  }
  if (expr.lhs != nullptr) CollectAliases(*expr.lhs, out);
  if (expr.rhs != nullptr) CollectAliases(*expr.rhs, out);
}

bool ContainsVectorDist(const Expr& expr) {
  if (expr.kind == Expr::Kind::kVectorDist) return true;
  if (expr.lhs != nullptr && ContainsVectorDist(*expr.lhs)) return true;
  if (expr.rhs != nullptr && ContainsVectorDist(*expr.rhs)) return true;
  return false;
}

// Splits a WHERE tree into top-level AND conjuncts.
void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kBinary && expr->op == BinaryOp::kAnd) {
    SplitConjuncts(expr->lhs.get(), out);
    SplitConjuncts(expr->rhs.get(), out);
    return;
  }
  out->push_back(expr);
}

Result<double> ParamAsDouble(const QueryParams& params, const std::string& name) {
  auto it = params.find(name);
  if (it == params.end()) {
    return Status::InvalidArgument("missing query parameter $" + name);
  }
  if (std::holds_alternative<int64_t>(it->second)) {
    return static_cast<double>(std::get<int64_t>(it->second));
  }
  if (std::holds_alternative<double>(it->second)) {
    return std::get<double>(it->second);
  }
  return Status::InvalidArgument("parameter $" + name + " is not numeric");
}

Result<const std::vector<float>*> ParamAsVector(const QueryParams& params,
                                                const std::string& name) {
  auto it = params.find(name);
  if (it == params.end()) {
    return Status::InvalidArgument("missing query parameter $" + name);
  }
  if (!std::holds_alternative<std::vector<float>>(it->second)) {
    return Status::InvalidArgument("parameter $" + name + " is not a vector");
  }
  return &std::get<std::vector<float>>(it->second);
}

// Current value of a per-query trace counter; EXPLAIN ANALYZE brackets
// searches with this to attribute exact distance-eval/hop deltas to one
// plan node.
uint64_t TraceCounter(const char* name) {
  obs::QueryTrace* trace = obs::CurrentTrace();
  if (trace == nullptr) return 0;
  const auto counters = trace->Counters();
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::string FmtMillis(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f ms", seconds * 1e3);
  return buf;
}

std::string FmtSelectivity(size_t kept, size_t universe) {
  if (universe == 0) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f",
                static_cast<double>(kept) / static_cast<double>(universe));
  return buf;
}

// Collects the $parameter names referenced by an expression, in a stable
// (traversal) order.
void CollectParamNames(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kParam) {
    if (std::find(out->begin(), out->end(), expr.param) == out->end()) {
      out->push_back(expr.param);
    }
  }
  if (expr.lhs != nullptr) CollectParamNames(*expr.lhs, out);
  if (expr.rhs != nullptr) CollectParamNames(*expr.rhs, out);
}

// Folds one bound parameter value into a fingerprint, tagged by type so
// e.g. int64 3 and double 3.0 cannot alias.
cache::Fingerprint FingerprintParamValue(cache::Fingerprint fp,
                                         const QueryParam& value) {
  if (std::holds_alternative<int64_t>(value)) {
    fp = cache::CombineFingerprint(fp, 1);
    return cache::CombineFingerprint(fp,
                                     static_cast<uint64_t>(std::get<int64_t>(value)));
  }
  if (std::holds_alternative<double>(value)) {
    const double d = std::get<double>(value);
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    fp = cache::CombineFingerprint(fp, 2);
    return cache::CombineFingerprint(fp, bits);
  }
  if (std::holds_alternative<std::string>(value)) {
    fp = cache::CombineFingerprint(fp, 3);
    return cache::CombineFingerprints(
        fp, cache::FingerprintString(std::get<std::string>(value)));
  }
  const auto& vec = std::get<std::vector<float>>(value);
  fp = cache::CombineFingerprint(fp, 4);
  return cache::CombineFingerprints(
      fp, cache::FingerprintBytes(vec.data(), vec.size() * sizeof(float)));
}

// Renders a ScanCacheProbe as the `cache:` actual value.
std::string ScanCacheLabel(size_t hits, size_t misses, size_t bypasses) {
  const bool h = hits > 0, m = misses > 0, b = bypasses > 0;
  if (h && !m && !b) return "hit";
  if (m && !h && !b) return "miss";
  if (!h && !m) return "bypass";
  return "partial(hit=" + std::to_string(hits) + ",miss=" + std::to_string(misses) +
         ",bypass=" + std::to_string(bypasses) + ")";
}

// The `fan-out:` EXPLAIN detail of an EmbeddingAction over `segments`
// embedding segments.
std::string FanOutDetail(Database* db, size_t segments) {
  const size_t servers = db->cluster() != nullptr ? db->cluster()->num_servers() : 1;
  return "fan-out: " + std::to_string(segments) + " segment(s) across " +
         std::to_string(servers) + " server(s)" +
         (servers > 1 ? " [MPP scatter/gather]" : "");
}

// EXPLAIN details of one EmbeddingAction, after the form-specific `details`
// it is given: the filter strategy, the brute-force-vs-HNSW tier rule
// (decided per segment at run time, so EXPLAIN states the rule rather than
// a winner), the distance kernels and the quantization mode.
// `filter_source` names what the candidate bitmap is built from; empty
// means a pure search.
std::vector<std::string> EmbeddingDetails(Database* db, std::vector<std::string> details,
                                          const std::string& filter_source,
                                          const std::string& accuracy, bool quant_on) {
  if (filter_source.empty()) {
    details.push_back("strategy: pure vector search (no filter bitmap)");
    details.push_back("tier: HNSW(" + accuracy + ") on every segment");
  } else {
    details.push_back("strategy: pre-filter (" + filter_source + " -> candidate bitmap)");
    details.push_back("tier: per segment, brute-force if |bitmap * segment| < " +
                      std::to_string(db->embeddings()->options().bruteforce_threshold) +
                      ", else HNSW(" + accuracy + ")");
  }
  details.push_back(std::string("simd: ") + simd::ActiveIsaName() + " distance kernels");
  details.push_back(quant_on ? "quant: sq8 (rank on int8 codes, rerank " +
                                   std::to_string(simd::DefaultRerankFactor()) +
                                   "*k exact fp32)"
                             : std::string("quant: off (exact fp32 scan)"));
  return details;
}

// What EXPLAIN ANALYZE reports of one EmbeddingAction beyond its result
// statistics. Construct it right before the search: it snapshots the
// per-query trace counters so the distance-eval/hop deltas are exact.
struct SearchRun {
  cache::Outcome cache = cache::Outcome::kBypass;
  Cluster::DistributedStats mpp;
  uint64_t distance_evals0 = TraceCounter("hnsw.distance_evals");
  uint64_t hops0 = TraceCounter("hnsw.hops");
};

// EXPLAIN ANALYZE actuals of one EmbeddingAction (no-op for a null node),
// after the form-specific rows the caller added. `quant` overrides the
// quantization label derived from `stats`.
void AddSearchActuals(PlanNode* node, const VectorSearchResult& stats, size_t rows_out,
                      const SearchRun& run, bool clustered,
                      const char* quant = nullptr) {
  if (node == nullptr) return;
  auto add = [&](std::string key, std::string value) {
    node->actuals.emplace_back(std::move(key), std::move(value));
  };
  add("rows_out", std::to_string(rows_out));
  add("segments_searched", std::to_string(stats.segments_searched));
  add("bruteforce_segments", std::to_string(stats.bruteforce_segments));
  add("delta_candidates", std::to_string(stats.delta_candidates));
  if (quant != nullptr) {
    add("quant", quant);
  } else {
    add("quant", stats.quant_segments > 0
                     ? "sq8, reranked " + std::to_string(stats.reranked)
                     : "off");
  }
  add("hnsw_distance_evals",
      std::to_string(TraceCounter("hnsw.distance_evals") - run.distance_evals0));
  add("hnsw_hops", std::to_string(TraceCounter("hnsw.hops") - run.hops0));
  add("cache", cache::OutcomeName(run.cache));
  if (clustered) {
    for (size_t s = 0; s < run.mpp.server_seconds.size(); ++s) {
      add("server_" + std::to_string(s), FmtMillis(run.mpp.server_seconds[s]));
    }
    add("mpp_merge", FmtMillis(run.mpp.merge_seconds));
  }
}

// Size of a candidate bitmap over global vids. Segments only grow, so every
// vertex visible at a statement's horizon lies below this extent (which
// also covers the last segment past vid_upper_bound()).
size_t VidExtent(const GraphStore& store) {
  return store.NumSegments() * store.segment_capacity();
}

}  // namespace

std::string PlanDescription::Render() const {
  std::ostringstream out;
  for (const PlanNode& node : nodes) {
    out << node.label << "\n";
    for (const std::string& detail : node.details) {
      out << "    - " << detail << "\n";
    }
    if (analyzed) {
      for (const auto& [key, value] : node.actuals) {
        out << "    * " << key << ": " << value << "\n";
      }
    }
  }
  return out.str();
}

std::string ExprToString(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return ValueToString(expr.literal);
    case Expr::Kind::kAttrRef:
      return expr.alias + "." + expr.attr;
    case Expr::Kind::kParam:
      return "$" + expr.param;
    case Expr::Kind::kNot:
      return "NOT (" + ExprToString(*expr.lhs) + ")";
    case Expr::Kind::kVectorDist:
      return "VECTOR_DIST(" + ExprToString(*expr.lhs) + ", " +
             ExprToString(*expr.rhs) + ")";
    case Expr::Kind::kBinary:
      return ExprToString(*expr.lhs) + " " + OpName(expr.op) + " " +
             ExprToString(*expr.rhs);
  }
  return "?";
}

Result<std::vector<QueryExecutor::ResolvedNode>> QueryExecutor::ResolveNodes(
    const SelectStmt& stmt, const VarMap& vars) const {
  std::vector<ResolvedNode> nodes;
  int anon = 0;
  for (const NodePattern& np : stmt.pattern.nodes) {
    ResolvedNode node;
    node.alias = np.alias.empty() ? "_" + std::to_string(anon++) : np.alias;
    if (!np.source.empty()) {
      auto var_it = vars.find(np.source);
      if (var_it != vars.end()) {
        node.var = &var_it->second;
      } else {
        auto vt = db_->schema()->GetVertexType(np.source);
        if (!vt.ok()) {
          return Status::SemanticError("'" + np.source +
                                       "' is neither a vertex type nor a vertex set "
                                       "variable");
        }
        node.type_id = (*vt)->id;
      }
    }
    nodes.push_back(std::move(node));
  }
  // Duplicate aliases are not supported (no cyclic patterns).
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].alias == nodes[j].alias) {
        return Status::SemanticError("duplicate alias '" + nodes[i].alias + "'");
      }
    }
  }
  return nodes;
}

Result<Value> QueryExecutor::EvalValue(const Expr& expr, VertexId vid, Tid read_tid,
                                       const QueryParams& params) const {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal;
    case Expr::Kind::kAttrRef:
      return db_->store()->GetAttr(vid, expr.attr, read_tid);
    case Expr::Kind::kParam: {
      auto it = params.find(expr.param);
      if (it == params.end()) {
        return Status::InvalidArgument("missing query parameter $" + expr.param);
      }
      if (std::holds_alternative<int64_t>(it->second)) {
        return Value{std::get<int64_t>(it->second)};
      }
      if (std::holds_alternative<double>(it->second)) {
        return Value{std::get<double>(it->second)};
      }
      if (std::holds_alternative<std::string>(it->second)) {
        return Value{std::get<std::string>(it->second)};
      }
      return Status::InvalidArgument("vector parameter $" + expr.param +
                                     " used in scalar context");
    }
    default:
      return Status::SemanticError("expression is not a scalar: " +
                                   ExprToString(expr));
  }
}

Result<bool> QueryExecutor::EvalPredicate(const Expr& expr, VertexId vid, Tid read_tid,
                                          const QueryParams& params) const {
  switch (expr.kind) {
    case Expr::Kind::kNot: {
      auto inner = EvalPredicate(*expr.lhs, vid, read_tid, params);
      if (!inner.ok()) return inner;
      return !*inner;
    }
    case Expr::Kind::kBinary: {
      if (expr.op == BinaryOp::kAnd || expr.op == BinaryOp::kOr) {
        auto lhs = EvalPredicate(*expr.lhs, vid, read_tid, params);
        if (!lhs.ok()) return lhs;
        if (expr.op == BinaryOp::kAnd && !*lhs) return false;
        if (expr.op == BinaryOp::kOr && *lhs) return true;
        return EvalPredicate(*expr.rhs, vid, read_tid, params);
      }
      auto lhs = EvalValue(*expr.lhs, vid, read_tid, params);
      if (!lhs.ok()) return lhs.status();
      auto rhs = EvalValue(*expr.rhs, vid, read_tid, params);
      if (!rhs.ok()) return rhs.status();
      switch (expr.op) {
        case BinaryOp::kEq: return ValueEquals(*lhs, *rhs);
        case BinaryOp::kNe: return !ValueEquals(*lhs, *rhs);
        case BinaryOp::kLt: return ValueLess(*lhs, *rhs);
        case BinaryOp::kGt: return ValueLess(*rhs, *lhs);
        case BinaryOp::kLe: return !ValueLess(*rhs, *lhs);
        case BinaryOp::kGe: return !ValueLess(*lhs, *rhs);
        default: break;
      }
      return Status::SemanticError("unsupported operator");
    }
    case Expr::Kind::kLiteral:
      if (std::holds_alternative<bool>(expr.literal)) {
        return std::get<bool>(expr.literal);
      }
      return Status::SemanticError("non-boolean literal as predicate");
    case Expr::Kind::kAttrRef: {
      auto v = EvalValue(expr, vid, read_tid, params);
      if (!v.ok()) return v.status();
      if (std::holds_alternative<bool>(*v)) return std::get<bool>(*v);
      return Status::SemanticError("attribute " + expr.attr + " is not boolean");
    }
    default:
      return Status::SemanticError("unsupported predicate: " + ExprToString(expr));
  }
}

Status QueryExecutor::CheckReadable(const ResolvedNode& node) const {
  if (node.var != nullptr) return Status::OK();
  if (node.type_id < 0) {
    return Status::SemanticError("node '" + node.alias +
                                 "' needs a vertex type or a vertex set variable");
  }
  if (!db_->access()->CanRead(role_, static_cast<VertexTypeId>(node.type_id))) {
    return Status::InvalidArgument(
        "permission denied: role '" + role_ + "' cannot read vertex type " +
        db_->schema()->vertex_type(node.type_id).name);
  }
  return Status::OK();
}

Result<Bitmap> QueryExecutor::BaseSet(const ResolvedNode& node, Tid read_tid,
                                      const QueryParams& params,
                                      ScanCacheProbe* probe) const {
  TV_RETURN_NOT_OK_STMT(CheckReadable(node));
  Bitmap base(VidExtent(*db_->store()));
  // Predicate scans poll the request's cancel token every check interval,
  // so a deadline expiring mid-scan aborts the statement promptly instead
  // of finishing a large segment sweep.
  uint32_t scanned = 0;
  auto passes = [&](VertexId vid) -> Result<bool> {
    if ((++scanned & (kCancelCheckInterval - 1)) == 0) {
      Status cancelled = CancelCheckStatus();
      if (!cancelled.ok()) return cancelled;
    }
    for (const Expr* pred : node.predicates) {
      TV_COUNTER_INC("tv.query.predicate_evals_total");
      auto ok = EvalPredicate(*pred, vid, read_tid, params);
      if (!ok.ok()) return ok;
      if (!*ok) return false;
    }
    return true;
  };
  if (node.var != nullptr) {
    // Variable-bound sets are query-local; their contents are not keyed by
    // any store version, so they never touch the bitmap cache.
    if (probe != nullptr) probe->bypasses += 1;
    for (VertexId vid : *node.var) {
      if (!db_->store()->IsVisible(vid, read_tid)) continue;
      auto vt = db_->store()->GetVertexType(vid);
      if (!vt.ok()) continue;
      if (node.type_id >= 0 && *vt != node.type_id) continue;
      // Vertices of unauthorized types are invalid for this role.
      if (!db_->access()->CanRead(role_, *vt)) continue;
      auto ok = passes(vid);
      if (!ok.ok()) return ok.status();
      if (*ok) base.Set(vid);
    }
    return base;
  }
  cache::QueryCache* cache = db_->cache();
  const bool cacheable = cache != nullptr && cache->enabled() && !cache_bypass_;
  // Predicate fingerprint: type + normalized predicate text + the values of
  // every referenced $parameter (same text with different bindings must not
  // alias).
  cache::Fingerprint pred_fp;
  if (cacheable) {
    pred_fp = cache::CombineFingerprint(
        pred_fp, static_cast<uint64_t>(node.type_id));
    std::vector<std::string> param_names;
    for (const Expr* pred : node.predicates) {
      pred_fp = cache::CombineFingerprints(
          pred_fp, cache::FingerprintString(ExprToString(*pred)));
      CollectParamNames(*pred, &param_names);
    }
    for (const std::string& name : param_names) {
      pred_fp = cache::CombineFingerprints(pred_fp, cache::FingerprintString(name));
      auto it = params.find(name);
      // A missing binding fails evaluation identically regardless of cache
      // state, so it need not be fingerprinted.
      if (it != params.end()) {
        pred_fp = FingerprintParamValue(pred_fp, it->second);
      }
    }
  }
  // Segments added after `base` was sized hold nothing visible at read_tid.
  const size_t num_segments = base.size() / db_->store()->segment_capacity();
  for (size_t i = 0; i < num_segments; ++i) {
    const GraphSegment* seg = db_->store()->SegmentAt(i);
    // Capture the version BEFORE the horizon gate. BumpVersion publishes
    // last_applied_tid before version, so a racing commit either trips the
    // gate below (horizon already raised) or fails the admit re-check
    // after the scan (version raised) — it can never pair the old horizon
    // with the new version and key a stale bitmap under it.
    const uint64_t version = seg->version();
    // Version-keyed entries describe the segment at its latest applied
    // horizon; a reader pinned below that horizon sees different rows and
    // must scan directly. A miss scan also fills a fresh segment bitmap.
    std::shared_ptr<Bitmap> fresh;
    cache::CacheKey key;
    if (!cacheable || seg->last_applied_tid() > read_tid) {
      if (probe != nullptr) probe->bypasses += 1;
    } else {
      key = cache::BitmapKey(pred_fp, seg->id(), version);
      if (cache::QueryCache::BitmapPtr bits = cache->LookupBitmap(key)) {
        if (probe != nullptr) probe->hits += 1;
        base.OrAt(*bits, seg->base_vid());
        continue;
      }
      if (probe != nullptr) probe->misses += 1;
      fresh = std::make_shared<Bitmap>(seg->capacity());
    }
    Status status = Status::OK();
    const VertexId base_vid = seg->base_vid();
    seg->ForEachVertex(node.type_id, read_tid, [&](VertexId vid) {
      if (!status.ok()) return;
      auto ok = passes(vid);
      if (!ok.ok()) {
        status = ok.status();
        return;
      }
      if (*ok) {
        base.Set(vid);
        if (fresh != nullptr) fresh->Set(static_cast<size_t>(vid - base_vid));
      }
    });
    TV_RETURN_NOT_OK_STMT(status);
    // Admit only if no commit or vacuum raced with the scan; a racing
    // writer would leave the bitmap describing neither version. The
    // horizon re-check is belt-and-braces for the window where a racing
    // mutation has raised last_applied_tid but its version bump is not
    // yet visible to this thread.
    if (fresh != nullptr && seg->version() == version &&
        seg->last_applied_tid() <= read_tid) {
      cache->InsertBitmap(key, std::move(fresh));
    }
  }
  return base;
}

Result<SelectResult> QueryExecutor::ExecuteSelect(const SelectStmt& stmt,
                                                  const QueryParams& params,
                                                  const VarMap& vars,
                                                  PlanDescription* explain,
                                                  bool execute) {
  TV_SPAN("query.execute");
  TV_COUNTER_INC("tv.query.selects_total");
  // Records the select latency on every exit path.
  struct SelectTimer {
    Timer timer;
    ~SelectTimer() {
      TV_HISTOGRAM_OBSERVE("tv.query.select_seconds", timer.ElapsedSeconds());
    }
  } select_timer;
  Timer plan_timer;
  const Tid read_tid = db_->store()->visible_tid();
  auto nodes_result = ResolveNodes(stmt, vars);
  if (!nodes_result.ok()) return nodes_result.status();
  std::vector<ResolvedNode> nodes = std::move(nodes_result).value();

  auto alias_index = [&](const std::string& alias) -> int {
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].alias == alias) return static_cast<int>(i);
    }
    return -1;
  };

  // ---- Classify WHERE conjuncts ----
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(stmt.where.get(), &conjuncts);
  struct RangeSpec {
    int node = -1;
    std::string attr;
    const Expr* query_operand = nullptr;
    const Expr* threshold_operand = nullptr;
  };
  std::vector<RangeSpec> ranges;
  for (const Expr* conjunct : conjuncts) {
    if (ContainsVectorDist(*conjunct)) {
      // Range search predicate: VECTOR_DIST(alias.attr, $q) < threshold.
      if (conjunct->kind != Expr::Kind::kBinary ||
          (conjunct->op != BinaryOp::kLt && conjunct->op != BinaryOp::kLe) ||
          conjunct->lhs->kind != Expr::Kind::kVectorDist) {
        return Status::SemanticError(
            "VECTOR_DIST in WHERE must have the form VECTOR_DIST(v.attr, $q) < t");
      }
      const Expr& dist = *conjunct->lhs;
      if (dist.lhs->kind != Expr::Kind::kAttrRef) {
        return Status::SemanticError("VECTOR_DIST first argument must be v.attr");
      }
      RangeSpec spec;
      spec.node = alias_index(dist.lhs->alias);
      if (spec.node < 0) {
        return Status::SemanticError("unknown alias '" + dist.lhs->alias + "'");
      }
      spec.attr = dist.lhs->attr;
      spec.query_operand = dist.rhs.get();
      spec.threshold_operand = conjunct->rhs.get();
      ranges.push_back(spec);
      continue;
    }
    std::vector<std::string> aliases;
    CollectAliases(*conjunct, &aliases);
    if (aliases.size() > 1) {
      return Status::SemanticError("predicates across aliases are not supported: " +
                                   ExprToString(*conjunct));
    }
    if (aliases.empty()) {
      return Status::SemanticError("predicate references no alias: " +
                                   ExprToString(*conjunct));
    }
    const int idx = alias_index(aliases[0]);
    if (idx < 0) {
      return Status::SemanticError("unknown alias '" + aliases[0] + "'");
    }
    nodes[idx].predicates.push_back(conjunct);
  }
  const bool join = stmt.order_dist != nullptr &&
                    stmt.order_dist->lhs->kind == Expr::Kind::kAttrRef &&
                    stmt.order_dist->rhs->kind == Expr::Kind::kAttrRef;
  // A block over one node with no predicates and no variable selects every
  // visible vertex of the node's type, so its first vector search passes a
  // null filter; each later one is filtered by the range hits before it.
  const bool pure = nodes.size() == 1 && nodes[0].predicates.empty() &&
                    nodes[0].var == nullptr;
  const bool pure_topk = pure && ranges.empty();
  // The pure node's bitmap is built only for an operator that reads it:
  // EXPLAIN ANALYZE's `rows`, or a join or the plain output when no range
  // replaces it. A pure top-k or range search scans nothing.
  const bool scan_pure =
      explain != nullptr || (ranges.empty() && (join || stmt.order_dist == nullptr));

  // ---- Resolve edge types ----
  std::vector<const EdgeTypeDef*> edge_defs;
  for (const EdgePattern& ep : stmt.pattern.edges) {
    auto et = db_->schema()->GetEdgeType(ep.edge_type);
    if (!et.ok()) return et.status();
    edge_defs.push_back(*et);
  }
  // ---- Plan text + EXPLAIN description (built statically, bottom-up) ----
  SelectResult result;
  int topk_plan_idx = -1;
  std::vector<int> range_plan_idx(ranges.size(), -1);
  std::vector<int> node_plan_idx(nodes.size(), -1);
  std::vector<int> edge_plan_idx(stmt.pattern.edges.size(), -1);
  {
    struct PlanLine {
      std::string text;
      int node_idx = -1;
      int edge_idx = -1;
    };
    std::vector<PlanLine> lines;
    for (size_t i = 0; i < nodes.size(); ++i) {
      std::string preds;
      for (const Expr* p : nodes[i].predicates) {
        if (!preds.empty()) preds += " AND ";
        preds += ExprToString(*p);
      }
      std::string type_name = nodes[i].type_id >= 0
                                  ? db_->schema()->vertex_type(nodes[i].type_id).name
                                  : (nodes[i].var != nullptr ? "<var>" : "<any>");
      PlanLine vline;
      vline.text = "VertexAction[" + type_name + ":" + nodes[i].alias +
                   (preds.empty() ? "" : " {" + preds + "}") + "]";
      vline.node_idx = static_cast<int>(i);
      lines.push_back(std::move(vline));
      if (i < stmt.pattern.edges.size()) {
        PlanLine eline;
        eline.text = "EdgeAction[" + nodes[i].alias + " -" +
                     stmt.pattern.edges[i].edge_type + "- " + nodes[i + 1].alias + "]";
        eline.edge_idx = static_cast<int>(i);
        lines.push_back(std::move(eline));
      }
    }
    std::reverse(lines.begin(), lines.end());

    // Static decision lines of one SELECT EmbeddingAction over `attr` of
    // pattern node `node_idx`.
    auto embedding_details = [&](int node_idx, const std::string& attr,
                                 const std::string& accuracy, bool filtered) {
      std::vector<std::string> details;
      // Effective quantization: schema pin wins, else process TV_QUANT mode.
      bool quant_on = simd::ActiveQuantMode() == simd::QuantMode::kSq8;
      if (node_idx >= 0 && nodes[node_idx].type_id >= 0) {
        const VertexTypeDef& vt = db_->schema()->vertex_type(nodes[node_idx].type_id);
        const EmbeddingAttrDef* def = vt.FindEmbeddingAttr(attr);
        if (def != nullptr) {
          quant_on = QuantEnabled(def->info);
          details.push_back("embedding: " + vt.name + "." + attr +
                            " dim=" + std::to_string(def->info.dimension) +
                            " metric=" + MetricName(def->info.metric));
          details.push_back(
              FanOutDetail(db_, db_->embeddings()->SegmentsOf(vt.name, attr).size()));
        }
      }
      return EmbeddingDetails(db_, std::move(details),
                              filtered ? "pattern + predicates" : "", accuracy, quant_on);
    };

    std::string plan;
    std::string topk_label;
    if (stmt.order_dist != nullptr) {
      const std::string k_str =
          stmt.has_limit ? (stmt.limit_param.empty() ? std::to_string(stmt.limit)
                                                     : "$" + stmt.limit_param)
                         : "all";
      topk_label = "EmbeddingAction[Top " + k_str + ", {" +
                   ExprToString(*stmt.order_dist->lhs) + "}, " +
                   ExprToString(*stmt.order_dist->rhs) + "]";
      plan = topk_label + "\n";
    }
    std::vector<std::string> range_labels;
    for (const RangeSpec& spec : ranges) {
      range_labels.push_back("EmbeddingAction[Range, {" + nodes[spec.node].alias +
                             "." + spec.attr + "}, " +
                             ExprToString(*spec.query_operand) + " < " +
                             ExprToString(*spec.threshold_operand) + "]");
      plan += range_labels.back() + "\n";
    }
    for (const PlanLine& line : lines) plan += line.text + "\n";
    result.plan = std::move(plan);

    if (explain != nullptr) {
      explain->nodes.clear();
      explain->analyzed = execute;
      if (stmt.order_dist != nullptr) {
        PlanNode node;
        node.label = topk_label;
        const Expr& dist = *stmt.order_dist;
        if (join) {
          node.details.push_back(
              "similarity join: brute-force distances over matched endpoint "
              "pairs, global top-k heap");
        } else if (dist.lhs->kind == Expr::Kind::kAttrRef) {
          node.details = embedding_details(alias_index(dist.lhs->alias), dist.lhs->attr,
                                           "ef=64", !pure_topk);
        }
        topk_plan_idx = static_cast<int>(explain->nodes.size());
        explain->Add(std::move(node));
      }
      for (size_t ri = 0; ri < ranges.size(); ++ri) {
        const RangeSpec& spec = ranges[ri];
        PlanNode node;
        node.label = range_labels[ri];
        node.details = embedding_details(spec.node, spec.attr, "doubling ef, k=16",
                                         !(pure && ri == 0));
        range_plan_idx[ri] = static_cast<int>(explain->nodes.size());
        explain->Add(std::move(node));
      }
      for (const PlanLine& line : lines) {
        PlanNode node;
        node.label = line.text;
        if (line.node_idx >= 0) {
          const ResolvedNode& rn = nodes[line.node_idx];
          node.details.push_back(rn.var != nullptr
                                     ? "source: vertex-set variable"
                                     : (rn.type_id >= 0 ? "source: type scan"
                                                        : "source: unbound"));
          if (!rn.predicates.empty()) {
            node.details.push_back("predicates: " +
                                   std::to_string(rn.predicates.size()));
          }
          node_plan_idx[line.node_idx] = static_cast<int>(explain->nodes.size());
        } else if (line.edge_idx >= 0) {
          node.details.push_back("semi-join: forward then backward pass");
          edge_plan_idx[line.edge_idx] = static_cast<int>(explain->nodes.size());
        }
        explain->Add(std::move(node));
      }
    }
  }
  obs::RecordSpanMicros("query.plan", plan_timer.ElapsedMicros());
  // EXPLAIN without ANALYZE: the plan above is the whole answer.
  if (!execute) return result;

  // The plan node EXPLAIN ANALYZE attaches actuals to; null otherwise.
  auto plan_node = [&](int plan_idx) -> PlanNode* {
    return explain != nullptr && plan_idx >= 0 ? &explain->nodes[plan_idx] : nullptr;
  };
  auto add_actual = [&](int plan_idx, const std::string& key, std::string value) {
    if (PlanNode* node = plan_node(plan_idx)) {
      node->actuals.emplace_back(key, std::move(value));
    }
  };
  const bool clustered = db_->cluster() != nullptr;
  // Runs one EmbeddingAction of this block through the database's search
  // path, at the statement's MVCC horizon.
  auto search = [&](const std::string& type_name, const std::string& attr,
                    const std::vector<float>& query, size_t k, std::optional<float> range,
                    const Bitmap* filter, SearchRun* run) {
    Database::VectorSearchFnOptions options;
    options.role = role_;
    options.read_tid = read_tid;
    options.bypass_cache = cache_bypass_;
    options.mpp_stats = &run->mpp;
    options.cache_outcome = &run->cache;
    return db_->Search({{type_name, attr}}, query, k, range, filter, options);
  };

  // ---- Candidate bitmaps: forward then backward semi-join ----
  Timer cand_timer;
  std::vector<Bitmap> cand(nodes.size());
  std::vector<ScanCacheProbe> probes(nodes.size());
  if (pure && !scan_pure) {
    TV_RETURN_NOT_OK_STMT(CheckReadable(nodes[0]));
  } else {
    auto base0 = BaseSet(nodes[0], read_tid, params, &probes[0]);
    if (!base0.ok()) return base0.status();
    cand[0] = std::move(base0).value();
  }
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    auto allowed = BaseSet(nodes[i + 1], read_tid, params, &probes[i + 1]);
    if (!allowed.ok()) return allowed.status();
    Bitmap next(allowed->size());
    const Direction dir = stmt.pattern.edges[i].dir;
    const Bitmap& from = cand[i];
    for (VertexId vid = from.NextSet(0); vid < from.size(); vid = from.NextSet(vid + 1)) {
      db_->store()->ForEachNeighbor(vid, edge_defs[i]->id, dir, read_tid,
                                    [&](VertexId peer) {
                                      if (allowed->Test(peer)) next.Set(peer);
                                    });
    }
    cand[i + 1] = std::move(next);
  }
  for (size_t ri = nodes.size(); ri-- > 1;) {
    // Keep cand[ri-1] entries with at least one neighbor in cand[ri].
    const Direction dir = stmt.pattern.edges[ri - 1].dir;
    const Bitmap& from = cand[ri - 1];
    Bitmap kept(from.size());
    for (VertexId vid = from.NextSet(0); vid < from.size(); vid = from.NextSet(vid + 1)) {
      bool has = false;
      db_->store()->ForEachNeighbor(vid, edge_defs[ri - 1]->id, dir, read_tid,
                                    [&](VertexId peer) {
                                      if (!has && cand[ri].Test(peer)) has = true;
                                    });
      if (has) kept.Set(vid);
    }
    cand[ri - 1] = std::move(kept);
  }
  obs::RecordSpanMicros("query.candidates", cand_timer.ElapsedMicros());
  if (explain != nullptr) {
    for (size_t i = 0; i < nodes.size(); ++i) {
      add_actual(node_plan_idx[i], "rows", std::to_string(cand[i].Count()));
      add_actual(node_plan_idx[i], "cache",
                 ScanCacheLabel(probes[i].hits, probes[i].misses,
                                probes[i].bypasses));
    }
    for (size_t e = 0; e < stmt.pattern.edges.size(); ++e) {
      add_actual(edge_plan_idx[e], "rows_out", std::to_string(cand[e + 1].Count()));
    }
  }

  // ---- Range search conjuncts ----
  for (size_t range_i = 0; range_i < ranges.size(); ++range_i) {
    const RangeSpec& spec = ranges[range_i];
    if (spec.query_operand->kind != Expr::Kind::kParam) {
      return Status::SemanticError("VECTOR_DIST query operand must be a $parameter");
    }
    auto query = ParamAsVector(params, spec.query_operand->param);
    if (!query.ok()) return query.status();
    double threshold;
    if (spec.threshold_operand->kind == Expr::Kind::kLiteral) {
      const Value& v = spec.threshold_operand->literal;
      if (std::holds_alternative<double>(v)) {
        threshold = std::get<double>(v);
      } else if (std::holds_alternative<int64_t>(v)) {
        threshold = static_cast<double>(std::get<int64_t>(v));
      } else {
        return Status::SemanticError("range threshold must be numeric");
      }
    } else if (spec.threshold_operand->kind == Expr::Kind::kParam) {
      auto t = ParamAsDouble(params, spec.threshold_operand->param);
      if (!t.ok()) return t.status();
      threshold = *t;
    } else {
      return Status::SemanticError("range threshold must be a literal or $parameter");
    }
    const ResolvedNode& node = nodes[spec.node];
    if (node.type_id < 0) {
      return Status::SemanticError("range search alias must have a vertex type");
    }
    const VertexTypeDef& range_type = db_->schema()->vertex_type(node.type_id);
    if (range_type.FindEmbeddingAttr(spec.attr) == nullptr) {
      return Status::SemanticError("'" + spec.attr +
                                   "' is not an embedding attribute of " +
                                   range_type.name);
    }
    // Pre-filter: the pure node's first range scan runs unfiltered.
    const bool unfiltered = pure && range_i == 0;
    Bitmap& node_cand = cand[spec.node];
    const size_t cand_in = unfiltered ? 0 : node_cand.Count();
    SearchRun run;
    auto hits = search(range_type.name, spec.attr, **query, /*k=*/16,
                       static_cast<float>(threshold), unfiltered ? nullptr : &node_cand,
                       &run);
    if (!hits.ok()) return hits.status();
    // A filtered search returns only ids its filter accepts, so the hits
    // are the node's new set either way.
    Bitmap in_range(VidExtent(*db_->store()));
    for (const SearchHit& h : hits->hits) {
      in_range.Set(h.label);
      result.distances[h.label] = h.distance;
    }
    node_cand = std::move(in_range);
    const int plan_idx = range_plan_idx[range_i];
    add_actual(plan_idx, "candidates_in",
               unfiltered ? "all (pure range)" : std::to_string(cand_in));
    add_actual(plan_idx, "hits_in_range", std::to_string(hits->hits.size()));
    // Range search pins quantization off: its oracle tiers depend on exact
    // distances against the threshold.
    AddSearchActuals(plan_node(plan_idx), *hits, node_cand.Count(), run, clustered,
                     "off (range is exact)");
  }

  // ---- ORDER BY VECTOR_DIST ----
  if (stmt.order_dist != nullptr) {
    TV_SPAN("query.topk");
    size_t k = 10;
    if (stmt.has_limit) {
      if (!stmt.limit_param.empty()) {
        auto kd = ParamAsDouble(params, stmt.limit_param);
        if (!kd.ok()) return kd.status();
        if (*kd <= 0) {
          return Status::InvalidArgument("top-k LIMIT $" + stmt.limit_param +
                                         " must be positive");
        }
        k = static_cast<size_t>(*kd);
      } else {
        if (stmt.limit <= 0) {
          return Status::InvalidArgument("top-k LIMIT must be positive");
        }
        k = static_cast<size_t>(stmt.limit);
      }
    }
    const Expr& dist = *stmt.order_dist;
    if (join) {
      // ---- Vector similarity join on the pattern (Sec. 5.4) ----
      const int s_idx = alias_index(dist.lhs->alias);
      const int t_idx = alias_index(dist.rhs->alias);
      if (s_idx < 0 || t_idx < 0) {
        return Status::SemanticError("join aliases must appear in the pattern");
      }
      if (!(s_idx == 0 && t_idx == static_cast<int>(nodes.size()) - 1)) {
        return Status::SemanticError(
            "similarity join aliases must be the pattern endpoints");
      }
      if (stmt.select_aliases.size() != 2) {
        return Status::SemanticError("similarity join requires SELECT s, t");
      }
      if (nodes[s_idx].type_id < 0 || nodes[t_idx].type_id < 0) {
        return Status::SemanticError("join endpoints must have vertex types");
      }
      const std::string s_type = db_->schema()->vertex_type(nodes[s_idx].type_id).name;
      const std::string t_type = db_->schema()->vertex_type(nodes[t_idx].type_id).name;
      // Compatibility check across the two embedding attributes.
      const auto* s_def = db_->schema()
                              ->vertex_type(nodes[s_idx].type_id)
                              .FindEmbeddingAttr(dist.lhs->attr);
      const auto* t_def = db_->schema()
                              ->vertex_type(nodes[t_idx].type_id)
                              .FindEmbeddingAttr(dist.rhs->attr);
      if (s_def == nullptr || t_def == nullptr) {
        return Status::SemanticError("join attributes must be embedding attributes");
      }
      TV_RETURN_NOT_OK_STMT(CheckCompatible(s_def->info, t_def->info));

      // Enumerate matched (s, t) pairs by walking the chain from each s;
      // brute-force distances with a global top-k heap accumulator.
      std::unordered_map<VertexId, std::vector<float>> s_vecs, t_vecs;
      auto vec_of = [&](std::unordered_map<VertexId, std::vector<float>>& cache,
                        const std::string& type, const std::string& attr,
                        VertexId vid) -> const std::vector<float>* {
        auto it = cache.find(vid);
        if (it != cache.end()) return &it->second;
        std::vector<float> v(s_def->info.dimension);
        if (!db_->embeddings()->GetEmbedding(type, attr, vid, v.data()).ok()) {
          return nullptr;
        }
        return &cache.emplace(vid, std::move(v)).first->second;
      };
      // Each s is walked once and its reachable t's form a set, so every
      // (s, t) pair is evaluated at most once.
      size_t pairs_evaluated = 0;
      // Keeps the k nearest pairs in (distance, s, t) order.
      TopKHeap<std::pair<VertexId, VertexId>> heap(k);
      const Bitmap& from = cand[s_idx];
      for (VertexId s = from.NextSet(0); s < from.size(); s = from.NextSet(s + 1)) {
        // Walk the chain to find reachable t's under the candidate sets.
        VertexSet frontier{s};
        for (size_t e = 0; e < edge_defs.size(); ++e) {
          VertexSet next;
          for (VertexId vid : frontier) {
            db_->store()->ForEachNeighbor(
                vid, edge_defs[e]->id, stmt.pattern.edges[e].dir, read_tid,
                [&](VertexId peer) {
                  if (cand[e + 1].Test(peer)) next.insert(peer);
                });
          }
          frontier = std::move(next);
        }
        if (frontier.empty()) continue;
        const std::vector<float>* sv = vec_of(s_vecs, s_type, dist.lhs->attr, s);
        if (sv == nullptr) continue;
        for (VertexId t : frontier) {
          if (s == t) continue;
          ++pairs_evaluated;
          const std::vector<float>* tv = vec_of(t_vecs, t_type, dist.rhs->attr, t);
          if (tv == nullptr) continue;
          const float d = ComputeDistance(s_def->info.metric, sv->data(), tv->data(),
                                          s_def->info.dimension);
          heap.Push(d, {s, t});
        }
      }
      result.is_join = true;
      for (const auto& e : heap.TakeSorted()) {
        result.pairs.push_back(SelectResult::Pair{e.id.first, e.id.second, e.distance});
      }
      add_actual(topk_plan_idx, "pairs_evaluated", std::to_string(pairs_evaluated));
      add_actual(topk_plan_idx, "rows_out", std::to_string(result.pairs.size()));
      return result;
    }

    // ---- Top-k vector search (pure or filtered, Sec. 5.1-5.3) ----
    if (dist.lhs->kind != Expr::Kind::kAttrRef ||
        dist.rhs->kind != Expr::Kind::kParam) {
      return Status::SemanticError(
          "ORDER BY VECTOR_DIST expects (alias.attr, $query_vector)");
    }
    const int idx = alias_index(dist.lhs->alias);
    if (idx < 0) {
      return Status::SemanticError("unknown alias '" + dist.lhs->alias + "'");
    }
    if (stmt.select_aliases.size() != 1 ||
        alias_index(stmt.select_aliases[0]) < 0) {
      return Status::SemanticError("select alias must appear in the pattern");
    }
    if (stmt.select_aliases[0] != dist.lhs->alias) {
      return Status::SemanticError(
          "top-k vector search must select the searched alias '" +
          dist.lhs->alias + "'");
    }
    if (nodes[idx].type_id < 0) {
      return Status::SemanticError("vector search alias must have a vertex type");
    }
    auto query = ParamAsVector(params, dist.rhs->param);
    if (!query.ok()) return query.status();
    const VertexTypeDef& search_type = db_->schema()->vertex_type(nodes[idx].type_id);
    if (search_type.FindEmbeddingAttr(dist.lhs->attr) == nullptr) {
      return Status::SemanticError("'" + dist.lhs->attr +
                                   "' is not an embedding attribute of " +
                                   search_type.name);
    }
    // Pre-filter: the graph pattern + predicates become the candidate bitmap
    // consumed by one EmbeddingAction (Sec. 5.2/5.3).
    SearchRun run;
    auto hits = search(search_type.name, dist.lhs->attr, **query, k, std::nullopt,
                       pure_topk ? nullptr : &cand[idx], &run);
    if (!hits.ok()) return hits.status();
    result.vertices.clear();
    for (const SearchHit& h : hits->hits) {
      result.vertices.insert(h.label);
      result.distances[h.label] = h.distance;
    }
    if (pure_topk) {
      add_actual(topk_plan_idx, "filter_candidates", "none (pure search)");
    } else {
      const size_t filtered = cand[idx].Count();
      add_actual(topk_plan_idx, "filter_candidates", std::to_string(filtered));
      add_actual(topk_plan_idx, "filter_selectivity",
                 FmtSelectivity(filtered, db_->store()->vid_upper_bound()));
    }
    AddSearchActuals(plan_node(topk_plan_idx), *hits, result.vertices.size(), run,
                     clustered);
    return result;
  }

  // ---- Plain graph query: return the selected alias's candidates ----
  if (stmt.select_aliases.size() != 1) {
    return Status::SemanticError("SELECT of two aliases requires a similarity join");
  }
  const int out_idx = alias_index(stmt.select_aliases[0]);
  if (out_idx < 0) {
    return Status::SemanticError("unknown select alias '" + stmt.select_aliases[0] +
                                 "'");
  }
  // The walk is in vid order, so LIMIT keeps the smallest vids.
  const Bitmap& out = cand[out_idx];
  const size_t limit = stmt.has_limit ? static_cast<size_t>(stmt.limit) : out.size();
  for (VertexId vid = out.NextSet(0); vid < out.size() && result.vertices.size() < limit;
       vid = out.NextSet(vid + 1)) {
    result.vertices.insert(vid);
  }
  add_actual(node_plan_idx[out_idx], "rows_returned",
             std::to_string(result.vertices.size()));
  return result;
}

Result<VertexSet> QueryExecutor::ExecuteVectorSearch(
    const VectorSearchStmt& stmt, const QueryParams& params, const VarMap& vars,
    std::unordered_map<VertexId, float>* distance_map, PlanDescription* explain,
    bool execute) {
  auto query = ParamAsVector(params, stmt.query_param);
  if (!query.ok()) return query.status();
  int64_t k_signed = stmt.k;
  if (!stmt.k_param.empty()) {
    auto kd = ParamAsDouble(params, stmt.k_param);
    if (!kd.ok()) return kd.status();
    k_signed = static_cast<int64_t>(*kd);
  }
  if (k_signed <= 0) {
    return Status::InvalidArgument("VectorSearch k must be positive, got " +
                                   std::to_string(k_signed));
  }
  const size_t k = static_cast<size_t>(k_signed);
  Database::VectorSearchFnOptions options;
  if (stmt.ef > 0) options.ef = static_cast<size_t>(stmt.ef);
  options.distance_map = distance_map;
  options.role = role_;
  const VertexSet* filter = nullptr;
  if (!stmt.filter_var.empty()) {
    auto it = vars.find(stmt.filter_var);
    if (it == vars.end()) {
      return Status::SemanticError("unknown vertex set variable '" + stmt.filter_var +
                                   "'");
    }
    filter = &it->second;
  }
  options.filter = filter;

  int plan_idx = -1;
  if (explain != nullptr) {
    explain->analyzed = execute;
    PlanNode node;
    std::string attrs_str;
    size_t total_segments = 0;
    // Quantization is per attribute (schema pin, else TV_QUANT), as in the
    // SELECT plan; sq8 when any searched attribute ranks on codes.
    bool quant_on = false;
    for (const auto& [type_name, attr] : stmt.attrs) {
      if (!attrs_str.empty()) attrs_str += ", ";
      attrs_str += type_name + "." + attr;
      total_segments += db_->embeddings()->SegmentsOf(type_name, attr).size();
      auto vt = db_->schema()->GetVertexType(type_name);
      const EmbeddingAttrDef* def = vt.ok() ? (*vt)->FindEmbeddingAttr(attr) : nullptr;
      quant_on = quant_on || (def != nullptr && QuantEnabled(def->info));
    }
    node.label =
        "EmbeddingAction[VectorSearch k=" + std::to_string(k) + ", {" + attrs_str +
        "}]";
    const std::string accuracy = "ef=" + std::to_string(options.ef);
    node.details = EmbeddingDetails(
        db_, {"accuracy: " + accuracy, FanOutDetail(db_, total_segments)},
        filter != nullptr ? "vertex-set variable '" + stmt.filter_var + "'" : "",
        accuracy, quant_on);
    plan_idx = static_cast<int>(explain->nodes.size());
    explain->Add(std::move(node));
  }
  if (!execute) return VertexSet{};

  VectorSearchResult search_stats;
  SearchRun run;
  options.result_stats = &search_stats;
  options.mpp_stats = &run.mpp;
  options.bypass_cache = cache_bypass_;
  options.cache_outcome = &run.cache;
  auto out = db_->VectorSearch(stmt.attrs, **query, k, options);
  if (explain != nullptr && plan_idx >= 0 && out.ok()) {
    PlanNode& node = explain->nodes[plan_idx];
    if (filter != nullptr) {
      node.actuals.emplace_back("filter_candidates", std::to_string(filter->size()));
    }
    AddSearchActuals(&node, search_stats, out->size(), run, db_->cluster() != nullptr);
  }
  return out;
}

}  // namespace tigervector
