#ifndef TIGERVECTOR_QUERY_EXECUTOR_H_
#define TIGERVECTOR_QUERY_EXECUTOR_H_

#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/database.h"
#include "query/ast.h"
#include "util/result.h"

namespace tigervector {

// Runtime query parameter ($name bindings): scalar or query vector.
using QueryParam = std::variant<int64_t, double, std::string, std::vector<float>>;
using QueryParams = std::unordered_map<std::string, QueryParam>;

// Vertex-set variables from prior query blocks (GSQL query composition).
using VarMap = std::unordered_map<std::string, VertexSet>;

// One operator of an EXPLAINed plan: the label mirrors the bottom-up plan
// text; `details` carry the static decisions (brute-force vs HNSW tier
// threshold math, pre-/post-filter strategy, fan-out degree); `actuals`
// are filled only under EXPLAIN ANALYZE (rows in/out, candidates scanned,
// distance evals, per-server timings).
struct PlanNode {
  std::string label;
  std::vector<std::string> details;
  std::vector<std::pair<std::string, std::string>> actuals;
};

struct PlanDescription {
  std::vector<PlanNode> nodes;
  bool analyzed = false;

  void Add(PlanNode node) { nodes.push_back(std::move(node)); }
  std::string Render() const;
};

// Result of one SELECT block.
struct SelectResult {
  // Single-alias selects fill `vertices` (+ `distances` when the block ran
  // a vector search).
  VertexSet vertices;
  std::unordered_map<VertexId, float> distances;
  // Similarity joins fill `pairs` sorted by ascending distance.
  struct Pair {
    VertexId source;
    VertexId target;
    float distance;
  };
  std::vector<Pair> pairs;
  bool is_join = false;
  // Bottom-up plan rendering (paper Sec. 5.1-5.4 style):
  //   EmbeddingAction[Top k, {t.content_emb}, query_vector]
  //   VertexAction[Post:t {...}]
  std::string plan;
};

// Executes parsed SELECT blocks and VectorSearch() calls against a
// Database. Pattern evaluation follows the pre-filter design of the paper:
// graph predicates and pattern connectivity produce a candidate bitmap
// first, then a single EmbeddingAction consumes it (Sec. 5.2-5.3). Every
// candidate set inside a block is a Bitmap over global vids; VertexSet
// appears only where a set enters (variables) or leaves (results).
class QueryExecutor {
 public:
  explicit QueryExecutor(Database* db) : db_(db) {}

  // Role all subsequent queries run under (empty = superuser). Scans of or
  // searches over vertex types the role cannot read are rejected/filtered.
  void SetRole(std::string role) { role_ = std::move(role); }
  const std::string& role() const { return role_; }

  // When set, this executor skips both tiers of the query cache (lookups
  // and inserts) without touching the database-wide toggle. Differential
  // tests run the same query through a cached and a bypassing executor and
  // compare bit-for-bit.
  void set_cache_bypass(bool bypass) { cache_bypass_ = bypass; }
  bool cache_bypass() const { return cache_bypass_; }

  // `explain` (optional) receives the plan description; with
  // `execute = false` (EXPLAIN without ANALYZE) the plan is built from the
  // statement alone and the block is not evaluated.
  Result<SelectResult> ExecuteSelect(const SelectStmt& stmt, const QueryParams& params,
                                     const VarMap& vars,
                                     PlanDescription* explain = nullptr,
                                     bool execute = true);

  // Executes a parsed VectorSearch() statement; returns the top-k vertex
  // set and optionally fills `distance_map`.
  Result<VertexSet> ExecuteVectorSearch(const VectorSearchStmt& stmt,
                                        const QueryParams& params, const VarMap& vars,
                                        std::unordered_map<VertexId, float>* distance_map,
                                        PlanDescription* explain = nullptr,
                                        bool execute = true);

 private:
  struct ResolvedNode {
    std::string alias;
    int type_id = -1;            // -1 = untyped
    const VertexSet* var = nullptr;  // non-null when bound to a variable
    std::vector<const Expr*> predicates;
  };

  Result<std::vector<ResolvedNode>> ResolveNodes(const SelectStmt& stmt,
                                                 const VarMap& vars) const;

  // Evaluates a scalar predicate for one vertex.
  Result<bool> EvalPredicate(const Expr& expr, VertexId vid, Tid read_tid,
                             const QueryParams& params) const;
  Result<Value> EvalValue(const Expr& expr, VertexId vid, Tid read_tid,
                          const QueryParams& params) const;

  // Per-BaseSet tally of predicate-bitmap cache outcomes, summarized as
  // the `cache:` actual of the VertexAction plan node.
  struct ScanCacheProbe {
    size_t hits = 0;
    size_t misses = 0;
    size_t bypasses = 0;
  };

  // Rejects a type-scan node without a vertex type or over a type the role
  // cannot read; variable-bound nodes filter per vertex instead.
  Status CheckReadable(const ResolvedNode& node) const;

  // Base candidate bitmap of a node (type scan or variable), with
  // predicates, over global vids and sized to the segments' extent. Type
  // scans consult the per-segment predicate bitmap cache; `probe`
  // (optional) receives the per-segment outcome tally.
  Result<Bitmap> BaseSet(const ResolvedNode& node, Tid read_tid,
                         const QueryParams& params,
                         ScanCacheProbe* probe = nullptr) const;

  Database* db_;
  std::string role_;
  bool cache_bypass_ = false;
};

// Renders an expression back to text (used in plan output and errors).
std::string ExprToString(const Expr& expr);

}  // namespace tigervector

#endif  // TIGERVECTOR_QUERY_EXECUTOR_H_
