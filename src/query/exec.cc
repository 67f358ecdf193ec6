#include "query/exec.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <utility>

#include "query/pipeline.h"
#include "util/fault_injection.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace xmark::query {
namespace {

// Morsel dispatch backs off to a serial drain once this many tasks are
// already in flight on the pool: far above anything a healthy run reaches
// (one drain submits ~4 chunks per worker), low enough that a pathological
// fan-out degrades instead of queueing unboundedly.
constexpr size_t kMaxPendingMorselTasks = 1024;

}  // namespace

// ---------------------------------------------------------------------------
// NodeScan
// ---------------------------------------------------------------------------

Status NodeScan::Open(const StorageAdapter* store, NodeHandle base,
                      StepPlan::Access access, ChildFilter filter,
                      xml::NameId tag, bool child_cursors, EvalStats* stats,
                      ThreadPool* pool, size_t min_morsel_ids,
                      ExecContext* ctx) {
  store_ = store;
  stats_ = stats;
  child_cursors_ = child_cursors;
  filter_ = filter;
  tag_ = tag;
  materialized_.clear();
  materialized_pos_ = 0;
  switch (access) {
    case StepPlan::Access::kChildrenByTag: {
      auto direct = store->ChildrenByTag(base, tag);
      if (direct.has_value()) {
        ++stats->index_lookups;
        materialized_ = std::move(*direct);
        mode_ = Mode::kMaterialized;
        return Status::OK();
      }
      // The physical layout does not cover this node: scan its children
      // the way the options allow.
      if (!child_cursors_) {
        chain_ = store->FirstChild(base);
        mode_ = Mode::kChildChain;
        return Status::OK();
      }
      [[fallthrough]];
    }
    case StepPlan::Access::kChildCursor:
      store->OpenChildCursor(base, filter, tag, &child_cursor_);
      ++stats->cursor_scans;
      mode_ = Mode::kChildCursor;
      return Status::OK();
    case StepPlan::Access::kChildChain:
      chain_ = store->FirstChild(base);
      mode_ = Mode::kChildChain;
      return Status::OK();
    case StepPlan::Access::kDescendantCursor: {
      store->OpenDescendantCursor(base, filter, tag, &descendant_cursor_);
      ++stats->descendant_scans;
      mode_ = Mode::kDescendantCursor;
      const uint64_t span = descendant_cursor_.u1 > descendant_cursor_.u0
                                ? descendant_cursor_.u1 - descendant_cursor_.u0
                                : 0;
      if (pool != nullptr && pool->worker_count() > 1 &&
          min_morsel_ids > 0 && span >= min_morsel_ids &&
          store->DescendantCursorPartitionable(descendant_cursor_)) {
        return DrainMorsels(pool, span, ctx);
      }
      return Status::OK();
    }
    case StepPlan::Access::kTagIndex: {
      auto from_index = store->DescendantsByTag(base, tag);
      if (from_index.has_value()) {
        ++stats->index_lookups;
        materialized_ = std::move(*from_index);
        mode_ = Mode::kMaterialized;
        return Status::OK();
      }
      OpenDfs(base);
      return Status::OK();
    }
    case StepPlan::Access::kDescendantDfs:
      OpenDfs(base);
      return Status::OK();
    case StepPlan::Access::kAttribute:
    case StepPlan::Access::kSelf:
      mode_ = Mode::kDone;
      return Status::OK();
  }
  mode_ = Mode::kDone;
  return Status::OK();
}

// Morsel-parallel drain of a partitionable descendant cursor: split the
// cursor's [u0, u1) position interval into deterministic chunks
// (ChunkBounds depends only on span and worker count), drain each chunk
// through a clamped COPY of the open cursor into a private buffer, then
// concatenate the buffers in chunk order. Because the store declared the
// cursor partitionable, every chunk emits exactly the serial scan's
// matches for its sub-range, in order — so the concatenation is
// byte-identical to the serial drain for any chunking. Workers touch no
// shared state beyond the per-chunk status/abort slots (stats are settled
// once below), and the scan converts to kMaterialized so Fill never
// consults the cursor again.
//
// Error path: a worker that fails (governance check, injected fault)
// records its Status in its chunk slot and raises the shared abort flag;
// sibling morsels observe the flag at their next batch and stop early.
// After the barrier the first non-OK slot in chunk order is returned —
// deterministic because a governed failure is sticky on the ExecContext
// (every failing chunk reports the same Status) and an injected fault
// fires in exactly one chunk.
Status NodeScan::DrainMorsels(ThreadPool* pool, uint64_t span,
                              ExecContext* ctx) {
  const std::vector<size_t> bounds =
      ChunkBounds(static_cast<size_t>(span), pool->worker_count());
  const size_t chunks = bounds.size() - 1;
  std::vector<std::vector<NodeHandle>> parts(chunks);
  std::vector<Status> statuses(chunks);
  std::atomic<bool> abort{false};
  MemoryBudget* budget = ctx != nullptr ? ctx->memory_budget() : nullptr;
  auto drain_chunk = [this, &bounds, &parts, &statuses, &abort, ctx,
                      budget](size_t k) {
    if (abort.load(std::memory_order_relaxed)) return;  // sibling failed
    // Workers charge their private buffers to the run's shared budget.
    ScopedMemoryBudget install(budget);
    DescendantCursor cur = descendant_cursor_;  // clamped copy
    const uint64_t origin = descendant_cursor_.u0;
    cur.u0 = origin + bounds[k];
    cur.u1 = origin + bounds[k + 1];
    std::vector<NodeHandle>& out = parts[k];
    constexpr size_t kBatch = 256;
    NodeHandle buf[kBatch];
    size_t n;
    while ((n = cur.Fill(buf, kBatch)) > 0) {
      if (XMARK_FAULT_POINT("exec/morsel_drain")) {
        statuses[k] =
            Status::ResourceExhausted("fault injection: exec/morsel_drain");
        abort.store(true, std::memory_order_relaxed);
        return;
      }
      out.insert(out.end(), buf, buf + n);
      if (budget != nullptr) budget->Charge(n * sizeof(NodeHandle));
      if (ctx != nullptr) {
        Status st = ctx->Check();
        if (!st.ok()) {
          statuses[k] = std::move(st);
          abort.store(true, std::memory_order_relaxed);
          return;
        }
      }
      if (abort.load(std::memory_order_relaxed)) return;
    }
  };
  for (size_t k = 0; k < chunks; ++k) {
    if (bounds[k] == bounds[k + 1]) continue;
    std::function<void()> task = [&drain_chunk, k] { drain_chunk(k); };
    // Admission-controlled dispatch: a saturated (or fault-injected) pool
    // degrades to draining the chunk on the caller — same chunk-order
    // concatenation, so the output is identical, just less parallel.
    if (!pool->TrySubmit(task, kMaxPendingMorselTasks)) drain_chunk(k);
  }
  pool->Wait();
  for (size_t k = 0; k < chunks; ++k) {
    XMARK_RETURN_IF_ERROR(statuses[k]);
  }
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  materialized_.clear();
  materialized_.reserve(total);
  for (const auto& p : parts) {
    materialized_.insert(materialized_.end(), p.begin(), p.end());
  }
  // Serial parity: the serial descendant drain counts one visited node per
  // emitted match (cursor Fill adds the match count per batch).
  stats_->nodes_visited += static_cast<int64_t>(total);
  materialized_pos_ = 0;
  mode_ = Mode::kMaterialized;
  return Status::OK();
}

// Children of `parent` in document order, gathered with one batched
// cursor scan when cursors are enabled (no virtual call pair per child),
// otherwise with the generic sibling chain.
void NodeScan::CollectChildren(NodeHandle parent,
                               std::vector<NodeHandle>* out) {
  if (child_cursors_) {
    ChildCursor cur;
    store_->OpenChildCursor(parent, ChildFilter::kAll, xml::kInvalidName,
                            &cur);
    ++stats_->cursor_scans;
    constexpr size_t kBatch = 64;
    NodeHandle buf[kBatch];
    size_t n;
    while ((n = cur.Fill(buf, kBatch)) > 0) {
      out->insert(out->end(), buf, buf + n);
    }
  } else {
    for (NodeHandle c = store_->FirstChild(parent); c != kInvalidHandle;
         c = store_->NextSibling(c)) {
      out->push_back(c);
    }
  }
}

void NodeScan::OpenDfs(NodeHandle base) {
  mode_ = Mode::kDescendantDfs;
  dfs_stack_.clear();
  dfs_kids_.clear();
  // Seed with the base's children in reverse so popping emits document
  // order.
  CollectChildren(base, &dfs_stack_);
  std::reverse(dfs_stack_.begin(), dfs_stack_.end());
}

size_t NodeScan::FillDfs(NodeHandle* out, size_t cap) {
  size_t n = 0;
  while (n < cap && !dfs_stack_.empty()) {
    const NodeHandle node = dfs_stack_.back();
    dfs_stack_.pop_back();
    ++stats_->nodes_visited;
    const xml::NameId node_tag = store_->NameOf(node);
    if (MatchesChildFilter(filter_, node_tag, tag_)) out[n++] = node;
    if (node_tag == xml::kInvalidName) continue;  // text leaf
    // Push children in reverse so the DFS emits document order.
    dfs_kids_.clear();
    CollectChildren(node, &dfs_kids_);
    for (auto it = dfs_kids_.rbegin(); it != dfs_kids_.rend(); ++it) {
      dfs_stack_.push_back(*it);
    }
  }
  if (dfs_stack_.empty() && n == 0) mode_ = Mode::kDone;
  return n;
}

size_t NodeScan::Fill(NodeHandle* out, size_t cap) {
  const size_t n = FillBatch(out, cap);
  // Every non-empty generic batch counts: virtual_batches is the
  // denominator the bench reports against pipeline_batches_fused.
  if (n > 0) ++stats_->virtual_batches;
  return n;
}

size_t NodeScan::FillBatch(NodeHandle* out, size_t cap) {
  switch (mode_) {
    case Mode::kDone:
      return 0;
    case Mode::kChildCursor: {
      const size_t n = child_cursor_.Fill(out, cap);
      stats_->nodes_visited += static_cast<int64_t>(n);
      if (n == 0) mode_ = Mode::kDone;
      return n;
    }
    case Mode::kDescendantCursor: {
      const size_t n = descendant_cursor_.Fill(out, cap);
      stats_->nodes_visited += static_cast<int64_t>(n);
      if (n == 0) mode_ = Mode::kDone;
      return n;
    }
    case Mode::kChildChain: {
      size_t n = 0;
      NodeHandle c = chain_;
      while (n < cap && c != kInvalidHandle) {
        ++stats_->nodes_visited;
        if (MatchesChildFilter(filter_, store_->NameOf(c), tag_)) {
          out[n++] = c;
        }
        c = store_->NextSibling(c);
      }
      chain_ = c;
      if (n == 0) mode_ = Mode::kDone;
      return n;
    }
    case Mode::kDescendantDfs:
      return FillDfs(out, cap);
    case Mode::kMaterialized: {
      const size_t n =
          std::min(cap, materialized_.size() - materialized_pos_);
      std::copy_n(materialized_.begin() + materialized_pos_, n, out);
      materialized_pos_ += n;
      if (n == 0) mode_ = Mode::kDone;
      return n;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// PipelineExec
// ---------------------------------------------------------------------------
//
// The executor half of compiled pipelines. The plan-time pass
// (query/pipeline.cc) proved the FLWOR equivalent to scan → [id filter] →
// [where predicate] → emit over child-name walks, so everything here is
// written against that grammar only — and every semantic choice below
// replicates the generic evaluator exactly:
//   - string-values come from TextView for text nodes and a reused
//     AppendStringValue scratch for elements (ItemStringView's node
//     branch);
//   - the fused comparison is the evaluator's untyped general comparison:
//     existential over all predicate-path matches, numeric when the
//     literal is a number (ParseDouble failure → that pair is false),
//     lexicographic string compare otherwise;
//   - contains/starts-with consume only the FIRST predicate-path match
//     (arg_view takes seq.front(); an empty result is the empty string);
//   - all walks enumerate child levels in cursor order, which equals the
//     generic level-by-level batch order (child steps expand each node's
//     matches contiguously, so last-level concatenation IS the DFS order).

namespace {

// Per-drain state: the pipeline, the store, and the element string-value
// scratch buffer. One instance per thread — morsel workers get their own
// (the scratch must never be shared across chunks).
struct PipeCtx {
  const CompiledPipeline* pipe;
  const StorageAdapter* store;
  std::string scratch;
};

// Serial-drain stat deltas, settled into the shared EvalStats once per
// drain (morsel workers must not touch the shared struct).
struct PipeDrainStats {
  int64_t batches = 0;     // fused batches flushed
  int64_t candidates = 0;  // tag-matched nodes through the fused loop
};

// String-value of one stored node, mirroring ItemStringView's node branch.
std::string_view PipeNodeView(const StorageAdapter* store, NodeHandle n,
                              std::string* scratch) {
  if (!store->IsElement(n)) return store->TextView(n);
  scratch->clear();
  store->AppendStringValue(n, scratch);
  return *scratch;
}

// Invokes `fn` on every node the pipeline's predicate path selects from
// `node`, in document order; `fn` returns true to stop early (existential
// short-circuit / first-match). Returns whether a call stopped the walk.
template <typename Fn>
bool ForEachPathNode(const StorageAdapter* store,
                     const std::vector<xml::NameId>& path, bool text_tail,
                     NodeHandle node, size_t depth, const Fn& fn) {
  constexpr size_t kBatch = 16;
  NodeHandle buf[kBatch];
  size_t n;
  if (depth == path.size()) {
    if (!text_tail) return fn(node);
    ChildCursor cur;
    store->OpenChildCursor(node, ChildFilter::kText, xml::kInvalidName, &cur);
    while ((n = cur.Fill(buf, kBatch)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        if (fn(buf[i])) return true;
      }
    }
    return false;
  }
  ChildCursor cur;
  store->OpenChildCursor(node, ChildFilter::kTag, path[depth], &cur);
  while ((n = cur.Fill(buf, kBatch)) > 0) {
    for (size_t i = 0; i < n; ++i) {
      if (ForEachPathNode(store, path, text_tail, buf[i], depth + 1, fn)) {
        return true;
      }
    }
  }
  return false;
}

// First predicate-path value of `cand`, or the empty string when the path
// selects nothing (the evaluator's arg_view of an empty sequence).
std::string_view FirstPathValue(PipeCtx& cx, NodeHandle cand) {
  std::string_view view{};
  ForEachPathNode(cx.store, cx.pipe->filter_path, cx.pipe->filter_path_text,
                  cand, 0, [&](NodeHandle v) {
                    view = PipeNodeView(cx.store, v, &cx.scratch);
                    return true;
                  });
  return view;
}

// CompareResult twin (the evaluator's copy is file-local to evaluator.cc).
bool PipeCompareResult(int cmp, BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

// --- Per-candidate filter policies (the monomorphic loop bodies) --------

struct AlwaysMatch {
  static bool Match(PipeCtx&, NodeHandle) { return true; }
};

struct ContainsMatch {
  static bool Match(PipeCtx& cx, NodeHandle cand) {
    return Contains(FirstPathValue(cx, cand), cx.pipe->needle);
  }
};

struct StartsWithMatch {
  static bool Match(PipeCtx& cx, NodeHandle cand) {
    return StartsWith(FirstPathValue(cx, cand), cx.pipe->needle);
  }
};

// `<path> OP literal`, existential over every path match, with the
// evaluator's untyped coercion: numeric when the literal is a number
// (non-numeric path values make that pair false, never an error), string
// comparison otherwise.
template <BinaryOp OP, bool NUMERIC>
struct CompareMatch {
  static bool Match(PipeCtx& cx, NodeHandle cand) {
    return ForEachPathNode(
        cx.store, cx.pipe->filter_path, cx.pipe->filter_path_text, cand, 0,
        [&](NodeHandle v) {
          const std::string_view view = PipeNodeView(cx.store, v, &cx.scratch);
          int cmp;
          if constexpr (NUMERIC) {
            const std::optional<double> num = ParseDouble(view);
            if (!num.has_value()) return false;  // pair is false; keep going
            const double b = cx.pipe->cmp_number;
            cmp = (*num < b) ? -1 : (*num > b ? 1 : 0);
          } else {
            cmp = static_cast<int>(view.compare(cx.pipe->cmp_str));
          }
          return PipeCompareResult(cmp, OP);
        });
  }
};

// --- Emission -----------------------------------------------------------

// Emits the pipeline's tail path (kTailNodes) from one surviving binding,
// in the generic path's order (see the order note atop this section).
void EmitTail(PipeCtx& cx, NodeHandle node, size_t depth, Sequence* out) {
  const std::vector<xml::NameId>& tail = cx.pipe->tail;
  constexpr size_t kBatch = 16;
  NodeHandle buf[kBatch];
  size_t n;
  if (depth == tail.size()) {
    if (!cx.pipe->tail_text) {
      out->emplace_back(NodeRef{cx.store, node});
      return;
    }
    ChildCursor cur;
    cx.store->OpenChildCursor(node, ChildFilter::kText, xml::kInvalidName,
                              &cur);
    while ((n = cur.Fill(buf, kBatch)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        out->emplace_back(NodeRef{cx.store, buf[i]});
      }
    }
    return;
  }
  ChildCursor cur;
  cx.store->OpenChildCursor(node, ChildFilter::kTag, tail[depth], &cur);
  while ((n = cur.Fill(buf, kBatch)) > 0) {
    for (size_t i = 0; i < n; ++i) EmitTail(cx, buf[i], depth + 1, out);
  }
}

// One surviving binding's contribution to the result. RAW selects the
// dense-preorder count loop for kCount (the store advertised RawTagArray
// at plan time, and plan + execution see the same store).
template <bool RAW>
void EmitOne(PipeCtx& cx, NodeHandle cand, Sequence* out) {
  const CompiledPipeline& pipe = *cx.pipe;
  switch (pipe.emit) {
    case CompiledPipeline::Emit::kVar:
      out->emplace_back(NodeRef{cx.store, cand});
      return;
    case CompiledPipeline::Emit::kTailNodes:
      EmitTail(cx, cand, 0, out);
      return;
    case CompiledPipeline::Emit::kCount: {
      int64_t count = 0;
      if constexpr (RAW) {
        const xml::NameId* tags = cx.store->RawTagArray();
        const NodeHandle end = cx.store->SubtreeEnd(cand);
        for (NodeHandle i = cand + 1; i < end; ++i) {
          count += tags[i] == pipe.count_tag ? 1 : 0;
        }
      } else {
        DescendantCursor cur;
        cx.store->OpenDescendantCursor(cand, ChildFilter::kTag, pipe.count_tag,
                                       &cur);
        constexpr size_t kBatch = 256;
        NodeHandle buf[kBatch];
        size_t n;
        while ((n = cur.Fill(buf, kBatch)) > 0) {
          count += static_cast<int64_t>(n);
        }
      }
      out->emplace_back(static_cast<double>(count));
      return;
    }
  }
}

// The fused filter → emit loop over one batch of tag-matched candidates:
// one monomorphic instantiation per dispatch slot, selected once per run
// from the table below — no virtual call, no branch on filter kind, no
// intermediate Sequence.
using EmitBatchFn = void (*)(PipeCtx&, const NodeHandle*, size_t, Sequence*);

template <typename Policy, bool RAW>
void EmitBatch(PipeCtx& cx, const NodeHandle* batch, size_t n,
               Sequence* out) {
  for (size_t i = 0; i < n; ++i) {
    if (Policy::Match(cx, batch[i])) EmitOne<RAW>(cx, batch[i], out);
  }
}

// Maps a filter slot of the dispatch word to its policy type. Slots 3+ are
// the (comparison op, string|numeric) grid laid out by PipelineDispatch.
template <uint32_t SLOT>
struct PipeFilterPolicy {
  static_assert(SLOT >= 3 && SLOT < kPipelineRawBit);
  using Type = CompareMatch<
      static_cast<BinaryOp>(static_cast<uint32_t>(BinaryOp::kEq) +
                            (SLOT - 3) / 2),
      (SLOT - 3) % 2 == 1>;
};
template <>
struct PipeFilterPolicy<0> {
  using Type = AlwaysMatch;
};
template <>
struct PipeFilterPolicy<1> {
  using Type = ContainsMatch;
};
template <>
struct PipeFilterPolicy<2> {
  using Type = StartsWithMatch;
};

template <uint32_t... SLOT>
constexpr std::array<EmitBatchFn, kPipelineDispatchSlots> MakeEmitTable(
    std::integer_sequence<uint32_t, SLOT...>) {
  return {{&EmitBatch<
      typename PipeFilterPolicy<SLOT & (kPipelineRawBit - 1)>::Type,
      (SLOT & kPipelineRawBit) != 0>...}};
}

// The plan-time dispatch table: pipeline.cc computed an index into this
// array when it proved the shape; Run picks the instantiation with one
// load. (Slot 15 of each half is padding — PipelineDispatch never
// produces it.)
constexpr std::array<EmitBatchFn, kPipelineDispatchSlots> kEmitTable =
    MakeEmitTable(std::make_integer_sequence<uint32_t,
                                             kPipelineDispatchSlots>{});

// Flushes one candidate batch through the fused loop, with the same
// per-batch cooperation the generic drain has: the pipeline fault site,
// the governance check, the fused-batch accounting.
Status FlushFused(PipeCtx& cx, EmitBatchFn emit, const NodeHandle* buf,
                  size_t n, Sequence* out, ExecContext* ctx,
                  PipeDrainStats* ds) {
  if (n == 0) return Status::OK();
  if (XMARK_FAULT_POINT("exec/pipeline_drain")) {
    return Status::ResourceExhausted("fault injection: exec/pipeline_drain");
  }
  ++ds->batches;
  ds->candidates += static_cast<int64_t>(n);
  emit(cx, buf, n, out);
  if (ctx != nullptr) return ctx->Check();
  return Status::OK();
}

// Serial fused drain over a raw preorder id interval: the tag compare runs
// directly against the store's dense tag array; matches flush in batches.
// `abort` (nullable) is the sibling-failure flag of a morsel drain.
Status DrainDescRaw(PipeCtx& cx, EmitBatchFn emit, NodeHandle from,
                    NodeHandle to, Sequence* out, ExecContext* ctx,
                    PipeDrainStats* ds, const std::atomic<bool>* abort) {
  const xml::NameId* tags = cx.store->RawTagArray();
  const xml::NameId want = cx.pipe->scan_tag;
  constexpr size_t kBatch = 256;
  // Forces a governance check at least this often even through long
  // match-free id runs (matches alone would starve the check cadence).
  constexpr uint64_t kCheckStride = 4096;
  NodeHandle buf[kBatch];
  size_t n = 0;
  uint64_t since_check = 0;
  for (NodeHandle i = from; i < to; ++i) {
    if (tags[i] == want) {
      buf[n++] = i;
      if (n == kBatch) {
        XMARK_RETURN_IF_ERROR(FlushFused(cx, emit, buf, n, out, ctx, ds));
        n = 0;
        since_check = 0;
        if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
          return Status::OK();
        }
      }
    }
    if (++since_check >= kCheckStride) {
      since_check = 0;
      if (ctx != nullptr) XMARK_RETURN_IF_ERROR(ctx->Check());
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
        return Status::OK();
      }
    }
  }
  return FlushFused(cx, emit, buf, n, out, ctx, ds);
}

// Serial fused drain of an open descendant cursor.
Status DrainDescCursor(PipeCtx& cx, EmitBatchFn emit, DescendantCursor* cur,
                       Sequence* out, ExecContext* ctx, PipeDrainStats* ds,
                       const std::atomic<bool>* abort) {
  constexpr size_t kBatch = 256;
  NodeHandle buf[kBatch];
  size_t n;
  while ((n = cur->Fill(buf, kBatch)) > 0) {
    XMARK_RETURN_IF_ERROR(FlushFused(cx, emit, buf, n, out, ctx, ds));
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
      return Status::OK();
    }
  }
  return Status::OK();
}

// Morsel-parallel fused descendant drain, mirroring NodeScan::DrainMorsels
// chunk for chunk: deterministic ChunkBounds over the id span, one private
// PipeCtx + result Sequence per chunk (scratch buffers and emission never
// cross threads), admission-controlled TrySubmit with inline fallback,
// abort flag + sticky-context convergence for deterministic first failure,
// chunk-order concatenation (= serial order, since chunks cover ascending
// id ranges and each candidate's emission is contiguous). Stat deltas are
// settled on the caller after the barrier.
Status DrainDescMorsels(const CompiledPipeline& pipe,
                        const StorageAdapter* store, EmitBatchFn emit,
                        bool raw, NodeHandle raw_from,
                        const DescendantCursor* proto, uint64_t span,
                        ThreadPool* pool, ExecContext* ctx, Sequence* out,
                        PipeDrainStats* ds) {
  const std::vector<size_t> bounds =
      ChunkBounds(static_cast<size_t>(span), pool->worker_count());
  const size_t chunks = bounds.size() - 1;
  std::vector<Sequence> parts(chunks);
  std::vector<PipeDrainStats> part_stats(chunks);
  std::vector<Status> statuses(chunks);
  std::atomic<bool> abort{false};
  MemoryBudget* budget = ctx != nullptr ? ctx->memory_budget() : nullptr;
  auto drain_chunk = [&pipe, store, emit, raw, raw_from, proto, &bounds,
                      &parts, &part_stats, &statuses, &abort, ctx,
                      budget](size_t k) {
    if (abort.load(std::memory_order_relaxed)) return;  // sibling failed
    ScopedMemoryBudget install(budget);
    PipeCtx cx{&pipe, store, {}};
    Status st;
    if (raw) {
      st = DrainDescRaw(cx, emit, raw_from + bounds[k],
                        raw_from + bounds[k + 1], &parts[k], ctx,
                        &part_stats[k], &abort);
    } else {
      DescendantCursor cur = *proto;  // clamped copy
      const uint64_t origin = proto->u0;
      cur.u0 = origin + bounds[k];
      cur.u1 = origin + bounds[k + 1];
      st = DrainDescCursor(cx, emit, &cur, &parts[k], ctx, &part_stats[k],
                           &abort);
    }
    if (!st.ok()) {
      statuses[k] = std::move(st);
      abort.store(true, std::memory_order_relaxed);
    }
  };
  for (size_t k = 0; k < chunks; ++k) {
    if (bounds[k] == bounds[k + 1]) continue;
    std::function<void()> task = [&drain_chunk, k] { drain_chunk(k); };
    // Saturated (or fault-injected) pool: run the chunk on the caller —
    // identical bytes, just less parallel.
    if (!pool->TrySubmit(task, kMaxPendingMorselTasks)) drain_chunk(k);
  }
  pool->Wait();
  for (size_t k = 0; k < chunks; ++k) {
    XMARK_RETURN_IF_ERROR(statuses[k]);
  }
  size_t total = 0;
  for (const Sequence& p : parts) total += p.size();
  out->reserve(out->size() + total);
  for (Sequence& p : parts) {
    out->insert(out->end(), std::make_move_iterator(p.begin()),
                std::make_move_iterator(p.end()));
  }
  for (const PipeDrainStats& p : part_stats) {
    ds->batches += p.batches;
    ds->candidates += p.candidates;
  }
  return Status::OK();
}

}  // namespace

StatusOr<Sequence> PipelineExec::Run(const CompiledPipeline& pipe,
                                     const StorageAdapter* store,
                                     EvalStats* stats, ExecContext* ctx,
                                     ThreadPool* pool,
                                     size_t min_morsel_ids) {
  const bool raw = (pipe.dispatch & kPipelineRawBit) != 0;
  const EmitBatchFn emit = kEmitTable[pipe.dispatch % kPipelineDispatchSlots];
  PipeCtx cx{&pipe, store, {}};
  PipeDrainStats ds;
  Sequence out;

  // Resolve the prefix: a rooted path's first step tests the root element
  // itself (EvalPath's rooted semantics), later steps are child-name scans
  // drained level by level in batch order.
  std::vector<NodeHandle> level;
  std::vector<NodeHandle> next;
  if (!pipe.prefix.empty() && store->NameOf(store->Root()) == pipe.prefix[0]) {
    level.push_back(store->Root());
  }
  for (size_t d = 1; d < pipe.prefix.size() && !level.empty(); ++d) {
    next.clear();
    for (NodeHandle p : level) {
      ChildCursor cur;
      store->OpenChildCursor(p, ChildFilter::kTag, pipe.prefix[d], &cur);
      ++stats->cursor_scans;
      constexpr size_t kBatch = 64;
      NodeHandle buf[kBatch];
      size_t n;
      while ((n = cur.Fill(buf, kBatch)) > 0) {
        next.insert(next.end(), buf, buf + n);
        if (ctx != nullptr) {
          Status st = ctx->Check();
          if (!st.ok()) {
            stats->pipeline_batches_fused += ds.batches;
            return st;
          }
        }
      }
    }
    level.swap(next);
  }

  Status st = Status::OK();
  switch (pipe.scan) {
    case CompiledPipeline::Scan::kPrefixOnly: {
      // The bindings ARE the resolved prefix nodes.
      constexpr size_t kBatch = 256;
      for (size_t off = 0; st.ok() && off < level.size(); off += kBatch) {
        const size_t n = std::min(kBatch, level.size() - off);
        st = FlushFused(cx, emit, level.data() + off, n, &out, ctx, &ds);
      }
      break;
    }
    case CompiledPipeline::Scan::kChildren: {
      std::vector<NodeHandle> cands;
      if (pipe.id_lookup) {
        // One ID-index probe answers the whole step (ApplyStep's id-literal
        // path): the probed node must carry the step's tag and sit under
        // one of the prefix nodes.
        ++stats->index_lookups;
        const NodeHandle hit = store->NodeById(pipe.id_value);
        if (hit != kInvalidHandle && store->NameOf(hit) == pipe.scan_tag) {
          const NodeHandle parent = store->Parent(hit);
          for (NodeHandle p : level) {
            if (p == parent) {
              cands.push_back(hit);
              break;
            }
          }
        }
      } else {
        for (NodeHandle p : level) {
          ChildCursor cur;
          store->OpenChildCursor(p, ChildFilter::kTag, pipe.scan_tag, &cur);
          ++stats->cursor_scans;
          constexpr size_t kBatch = 64;
          NodeHandle buf[kBatch];
          size_t n;
          while ((n = cur.Fill(buf, kBatch)) > 0) {
            for (size_t i = 0; i < n; ++i) {
              if (pipe.id_filter) {
                // TryAttributeCompare semantics: a missing attribute never
                // matches; the literal compares as a string.
                const std::optional<std::string_view> attr =
                    store->AttributeView(buf[i], "id");
                if (!attr.has_value() || *attr != pipe.id_value) continue;
              }
              cands.push_back(buf[i]);
            }
            if (ctx != nullptr) {
              st = ctx->Check();
              if (!st.ok()) break;
            }
          }
          if (!st.ok()) break;
        }
      }
      constexpr size_t kBatch = 256;
      for (size_t off = 0; st.ok() && off < cands.size(); off += kBatch) {
        const size_t n = std::min(kBatch, cands.size() - off);
        st = FlushFused(cx, emit, cands.data() + off, n, &out, ctx, &ds);
      }
      break;
    }
    case CompiledPipeline::Scan::kDescendants: {
      for (NodeHandle p : level) {
        const bool parallel_ok = pool != nullptr &&
                                 pool->worker_count() > 1 &&
                                 min_morsel_ids > 0;
        if (raw) {
          const NodeHandle from = p + 1;
          const NodeHandle to = store->SubtreeEnd(p);
          const uint64_t span = to > from ? to - from : 0;
          ++stats->descendant_scans;
          if (parallel_ok && span >= min_morsel_ids) {
            st = DrainDescMorsels(pipe, store, emit, /*raw=*/true, from,
                                  nullptr, span, pool, ctx, &out, &ds);
          } else {
            st = DrainDescRaw(cx, emit, from, to, &out, ctx, &ds, nullptr);
          }
        } else {
          DescendantCursor cur;
          store->OpenDescendantCursor(p, ChildFilter::kTag, pipe.scan_tag,
                                      &cur);
          ++stats->descendant_scans;
          const uint64_t span = cur.u1 > cur.u0 ? cur.u1 - cur.u0 : 0;
          if (parallel_ok && span >= min_morsel_ids &&
              store->DescendantCursorPartitionable(cur)) {
            st = DrainDescMorsels(pipe, store, emit, /*raw=*/false,
                                  kInvalidHandle, &cur, span, pool, ctx,
                                  &out, &ds);
          } else {
            st = DrainDescCursor(cx, emit, &cur, &out, ctx, &ds, nullptr);
          }
        }
        if (!st.ok()) break;
      }
      break;
    }
  }

  stats->pipeline_batches_fused += ds.batches;
  stats->nodes_visited += ds.candidates;
  if (pipe.emit == CompiledPipeline::Emit::kCount) {
    // Each emitted count is one batched interval scan of its binding's
    // subtree (raw tag-array walk or descendant cursor drain).
    stats->descendant_scans += static_cast<int64_t>(out.size());
  }
  if (!st.ok()) return st;
  return out;
}

// ---------------------------------------------------------------------------
// HashJoinExec
// ---------------------------------------------------------------------------

Status HashJoinExec::Build(const HashJoinPlan& plan, size_t slot_count,
                           const EvalFn& eval, EvalStats* stats) {
  if (XMARK_FAULT_POINT("exec/hash_join_build")) {
    return Status::ResourceExhausted("fault injection: exec/hash_join_build");
  }
  Environment inner_env(slot_count);
  XMARK_ASSIGN_OR_RETURN(Sequence bindings,
                         eval(*plan.in_expr, inner_env, nullptr));
  bindings_ = std::move(bindings);
  for (size_t i = 0; i < bindings_.size(); ++i) {
    inner_env.Push(plan.var_slot, Sequence{bindings_[i]});
    XMARK_ASSIGN_OR_RETURN(Sequence keys,
                           eval(*plan.inner_key, inner_env, nullptr));
    inner_env.Pop();
    for (const Item& k : keys) {
      index_.emplace(ItemStringValue(k), i);
    }
  }
  ++stats->hash_joins_built;
  return Status::OK();
}

void HashJoinExec::Probe(std::string_view key,
                         std::vector<size_t>* rows) const {
  auto [begin, end] = index_.equal_range(key);
  for (auto m = begin; m != end; ++m) rows->push_back(m->second);
}

// ---------------------------------------------------------------------------
// BandJoinIndex
// ---------------------------------------------------------------------------

std::optional<double> BandNumericValue(const Item& item,
                                       std::string* scratch) {
  if (item.is_number()) return item.number();
  if (item.is_boolean()) return item.boolean() ? 1.0 : 0.0;
  return ParseDouble(ItemStringView(item, scratch));
}

Status BandJoinIndex::Build(const BandJoinPlan& plan, size_t slot_count,
                            const EvalFn& eval, EvalStats* stats,
                            ThreadPool* pool) {
  if (XMARK_FAULT_POINT("exec/band_join_build")) {
    return Status::ResourceExhausted("fault injection: exec/band_join_build");
  }
  valid_ = false;
  keys_.clear();
  Environment inner_env(slot_count);
  XMARK_ASSIGN_OR_RETURN(Sequence domain,
                         eval(*plan.domain, inner_env, nullptr));
  raw_domain_size_ = domain.size();
  keys_.reserve(domain.size());
  std::string scratch;
  for (const Item& binding : domain) {
    inner_env.Push(plan.var_slot, Sequence{binding});
    auto value = eval(*plan.inner_expr, inner_env, nullptr);
    inner_env.Pop();
    if (!value.ok()) return Status::OK();  // invalid: nested-loop fallback
    if (value->empty()) continue;  // empty inner side never matches
    const auto num = BandNumericValue(value->front(), &scratch);
    if (!num.has_value()) return Status::OK();  // non-numeric: fall back
    if (std::isnan(*num)) continue;  // NaN compares false against anything
    keys_.push_back(*num);
  }
  // Keys are plain doubles (NaNs already dropped), so a stable sort orders
  // them identically to std::sort; ParallelStableSort is deterministic for
  // any worker count, making the parallel build byte-identical to serial.
  ParallelStableSort(pool, keys_.begin(), keys_.end(), std::less<double>());
  valid_ = true;
  ++stats->band_joins_built;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ConstructExec
// ---------------------------------------------------------------------------

namespace {

// Separator between adjacent atomics of one enclosed expression (XQuery
// construction rules). Static storage: safe as a text_ref forever.
constexpr std::string_view kAtomicSeparator = " ";

// Non-owning ConstructedPtr for INTERIOR edges of one template instance:
// the parent chain up to the instance root keeps the arena alive, so the
// per-child refcount would be pure overhead (two atomic RMWs per node).
// Only the instance root returned from Instantiate carries the owning
// arena-aliasing pointer; children must never be detached from a dead
// root (the engine never does — navigation inside constructed nodes is
// unsupported, and consumers walk trees through a live root item).
ConstructedPtr InteriorRef(const ConstructedNode* node) {
  return ConstructedPtr(std::shared_ptr<const ConstructedNode>(), node);
}

}  // namespace

ConstructedNode* ConstructExec::NewNode(EvalStats* stats) {
  ++stats->nodes_constructed;
  ++stats->nodes_arena_allocated;
  return arena_->AllocateNode();
}

ConstructedNode* ConstructExec::NewTextNode(std::string_view interned_text,
                                            EvalStats* stats) {
  ConstructedNode* node = NewNode(stats);
  node->text_ref = interned_text;
  return node;
}

const std::vector<std::string_view>& ConstructExec::ConstTexts(
    const ConstructPlan& plan) {
  if (plan.template_id >= const_texts_.size()) {
    const_texts_.resize(plan.template_id + 1);
  }
  std::unique_ptr<std::vector<std::string_view>>& slot =
      const_texts_[plan.template_id];
  if (slot == nullptr) {
    // First instantiation of this template this run: intern every constant
    // segment once; all instantiations share the arena copies. (Views must
    // point into the arena, never into the ConstructPlan — results outlive
    // the plan.)
    slot = std::make_unique<std::vector<std::string_view>>();
    slot->reserve(plan.const_texts.size());
    for (const std::string& text : plan.const_texts) {
      slot->push_back(arena_->InternText(text));
    }
  }
  return *slot;
}

StatusOr<ConstructedNode*> ConstructExec::BuildElement(
    const ConstructPlan& plan, size_t element_index,
    const std::vector<std::string_view>& const_texts, Environment& env,
    const Focus* focus, const EvalFn& eval, EvalStats* stats,
    bool copy_results) {
  const ConstructPlan::Element& el = plan.elements[element_index];
  if (XMARK_FAULT_POINT("exec/construct")) {
    return Status::ResourceExhausted("fault injection: exec/construct");
  }
  ConstructedNode* node = NewNode(stats);
  // Tags are copied, not viewed: the template's strings die with the plan,
  // and XMark tags fit std::string's inline buffer anyway.
  node->tag = el.tag;

  if (!el.attrs.empty()) node->attributes.reserve(el.attrs.size());
  for (const ConstructPlan::Attr& attr : el.attrs) {
    if (attr.src == nullptr) {
      node->attributes.emplace_back(attr.name, attr.const_value);
      continue;
    }
    std::string value;
    for (const AttrPart& part : attr.src->parts) {
      if (part.expr == nullptr) {
        value += part.text;
        continue;
      }
      XMARK_ASSIGN_OR_RETURN(Sequence items, eval(*part.expr, env, focus));
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) value += ' ';
        value += ItemStringValue(items[i]);
      }
    }
    node->attributes.emplace_back(attr.name, std::move(value));
  }

  node->children.reserve(el.children.size());
  for (const ConstructPlan::Child& child : el.children) {
    switch (child.kind) {
      case ConstructPlan::Child::Kind::kConstText:
        node->children.emplace_back(
            InteriorRef(NewTextNode(const_texts[child.index], stats)));
        break;
      case ConstructPlan::Child::Kind::kElement: {
        XMARK_ASSIGN_OR_RETURN(
            ConstructedNode * nested,
            BuildElement(plan, child.index, const_texts, env, focus, eval,
                         stats, copy_results));
        node->children.emplace_back(InteriorRef(nested));
        break;
      }
      case ConstructPlan::Child::Kind::kHole: {
        XMARK_ASSIGN_OR_RETURN(Sequence items,
                               eval(*child.expr, env, focus));
        // Reserve for the hole's actual cardinality (plus the remaining
        // static slots): the pool's deallocate is a no-op, so every
        // outgrown intermediate buffer would stay dead in the arena.
        node->children.reserve(node->children.size() + items.size() +
                               (el.children.size() - 1 -
                                static_cast<size_t>(&child -
                                                    el.children.data())));
        bool prev_atomic = false;
        for (Item& item : items) {
          if (item.is_atomic()) {
            // Adjacent atomics from one enclosed expression merge into
            // space-separated text nodes, exactly as the legacy path does;
            // the text bytes land in the arena's shared buffer instead of
            // a std::string per node.
            if (prev_atomic) {
              node->children.emplace_back(
                  InteriorRef(NewTextNode(kAtomicSeparator, stats)));
            }
            const std::string_view text = ItemStringView(item, &scratch_);
            node->children.emplace_back(
                InteriorRef(NewTextNode(arena_->InternText(text), stats)));
            prev_atomic = true;
            continue;
          }
          prev_atomic = false;
          if (item.is_node() && copy_results) {
            node->children.emplace_back(DeepCopyNode(item.node()));
          } else if (item.is_constructed() &&
                     item.constructed()->owner_arena == arena_.get()) {
            // A nested instance of this same arena (e.g. Q10's {$p}
            // personne items): strip the owning arena-aliasing pointer to
            // a non-owning interior ref. Storing an owning pointer inside
            // an arena node would cycle the arena's refcount and leak
            // every node of the run.
            node->children.emplace_back(InteriorRef(item.constructed().get()));
          } else {
            node->children.push_back(std::move(item));
          }
        }
        break;
      }
    }
  }
  return node;
}

StatusOr<Item> ConstructExec::Instantiate(const ConstructPlan& plan,
                                          Environment& env,
                                          const Focus* focus,
                                          const EvalFn& eval,
                                          EvalStats* stats,
                                          bool copy_results) {
  const std::vector<std::string_view>& const_texts = ConstTexts(plan);
  XMARK_ASSIGN_OR_RETURN(
      ConstructedNode * root,
      BuildElement(plan, 0, const_texts, env, focus, eval, stats,
                   copy_results));
  return Item(ConstructedPtr(arena_, root));
}

int64_t BandJoinIndex::ProbeCount(double probe, BinaryOp op) const {
  if (std::isnan(probe)) return 0;
  const auto lower =
      std::lower_bound(keys_.begin(), keys_.end(), probe) - keys_.begin();
  const auto upper =
      std::upper_bound(keys_.begin(), keys_.end(), probe) - keys_.begin();
  const auto n = static_cast<int64_t>(keys_.size());
  switch (op) {
    case BinaryOp::kGt:  // probe > key: keys strictly below the probe
      return lower;
    case BinaryOp::kGe:
      return upper;
    case BinaryOp::kLt:  // probe < key: keys strictly above the probe
      return n - upper;
    case BinaryOp::kLe:
      return n - lower;
    default:
      return 0;
  }
}

}  // namespace xmark::query
