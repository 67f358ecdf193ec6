#ifndef XMARK_QUERY_STORAGE_H_
#define XMARK_QUERY_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xml/names.h"

namespace xmark::query {

/// Opaque node handle within one storage engine.
using NodeHandle = uint64_t;

inline constexpr NodeHandle kInvalidHandle = ~uint64_t{0};

class StorageAdapter;

/// Node-test filter applied by a child scan inside the store, so the
/// evaluator does not pay a virtual IsElement/NameOf call pair per child.
enum class ChildFilter : uint8_t {
  kAll,       // every child
  kElements,  // element children only (wildcard step)
  kText,      // text children only (text() step)
  kTag,       // element children with a specific tag
};

/// Whether a node whose tag id is `tag` (xml::kInvalidName for text nodes)
/// passes `filter`, with `want` naming the kTag target. The single source
/// of truth for the filter semantics shared by every store's cursor scan
/// and the evaluator's node tests. Callers must not pass kTag with
/// `want == kInvalidName` (it would conflate text nodes with the missing
/// tag); cursor opens guard that case by producing an empty scan.
inline bool MatchesChildFilter(ChildFilter filter, xml::NameId tag,
                               xml::NameId want) {
  switch (filter) {
    case ChildFilter::kAll:
      return true;
    case ChildFilter::kElements:
      return tag != xml::kInvalidName;
    case ChildFilter::kText:
      return tag == xml::kInvalidName;
    case ChildFilter::kTag:
      return tag == want;
  }
  return false;
}

/// One attribute of a stored element: its interned name and a view of its
/// value in the store's heap (valid for the store's lifetime).
struct AttributeRef {
  xml::NameId name = xml::kInvalidName;
  std::string_view value;
};

/// Reusable, allocation-free cursor over the (optionally filtered) children
/// of one node. Opened through StorageAdapter::OpenChildCursor; each store
/// interprets the state words according to its physical layout (a clustered
/// row position for the edge table, a path-table slice for the fragmented
/// mapping, a sibling pointer for the native arrays). The evaluator drains
/// it in batches, paying one virtual call per batch instead of a
/// FirstChild/NextSibling call pair per node.
class ChildCursor {
 public:
  /// Copies up to `cap` matching child handles into `out`; returns the
  /// number written. 0 signals exhaustion.
  inline size_t Fill(NodeHandle* out, size_t cap);

  /// Fills the header fields and zeroes the state words. Returns false
  /// when the scan is trivially empty — kTag with an unknown tag, which
  /// must not fall through to a tag comparison (text nodes' NameOf is
  /// also kInvalidName) — in which case the store leaves the cursor
  /// exhausted. Every OpenChildCursor implementation starts here.
  bool Init(const StorageAdapter* s, NodeHandle p, ChildFilter f,
            xml::NameId t) {
    store = s;
    parent = p;
    filter = f;
    tag = t;
    u0 = u1 = u2 = 0;
    return !(f == ChildFilter::kTag && t == xml::kInvalidName);
  }

  // --- cursor state, written by the owning store ------------------------
  const StorageAdapter* store = nullptr;
  NodeHandle parent = kInvalidHandle;
  ChildFilter filter = ChildFilter::kAll;
  xml::NameId tag = xml::kInvalidName;  // for ChildFilter::kTag
  // Store-interpreted words (row positions, slice bounds, sibling links).
  uint64_t u0 = 0;
  uint64_t u1 = 0;
  uint64_t u2 = 0;
};

/// Reusable, allocation-free cursor over the (optionally filtered)
/// descendants of one node, in document order, excluding the node itself.
/// Opened through StorageAdapter::OpenDescendantCursor. Every store's
/// handles are preorder ids, so a subtree is the contiguous handle interval
/// (base, subtree_end) and each store scans whatever physical encoding of
/// that interval it keeps: the edge relation's subtree_end_ array, the
/// native document's dense preorder node table, the fragmented mapping's
/// path-table slices, or (for stores without interval structures) a
/// stack-free preorder walk over the sibling/parent links. The evaluator
/// drains it in batches, replacing the seed's one-ChildCursor-per-element
/// DFS on `//tag` steps with one clustered range scan.
class DescendantCursor {
 public:
  /// Copies up to `cap` matching descendant handles into `out` in document
  /// order; returns the number written. 0 signals exhaustion.
  inline size_t Fill(NodeHandle* out, size_t cap);

  /// Fills the header fields and zeroes the state words. Returns false for
  /// the trivially empty kTag-with-unknown-tag scan (same guard as
  /// ChildCursor::Init). Every OpenDescendantCursor implementation starts
  /// here.
  bool Init(const StorageAdapter* s, NodeHandle b, ChildFilter f,
            xml::NameId t) {
    store = s;
    base = b;
    filter = f;
    tag = t;
    u0 = u1 = u2 = 0;
    return !(f == ChildFilter::kTag && t == xml::kInvalidName);
  }

  // --- cursor state, written by the owning store ------------------------
  const StorageAdapter* store = nullptr;
  NodeHandle base = kInvalidHandle;
  ChildFilter filter = ChildFilter::kAll;
  xml::NameId tag = xml::kInvalidName;  // for ChildFilter::kTag
  // Store-interpreted words (id intervals, slice bounds, walk positions).
  uint64_t u0 = 0;
  uint64_t u1 = 0;
  uint64_t u2 = 0;
};

/// Plan-time advertisement of the physical access structures a mapping
/// provides. The optimizer consults this once per query to pick access
/// paths (id probe, tag-index slice, path-table extent, interval-encoded
/// descendant scan) instead of re-testing Supports*() virtuals per node at
/// execution time. The default implementation of
/// StorageAdapter::Capabilities() derives the index bits from the legacy
/// Supports* hooks; stores with physical child/descendant layouts override
/// it to advertise the extra bits.
struct StorageCapabilities {
  bool id_lookup = false;       // NodeById
  bool tag_index = false;       // NodesByTag / DescendantsByTag
  bool path_index = false;      // PathExtent (structural summary)
  bool children_by_tag = false; // ChildrenByTag physical child slots/tables
  bool interval_descendants = false;  // clustered descendant range scans
                                      // (subtree intervals, table slices)
};

/// Abstract physical XML mapping. The query evaluator is written entirely
/// against this interface; the systems of the paper's evaluation (A-G)
/// differ in how they implement it (edge table, fragmented tables,
/// DTD-inlined tables, native DOM with or without indexes), which is what
/// produces the performance contrasts of Tables 1-3.
///
/// Navigation methods must behave like the XPath data model over the loaded
/// document: elements and text nodes only (the benchmark document has no
/// other node kinds), attributes exposed through dedicated accessors.
///
/// String access is zero-copy: every store keeps character data in a
/// contiguous heap it owns, so TextView/AttributeView return views valid
/// for the store's lifetime, and AppendStringValue concatenates into a
/// caller-owned scratch buffer. The std::string accessors below them are
/// convenience wrappers that materialize a copy.
class StorageAdapter {
 public:
  StorageAdapter() : uid_(NextStoreUid()) {}
  virtual ~StorageAdapter() = default;

  /// Process-unique, never-recycled identity of this store instance. Used
  /// as the key of per-AST name-resolution caches: a raw `this` pointer
  /// can be recycled by the allocator after a store is destroyed, which
  /// would silently validate stale NameIds.
  uint64_t store_uid() const { return uid_; }

  /// Human-readable mapping name ("edge table", "native DOM", ...).
  virtual std::string_view mapping_name() const = 0;

  /// The name table used by this store's NameIds.
  virtual const xml::NameTable& names() const = 0;

  /// The document element.
  virtual NodeHandle Root() const = 0;

  virtual bool IsElement(NodeHandle n) const = 0;
  /// Tag id for elements; xml::kInvalidName for text nodes.
  virtual xml::NameId NameOf(NodeHandle n) const = 0;
  virtual NodeHandle Parent(NodeHandle n) const = 0;
  virtual NodeHandle FirstChild(NodeHandle n) const = 0;
  virtual NodeHandle NextSibling(NodeHandle n) const = 0;

  // --- Zero-copy string access ------------------------------------------

  /// Content of a text node as a view into the store's heap; valid for the
  /// lifetime of the store.
  virtual std::string_view TextView(NodeHandle n) const = 0;

  /// Appends the XPath string-value (concatenated descendant text) of `n`
  /// to `*out`, so callers can reuse one scratch buffer across nodes.
  virtual void AppendStringValue(NodeHandle n, std::string* out) const = 0;

  /// Value of attribute `name` on `n` as a view into the store's heap.
  virtual std::optional<std::string_view> AttributeView(
      NodeHandle n, std::string_view name) const = 0;

  // --- Materializing wrappers (compatibility) ---------------------------

  /// Content of a text node.
  std::string Text(NodeHandle n) const { return std::string(TextView(n)); }

  /// XPath string-value (concatenated descendant text).
  std::string StringValue(NodeHandle n) const {
    std::string out;
    AppendStringValue(n, &out);
    return out;
  }

  std::optional<std::string> Attribute(NodeHandle n,
                                       std::string_view name) const {
    const auto view = AttributeView(n, name);
    if (!view.has_value()) return std::nullopt;
    return std::string(*view);
  }

  /// Writes up to `cap` of `n`'s attributes, in document order, into
  /// `out` and returns how many `n` has. When the count exceeds `cap`,
  /// call again with a buffer of that size. Names are NameIds of names()
  /// and values are views into the store's heap, so the scan allocates
  /// nothing.
  virtual size_t AttributeRefs(NodeHandle n, AttributeRef* out,
                               size_t cap) const = 0;

  /// True when `a` precedes `b` in document order (Q4's BEFORE predicate).
  virtual bool Before(NodeHandle a, NodeHandle b) const = 0;

  /// One past the last handle of `n`'s subtree. Every store's handles are
  /// preorder ids, so the subtree of `n` is exactly the handle interval
  /// [n, SubtreeEnd(n)) and its descendants are (n, SubtreeEnd(n)). The
  /// serializer and the deep copy walk that interval front to back.
  virtual NodeHandle SubtreeEnd(NodeHandle n) const = 0;

  // --- Batched child scans ----------------------------------------------

  /// Positions `cur` at the start of `parent`'s child list, restricted to
  /// `filter` (with `tag` naming the element tag for ChildFilter::kTag).
  /// The default implementation walks the generic FirstChild/NextSibling
  /// chain; stores override both hooks to scan their physical layout
  /// directly.
  virtual void OpenChildCursor(NodeHandle parent, ChildFilter filter,
                               xml::NameId tag, ChildCursor* cur) const {
    cur->u0 = cur->Init(this, parent, filter, tag) ? FirstChild(parent)
                                                   : kInvalidHandle;
  }

  /// Advances `cur`, writing up to `cap` handles into `out`; returns the
  /// count (0 = exhausted). Called through ChildCursor::Fill.
  virtual size_t AdvanceChildCursor(ChildCursor* cur, NodeHandle* out,
                                    size_t cap) const {
    size_t n = 0;
    NodeHandle c = cur->u0;
    while (n < cap && c != kInvalidHandle) {
      if (MatchesChildFilter(cur->filter, NameOf(c), cur->tag)) out[n++] = c;
      c = NextSibling(c);
    }
    cur->u0 = c;
    return n;
  }

  // --- Batched descendant scans -----------------------------------------

  /// Positions `cur` at the start of `base`'s descendant set (excluding
  /// `base`), restricted to `filter`. The default implementation walks the
  /// subtree with the FirstChild/NextSibling/Parent links — stack-free, so
  /// the cursor needs no heap state; stores with interval encodings
  /// override both hooks to scan their physical layout directly.
  virtual void OpenDescendantCursor(NodeHandle base, ChildFilter filter,
                                    xml::NameId tag,
                                    DescendantCursor* cur) const {
    cur->u0 = cur->Init(this, base, filter, tag) ? FirstChild(base)
                                                 : kInvalidHandle;
  }

  /// Advances `cur`, writing up to `cap` handles into `out` in document
  /// order; returns the count (0 = exhausted). Called through
  /// DescendantCursor::Fill.
  virtual size_t AdvanceDescendantCursor(DescendantCursor* cur,
                                         NodeHandle* out, size_t cap) const {
    size_t n = 0;
    NodeHandle c = cur->u0;
    while (n < cap && c != kInvalidHandle) {
      if (MatchesChildFilter(cur->filter, NameOf(c), cur->tag)) out[n++] = c;
      // Preorder successor within the subtree: first child, else the next
      // sibling of the nearest ancestor at or below base (exclusive).
      NodeHandle next = FirstChild(c);
      while (next == kInvalidHandle && c != cur->base &&
             c != kInvalidHandle) {
        next = NextSibling(c);
        if (next == kInvalidHandle) c = Parent(c);
      }
      c = (c == cur->base) ? kInvalidHandle : next;
    }
    cur->u0 = c;
    return n;
  }

  /// True when an OPEN descendant cursor of this store iterates a monotone
  /// [u0, u1) position space — dense preorder ids or ascending index
  /// slices — such that a COPY of the cursor with u0/u1 clamped to any
  /// sub-range [a, b) ⊆ [u0, u1) yields exactly the matches of that
  /// sub-range, in document order. Morsel-parallel scans rely on this to
  /// split one cursor into per-worker chunks whose concatenation (in chunk
  /// order) reproduces the serial emission byte for byte. The default says
  /// no: link-walk cursors carry a current-node pointer, not an interval.
  virtual bool DescendantCursorPartitionable(
      const DescendantCursor& /*cur*/) const {
    return false;
  }

  // --- Raw preorder views (compiled pipelines) --------------------------

  /// Dense preorder tag array, or nullptr. Non-null means this store's
  /// handles ARE dense preorder ids 0..RawNodeCount(): entry i equals
  /// NameOf(i) (xml::kInvalidName for text nodes), and the array stays
  /// valid for the store's lifetime. Compiled pipelines (query/exec.cc)
  /// scan it directly — a tag compare per id with zero virtual calls —
  /// instead of draining a batched cursor. Stores whose handles are not
  /// dense preorder ids keep the nullptr default and pipelines fall back
  /// to the cursor-batch source.
  virtual const xml::NameId* RawTagArray() const { return nullptr; }
  virtual size_t RawNodeCount() const { return 0; }

  // --- Optional access paths -------------------------------------------
  // Engines advertise the physical structures their architecture provides;
  // the optimizer exploits them only when the engine's feature flags allow.

  /// One-shot capability snapshot for the query planner. The default
  /// derives the index bits from the Supports* hooks below; stores with
  /// physical child-slot or interval layouts override it.
  virtual StorageCapabilities Capabilities() const {
    StorageCapabilities caps;
    caps.id_lookup = SupportsIdLookup();
    caps.tag_index = SupportsTagIndex();
    caps.path_index = SupportsPathIndex();
    return caps;
  }

  /// O(1)/O(log n) lookup of an element by its ID attribute value.
  virtual bool SupportsIdLookup() const { return false; }
  virtual NodeHandle NodeById(std::string_view /*id*/) const {
    return kInvalidHandle;
  }

  /// All elements with a given tag, in document order.
  virtual bool SupportsTagIndex() const { return false; }
  virtual const std::vector<NodeHandle>* NodesByTag(
      xml::NameId /*tag*/) const {
    return nullptr;
  }
  /// Descendant elements of `n` with tag `tag`, in document order, resolved
  /// through an index rather than a subtree walk. nullopt when the store
  /// has no structure supporting this.
  virtual std::optional<std::vector<NodeHandle>> DescendantsByTag(
      NodeHandle /*n*/, xml::NameId /*tag*/) const {
    return std::nullopt;
  }
  /// Children of `n` with tag `tag` resolved through the physical layout
  /// (fragmented tables, inlined child slots). nullopt → caller iterates
  /// the generic child chain.
  virtual std::optional<std::vector<NodeHandle>> ChildrenByTag(
      NodeHandle /*n*/, xml::NameId /*tag*/) const {
    return std::nullopt;
  }

  /// Resolves an element name against the mapping's catalog during query
  /// compilation; returns the number of catalog entries inspected. For a
  /// monolithic mapping this is one dictionary probe, for a highly
  /// fragmented mapping it scans the table catalog — the effect Table 2
  /// reports as compilation-cost differences between systems A and B.
  virtual size_t ResolveName(std::string_view name) const {
    return names().Lookup(name) != xml::kInvalidName ? 1 : 0;
  }

  /// Structural summary (DataGuide): resolve a root-to-node child path to
  /// its extent, or just its cardinality, without touching the document
  /// (System D's trick that makes Q6/Q7 "surprisingly fast").
  virtual bool SupportsPathIndex() const { return false; }
  virtual std::optional<std::vector<NodeHandle>> PathExtent(
      const std::vector<xml::NameId>& /*path*/) const {
    return std::nullopt;
  }
  /// Count of nodes reachable from the path prefix by descending through
  /// any further tags whose last step equals `tag` (supports //tag counts).
  virtual std::optional<int64_t> PathCount(
      const std::vector<xml::NameId>& /*path*/) const {
    return std::nullopt;
  }

  // --- Accounting --------------------------------------------------------

  /// Bytes of memory held by the mapping (Table 1's "database size").
  virtual size_t StorageBytes() const = 0;

  /// Number of catalog entries (tables/paths) the mapping exposes; drives
  /// the metadata-access cost during query compilation (Table 2).
  virtual size_t CatalogEntries() const = 0;

  /// Total node count of the mapping (elements + text nodes). The document
  /// catalog prefix-sums these into per-document global id ranges.
  virtual size_t NodeCount() const { return RawNodeCount(); }

  /// Deterministic full-state dump: byte-identical for any load thread
  /// count (the bulkload-determinism and catalog-ingest CI gates diff
  /// these). Every store implements it; the catalog concatenates them into
  /// per-document sections.
  virtual void DumpState(std::string* out) const = 0;

 private:
  static uint64_t NextStoreUid() {
    static std::atomic<uint64_t> counter{0};
    return ++counter;  // 0 stays reserved as "never resolved"
  }

  uint64_t uid_;
};

inline size_t ChildCursor::Fill(NodeHandle* out, size_t cap) {
  return store == nullptr ? 0 : store->AdvanceChildCursor(this, out, cap);
}

inline size_t DescendantCursor::Fill(NodeHandle* out, size_t cap) {
  return store == nullptr ? 0 : store->AdvanceDescendantCursor(this, out, cap);
}

}  // namespace xmark::query

#endif  // XMARK_QUERY_STORAGE_H_
