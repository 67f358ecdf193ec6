#include "query/value.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <span>

#include "query/exec_context.h"
#include "util/string_util.h"

namespace xmark::query {
namespace {

// Creation-order identity for constructed nodes (see ConstructedNode::
// node_id). Process-wide and relaxed: ids only need to be unique and
// monotone per creating thread, never densely numbered.
std::atomic<uint64_t> g_next_node_id{1};

}  // namespace

ConstructedNode::ConstructedNode()
    : node_id(g_next_node_id.fetch_add(1, std::memory_order_relaxed)) {}

ConstructedNode::ConstructedNode(std::pmr::memory_resource* mem)
    : attributes(mem),
      children(mem),
      node_id(g_next_node_id.fetch_add(1, std::memory_order_relaxed)) {}

// ---------------------------------------------------------------------------
// NodeArena
// ---------------------------------------------------------------------------

void* NodeArena::BlockResource::do_allocate(size_t bytes, size_t alignment) {
  size_t at = (used_ + alignment - 1) & ~(alignment - 1);
  if (at + bytes > cap_ || blocks_.empty()) {
    // Oversized requests get a dedicated block; everything else bumps
    // through fixed 64 KiB blocks (operator new char[] is aligned to
    // __STDCPP_DEFAULT_NEW_ALIGNMENT__, enough for any Item/pair).
    cap_ = std::max(kTextBlockBytes, bytes + alignment);
    ChargeThreadMemoryBudget(cap_);
    blocks_.push_back(std::make_unique_for_overwrite<char[]>(cap_));
    used_ = 0;
    at = 0;
    void* p = blocks_.back().get();
    size_t space = cap_;
    std::align(alignment, bytes, p, space);
    at = static_cast<size_t>(static_cast<char*>(p) - blocks_.back().get());
  }
  used_ = at + bytes;
  return blocks_.back().get() + at;
}

NodeArena::~NodeArena() {
  for (auto& block : node_blocks_) {
    ConstructedNode* nodes =
        reinterpret_cast<ConstructedNode*>(block->storage);
    for (size_t i = block->used; i > 0; --i) nodes[i - 1].~ConstructedNode();
  }
}

ConstructedNode* NodeArena::AllocateNode() {
  if (node_blocks_.empty() || node_blocks_.back()->used == kNodesPerBlock) {
    ChargeThreadMemoryBudget(sizeof(NodeBlock));
    node_blocks_.push_back(std::make_unique<NodeBlock>());
  }
  NodeBlock& block = *node_blocks_.back();
  ConstructedNode* node = new (block.storage +
                               block.used * sizeof(ConstructedNode))
      ConstructedNode(&pool_);
  node->owner_arena = this;
  ++block.used;
  ++nodes_allocated_;
  return node;
}

std::string_view NodeArena::InternText(std::string_view text) {
  if (text.empty()) return std::string_view("", 0);
  if (text_used_ + text.size() > text_cap_) {
    text_cap_ = std::max(kTextBlockBytes, text.size());
    ChargeThreadMemoryBudget(text_cap_);
    text_blocks_.push_back(std::make_unique_for_overwrite<char[]>(text_cap_));
    text_used_ = 0;
  }
  char* dst = text_blocks_.back().get() + text_used_;
  std::memcpy(dst, text.data(), text.size());
  text_used_ += text.size();
  text_bytes_ += text.size();
  return std::string_view(dst, text.size());
}

namespace {

// LIFO whose first N entries live inline: the shallow walks of ordinary
// results never allocate, and deep ones spill to the heap instead of
// recursing on the call stack.
template <typename T, size_t N>
class InlineStack {
 public:
  bool empty() const { return size_ == 0; }
  T& top() { return size_ <= N ? inline_[size_ - 1] : spill_.back(); }
  void push(const T& value) {
    if (size_ < N) {
      inline_[size_] = value;
    } else {
      spill_.push_back(value);
    }
    ++size_;
  }
  void pop() {
    if (size_ > N) spill_.pop_back();
    --size_;
  }

 private:
  T inline_[N];
  std::vector<T> spill_;
  size_t size_ = 0;
};

// A stored element's attributes: up to kInline land in a member buffer;
// only elements with more pay for a heap spill.
class AttributeReader {
 public:
  std::span<const AttributeRef> Read(const StorageAdapter& store,
                                     NodeHandle n) {
    const size_t count = store.AttributeRefs(n, inline_, kInline);
    if (count <= kInline) return {inline_, count};
    spill_.resize(count);
    store.AttributeRefs(n, spill_.data(), count);
    return spill_;
  }

 private:
  static constexpr size_t kInline = 16;
  AttributeRef inline_[kInline];
  std::vector<AttributeRef> spill_;
};

void AppendCloseTag(std::string_view tag, std::string& out) {
  out.append("</");
  out.append(tag);
  out.push_back('>');
}

// Writes the stored subtree of `root` by walking its preorder interval
// [root, SubtreeEnd(root)) front to back with an explicit stack of open
// tags: before node h is written, tags close until the top of the stack
// is Parent(h). A start tag stays unterminated until the next node shows
// whether the element has content (Parent(h + 1) == h) or is empty
// ("/>"), so each node costs one Parent, one NameOf and one TextView or
// AttributeRefs call, and the depth of the subtree never reaches the call
// stack.
void AppendStoredSubtree(const StorageAdapter& store, NodeHandle root,
                         std::string& out) {
  struct OpenTag {
    NodeHandle handle = kInvalidHandle;
    std::string_view tag;
  };
  const xml::NameTable& names = store.names();
  const NodeHandle end = store.SubtreeEnd(root);
  InlineStack<OpenTag, 32> open;
  AttributeReader attributes;
  bool unterminated = false;  // open.top()'s start tag still lacks its '>'
  for (NodeHandle h = root; h < end; ++h) {
    if (h != root) {
      const NodeHandle parent = store.Parent(h);
      if (unterminated) {
        unterminated = false;
        if (open.top().handle == parent) {
          out.push_back('>');
        } else {
          out.append("/>");
          open.pop();
        }
      }
      while (open.top().handle != parent) {
        AppendCloseTag(open.top().tag, out);
        open.pop();
      }
    }
    const xml::NameId tag = store.NameOf(h);
    if (tag == xml::kInvalidName) {
      AppendXmlEscaped(out, store.TextView(h));
      continue;
    }
    const std::string_view spelling = names.Spelling(tag);
    out.push_back('<');
    out.append(spelling);
    for (const AttributeRef& attr : attributes.Read(store, h)) {
      out.push_back(' ');
      out.append(names.Spelling(attr.name));
      out.append("=\"");
      AppendXmlEscaped(out, attr.value);
      out.push_back('"');
    }
    open.push({h, spelling});
    unterminated = true;
  }
  if (unterminated) {
    out.append("/>");
    open.pop();
  }
  for (; !open.empty(); open.pop()) AppendCloseTag(open.top().tag, out);
}

// An open constructed element and the index of its next child to visit.
struct ConstructedFrame {
  const ConstructedNode* node = nullptr;
  size_t next = 0;
};

// Constructed trees nest stored subtrees, constructed nodes and atomics;
// they are walked with an explicit stack too, because a deep copy
// (copy_results) of a deep stored subtree is as deep as its source.
void SerializeConstructed(const ConstructedNode& root, std::string& out) {
  InlineStack<ConstructedFrame, 16> open;
  // Writes a text node, an empty element, or an element's start tag (and
  // opens it).
  const auto start = [&open, &out](const ConstructedNode& node) {
    if (node.is_text()) {
      AppendXmlEscaped(out, node.text_view());
      return;
    }
    out.push_back('<');
    out.append(node.tag_view());
    for (const auto& [name, value] : node.attributes) {
      out.push_back(' ');
      out.append(name);
      out.append("=\"");
      AppendXmlEscaped(out, value);
      out.push_back('"');
    }
    if (node.children.empty()) {
      out.append("/>");
      return;
    }
    out.push_back('>');
    open.push({&node, 0});
  };
  start(root);
  while (!open.empty()) {
    ConstructedFrame& frame = open.top();
    if (frame.next == frame.node->children.size()) {
      AppendCloseTag(frame.node->tag_view(), out);
      open.pop();
      continue;
    }
    const Item& child = frame.node->children[frame.next++];
    if (child.is_constructed()) {
      start(*child.constructed());
    } else if (child.is_node()) {
      AppendStoredSubtree(*child.node().store, child.node().handle, out);
    } else {
      AppendXmlEscaped(out, ItemStringValue(child));
    }
  }
}

void AppendConstructedStringValue(const ConstructedNode& root,
                                  std::string& out) {
  if (root.is_text()) {
    out.append(root.text_view());
    return;
  }
  InlineStack<ConstructedFrame, 16> open;
  open.push({&root, 0});
  while (!open.empty()) {
    ConstructedFrame& frame = open.top();
    if (frame.next == frame.node->children.size()) {
      open.pop();
      continue;
    }
    const Item& child = frame.node->children[frame.next++];
    if (!child.is_constructed()) {
      out.append(ItemStringValue(child));
    } else if (child.constructed()->is_text()) {
      out.append(child.constructed()->text_view());
    } else {
      open.push({child.constructed().get(), 0});
    }
  }
}

// Moves every uniquely owned heap child of `children` into `detached`,
// leaving an empty item behind (see ~ConstructedNode). The use count is
// tested first: non-owning interior references (count 0) may point at
// arena nodes that their arena has already destroyed.
void DetachOwnedChildren(std::pmr::vector<Item>& children,
                         std::vector<ConstructedPtr>* detached) {
  for (Item& child : children) {
    if (child.is_constructed() && child.constructed().use_count() == 1 &&
        child.constructed()->owner_arena == nullptr) {
      detached->push_back(child.constructed());
      child = Item();
    }
  }
}

thread_local int64_t g_sequence_heap_spills = 0;

}  // namespace

ConstructedNode::~ConstructedNode() {
  // A deep copy of a deep stored subtree is a chain of uniquely owned heap
  // nodes; destroying each child inside its parent's destructor would
  // recurse once per level. Uniquely owned heap descendants are detached
  // into a worklist instead and released one at a time, each with no
  // owned children left. Arena nodes die with their arena, and shared
  // children stay with their other owners.
  std::vector<ConstructedPtr> detached;
  DetachOwnedChildren(children, &detached);
  while (!detached.empty()) {
    ConstructedPtr node = std::move(detached.back());
    detached.pop_back();
    // The last owner may dismantle the node it is about to release.
    DetachOwnedChildren(const_cast<ConstructedNode&>(*node).children,
                        &detached);
  }
}

int64_t SequenceHeapSpills() { return g_sequence_heap_spills; }

void Sequence::Grow(size_t cap) {
  if (cap < kInlineItems * 2) cap = kInlineItems * 2;
  ChargeThreadMemoryBudget(cap * sizeof(Item));
  Item* heap = static_cast<Item*>(::operator new(
      cap * sizeof(Item), std::align_val_t{alignof(Item)}));
  for (size_t i = 0; i < size_; ++i) {
    new (heap + i) Item(std::move(data_[i]));
    data_[i].~Item();
  }
  if (data_ != inline_ptr()) {
    ::operator delete(data_, std::align_val_t{alignof(Item)});
  } else {
    ++g_sequence_heap_spills;  // first departure from the inline buffer
  }
  data_ = heap;
  capacity_ = static_cast<uint32_t>(cap);
}

std::string ConstructedStringValue(const ConstructedNode& node) {
  std::string out;
  AppendConstructedStringValue(node, out);
  return out;
}

std::string ItemStringValue(const Item& item) {
  if (item.is_node()) {
    return item.node().store->StringValue(item.node().handle);
  }
  if (item.is_constructed()) return ConstructedStringValue(*item.constructed());
  if (item.is_boolean()) return item.boolean() ? "true" : "false";
  if (item.is_number()) return FormatDouble(item.number());
  return item.string();
}

std::string_view ItemStringView(const Item& item, std::string* scratch,
                                bool* materialized) {
  if (materialized != nullptr) *materialized = false;
  if (item.is_node()) {
    const StorageAdapter& store = *item.node().store;
    if (!store.IsElement(item.node().handle)) {
      return store.TextView(item.node().handle);
    }
    scratch->clear();
    store.AppendStringValue(item.node().handle, scratch);
    if (materialized != nullptr) *materialized = true;
    return *scratch;
  }
  if (item.is_string()) return item.string();
  if (item.is_boolean()) return item.boolean() ? "true" : "false";
  if (materialized != nullptr) *materialized = true;
  if (item.is_constructed()) {
    scratch->clear();
    AppendConstructedStringValue(*item.constructed(), *scratch);
    return *scratch;
  }
  *scratch = FormatDouble(item.number());
  return *scratch;
}

std::optional<double> ItemNumberValue(const Item& item) {
  if (item.is_number()) return item.number();
  if (item.is_boolean()) return item.boolean() ? 1.0 : 0.0;
  // View-based: text nodes and string atomics parse without allocating.
  std::string scratch;
  return ParseDouble(ItemStringView(item, &scratch));
}

bool EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  const Item& first = seq.front();
  if (first.is_node() || first.is_constructed()) return true;
  if (seq.size() > 1) return true;  // relaxed (see header)
  if (first.is_boolean()) return first.boolean();
  if (first.is_number()) {
    return first.number() != 0.0 && !std::isnan(first.number());
  }
  return !first.string().empty();
}

namespace {

// Streaming serializer core: every item kind appends straight into the
// caller-owned buffer — no per-item std::string temporary.
void AppendSerializedItem(const Item& item, std::string& out) {
  if (item.is_node()) {
    AppendStoredSubtree(*item.node().store, item.node().handle, out);
    return;
  }
  if (item.is_constructed()) {
    SerializeConstructed(*item.constructed(), out);
    return;
  }
  if (item.is_string()) {
    out.append(item.string());
    return;
  }
  if (item.is_boolean()) {
    out.append(item.boolean() ? "true" : "false");
    return;
  }
  out.append(FormatDouble(item.number()));
}

}  // namespace

std::string SerializeItem(const Item& item) {
  std::string out;
  AppendSerializedItem(item, out);
  return out;
}

ConstructedPtr DeepCopyNode(const NodeRef& ref) {
  // The same preorder-interval walk as AppendStoredSubtree: each copied
  // node is appended to the copy of its parent, found by popping the
  // stack of open elements until its top is Parent(h).
  struct OpenCopy {
    NodeHandle handle = kInvalidHandle;
    ConstructedNode* copy = nullptr;
  };
  const StorageAdapter& store = *ref.store;
  const xml::NameTable& names = store.names();
  const NodeHandle end = store.SubtreeEnd(ref.handle);
  InlineStack<OpenCopy, 32> open;
  AttributeReader attributes;
  ConstructedPtr root;
  for (NodeHandle h = ref.handle; h < end; ++h) {
    auto node = std::make_shared<ConstructedNode>();
    ConstructedNode* copy = node.get();
    const xml::NameId tag = store.NameOf(h);
    if (tag == xml::kInvalidName) {
      copy->text = store.TextView(h);
    } else {
      copy->tag = names.Spelling(tag);
      for (const AttributeRef& attr : attributes.Read(store, h)) {
        copy->attributes.emplace_back(names.Spelling(attr.name), attr.value);
      }
    }
    if (h == ref.handle) {
      root = std::move(node);
    } else {
      const NodeHandle parent = store.Parent(h);
      while (open.top().handle != parent) open.pop();
      open.top().copy->children.emplace_back(ConstructedPtr(std::move(node)));
    }
    if (tag != xml::kInvalidName) open.push({h, copy});
  }
  return root;
}

namespace {

// Total order over sequence items for SortDedupNodes: stored nodes first
// (by preorder handle), then constructed nodes (by creation-order node_id),
// then atomics (all equivalent — relative order preserved by the stable
// sort). A genuine strict weak ordering, unlike comparing only node pairs,
// which violates transitivity of incomparability on mixed sequences.
std::pair<int, uint64_t> DocOrderKey(const Item& item) {
  if (item.is_node()) return {0, item.node().handle};
  if (item.is_constructed()) return {1, item.constructed()->node_id};
  return {2, 0};
}

// Identity equality for the dedup pass: atomics are never duplicates;
// constructed nodes compare by stable node_id, not shared_ptr identity
// (aliasing arena pointers have distinct control blocks for one node).
bool SameNodeIdentity(const Item& a, const Item& b) {
  if (a.is_node() && b.is_node()) return a.node() == b.node();
  if (a.is_constructed() && b.is_constructed()) {
    return a.constructed()->node_id == b.constructed()->node_id;
  }
  return false;
}

}  // namespace

void SortDedupNodes(Sequence* seq) {
  // Fast path: cursor-backed steps already emit strictly increasing
  // document order, so one scan usually replaces the sort + unique pass.
  bool sorted_unique = true;
  for (size_t i = 1; i < seq->size(); ++i) {
    const Item& a = (*seq)[i - 1];
    const Item& b = (*seq)[i];
    if (!a.is_node() || !b.is_node() ||
        !(a.node().handle < b.node().handle)) {
      sorted_unique = false;
      break;
    }
  }
  if (sorted_unique) return;
  std::stable_sort(seq->begin(), seq->end(),
                   [](const Item& a, const Item& b) {
                     return DocOrderKey(a) < DocOrderKey(b);
                   });
  seq->erase(std::unique(seq->begin(), seq->end(), SameNodeIdentity),
             seq->end());
}

size_t EstimateSerializedSize(const Sequence& seq) {
  size_t est = seq.size();  // one separator per item
  for (size_t i = 0; i < seq.size(); ++i) {
    const Item& item = seq[i];
    if (item.is_string()) {
      // Escape expansion worst case is 6x ("&quot;"); 2x covers real text.
      est += 2 * item.string().size() + 1;
    } else if (item.is_boolean()) {
      est += 5;
    } else if (item.is_number()) {
      est += 24;
    } else if (item.is_node()) {
      const NodeRef& ref = item.node();
      if (!ref.store->IsElement(ref.handle)) {
        est += 2 * ref.store->TextView(ref.handle).size() + 1;
      } else {
        // Every store knows the subtree span: ~24 output bytes per node
        // (tags + text) is the empirically safe per-node factor.
        est += 24 * (ref.store->SubtreeEnd(ref.handle) - ref.handle);
      }
    } else {
      est += 64;  // constructed: flat guess, trees are query-built & small
    }
  }
  return est;
}

std::string SerializeSequence(const Sequence& seq) {
  std::string out;
  out.reserve(EstimateSerializedSize(seq));
  bool prev_atomic = false;
  for (size_t i = 0; i < seq.size(); ++i) {
    const bool atomic = seq[i].is_atomic();
    if (i > 0) out.push_back((atomic && prev_atomic) ? ' ' : '\n');
    AppendSerializedItem(seq[i], out);
    prev_atomic = atomic;
  }
  return out;
}

}  // namespace xmark::query
