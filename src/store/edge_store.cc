#include "store/edge_store.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "xml/dom.h"

namespace xmark::store {

StatusOr<std::unique_ptr<EdgeStore>> EdgeStore::Load(
    std::string_view xml, const LoadOptions& options) {
  const unsigned threads = options.EffectiveThreads();
  if (threads > 1) return LoadParallel(xml, threads);
  XMARK_ASSIGN_OR_RETURN(xml::Document doc, xml::Document::Parse(xml));
  std::unique_ptr<EdgeStore> store(new EdgeStore());
  // Shred the parsed tree into the edge and attribute relations. NameIds
  // are re-interned into the store's own dictionary so the store is
  // self-contained once the transient DOM is dropped.
  const size_t n = doc.num_nodes();
  store->rows_.reserve(n);
  const xml::NameId id_attr = doc.names().Lookup("id");

  std::vector<uint32_t> ord_of_node(n, 0);
  for (xml::NodeId i = 0; i < n; ++i) {
    uint32_t ord = 0;
    for (xml::NodeId c = doc.first_child(i); c != xml::kInvalidNode;
         c = doc.next_sibling(c)) {
      ord_of_node[c] = ord++;
    }
  }

  for (xml::NodeId i = 0; i < n; ++i) {
    EdgeRow row{};
    row.id = i;
    row.parent = doc.parent(i) == xml::kInvalidNode ? kNoParent : doc.parent(i);
    row.ord = ord_of_node[i];
    if (doc.IsElement(i)) {
      row.tag = store->names_.Intern(doc.names().Spelling(doc.name(i)));
      row.text_begin = 0;
      row.text_len = 0;
      for (const auto& attr : doc.attributes(i)) {
        AttrRow arow{};
        arow.owner = i;
        arow.name = store->names_.Intern(doc.names().Spelling(attr.name));
        arow.value_begin = static_cast<uint32_t>(store->heap_.size());
        arow.value_len = static_cast<uint32_t>(attr.value.size());
        store->heap_.append(attr.value);
        store->attrs_.push_back(arow);
        if (attr.name == id_attr) {
          store->id_value_index_.emplace_back(std::string(attr.value), i);
        }
      }
    } else {
      row.tag = xml::kInvalidName;
      row.text_begin = static_cast<uint32_t>(store->heap_.size());
      row.text_len = static_cast<uint32_t>(doc.text(i).size());
      store->heap_.append(doc.text(i));
    }
    store->rows_.push_back(row);
  }

  // Cluster the edge relation on (parent, ord); build the PK index.
  std::sort(store->rows_.begin(), store->rows_.end(),
            [](const EdgeRow& a, const EdgeRow& b) {
              if (a.parent != b.parent) return a.parent < b.parent;
              return a.ord < b.ord;
            });
  store->pos_of_id_.resize(n);
  for (uint32_t pos = 0; pos < store->rows_.size(); ++pos) {
    store->pos_of_id_[store->rows_[pos].id] = pos;
  }
  // Dense preorder id->tag projection for the compiled-pipeline raw scans.
  store->tag_by_id_.resize(n);
  for (const EdgeRow& row : store->rows_) {
    store->tag_by_id_[row.id] = row.tag;
  }
  store->child_begin_.assign(n, static_cast<uint32_t>(store->rows_.size()));
  for (uint32_t pos = store->rows_.size(); pos-- > 0;) {
    const uint32_t parent = store->rows_[pos].parent;
    if (parent != kNoParent) store->child_begin_[parent] = pos;
  }
  // Subtree intervals: ids are preorder, so descendants of i are exactly
  // the ids in (i, subtree_end_[i]). One ascending pass: a subtree ends at
  // the node's next sibling, or where its parent's subtree ends (parents
  // precede children in preorder, so the recurrence resolves in order).
  store->subtree_end_.resize(n);
  for (xml::NodeId i = 0; i < n; ++i) {
    const xml::NodeId sib = doc.next_sibling(i);
    store->subtree_end_[i] =
        sib != xml::kInvalidNode
            ? sib
            : (doc.parent(i) == xml::kInvalidNode
                   ? static_cast<uint32_t>(n)
                   : store->subtree_end_[doc.parent(i)]);
  }
  std::stable_sort(store->attrs_.begin(), store->attrs_.end(),
            [](const AttrRow& a, const AttrRow& b) {
              return a.owner < b.owner;
            });
  store->attr_begin_.assign(n, static_cast<uint32_t>(store->attrs_.size()));
  for (uint32_t pos = store->attrs_.size(); pos-- > 0;) {
    store->attr_begin_[store->attrs_[pos].owner] = pos;
  }
  std::sort(store->id_value_index_.begin(), store->id_value_index_.end());
  store->root_ = doc.root();
  return store;
}

StatusOr<std::unique_ptr<EdgeStore>> EdgeStore::LoadParallel(
    std::string_view xml, unsigned threads) {
  ThreadPool pool(threads);
  xml::ParseOptions popts;
  popts.pool = &pool;
  XMARK_ASSIGN_OR_RETURN(xml::Document doc, xml::Document::Parse(xml, popts));
  std::unique_ptr<EdgeStore> store(new EdgeStore());
  const size_t n = doc.num_nodes();
  // The serial path interns tag and attribute spellings per node in
  // preorder — exactly the order the document's own dictionary was built
  // in — so copying it yields the identical table without a serial pass.
  store->names_ = doc.names();
  const xml::NameId id_attr = doc.names().Lookup("id");

  // Sibling ordinals: each child is written exactly once, by its parent.
  std::vector<uint32_t> ord_of_node(n, 0);
  ParallelFor(&pool, 0, n, 1024, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) {
      uint32_t ord = 0;
      for (xml::NodeId c = doc.first_child(static_cast<xml::NodeId>(i));
           c != xml::kInvalidNode; c = doc.next_sibling(c)) {
        ord_of_node[c] = ord++;
      }
    }
  });

  // Pass A: per-chunk heap bytes / attribute rows / id entries.
  const std::vector<size_t> bounds = ChunkBounds(n, threads);
  const size_t chunks = bounds.size() - 1;
  std::vector<size_t> heap_base(chunks + 1, 0);
  std::vector<size_t> attr_base(chunks + 1, 0);
  std::vector<size_t> id_base(chunks + 1, 0);
  for (size_t k = 0; k < chunks; ++k) {
    pool.Submit([&, k] {
      size_t heap = 0, attrs = 0, ids = 0;
      for (size_t i = bounds[k]; i < bounds[k + 1]; ++i) {
        const xml::NodeId node = static_cast<xml::NodeId>(i);
        if (doc.IsElement(node)) {
          for (const auto& attr : doc.attributes(node)) {
            heap += attr.value.size();
            ++attrs;
            if (attr.name == id_attr) ++ids;
          }
        } else {
          heap += doc.text(node).size();
        }
      }
      heap_base[k + 1] = heap;
      attr_base[k + 1] = attrs;
      id_base[k + 1] = ids;
    });
  }
  pool.Wait();
  for (size_t k = 0; k < chunks; ++k) {
    heap_base[k + 1] += heap_base[k];
    attr_base[k + 1] += attr_base[k];
    id_base[k + 1] += id_base[k];
  }

  // Pass B: fill rows, attribute rows, heap bytes and id entries at the
  // prefix-summed positions — the exact offsets the serial path produces.
  store->rows_.resize(n);
  store->attrs_.resize(attr_base[chunks]);
  store->heap_.resize(heap_base[chunks]);
  store->id_value_index_.resize(id_base[chunks]);
  for (size_t k = 0; k < chunks; ++k) {
    pool.Submit([&, k] {
      size_t heap_off = heap_base[k];
      size_t attr_off = attr_base[k];
      size_t id_off = id_base[k];
      for (size_t i = bounds[k]; i < bounds[k + 1]; ++i) {
        const xml::NodeId node = static_cast<xml::NodeId>(i);
        EdgeRow row{};
        row.id = static_cast<uint32_t>(i);
        row.parent = doc.parent(node) == xml::kInvalidNode
                         ? kNoParent
                         : doc.parent(node);
        row.ord = ord_of_node[i];
        if (doc.IsElement(node)) {
          row.tag = doc.name(node);
          for (const auto& attr : doc.attributes(node)) {
            AttrRow arow{};
            arow.owner = static_cast<uint32_t>(i);
            arow.name = attr.name;
            arow.value_begin = static_cast<uint32_t>(heap_off);
            arow.value_len = static_cast<uint32_t>(attr.value.size());
            std::memcpy(store->heap_.data() + heap_off, attr.value.data(),
                        attr.value.size());
            heap_off += attr.value.size();
            store->attrs_[attr_off++] = arow;
            if (attr.name == id_attr) {
              store->id_value_index_[id_off++] = {std::string(attr.value),
                                                  static_cast<uint32_t>(i)};
            }
          }
        } else {
          row.tag = xml::kInvalidName;
          row.text_begin = static_cast<uint32_t>(heap_off);
          row.text_len = static_cast<uint32_t>(doc.text(node).size());
          std::memcpy(store->heap_.data() + heap_off, doc.text(node).data(),
                      doc.text(node).size());
          heap_off += doc.text(node).size();
        }
        store->rows_[i] = row;
      }
    });
  }
  pool.Wait();

  // Cluster on (parent, ord): keys are unique, so the stable parallel
  // sort lands on the same array as the serial std::sort.
  ParallelStableSort(&pool, store->rows_.begin(), store->rows_.end(),
                     [](const EdgeRow& a, const EdgeRow& b) {
                       if (a.parent != b.parent) return a.parent < b.parent;
                       return a.ord < b.ord;
                     });

  // Index builds: disjoint writes throughout.
  store->pos_of_id_.resize(n);
  ParallelFor(&pool, 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t pos = b; pos < e; ++pos) {
      store->pos_of_id_[store->rows_[pos].id] = static_cast<uint32_t>(pos);
    }
  });
  // Dense preorder id->tag projection for the compiled-pipeline raw scans.
  store->tag_by_id_.resize(n);
  ParallelFor(&pool, 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t pos = b; pos < e; ++pos) {
      store->tag_by_id_[store->rows_[pos].id] = store->rows_[pos].tag;
    }
  });
  store->child_begin_.assign(n, static_cast<uint32_t>(n));
  ParallelFor(&pool, 0, n, 4096, [&](size_t b, size_t e) {
    for (size_t pos = b; pos < e; ++pos) {
      const uint32_t parent = store->rows_[pos].parent;
      if (parent == kNoParent) continue;
      if (pos == 0 || store->rows_[pos - 1].parent != parent) {
        store->child_begin_[parent] = static_cast<uint32_t>(pos);
      }
    }
  });
  // Subtree intervals: the ascending recurrence resolves parents before
  // children, so this stays a (cheap) sequential pass.
  store->subtree_end_.resize(n);
  for (xml::NodeId i = 0; i < n; ++i) {
    const xml::NodeId sib = doc.next_sibling(i);
    store->subtree_end_[i] =
        sib != xml::kInvalidNode
            ? sib
            : (doc.parent(i) == xml::kInvalidNode
                   ? static_cast<uint32_t>(n)
                   : store->subtree_end_[doc.parent(i)]);
  }
  // Attribute rows were emitted in preorder, i.e. already owner-sorted
  // (the serial stable_sort is a no-op on the same sequence).
  store->attr_begin_.assign(n, static_cast<uint32_t>(store->attrs_.size()));
  const size_t num_attrs = store->attrs_.size();
  ParallelFor(&pool, 0, num_attrs, 4096, [&](size_t b, size_t e) {
    for (size_t pos = b; pos < e; ++pos) {
      const uint32_t owner = store->attrs_[pos].owner;
      if (pos == 0 || store->attrs_[pos - 1].owner != owner) {
        store->attr_begin_[owner] = static_cast<uint32_t>(pos);
      }
    }
  });
  // (value, id) pairs are unique, so stable == serial std::sort.
  ParallelStableSort(&pool, store->id_value_index_.begin(),
                     store->id_value_index_.end(),
                     [](const auto& a, const auto& b) { return a < b; });
  store->root_ = doc.root();
  return store;
}

void EdgeStore::DumpState(std::string* out) const {
  out->append("edge-store v1\n");
  out->append("names ");
  out->append(std::to_string(names_.size()));
  out->push_back('\n');
  for (xml::NameId i = 0; i < names_.size(); ++i) {
    out->append(names_.Spelling(i));
    out->push_back('\n');
  }
  out->append(StringPrintf("root %llu\n",
                           static_cast<unsigned long long>(root_)));
  out->append("rows\n");
  for (const EdgeRow& r : rows_) {
    out->append(StringPrintf("%u %u %u %u %u %u\n", r.id, r.parent, r.ord,
                             r.tag, r.text_begin, r.text_len));
  }
  out->append("pos_of_id\n");
  for (uint32_t v : pos_of_id_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nchild_begin\n");
  for (uint32_t v : child_begin_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nsubtree_end\n");
  for (uint32_t v : subtree_end_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nattrs\n");
  for (const AttrRow& a : attrs_) {
    out->append(StringPrintf("%u %u %u %u\n", a.owner, a.name, a.value_begin,
                             a.value_len));
  }
  out->append("attr_begin\n");
  for (uint32_t v : attr_begin_) out->append(std::to_string(v)), out->push_back(' ');
  out->append("\nheap ");
  out->append(std::to_string(heap_.size()));
  out->push_back('\n');
  out->append(heap_);
  out->append("\nid_index\n");
  for (const auto& [value, node] : id_value_index_) {
    out->append(value);
    out->push_back(' ');
    out->append(std::to_string(node));
    out->push_back('\n');
  }
}

bool EdgeStore::IsElement(query::NodeHandle n) const {
  return RowOf(n).tag != xml::kInvalidName;
}

xml::NameId EdgeStore::NameOf(query::NodeHandle n) const {
  return RowOf(n).tag;
}

query::NodeHandle EdgeStore::Parent(query::NodeHandle n) const {
  const uint32_t p = RowOf(n).parent;
  return p == kNoParent ? query::kInvalidHandle : p;
}

query::NodeHandle EdgeStore::FirstChild(query::NodeHandle n) const {
  // Probe the clustered relation for (parent == n, ord == 0).
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), n, [](const EdgeRow& row, uint64_t parent) {
        return row.parent < parent;
      });
  if (it == rows_.end() || it->parent != n) return query::kInvalidHandle;
  return it->id;
}

query::NodeHandle EdgeStore::NextSibling(query::NodeHandle n) const {
  const uint32_t pos = pos_of_id_[n];
  if (pos + 1 >= rows_.size()) return query::kInvalidHandle;
  const EdgeRow& next = rows_[pos + 1];
  if (next.parent != rows_[pos].parent) return query::kInvalidHandle;
  return next.id;
}

std::string_view EdgeStore::TextView(query::NodeHandle n) const {
  const EdgeRow& row = RowOf(n);
  return HeapString(row.text_begin, row.text_len);
}

void EdgeStore::AppendStringValue(query::NodeHandle n, std::string* out) const {
  const EdgeRow& row = RowOf(n);
  if (row.tag == xml::kInvalidName) {
    out->append(HeapString(row.text_begin, row.text_len));
    return;
  }
  // Scan the clustered child range directly: O(1) positioning instead of a
  // FirstChild probe plus a PK-index hop per sibling.
  const auto begin = rows_.begin() + child_begin_[n];
  for (auto it = begin; it != rows_.end() && it->parent == n; ++it) {
    if (it->tag == xml::kInvalidName) {
      out->append(HeapString(it->text_begin, it->text_len));
    } else {
      AppendStringValue(it->id, out);
    }
  }
}

std::optional<std::string_view> EdgeStore::AttributeView(
    query::NodeHandle n, std::string_view name) const {
  const xml::NameId id = names_.Lookup(name);
  if (id == xml::kInvalidName) return std::nullopt;
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i) {
    if (attrs_[i].name == id) {
      return HeapString(attrs_[i].value_begin, attrs_[i].value_len);
    }
  }
  return std::nullopt;
}

void EdgeStore::OpenChildCursor(query::NodeHandle parent,
                                query::ChildFilter filter, xml::NameId tag,
                                query::ChildCursor* cur) const {
  cur->u0 = cur->Init(this, parent, filter, tag) ? child_begin_[parent]
                                                 : rows_.size();
}

void EdgeStore::OpenDescendantCursor(query::NodeHandle base,
                                     query::ChildFilter filter,
                                     xml::NameId tag,
                                     query::DescendantCursor* cur) const {
  if (cur->Init(this, base, filter, tag)) {
    cur->u0 = base + 1;
    cur->u1 = subtree_end_[base];
  }  // else u0 == u1 == 0: exhausted
}

size_t EdgeStore::AdvanceChildCursor(query::ChildCursor* cur,
                                     query::NodeHandle* out,
                                     size_t cap) const {
  const uint32_t parent = static_cast<uint32_t>(cur->parent);
  size_t pos = static_cast<size_t>(cur->u0);
  size_t n = 0;
  while (n < cap && pos < rows_.size() && rows_[pos].parent == parent) {
    const EdgeRow& row = rows_[pos++];
    if (query::MatchesChildFilter(cur->filter, row.tag, cur->tag)) {
      out[n++] = row.id;
    }
  }
  cur->u0 = pos;
  return n;
}

size_t EdgeStore::AdvanceDescendantCursor(query::DescendantCursor* cur,
                                          query::NodeHandle* out,
                                          size_t cap) const {
  size_t id = static_cast<size_t>(cur->u0);
  const size_t end = static_cast<size_t>(cur->u1);
  size_t n = 0;
  while (n < cap && id < end) {
    if (query::MatchesChildFilter(cur->filter, RowOf(id).tag, cur->tag)) {
      out[n++] = id;
    }
    ++id;
  }
  cur->u0 = id;
  return n;
}

size_t EdgeStore::AttributeRefs(query::NodeHandle n, query::AttributeRef* out,
                                size_t cap) const {
  size_t count = 0;
  for (size_t i = attr_begin_[n]; i < attrs_.size() && attrs_[i].owner == n;
       ++i, ++count) {
    if (count < cap) {
      out[count] = {attrs_[i].name,
                    HeapString(attrs_[i].value_begin, attrs_[i].value_len)};
    }
  }
  return count;
}

query::NodeHandle EdgeStore::NodeById(std::string_view id) const {
  const auto it = std::lower_bound(
      id_value_index_.begin(), id_value_index_.end(), id,
      [](const std::pair<std::string, uint32_t>& entry, std::string_view key) {
        return std::string_view(entry.first) < key;
      });
  if (it == id_value_index_.end() || it->first != id) {
    return query::kInvalidHandle;
  }
  return it->second;
}

size_t EdgeStore::StorageBytes() const {
  size_t bytes = rows_.capacity() * sizeof(EdgeRow) +
                 pos_of_id_.capacity() * sizeof(uint32_t) +
                 child_begin_.capacity() * sizeof(uint32_t) +
                 subtree_end_.capacity() * sizeof(uint32_t) +
                 tag_by_id_.capacity() * sizeof(xml::NameId) +
                 attrs_.capacity() * sizeof(AttrRow) +
                 attr_begin_.capacity() * sizeof(uint32_t) + heap_.capacity();
  for (const auto& [value, node] : id_value_index_) {
    bytes += value.size() + sizeof(node) + 16;
  }
  return bytes;
}

}  // namespace xmark::store
