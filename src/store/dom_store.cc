#include "store/dom_store.h"

#include <algorithm>
#include <map>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace xmark::store {

StatusOr<std::unique_ptr<DomStore>> DomStore::Load(
    std::string_view xml, const Options& options,
    const LoadOptions& load_options) {
  const unsigned threads = load_options.EffectiveThreads();
  if (threads > 1) {
    ThreadPool pool(threads);
    xml::ParseOptions popts;
    popts.pool = &pool;
    XMARK_ASSIGN_OR_RETURN(xml::Document doc,
                           xml::Document::Parse(xml, popts));
    std::unique_ptr<DomStore> out(new DomStore(std::move(doc), options));
    out->BuildIndexesParallel(&pool, threads);
    return out;
  }
  XMARK_ASSIGN_OR_RETURN(xml::Document doc, xml::Document::Parse(xml));
  std::unique_ptr<DomStore> out(new DomStore(std::move(doc), options));
  out->BuildIndexes();
  return out;
}

void DomStore::BuildIndexes() {
  const xml::NameId id_attr = doc_.names().Lookup("id");
  if (options_.build_path_summary) {
    summary_.clear();
    summary_.push_back(SummaryNode{});  // virtual document node
  }
  // Single DFS builds every index; summary positions are tracked with an
  // explicit stack of summary indices parallel to the element stack.
  std::vector<size_t> summary_stack{0};
  std::vector<xml::NodeId> node_stack;

  for (xml::NodeId n = 0; n < doc_.num_nodes(); ++n) {
    // Maintain the stacks: pop ancestors that do not contain n.
    while (!node_stack.empty() &&
           !(n >= node_stack.back() && n < doc_.SubtreeEnd(node_stack.back()))) {
      node_stack.pop_back();
      if (options_.build_path_summary) summary_stack.pop_back();
    }
    if (!doc_.IsElement(n)) continue;

    const xml::NameId tag = doc_.name(n);
    if (options_.build_tag_index) {
      tag_index_[tag].push_back(n);
    }
    if (options_.build_id_index && id_attr != xml::kInvalidName) {
      const auto id = doc_.attribute(n, id_attr);
      if (id.has_value()) id_index_.emplace(std::string(*id), n);
    }
    if (options_.build_path_summary) {
      SummaryNode& parent = summary_[summary_stack.back()];
      auto it = parent.children.find(tag);
      size_t idx;
      if (it == parent.children.end()) {
        idx = summary_.size();
        summary_[summary_stack.back()].children.emplace(tag, idx);
        summary_.push_back(SummaryNode{});
        summary_.back().tag = tag;
      } else {
        idx = it->second;
      }
      summary_[idx].extent.push_back(n);
      summary_stack.push_back(idx);
    }
    node_stack.push_back(n);
  }
}

void DomStore::BuildSummary() {
  // Same traversal as BuildIndexes, restricted to the structural summary
  // (its id assignment and extent order are inherently sequential — and
  // cheap next to the parse).
  summary_.clear();
  summary_.push_back(SummaryNode{});
  std::vector<size_t> summary_stack{0};
  std::vector<xml::NodeId> node_stack;
  for (xml::NodeId n = 0; n < doc_.num_nodes(); ++n) {
    while (!node_stack.empty() &&
           !(n >= node_stack.back() && n < doc_.SubtreeEnd(node_stack.back()))) {
      node_stack.pop_back();
      summary_stack.pop_back();
    }
    if (!doc_.IsElement(n)) continue;
    const xml::NameId tag = doc_.name(n);
    SummaryNode& parent = summary_[summary_stack.back()];
    auto it = parent.children.find(tag);
    size_t idx;
    if (it == parent.children.end()) {
      idx = summary_.size();
      summary_[summary_stack.back()].children.emplace(tag, idx);
      summary_.push_back(SummaryNode{});
      summary_.back().tag = tag;
    } else {
      idx = it->second;
    }
    summary_[idx].extent.push_back(n);
    summary_stack.push_back(idx);
    node_stack.push_back(n);
  }
}

void DomStore::BuildIndexesParallel(ThreadPool* pool, unsigned threads) {
  const size_t n = doc_.num_nodes();
  const size_t num_names = doc_.names().size();
  const xml::NameId id_attr = doc_.names().Lookup("id");

  // Chunked collection for the tag and id indexes; the summary runs as
  // one concurrent task. All merges happen in chunk (= document) order.
  const std::vector<size_t> bounds = ChunkBounds(n, threads);
  const size_t chunks = bounds.size() - 1;

  std::vector<std::vector<std::vector<query::NodeHandle>>> tag_parts;
  std::vector<std::vector<std::pair<std::string, query::NodeHandle>>>
      id_parts(chunks);
  if (options_.build_path_summary) {
    pool->Submit([this] { BuildSummary(); });
  }
  if (options_.build_tag_index || options_.build_id_index) {
    if (options_.build_tag_index) {
      tag_parts.assign(chunks,
                       std::vector<std::vector<query::NodeHandle>>(num_names));
    }
    for (size_t k = 0; k < chunks; ++k) {
      pool->Submit([&, k] {
        for (size_t i = bounds[k]; i < bounds[k + 1]; ++i) {
          const xml::NodeId node = static_cast<xml::NodeId>(i);
          if (!doc_.IsElement(node)) continue;
          if (options_.build_tag_index) {
            tag_parts[k][doc_.name(node)].push_back(
                static_cast<query::NodeHandle>(i));
          }
          if (options_.build_id_index && id_attr != xml::kInvalidName) {
            const auto id = doc_.attribute(node, id_attr);
            if (id.has_value()) {
              id_parts[k].emplace_back(std::string(*id),
                                       static_cast<query::NodeHandle>(i));
            }
          }
        }
      });
    }
  }
  pool->Wait();
  if (options_.build_tag_index) {
    for (size_t t = 0; t < num_names; ++t) {
      size_t total = 0;
      for (size_t k = 0; k < chunks; ++k) total += tag_parts[k][t].size();
      if (total == 0) continue;
      std::vector<query::NodeHandle>& out =
          tag_index_[static_cast<xml::NameId>(t)];
      out.reserve(total);
      for (size_t k = 0; k < chunks; ++k) {
        out.insert(out.end(), tag_parts[k][t].begin(), tag_parts[k][t].end());
      }
    }
  }
  if (options_.build_id_index) {
    for (size_t k = 0; k < chunks; ++k) {
      for (auto& [id, node] : id_parts[k]) {
        id_index_.emplace(std::move(id), node);
      }
    }
  }
}

void DomStore::DumpState(std::string* out) const {
  out->append("dom-store v1\n");
  const xml::NameTable& names = doc_.names();
  out->append("names ");
  out->append(std::to_string(names.size()));
  out->push_back('\n');
  for (xml::NameId i = 0; i < names.size(); ++i) {
    out->append(names.Spelling(i));
    out->push_back('\n');
  }
  out->append("nodes ");
  out->append(std::to_string(doc_.num_nodes()));
  out->push_back('\n');
  for (xml::NodeId i = 0; i < doc_.num_nodes(); ++i) {
    out->append(StringPrintf("%u %u %u %u", doc_.IsElement(i) ? 1u : 0u,
                             doc_.name(i), doc_.parent(i),
                             doc_.first_child(i)));
    out->append(StringPrintf(" %u|", doc_.next_sibling(i)));
    out->append(doc_.text(i));
    for (const auto& attr : doc_.attributes(i)) {
      out->append(StringPrintf("|%u=", attr.name));
      out->append(attr.value);
    }
    out->push_back('\n');
  }
  out->append("tag_index\n");
  for (xml::NameId t = 0; t < names.size(); ++t) {
    const auto it = tag_index_.find(t);
    if (it == tag_index_.end()) continue;
    out->append(std::to_string(t));
    for (query::NodeHandle h : it->second) {
      out->push_back(' ');
      out->append(std::to_string(h));
    }
    out->push_back('\n');
  }
  out->append("id_index\n");
  {
    std::map<std::string, query::NodeHandle, std::less<>> sorted(
        id_index_.begin(), id_index_.end());
    for (const auto& [id, node] : sorted) {
      out->append(id);
      out->push_back(' ');
      out->append(std::to_string(node));
      out->push_back('\n');
    }
  }
  out->append("summary ");
  out->append(std::to_string(summary_.size()));
  out->push_back('\n');
  for (const SummaryNode& s : summary_) {
    out->append(StringPrintf("tag %u children", s.tag));
    std::map<xml::NameId, size_t> children(s.children.begin(),
                                           s.children.end());
    for (const auto& [tag, idx] : children) {
      out->append(StringPrintf(" %u:%zu", tag, idx));
    }
    out->append(" extent");
    for (query::NodeHandle h : s.extent) {
      out->push_back(' ');
      out->append(std::to_string(h));
    }
    out->push_back('\n');
  }
}

void DomStore::OpenChildCursor(query::NodeHandle parent,
                               query::ChildFilter filter, xml::NameId tag,
                               query::ChildCursor* cur) const {
  cur->u0 =
      cur->Init(this, parent, filter, tag)
          ? AsHandle(doc_.first_child(static_cast<xml::NodeId>(parent)))
          : query::kInvalidHandle;
}

size_t DomStore::AdvanceChildCursor(query::ChildCursor* cur,
                                    query::NodeHandle* out,
                                    size_t cap) const {
  size_t n = 0;
  query::NodeHandle c = cur->u0;
  while (n < cap && c != query::kInvalidHandle) {
    const xml::NodeId id = static_cast<xml::NodeId>(c);
    if (query::MatchesChildFilter(cur->filter, doc_.name(id), cur->tag)) {
      out[n++] = c;
    }
    c = AsHandle(doc_.next_sibling(id));
  }
  cur->u0 = c;
  return n;
}

size_t DomStore::AttributeRefs(query::NodeHandle n, query::AttributeRef* out,
                               size_t cap) const {
  const auto attrs = doc_.attributes(static_cast<xml::NodeId>(n));
  for (size_t i = 0; i < attrs.size() && i < cap; ++i) {
    out[i] = {attrs[i].name, attrs[i].value};
  }
  return attrs.size();
}

query::NodeHandle DomStore::NodeById(std::string_view id) const {
  const auto it = id_index_.find(id);
  return it == id_index_.end() ? query::kInvalidHandle : it->second;
}

void DomStore::OpenDescendantCursor(query::NodeHandle base,
                                    query::ChildFilter filter, xml::NameId tag,
                                    query::DescendantCursor* cur) const {
  if (!cur->Init(this, base, filter, tag)) return;  // u0 == u1: exhausted
  const xml::NodeId end = doc_.SubtreeEnd(static_cast<xml::NodeId>(base));
  if (filter == query::ChildFilter::kTag && options_.build_tag_index) {
    // Tag-index slice: the extent entries inside the subtree interval. The
    // resolved extent vector rides along in u2 (stable for the store's
    // lifetime) so Advance never repeats the hash probe; u2 == 1 marks an
    // absent tag, whose empty u0 == u1 slice never dereferences it.
    cur->u2 = 1;
    const auto it = tag_index_.find(tag);
    if (it == tag_index_.end()) return;  // tag absent: empty slice
    const auto& handles = it->second;
    cur->u2 = reinterpret_cast<uint64_t>(&handles);
    cur->u0 = static_cast<uint64_t>(
        std::lower_bound(handles.begin(), handles.end(), base + 1) -
        handles.begin());
    cur->u1 = static_cast<uint64_t>(
        std::lower_bound(handles.begin(), handles.end(),
                         static_cast<query::NodeHandle>(end)) -
        handles.begin());
    return;
  }
  // Dense preorder scan over the node table.
  cur->u0 = base + 1;
  cur->u1 = end;
}

size_t DomStore::AdvanceDescendantCursor(query::DescendantCursor* cur,
                                         query::NodeHandle* out,
                                         size_t cap) const {
  size_t n = 0;
  if (cur->u2 != 0) {  // tag-index slice
    size_t pos = static_cast<size_t>(cur->u0);
    const size_t end = static_cast<size_t>(cur->u1);
    if (pos >= end) return 0;  // also guards the u2 == 1 absent-tag marker
    const auto& handles =
        *reinterpret_cast<const std::vector<query::NodeHandle>*>(cur->u2);
    while (n < cap && pos < end) out[n++] = handles[pos++];
    cur->u0 = pos;
    return n;
  }
  xml::NodeId id = static_cast<xml::NodeId>(cur->u0);
  const xml::NodeId end = static_cast<xml::NodeId>(cur->u1);
  while (n < cap && id < end) {
    if (query::MatchesChildFilter(cur->filter, doc_.name(id), cur->tag)) {
      out[n++] = id;
    }
    ++id;
  }
  cur->u0 = id;
  return n;
}

const std::vector<query::NodeHandle>* DomStore::NodesByTag(
    xml::NameId tag) const {
  if (!options_.build_tag_index) return nullptr;
  const auto it = tag_index_.find(tag);
  return it == tag_index_.end() ? nullptr : &it->second;
}

std::optional<std::vector<query::NodeHandle>> DomStore::DescendantsByTag(
    query::NodeHandle n, xml::NameId tag) const {
  if (!options_.build_tag_index) return std::nullopt;
  const auto it = tag_index_.find(tag);
  if (it == tag_index_.end()) return std::vector<query::NodeHandle>{};
  // Preorder ids: the subtree of n is the contiguous handle interval
  // [n+1, SubtreeEnd(n)), so a tag-index slice is exactly the answer.
  const auto& handles = it->second;
  const query::NodeHandle lo = n + 1;
  const query::NodeHandle hi =
      doc_.SubtreeEnd(static_cast<xml::NodeId>(n));
  auto begin = std::lower_bound(handles.begin(), handles.end(), lo);
  auto end = std::lower_bound(handles.begin(), handles.end(),
                              static_cast<query::NodeHandle>(hi));
  return std::vector<query::NodeHandle>(begin, end);
}

std::optional<std::vector<query::NodeHandle>> DomStore::PathExtent(
    const std::vector<xml::NameId>& path) const {
  if (!options_.build_path_summary || path.empty()) return std::nullopt;
  size_t idx = 0;  // virtual document node
  for (const xml::NameId tag : path) {
    const auto it = summary_[idx].children.find(tag);
    if (it == summary_[idx].children.end()) {
      return std::vector<query::NodeHandle>{};
    }
    idx = it->second;
  }
  return summary_[idx].extent;
}

std::optional<int64_t> DomStore::PathCount(
    const std::vector<xml::NameId>& path) const {
  const auto extent = PathExtent(path);
  if (!extent.has_value()) return std::nullopt;
  return static_cast<int64_t>(extent->size());
}

size_t DomStore::StorageBytes() const {
  size_t bytes = doc_.MemoryBytes();
  for (const auto& [tag, nodes] : tag_index_) {
    bytes += nodes.capacity() * sizeof(query::NodeHandle) + sizeof(tag);
  }
  for (const auto& [id, node] : id_index_) {
    bytes += id.size() + sizeof(node) + 32;  // hash-bucket overhead estimate
  }
  for (const SummaryNode& s : summary_) {
    bytes += sizeof(SummaryNode) +
             s.extent.capacity() * sizeof(query::NodeHandle) +
             s.children.size() * 16;
  }
  return bytes;
}

size_t DomStore::CatalogEntries() const {
  // The native store's "catalog" is its structural summary (or, without
  // one, the tag dictionary).
  if (options_.build_path_summary) return summary_.size();
  return doc_.names().size();
}

}  // namespace xmark::store
