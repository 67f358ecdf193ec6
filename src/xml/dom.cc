#include "xml/dom.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace xmark::xml {

Document::Document() : arena_(std::make_unique<Arena>(1 << 20)) {}

StatusOr<Document> Document::Parse(std::string_view input,
                                   bool keep_whitespace) {
  Document doc;
  DomBuilder builder(&doc, keep_whitespace);
  SaxParser parser;
  XMARK_RETURN_IF_ERROR(parser.Parse(input, &builder));
  if (doc.nodes_.empty()) {
    return Status::ParseError("document has no element");
  }
  return doc;
}

StatusOr<Document> Document::ParseFile(const std::string& path,
                                       bool keep_whitespace) {
  Document doc;
  DomBuilder builder(&doc, keep_whitespace);
  SaxParser parser;
  XMARK_RETURN_IF_ERROR(parser.ParseFile(path, &builder));
  if (doc.nodes_.empty()) {
    return Status::ParseError("document has no element");
  }
  return doc;
}

std::optional<std::string_view> Document::attribute(NodeId n,
                                                    NameId attr) const {
  const NodeRecord& rec = nodes_[n];
  for (uint32_t i = 0; i < rec.attr_count; ++i) {
    if (attrs_[rec.attr_begin + i].name == attr) {
      return attrs_[rec.attr_begin + i].value;
    }
  }
  return std::nullopt;
}

std::optional<std::string_view> Document::attribute(
    NodeId n, std::string_view attr) const {
  const NameId id = names_.Lookup(attr);
  if (id == kInvalidName) return std::nullopt;
  return attribute(n, id);
}

std::string Document::StringValue(NodeId n) const {
  if (nodes_[n].kind == NodeKind::kText) return std::string(nodes_[n].text);
  std::string out;
  const NodeId end = SubtreeEnd(n);
  for (NodeId i = n; i < end; ++i) {
    if (nodes_[i].kind == NodeKind::kText) out.append(nodes_[i].text);
  }
  return out;
}

NodeId Document::SubtreeEnd(NodeId n) const {
  // Follow next-sibling links up the ancestor chain; the subtree of n ends
  // where the next node in document order outside the subtree begins.
  NodeId cur = n;
  while (cur != kInvalidNode) {
    const NodeId sib = nodes_[cur].next_sibling;
    if (sib != kInvalidNode) return sib;
    cur = nodes_[cur].parent;
  }
  return static_cast<NodeId>(nodes_.size());
}

int Document::Depth(NodeId n) const {
  int depth = 0;
  NodeId cur = nodes_[n].parent;
  while (cur != kInvalidNode) {
    ++depth;
    cur = nodes_[cur].parent;
  }
  return depth;
}

size_t Document::MemoryBytes() const {
  size_t bytes = nodes_.capacity() * sizeof(NodeRecord) +
                 attrs_.capacity() * sizeof(DomAttribute) +
                 arena_->bytes_reserved();
  for (const auto& arena : chunk_arenas_) bytes += arena->bytes_reserved();
  return bytes;
}

NodeId DomBuilder::Append(Document::NodeRecord record) {
  const NodeId id = static_cast<NodeId>(doc_->nodes_.size());
  if (!stack_.empty()) {
    record.parent = stack_.back();
    const NodeId prev = last_child_.back();
    if (prev == kInvalidNode) {
      doc_->nodes_[stack_.back()].first_child = id;
    } else {
      doc_->nodes_[prev].next_sibling = id;
    }
    last_child_.back() = id;
  } else {
    record.parent = kInvalidNode;
    if (!doc_->nodes_.empty()) {
      // A second top-level node would violate well-formedness; the SAX
      // parser already rejects this, so this is a builder invariant.
      XMARK_CHECK(doc_->nodes_.empty());
    }
  }
  doc_->nodes_.push_back(record);
  return id;
}

Status DomBuilder::OnStartElement(std::string_view name,
                                  const std::vector<SaxAttribute>& attributes) {
  Document::NodeRecord rec{};
  rec.kind = NodeKind::kElement;
  rec.name = doc_->names_.Intern(name);
  rec.parent = kInvalidNode;
  rec.first_child = kInvalidNode;
  rec.next_sibling = kInvalidNode;
  rec.attr_begin = static_cast<uint32_t>(doc_->attrs_.size());
  rec.attr_count = static_cast<uint32_t>(attributes.size());
  for (const SaxAttribute& a : attributes) {
    doc_->attrs_.push_back(DomAttribute{doc_->names_.Intern(a.name),
                                        doc_->arena_->CopyString(a.value)});
  }
  const NodeId id = Append(rec);
  stack_.push_back(id);
  last_child_.push_back(kInvalidNode);
  return Status::OK();
}

Status DomBuilder::OnEndElement(std::string_view /*name*/) {
  if (stack_.empty()) return Status::ParseError("unbalanced end element");
  stack_.pop_back();
  last_child_.pop_back();
  return Status::OK();
}

Status DomBuilder::OnCharacters(std::string_view text) {
  if (stack_.empty()) return Status::OK();
  if (!keep_whitespace_ && TrimWhitespace(text).empty()) return Status::OK();
  // Merge adjacent text (e.g., around entity references) into one node.
  const NodeId prev = last_child_.back();
  if (prev != kInvalidNode && doc_->nodes_[prev].kind == NodeKind::kText &&
      prev == static_cast<NodeId>(doc_->nodes_.size() - 1)) {
    std::string merged(doc_->nodes_[prev].text);
    merged.append(text);
    doc_->nodes_[prev].text = doc_->arena_->CopyString(merged);
    return Status::OK();
  }
  Document::NodeRecord rec{};
  rec.kind = NodeKind::kText;
  rec.name = kInvalidName;
  rec.parent = kInvalidNode;
  rec.first_child = kInvalidNode;
  rec.next_sibling = kInvalidNode;
  rec.attr_begin = 0;
  rec.attr_count = 0;
  rec.text = doc_->arena_->CopyString(text);
  Append(rec);
  return Status::OK();
}

}  // namespace xmark::xml
