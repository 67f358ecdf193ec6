#ifndef XMARK_XML_DOM_H_
#define XMARK_XML_DOM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/arena.h"
#include "util/status.h"
#include "xml/names.h"
#include "xml/sax_parser.h"

namespace xmark {
class ThreadPool;
}

namespace xmark::xml {

/// Dense node identifier. Nodes are stored in document (preorder) order, so
/// comparing two NodeIds compares document order — this is what makes the
/// BEFORE predicate of query Q4 cheap on the native stores.
using NodeId = uint32_t;

inline constexpr NodeId kInvalidNode = 0xffffffffu;

enum class NodeKind : uint8_t { kElement, kText };

/// One attribute instance attached to an element.
struct DomAttribute {
  NameId name;
  std::string_view value;
};

/// Options for Document::Parse. When `pool` has more than one worker the
/// document is parsed by the chunked parallel pipeline: a sequential
/// structural pre-scan splits the text at safe element boundaries, the
/// chunks are SAX-parsed concurrently into node/attribute batches, and the
/// batches are stitched back in document order. The result is identical to
/// the serial parse — same preorder NodeIds, same NameId assignment (name
/// batches merge in chunk order, reproducing global first-occurrence
/// order), same text and attribute bytes — for any worker count.
struct ParseOptions {
  bool keep_whitespace = false;
  ThreadPool* pool = nullptr;  // nullptr (or 1 worker): serial parse
};

/// Read-only in-memory XML document: a flat, arena-backed node table with
/// first-child/next-sibling links, preorder ids, and interned names. This is
/// the common substrate under the native engines (systems D-G); the
/// relational engines shred it into tables instead.
class Document {
 public:
  Document();

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Parses `input` into a document. Whitespace-only text nodes are dropped
  /// unless `keep_whitespace` is true.
  static StatusOr<Document> Parse(std::string_view input,
                                  bool keep_whitespace = false);
  /// Parallel-capable overload; see ParseOptions.
  static StatusOr<Document> Parse(std::string_view input,
                                  const ParseOptions& options);
  static StatusOr<Document> ParseFile(const std::string& path,
                                      bool keep_whitespace = false);

  /// The document element; kInvalidNode for an empty document.
  NodeId root() const { return nodes_.empty() ? kInvalidNode : 0; }

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_attributes() const { return attrs_.size(); }

  NodeKind kind(NodeId n) const { return nodes_[n].kind; }
  bool IsElement(NodeId n) const { return nodes_[n].kind == NodeKind::kElement; }

  /// Tag id of an element; kInvalidName for text nodes.
  NameId name(NodeId n) const { return nodes_[n].name; }
  const std::string& tag(NodeId n) const { return names_.Spelling(nodes_[n].name); }

  NodeId parent(NodeId n) const { return nodes_[n].parent; }
  NodeId first_child(NodeId n) const { return nodes_[n].first_child; }
  NodeId next_sibling(NodeId n) const { return nodes_[n].next_sibling; }

  /// Text content of a text node (empty view for elements).
  std::string_view text(NodeId n) const { return nodes_[n].text; }

  /// Attributes of element `n`, in document order, as a view into the
  /// attribute table (valid for the document's lifetime).
  std::span<const DomAttribute> attributes(NodeId n) const {
    return std::span<const DomAttribute>(attrs_).subspan(
        nodes_[n].attr_begin, nodes_[n].attr_count);
  }
  size_t attribute_count(NodeId n) const { return nodes_[n].attr_count; }

  /// Value of attribute `attr` on `n`, or nullopt when absent.
  std::optional<std::string_view> attribute(NodeId n, NameId attr) const;
  std::optional<std::string_view> attribute(NodeId n,
                                            std::string_view attr) const;

  /// XPath string-value: the concatenation of all descendant text.
  std::string StringValue(NodeId n) const;

  /// One-past-the-last preorder id in the subtree rooted at `n`. Subtree
  /// membership is the half-open id range [n, SubtreeEnd(n)).
  NodeId SubtreeEnd(NodeId n) const;

  /// Depth of `n` (root is 0).
  int Depth(NodeId n) const;

  const NameTable& names() const { return names_; }
  NameTable& mutable_names() { return names_; }

  /// Approximate bytes held by this document (node table + attribute table
  /// + string arena); reported as "database size" for the native engines.
  size_t MemoryBytes() const;

 private:
  friend class DomBuilder;
  friend class ParallelDomParser;

  struct NodeRecord {
    NodeKind kind;
    NameId name;          // element tag; kInvalidName for text
    NodeId parent;
    NodeId first_child;
    NodeId next_sibling;
    uint32_t attr_begin;  // index into attrs_
    uint32_t attr_count;
    std::string_view text;  // backed by arena_
  };

  std::vector<NodeRecord> nodes_;
  std::vector<DomAttribute> attrs_;
  NameTable names_;
  std::unique_ptr<Arena> arena_;
  // Per-chunk arenas adopted from the parallel parse; text views in nodes_
  // point into them (block storage is stable once adopted).
  std::vector<std::unique_ptr<Arena>> chunk_arenas_;
};

/// SAX handler that assembles a Document.
class DomBuilder : public SaxHandler {
 public:
  explicit DomBuilder(Document* doc, bool keep_whitespace = false)
      : doc_(doc), keep_whitespace_(keep_whitespace) {}

  Status OnStartElement(std::string_view name,
                        const std::vector<SaxAttribute>& attributes) override;
  Status OnEndElement(std::string_view name) override;
  Status OnCharacters(std::string_view text) override;

 private:
  NodeId Append(Document::NodeRecord record);

  Document* doc_;
  bool keep_whitespace_;
  std::vector<NodeId> stack_;
  std::vector<NodeId> last_child_;  // parallel to stack_
};

}  // namespace xmark::xml

#endif  // XMARK_XML_DOM_H_
