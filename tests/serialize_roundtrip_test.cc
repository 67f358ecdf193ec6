// Round trips through the stored-subtree writer: documents that are
// already in the serializer's canonical form (no whitespace-only text,
// empty elements as "<e/>", double-quoted attributes, '&' '<' '>' '"'
// escaped) are loaded into each physical mapping (A edge, B fragmented,
// C inlined, D native DOM) and serialized back, byte for byte. The deep
// cases pin the iterative writer and the iterative deep copy: a recursive
// walk overflows the stack long before 200 000 levels.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "query/storage.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "xmark/engine.h"

namespace xmark::store {
namespace {

enum class Kind { kEdge, kFragmented, kInlined, kDom };

constexpr Kind kKinds[] = {Kind::kEdge, Kind::kFragmented, Kind::kInlined,
                           Kind::kDom};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kEdge:
      return "A (edge)";
    case Kind::kFragmented:
      return "B (fragmented)";
    case Kind::kInlined:
      return "C (inlined)";
    case Kind::kDom:
      return "D (native DOM)";
  }
  return "?";
}

std::unique_ptr<query::StorageAdapter> LoadStore(Kind kind,
                                                 std::string_view xml) {
  LoadOptions options;
  options.threads = 1;
  switch (kind) {
    case Kind::kEdge: {
      auto store = EdgeStore::Load(xml, options);
      return store.ok() ? std::move(*store) : nullptr;
    }
    case Kind::kFragmented: {
      auto store = FragmentedStore::Load(xml, options);
      return store.ok() ? std::move(*store) : nullptr;
    }
    case Kind::kInlined: {
      auto store = InlinedStore::Load(xml, xml::kAuctionDtd, options);
      return store.ok() ? std::move(*store) : nullptr;
    }
    case Kind::kDom: {
      auto store = DomStore::Load(xml, DomStore::Options{}, options);
      return store.ok() ? std::move(*store) : nullptr;
    }
  }
  return nullptr;
}

std::string Serialize(const query::StorageAdapter& store,
                      query::NodeHandle n) {
  return query::SerializeItem(query::Item(query::NodeRef{&store, n}));
}

// The first element named `tag` in document order.
query::NodeHandle FindElement(const query::StorageAdapter& store,
                              std::string_view tag) {
  const xml::NameId want = store.names().Lookup(tag);
  const query::NodeHandle end = store.SubtreeEnd(store.Root());
  for (query::NodeHandle h = store.Root(); h < end; ++h) {
    if (store.NameOf(h) == want) return h;
  }
  return query::kInvalidHandle;
}

// `depth` nested <a> elements around an empty element and a text node.
std::string Chain(size_t depth) {
  std::string xml;
  xml.reserve(depth * 7 + 8);
  for (size_t i = 0; i < depth; ++i) xml.append("<a>");
  xml.append("<b/>x");
  for (size_t i = 0; i < depth; ++i) xml.append("</a>");
  return xml;
}

// Deep chains: 200 000 levels on A and C; 5 000 on B and D, whose loads
// are still superlinear in depth.
size_t ChainDepth(Kind kind) {
  return kind == Kind::kEdge || kind == Kind::kInlined ? 200000 : 5000;
}

TEST(SerializeRoundTrip, DeepChainOnEveryStore) {
  for (const Kind kind : kKinds) {
    const std::string xml = Chain(ChainDepth(kind));
    auto store = LoadStore(kind, xml);
    ASSERT_NE(store, nullptr) << KindName(kind);
    EXPECT_TRUE(Serialize(*store, store->Root()) == xml) << KindName(kind);
  }
}

TEST(SerializeRoundTrip, DeepCopyOfDeepChain) {
  for (const Kind kind : kKinds) {
    const std::string xml = Chain(ChainDepth(kind));
    auto store = LoadStore(kind, xml);
    ASSERT_NE(store, nullptr) << KindName(kind);
    // The copy is as deep as its source; serializing and destroying it
    // must not recurse per level either.
    query::ConstructedPtr copy =
        query::DeepCopyNode(query::NodeRef{store.get(), store->Root()});
    EXPECT_TRUE(query::SerializeItem(query::Item(copy)) == xml)
        << KindName(kind);
    EXPECT_EQ(query::ConstructedStringValue(*copy), "x") << KindName(kind);
  }
}

// System G copies every stored result node (copy_results) before it is
// serialized. Its store is the native DOM without indexes, which loads
// the 200 000-deep chain in linear time.
TEST(SerializeRoundTrip, SystemGCopiesDeepDocument) {
  const std::string xml = Chain(200000);
  auto engine = bench::Engine::Create(bench::SystemId::kG);
  ASSERT_TRUE(engine->Load(xml).ok());
  auto result = engine->Run("/a");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  ASSERT_TRUE(result->front().is_constructed());
  EXPECT_TRUE(query::SerializeSequence(*result) == xml);
}

// Awkward shapes in one document: an element with more attributes than
// the writer's inline buffer (16), all four escapes at the first and last
// byte of text and attribute values, bytes with the high bit set (UTF-8),
// empty elements, and a last child (z) whose subtree ends where its
// parent's does.
constexpr std::string_view kAwkward =
    "<r>"
    "<e a0=\"0\" a1=\"1\" a2=\"2\" a3=\"3\" a4=\"4\" a5=\"5\" a6=\"6\" "
    "a7=\"7\" a8=\"8\" a9=\"9\" a10=\"10\" a11=\"11\" a12=\"12\" a13=\"13\" "
    "a14=\"14\" a15=\"15\" a16=\"16\" a17=\"17\" a18=\"18\" a19=\"19\">"
    "<f k=\"&amp;&lt;&gt;&quot;\"/></e>"
    "<t q=\"&quot;caf\xC3\xA9 \xE2\x82\xAC&amp;\">&lt;1 &amp;&amp; 2&gt;"
    "\xC3\xA9\xF0\x9F\x8E\x89&quot;</t>"
    "<x><y>1</y></x>"
    "<z><w><v>2</v><u/></w></z>"
    "</r>";

TEST(SerializeRoundTrip, AwkwardDocumentOnEveryStore) {
  for (const Kind kind : kKinds) {
    auto store = LoadStore(kind, kAwkward);
    ASSERT_NE(store, nullptr) << KindName(kind);
    EXPECT_EQ(Serialize(*store, store->Root()), kAwkward) << KindName(kind);
  }
}

TEST(SerializeRoundTrip, ManyAttributesKeepDocumentOrder) {
  for (const Kind kind : kKinds) {
    auto store = LoadStore(kind, kAwkward);
    ASSERT_NE(store, nullptr) << KindName(kind);
    const query::NodeHandle e = FindElement(*store, "e");
    query::AttributeRef refs[4];
    ASSERT_EQ(store->AttributeRefs(e, refs, 4), 20u) << KindName(kind);
    EXPECT_EQ(store->names().Spelling(refs[3].name), "a3") << KindName(kind);
    EXPECT_EQ(refs[3].value, "3") << KindName(kind);
    EXPECT_EQ(store->AttributeRefs(store->Root(), refs, 4), 0u)
        << KindName(kind);
  }
}

TEST(SerializeRoundTrip, MidTreeSubtrees) {
  for (const Kind kind : kKinds) {
    auto store = LoadStore(kind, kAwkward);
    ASSERT_NE(store, nullptr) << KindName(kind);
    const query::StorageAdapter& s = *store;
    EXPECT_EQ(Serialize(s, FindElement(s, "x")), "<x><y>1</y></x>")
        << KindName(kind);
    // z is r's last child and w is z's: both subtrees end at r's end.
    EXPECT_EQ(s.SubtreeEnd(FindElement(s, "z")), s.SubtreeEnd(s.Root()))
        << KindName(kind);
    EXPECT_EQ(Serialize(s, FindElement(s, "z")),
              "<z><w><v>2</v><u/></w></z>")
        << KindName(kind);
    EXPECT_EQ(Serialize(s, FindElement(s, "w")), "<w><v>2</v><u/></w>")
        << KindName(kind);
    EXPECT_EQ(Serialize(s, FindElement(s, "u")), "<u/>") << KindName(kind);
    EXPECT_EQ(Serialize(s, FindElement(s, "f")),
              "<f k=\"&amp;&lt;&gt;&quot;\"/>")
        << KindName(kind);
  }
}

TEST(SerializeRoundTrip, BareTextNodeItem) {
  for (const Kind kind : kKinds) {
    auto store = LoadStore(kind, kAwkward);
    ASSERT_NE(store, nullptr) << KindName(kind);
    const query::NodeHandle text = FindElement(*store, "t") + 1;
    ASSERT_FALSE(store->IsElement(text)) << KindName(kind);
    EXPECT_EQ(store->SubtreeEnd(text), text + 1) << KindName(kind);
    EXPECT_EQ(Serialize(*store, text),
              "&lt;1 &amp;&amp; 2&gt;\xC3\xA9\xF0\x9F\x8E\x89&quot;")
        << KindName(kind);
  }
}

// Every node of the awkward document serializes to the same bytes on all
// four stores, and its deep copy serializes like the node itself.
TEST(SerializeRoundTrip, EveryNodeAgreesAcrossStores) {
  auto reference = LoadStore(Kind::kDom, kAwkward);
  ASSERT_NE(reference, nullptr);
  const query::NodeHandle end = reference->SubtreeEnd(reference->Root());
  for (const Kind kind : kKinds) {
    auto store = LoadStore(kind, kAwkward);
    ASSERT_NE(store, nullptr) << KindName(kind);
    ASSERT_EQ(store->SubtreeEnd(store->Root()), end) << KindName(kind);
    for (query::NodeHandle h = 0; h < end; ++h) {
      const std::string want = Serialize(*reference, h);
      EXPECT_EQ(Serialize(*store, h), want) << KindName(kind) << " node " << h;
      const query::ConstructedPtr copy =
          query::DeepCopyNode(query::NodeRef{store.get(), h});
      EXPECT_EQ(query::SerializeItem(query::Item(copy)), want)
          << KindName(kind) << " copy of node " << h;
    }
  }
}

}  // namespace
}  // namespace xmark::store
