// Property tests: every physical mapping must implement the storage
// interface with identical observable semantics. The DomStore is the
// reference; the edge, fragmented and inlined stores are checked against
// it node by node on a generated benchmark document.

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/logging.h"

namespace xmark::store {
namespace {

const std::string& TestDoc() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

const DomStore& Reference() {
  static const DomStore* const kRef = [] {
    DomStore::Options options;
    auto store = DomStore::Load(TestDoc(), options);
    XMARK_CHECK(store.ok());
    return store->release();
  }();
  return *kRef;
}

enum class Kind { kEdge, kFragmented, kInlined };

const query::StorageAdapter& Subject(Kind kind) {
  static std::map<Kind, const query::StorageAdapter*>* const kStores = [] {
    auto* stores = new std::map<Kind, const query::StorageAdapter*>();
    auto edge = EdgeStore::Load(TestDoc());
    XMARK_CHECK(edge.ok());
    (*stores)[Kind::kEdge] = edge->release();
    auto frag = FragmentedStore::Load(TestDoc());
    XMARK_CHECK(frag.ok());
    (*stores)[Kind::kFragmented] = frag->release();
    auto inlined = InlinedStore::Load(TestDoc());
    XMARK_CHECK(inlined.ok());
    (*stores)[Kind::kInlined] = inlined->release();
    return stores;
  }();
  return *kStores->at(kind);
}

class StoreEquivalence : public ::testing::TestWithParam<Kind> {};

std::string TagOf(const query::StorageAdapter& store, query::NodeHandle n) {
  const xml::NameId id = store.NameOf(n);
  return id == xml::kInvalidName ? "#text"
                                 : std::string(store.names().Spelling(id));
}

// `n`'s attributes as (name spelling, value) pairs, read through the
// allocation-free AttributeRefs: a zero-capacity call for the count, then
// one into a buffer of that size. NameIds are per store, so the spellings
// are what compare across stores.
std::vector<std::pair<std::string, std::string>> AttributesOf(
    const query::StorageAdapter& store, query::NodeHandle n) {
  std::vector<query::AttributeRef> refs(store.AttributeRefs(n, nullptr, 0));
  EXPECT_EQ(store.AttributeRefs(n, refs.data(), refs.size()), refs.size());
  std::vector<std::pair<std::string, std::string>> out;
  for (const query::AttributeRef& ref : refs) {
    out.emplace_back(store.names().Spelling(ref.name), ref.value);
  }
  return out;
}

TEST_P(StoreEquivalence, FullNavigationSweep) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  ASSERT_EQ(sub.Root(), ref.Root());
  const size_t n = ref.document().num_nodes();
  for (query::NodeHandle h = 0; h < n; ++h) {
    ASSERT_EQ(sub.IsElement(h), ref.IsElement(h)) << h;
    ASSERT_EQ(TagOf(sub, h), TagOf(ref, h)) << h;
    ASSERT_EQ(sub.Parent(h), ref.Parent(h)) << h;
    ASSERT_EQ(sub.FirstChild(h), ref.FirstChild(h)) << h;
    ASSERT_EQ(sub.NextSibling(h), ref.NextSibling(h)) << h;
    ASSERT_EQ(sub.SubtreeEnd(h), ref.SubtreeEnd(h)) << h;
  }
}

TEST_P(StoreEquivalence, TextAndStringValuesSampled) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  const size_t n = ref.document().num_nodes();
  for (query::NodeHandle h = 0; h < n; h += 7) {  // sample every 7th node
    if (!ref.IsElement(h)) {
      ASSERT_EQ(sub.Text(h), ref.Text(h)) << h;
    }
    ASSERT_EQ(sub.StringValue(h), ref.StringValue(h)) << h;
  }
}

TEST_P(StoreEquivalence, AttributesMatch) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  const size_t n = ref.document().num_nodes();
  for (query::NodeHandle h = 0; h < n; ++h) {
    if (!ref.IsElement(h)) continue;
    ASSERT_EQ(AttributesOf(sub, h), AttributesOf(ref, h)) << h;
    const auto id = ref.Attribute(h, "id");
    ASSERT_EQ(sub.Attribute(h, "id"), id) << h;
  }
}

TEST_P(StoreEquivalence, IdLookup) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  ASSERT_TRUE(sub.SupportsIdLookup());
  for (const char* id : {"person0", "person3", "item0", "open_auction1",
                         "category0"}) {
    ASSERT_EQ(sub.NodeById(id), ref.NodeById(id)) << id;
  }
  ASSERT_EQ(sub.NodeById("no-such-id"), query::kInvalidHandle);
}

TEST_P(StoreEquivalence, ChildrenByTagAgreesWithScan) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  const size_t n = ref.document().num_nodes();
  const xml::NameTable& names = sub.names();
  for (query::NodeHandle h = 0; h < n; h += 5) {
    if (!ref.IsElement(h)) continue;
    // Scan reference children per tag.
    std::map<std::string, std::vector<query::NodeHandle>> expected;
    for (auto c = ref.FirstChild(h); c != query::kInvalidHandle;
         c = ref.NextSibling(c)) {
      if (ref.IsElement(c)) expected[TagOf(ref, c)].push_back(c);
    }
    for (const auto& [tag, children] : expected) {
      const xml::NameId tag_id = names.Lookup(tag);
      ASSERT_NE(tag_id, xml::kInvalidName);
      const auto direct = sub.ChildrenByTag(h, tag_id);
      if (direct.has_value()) {
        ASSERT_EQ(*direct, children) << "node " << h << " tag " << tag;
      }
    }
  }
}

TEST_P(StoreEquivalence, StorageAccountingPositive) {
  const query::StorageAdapter& sub = Subject(GetParam());
  EXPECT_GT(sub.StorageBytes(), 0u);
  EXPECT_GT(sub.CatalogEntries(), 0u);
  EXPECT_FALSE(sub.mapping_name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllMappings, StoreEquivalence,
                         ::testing::Values(Kind::kEdge, Kind::kFragmented,
                                           Kind::kInlined),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kEdge:
                               return "EdgeTable";
                             case Kind::kFragmented:
                               return "FragmentedPaths";
                             case Kind::kInlined:
                               return "DtdInlined";
                           }
                           return "Unknown";
                         });

TEST(FragmentedStoreTest, DescendantsByTagMatchesReference) {
  const DomStore& ref = Reference();
  auto frag = FragmentedStore::Load(TestDoc());
  ASSERT_TRUE(frag.ok());
  // NameIds are store-local: resolve against each store's own table.
  const xml::NameId frag_item = (*frag)->names().Lookup("item");
  const xml::NameId ref_item = ref.names().Lookup("item");
  ASSERT_NE(frag_item, xml::kInvalidName);
  const auto from_frag = (*frag)->DescendantsByTag((*frag)->Root(), frag_item);
  const auto from_ref = ref.DescendantsByTag(ref.Root(), ref_item);
  ASSERT_TRUE(from_frag.has_value());
  ASSERT_TRUE(from_ref.has_value());
  EXPECT_EQ(*from_frag, *from_ref);
}

TEST(FragmentedStoreTest, PathExtentMatchesSummary) {
  const DomStore& ref = Reference();
  auto frag = FragmentedStore::Load(TestDoc());
  ASSERT_TRUE(frag.ok());
  std::vector<xml::NameId> path;
  for (const char* seg : {"site", "people", "person"}) {
    path.push_back((*frag)->names().Lookup(seg));
  }
  std::vector<xml::NameId> ref_path;
  for (const char* seg : {"site", "people", "person"}) {
    ref_path.push_back(ref.names().Lookup(seg));
  }
  EXPECT_EQ((*frag)->PathExtent(path).value(),
            ref.PathExtent(ref_path).value());
}

TEST(FragmentedStoreTest, CatalogScalesWithPaths) {
  auto frag = FragmentedStore::Load(TestDoc());
  ASSERT_TRUE(frag.ok());
  EXPECT_GT((*frag)->num_paths(), 50u);
  EXPECT_EQ((*frag)->CatalogEntries(), (*frag)->num_paths());
  // Resolution inspects the whole catalog.
  EXPECT_GE((*frag)->ResolveName("person"), (*frag)->num_paths());
}

TEST(InlinedStoreTest, SlotsExist) {
  auto inlined = InlinedStore::Load(TestDoc());
  ASSERT_TRUE(inlined.ok());
  // The DTD declares many at-most-once children (person/name, item/location,
  // open_auction/initial, ...).
  EXPECT_GT((*inlined)->InlinedSlots(), 10u);
}

TEST(InlinedStoreTest, MultiOccurrenceChildrenNotInlined) {
  auto inlined = InlinedStore::Load(TestDoc());
  ASSERT_TRUE(inlined.ok());
  const xml::NameId bidder = (*inlined)->names().Lookup("bidder");
  const xml::NameId open_auction = (*inlined)->names().Lookup("open_auction");
  ASSERT_NE(open_auction, xml::kInvalidName);
  if (bidder != xml::kInvalidName) {
    // bidder* is repeatable, so ChildrenByTag must decline (nullopt).
    const DomStore& ref = Reference();
    const auto* auctions = ref.NodesByTag(open_auction);
    ASSERT_NE(auctions, nullptr);
    ASSERT_FALSE(auctions->empty());
    EXPECT_FALSE(
        (*inlined)->ChildrenByTag(auctions->front(), bidder).has_value());
  }
}

TEST(EdgeStoreTest, TinyCatalog) {
  auto edge = EdgeStore::Load(TestDoc());
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ((*edge)->CatalogEntries(), 2u);
  EXPECT_EQ((*edge)->num_rows(), Reference().document().num_nodes());
}

TEST(EdgeStoreTest, RejectsMalformedInput) {
  EXPECT_FALSE(EdgeStore::Load("<a><b></a>").ok());
  EXPECT_FALSE(FragmentedStore::Load("<a><b></a>").ok());
  EXPECT_FALSE(InlinedStore::Load("<a><b></a>").ok());
}

}  // namespace
}  // namespace xmark::store
