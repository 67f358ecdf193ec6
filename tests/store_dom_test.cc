#include "store/dom_store.h"

#include <gtest/gtest.h>

namespace xmark::store {
namespace {

constexpr std::string_view kDoc = R"(<site>
  <people>
    <person id="p0"><name>A</name></person>
    <person id="p1"><name>B</name></person>
  </people>
  <regions>
    <europe><item id="i0"><name>x</name></item></europe>
    <asia><item id="i1"><name>y</name></item>
          <item id="i2"><name>z</name></item></asia>
  </regions>
</site>)";

std::unique_ptr<DomStore> Load(bool indexes) {
  DomStore::Options options;
  options.build_tag_index = indexes;
  options.build_id_index = indexes;
  options.build_path_summary = indexes;
  auto store = DomStore::Load(kDoc, options);
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(store).value();
}

xml::NameId Tag(const DomStore& store, std::string_view name) {
  return store.names().Lookup(name);
}

TEST(DomStoreTest, Navigation) {
  auto store = Load(true);
  const auto root = store->Root();
  EXPECT_TRUE(store->IsElement(root));
  EXPECT_EQ(store->names().Spelling(store->NameOf(root)), "site");
  const auto people = store->FirstChild(root);
  EXPECT_EQ(store->names().Spelling(store->NameOf(people)), "people");
  const auto regions = store->NextSibling(people);
  EXPECT_EQ(store->names().Spelling(store->NameOf(regions)), "regions");
  EXPECT_EQ(store->NextSibling(regions), query::kInvalidHandle);
  EXPECT_EQ(store->Parent(people), root);
}

TEST(DomStoreTest, IdIndex) {
  auto store = Load(true);
  EXPECT_TRUE(store->SupportsIdLookup());
  const auto p1 = store->NodeById("p1");
  ASSERT_NE(p1, query::kInvalidHandle);
  EXPECT_EQ(store->StringValue(p1), "B");
  EXPECT_EQ(store->NodeById("missing"), query::kInvalidHandle);
}

TEST(DomStoreTest, TagIndexDocumentOrder) {
  auto store = Load(true);
  const auto* items = store->NodesByTag(Tag(*store, "item"));
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 3u);
  EXPECT_TRUE((*items)[0] < (*items)[1] && (*items)[1] < (*items)[2]);
}

TEST(DomStoreTest, DescendantsByTagRespectsSubtree) {
  auto store = Load(true);
  // Items under regions/asia only.
  const auto regions = store->NextSibling(store->FirstChild(store->Root()));
  const auto europe = store->FirstChild(regions);
  const auto asia = store->NextSibling(europe);
  auto under_asia = store->DescendantsByTag(asia, Tag(*store, "item"));
  ASSERT_TRUE(under_asia.has_value());
  EXPECT_EQ(under_asia->size(), 2u);
  auto under_europe = store->DescendantsByTag(europe, Tag(*store, "item"));
  ASSERT_TRUE(under_europe.has_value());
  EXPECT_EQ(under_europe->size(), 1u);
}

TEST(DomStoreTest, PathExtent) {
  auto store = Load(true);
  EXPECT_TRUE(store->SupportsPathIndex());
  std::vector<xml::NameId> path{Tag(*store, "site"), Tag(*store, "people"),
                                Tag(*store, "person")};
  auto extent = store->PathExtent(path);
  ASSERT_TRUE(extent.has_value());
  EXPECT_EQ(extent->size(), 2u);
  // Unknown path -> empty extent.
  std::vector<xml::NameId> bad{Tag(*store, "site"), Tag(*store, "regions"),
                               Tag(*store, "person")};
  auto none = store->PathExtent(bad);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
}

TEST(DomStoreTest, PathCount) {
  auto store = Load(true);
  std::vector<xml::NameId> path{Tag(*store, "site"), Tag(*store, "regions"),
                                Tag(*store, "asia"), Tag(*store, "item")};
  EXPECT_EQ(store->PathCount(path).value(), 2);
}

TEST(DomStoreTest, IndexesOffDowngradeGracefully) {
  auto store = Load(false);
  EXPECT_FALSE(store->SupportsIdLookup());
  EXPECT_FALSE(store->SupportsTagIndex());
  EXPECT_FALSE(store->SupportsPathIndex());
  EXPECT_EQ(store->NodesByTag(Tag(*store, "item")), nullptr);
  EXPECT_FALSE(store->DescendantsByTag(store->Root(), Tag(*store, "item"))
                   .has_value());
  EXPECT_FALSE(
      store->PathExtent({Tag(*store, "site")}).has_value());
}

TEST(DomStoreTest, StorageAccounting) {
  auto indexed = Load(true);
  auto bare = Load(false);
  EXPECT_GT(indexed->StorageBytes(), bare->StorageBytes());
  EXPECT_GT(indexed->CatalogEntries(), 0u);
  EXPECT_GT(indexed->SummaryPaths(), 5u);
}

TEST(DomStoreTest, BeforeIsDocumentOrder) {
  auto store = Load(true);
  const auto p0 = store->NodeById("p0");
  const auto i0 = store->NodeById("i0");
  EXPECT_TRUE(store->Before(p0, i0));
  EXPECT_FALSE(store->Before(i0, p0));
}

TEST(DomStoreTest, Attributes) {
  auto store = Load(true);
  const auto p0 = store->NodeById("p0");
  EXPECT_EQ(store->Attribute(p0, "id").value(), "p0");
  EXPECT_FALSE(store->Attribute(p0, "none").has_value());
  query::AttributeRef attrs[2];
  ASSERT_EQ(store->AttributeRefs(p0, attrs, 2), 1u);
  EXPECT_EQ(store->names().Spelling(attrs[0].name), "id");
  EXPECT_EQ(attrs[0].value, "p0");
}

TEST(DomStoreTest, ResolveNameDefault) {
  auto store = Load(true);
  EXPECT_EQ(store->ResolveName("person"), 1u);
  EXPECT_EQ(store->ResolveName("nonexistent"), 0u);
}

}  // namespace
}  // namespace xmark::store
