// Property test: the evaluator must produce identical results under every
// combination of optimizer features — the features may only change cost,
// never semantics. Runs a representative query set over all 2^6
// combinations of the independent option bits against the fully-indexed
// native store, plus cross-store Q1-Q20 byte-parity between the
// all-features plan, the nested-loop plan (hash and band joins off, System
// F's strategy) and the generic operators (compiled pipelines off).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "store/document_catalog.h"
#include "util/logging.h"
#include "xmark/engine.h"
#include "xmark/queries.h"
#include "xmark/result_check.h"
#include "xml/dtd.h"

namespace xmark::query {
namespace {

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

const store::DomStore& Store() {
  static const store::DomStore* const kStore = [] {
    store::DomStore::Options dom_options;
    auto store = store::DomStore::Load(TestDocument(), dom_options);
    XMARK_CHECK(store.ok());
    return store->release();
  }();
  return *kStore;
}

EvaluatorOptions FromMask(int mask) {
  EvaluatorOptions options;
  options.use_id_index = mask & 1;
  options.use_path_index = mask & 2;
  options.hash_join = mask & 4;
  options.lazy_let = mask & 8;
  options.cache_invariant_paths = mask & 16;
  options.compiled_pipelines = mask & 32;
  // The band join rides the join-strategy bit: mask 0 stays the fully
  // naive nested-loop baseline.
  options.band_join = options.hash_join;
  return options;
}

// Queries covering every feature: exact match (id index), regular paths
// (path index), reference chasing (hash join), value join (band join,
// lazy let + invariant cache), ordered access and aggregation, plus
// template-heavy result construction (Q10/Q13).
const int kQueries[] = {1, 2, 6, 7, 8, 10, 11, 12, 13, 20};

class OptionsMatrix : public ::testing::TestWithParam<int> {};

TEST_P(OptionsMatrix, SameResultsAsAllFeaturesOff) {
  const EvaluatorOptions options = FromMask(GetParam());
  for (int q : kQueries) {
    auto parsed = ParseQueryText(bench::GetQuery(q).text);
    ASSERT_TRUE(parsed.ok()) << "Q" << q;

    Evaluator baseline(&Store(), FromMask(0));
    auto expected = baseline.Run(*parsed);
    ASSERT_TRUE(expected.ok()) << "Q" << q << ": " << expected.status();

    Evaluator subject(&Store(), options);
    auto actual = subject.Run(*parsed);
    ASSERT_TRUE(actual.ok()) << "Q" << q << ": " << actual.status();

    bench::EquivalenceOptions eq;
    EXPECT_TRUE(bench::ResultsEquivalent(*expected, *actual, eq))
        << "Q" << q << " differs under option mask " << GetParam() << ": "
        << bench::ExplainDifference(*expected, *actual, eq);
  }
}

// Catalog scans under the full matrix: a corpus ingested with 4 threads
// and queried through doc("id") / collection() must serialize identically
// under every optimizer feature mask, with the collection fan-out running
// across the exec pool — the catalog layer may only route and
// concatenate, never change semantics.
bench::Engine* MatrixCatalogEngine() {
  static bench::Engine* const kEngine = [] {
    std::unique_ptr<bench::Engine> engine =
        bench::Engine::Create(bench::SystemId::kD);
    store::LoadOptions load;
    load.threads = 4;
    engine->set_load_options(load);
    std::vector<store::CorpusDocument> docs;
    for (int i = 0; i < 3; ++i) {
      gen::GeneratorOptions g;
      g.scale = 0.002;
      g.seed = 50 + i;
      store::CorpusDocument doc;
      doc.id = "m-" + std::to_string(i) + ".xml";
      doc.xml = gen::XmlGen(g).GenerateToString();
      docs.push_back(std::move(doc));
    }
    XMARK_CHECK(engine->LoadCorpus(docs).ok());
    return engine.release();
  }();
  return kEngine;
}

std::string RunCatalogSerialized(const EvaluatorOptions& options,
                                 const std::string& text) {
  bench::Engine* engine = MatrixCatalogEngine();
  engine->set_evaluator_options(options);
  auto result = engine->Run(text);
  if (!result.ok()) {
    ADD_FAILURE() << text << ": " << result.status().message();
    return "<error>";
  }
  return SerializeSequence(*result);
}

TEST_P(OptionsMatrix, CatalogScansMatchAllFeaturesOff) {
  constexpr std::string_view kNeedle = "document(\"auction.xml\")";
  for (int q : {1, 8, 10, 20}) {
    for (const char* entry : {"doc(\"m-1.xml\")", "collection()"}) {
      std::string text{bench::GetQuery(q).text};
      for (size_t hit = text.find(kNeedle); hit != std::string::npos;
           hit = text.find(kNeedle, hit)) {
        text.replace(hit, kNeedle.size(), entry);
      }
      // Baseline (mask 0, serial) is mask-independent: compute it once.
      static std::map<std::string, std::string>* const kBaselines =
          new std::map<std::string, std::string>();
      auto baseline = kBaselines->find(text);
      if (baseline == kBaselines->end()) {
        baseline = kBaselines
                       ->emplace(text,
                                 RunCatalogSerialized(FromMask(0), text))
                       .first;
      }
      const std::string& expected = baseline->second;
      EvaluatorOptions subject = FromMask(GetParam());
      subject.parallel_exec.enabled = true;
      subject.parallel_exec.threads = 4;
      subject.parallel_exec.min_morsel_ids = 1;
      EXPECT_EQ(RunCatalogSerialized(subject, text), expected)
          << "Q" << q << " via " << entry << " differs under option mask "
          << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, OptionsMatrix,
                         ::testing::Range(0, 64));

// Cross-store plan parity: Q1-Q20 on all four physical mappings, every
// optimization on, against the nested-loop plan, the generic operators and
// the native store — byte-identical serialized results.
class PlannerStoreParity : public ::testing::TestWithParam<int> {
 protected:
  static const StorageAdapter* StoreByIndex(int index) {
    static const store::EdgeStore* const kEdge = [] {
      auto s = store::EdgeStore::Load(TestDocument());
      XMARK_CHECK(s.ok());
      return s->release();
    }();
    static const store::FragmentedStore* const kFragmented = [] {
      auto s = store::FragmentedStore::Load(TestDocument());
      XMARK_CHECK(s.ok());
      return s->release();
    }();
    static const store::InlinedStore* const kInlined = [] {
      auto s = store::InlinedStore::Load(TestDocument(), xml::kAuctionDtd);
      XMARK_CHECK(s.ok());
      return s->release();
    }();
    switch (index) {
      case 0:
        return kEdge;
      case 1:
        return kFragmented;
      case 2:
        return kInlined;
      default:
        return &Store();
    }
  }
};

TEST_P(PlannerStoreParity, Q1ToQ20ByteIdenticalAcrossPlansAndStores) {
  const int query = GetParam();
  auto parsed = ParseQueryText(bench::GetQuery(query).text);
  ASSERT_TRUE(parsed.ok());
  const EvaluatorOptions on;  // defaults: everything on
  std::string reference;
  for (int s = 3; s >= 0; --s) {  // the native store first: the reference
    const StorageAdapter* store = StoreByIndex(s);
    Evaluator planned(store, on);
    auto a = planned.Run(*parsed);
    ASSERT_TRUE(a.ok()) << store->mapping_name() << " Q" << query << ": "
                        << a.status();
    const std::string bytes = SerializeSequence(*a);
    if (s == 3) reference = bytes;
    EXPECT_EQ(bytes, reference)
        << store->mapping_name() << " Q" << query
        << " diverges from the native store";

    // The join strategies are pure execution choices: the nested-loop
    // plan must not change a byte.
    EvaluatorOptions nested_loop = on;
    nested_loop.hash_join = false;
    nested_loop.band_join = false;
    Evaluator naive(store, nested_loop);
    auto b = naive.Run(*parsed);
    ASSERT_TRUE(b.ok()) << store->mapping_name() << " Q" << query << ": "
                        << b.status();
    EXPECT_EQ(bytes, SerializeSequence(*b))
        << store->mapping_name() << " Q" << query
        << " diverges between the join plans and the nested loop";

    // Compiled pipelines are a pure execution strategy: the fused
    // monomorphic loops must not change a byte relative to the generic
    // operators on any store.
    EvaluatorOptions no_pipe = on;
    no_pipe.compiled_pipelines = false;
    Evaluator generic_ops(store, no_pipe);
    auto d = generic_ops.Run(*parsed);
    ASSERT_TRUE(d.ok()) << store->mapping_name() << " Q" << query << ": "
                        << d.status();
    EXPECT_EQ(bytes, SerializeSequence(*d))
        << store->mapping_name() << " Q" << query
        << " diverges between compiled pipelines and generic operators";
  }
}

// Morsel-parallel execution is pure scheduling: chunked descendant scans
// merge in deterministic chunk order and the band-domain sort is a
// deterministic parallel stable sort, so results must be byte-identical
// for any worker count. min_morsel_ids=1 forces the morsel path even at
// this tiny scale.
TEST_P(PlannerStoreParity, ParallelExecByteIdentical) {
  const int query = GetParam();
  auto parsed = ParseQueryText(bench::GetQuery(query).text);
  ASSERT_TRUE(parsed.ok());
  for (int s = 0; s < 4; ++s) {
    const StorageAdapter* store = StoreByIndex(s);
    EvaluatorOptions serial;  // defaults: everything on, parallel off
    Evaluator base(store, serial);
    auto a = base.Run(*parsed);
    ASSERT_TRUE(a.ok()) << store->mapping_name() << " Q" << query << ": "
                        << a.status();
    for (unsigned threads : {1u, 4u}) {
      EvaluatorOptions par = serial;
      par.parallel_exec.enabled = true;
      par.parallel_exec.threads = threads;
      par.parallel_exec.min_morsel_ids = 1;
      Evaluator subject(store, par);
      auto b = subject.Run(*parsed);
      ASSERT_TRUE(b.ok()) << store->mapping_name() << " Q" << query << ": "
                          << b.status();
      EXPECT_EQ(SerializeSequence(*a), SerializeSequence(*b))
          << store->mapping_name() << " Q" << query << " diverges with "
          << threads << " exec threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllQueries, PlannerStoreParity,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace xmark::query
