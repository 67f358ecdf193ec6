// Golden results: the serialized bytes of Q1-Q20 on every system A-G over
// one fixed document (sf 0.005, generator seed 42), pinned as an FNV-1a 64
// hash plus the byte length. The table was recorded per system from the
// recursive stored-node serializer that preceded the iterative
// preorder-interval writer; all seven systems produced the same bytes, so
// one row serves them all. It proves byte identity across serializer
// rewrites and across stores (System G covers the deep copy that
// copy_results makes).
//
// On a mismatch the test prints each system's observed row in the layout
// of kGolden below; replace the table only when an output change is
// intended and explained.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "gen/generator.h"
#include "query/value.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace xmark::bench {
namespace {

struct Golden {
  uint64_t fnv1a;
  size_t bytes;
};

constexpr int kQueries = 20;

// kGolden[query - 1].
constexpr Golden kGolden[kQueries] = {
    {0xf6b9603f305c40dcull, 11}, {0xc01a2deb5ea63531ull, 1255},
    {0x60b843f3b19236a2ull, 147}, {0xcbf29ce484222325ull, 0},
    {0x08030b07b4c32ac4ull, 2}, {0x4568c018181ca2c7ull, 3},
    {0x602db018277ef422ull, 3}, {0x28d3aa0d052a5e1bull, 4854},
    {0xa7b98cf1752e9b7aull, 4471}, {0x2ccdff9cdeb3896dull, 29946},
    {0x0317f2bac3b70690ull, 4910}, {0x8c9b1808e2065e41ull, 1123},
    {0x0ffaabf7ff56e028ull, 9204}, {0xf84f540d51732831ull, 1154},
    {0x47d61824ed7e1fc0ull, 203}, {0xcf5419a4140deb6full, 118},
    {0x9a0354f5955e0c92ull, 1745}, {0x2025ebafa891cb44ull, 237},
    {0x5de391777de36e42ull, 5558}, {0x132d2708af5f644full, 100},
};

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

const std::string& GoldenDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions opts;
    opts.scale = 0.005;
    opts.seed = 42;
    return new std::string(gen::XmlGen(opts).GenerateToString());
  }();
  return *kDoc;
}

TEST(GoldenResults, Q1ToQ20MatchOnEverySystem) {
  for (const SystemId id : kAllSystems) {
    auto engine = Engine::Create(id);
    ASSERT_TRUE(engine->Load(GoldenDocument()).ok()) << SystemLabel(id);
    Golden observed[kQueries];
    bool row_matches = true;
    for (int q = 1; q <= kQueries; ++q) {
      auto result = engine->Run(GetQuery(q).text);
      ASSERT_TRUE(result.ok())
          << SystemLabel(id) << " Q" << q << ": " << result.status().ToString();
      const std::string bytes = query::SerializeSequence(*result);
      observed[q - 1] = Golden{Fnv1a64(bytes), bytes.size()};
      const Golden& want = kGolden[q - 1];
      const bool match = want.fnv1a == observed[q - 1].fnv1a &&
                         want.bytes == observed[q - 1].bytes;
      EXPECT_TRUE(match) << "system " << SystemLabel(id) << " Q" << q
                         << ": got " << bytes.size() << " bytes, want "
                         << want.bytes;
      row_matches = row_matches && match;
    }
    if (!row_matches) {
      std::printf("system %c observed row:", SystemLabel(id));
      for (int q = 0; q < kQueries; ++q) {
        std::printf("%s{0x%016" PRIx64 "ull, %zu},",
                    q % 2 == 0 ? "\n    " : " ", observed[q].fnv1a,
                    observed[q].bytes);
      }
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace xmark::bench
