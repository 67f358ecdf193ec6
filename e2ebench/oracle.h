#ifndef XMARK_E2EBENCH_ORACLE_H_
#define XMARK_E2EBENCH_ORACLE_H_

// Answers computed straight from a generated document's bytes.
//
// The scanner here is the benchmark's own: it shares no code with the
// program's xml/ parser or its stores, so a fault in either shows up as a
// mismatch instead of being reproduced by the check. It understands the
// subset of XML the generator writes (elements, attributes in quotes,
// escaped text, an optional prolog).

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace xmark::e2e {

/// What the oracle knows about one document. Text values are kept as the
/// raw (still escaped) bytes between the tags, which is exactly what the
/// serializer must write back for a text node.
struct DocumentFacts {
  /// Start tags per element name.
  std::unordered_map<std::string, int64_t> elements;
  /// person @id -> name, regions item @id -> name, open_auction @id ->
  /// current.
  std::unordered_map<std::string, std::string> person_name;
  std::unordered_map<std::string, std::string> item_name;
  std::unordered_map<std::string, std::string> open_auction_current;
  /// Every closed_auction price, ascending.
  std::vector<double> closed_prices;
  /// Names of persons without a homepage, in document order (Q17).
  std::vector<std::string> persons_without_homepage;
  /// Q20's four income bands.
  int64_t income_preferred = 0;
  int64_t income_standard = 0;
  int64_t income_challenge = 0;
  int64_t income_missing = 0;
  /// The root element's bytes: the document without prolog and trailing
  /// whitespace (what serializing the root element must reproduce).
  std::string_view root;

  int64_t Count(const std::string& element) const {
    auto it = elements.find(element);
    return it == elements.end() ? 0 : it->second;
  }
  /// closed_auction elements whose price is >= `threshold`.
  int64_t PricesAtLeast(double threshold) const;
};

/// Scans `xml`. `root` views into `xml`, which must outlive the result.
DocumentFacts ScanDocument(std::string_view xml);

/// Serialized answer of XMark query `query` on the scanned document, for
/// the queries the oracle covers (1, 5, 6, 7, 17, 20). Returns false for
/// the others.
bool ExpectedAnswer(const DocumentFacts& facts, int query, std::string* out);

}  // namespace xmark::e2e

#endif  // XMARK_E2EBENCH_ORACLE_H_
