#include "oracle.h"

#include <algorithm>
#include <cstdlib>

namespace xmark::e2e {
namespace {

bool IsNameEnd(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' ||
         c == '/';
}

// Value of attribute `name` inside one tag's bytes ("<person id=\"x\">").
std::string_view Attribute(std::string_view tag, std::string_view name) {
  size_t pos = 0;
  while ((pos = tag.find(name, pos)) != std::string_view::npos) {
    const size_t eq = pos + name.size();
    const bool starts_word = pos > 0 && (tag[pos - 1] == ' ' ||
                                         tag[pos - 1] == '\t' ||
                                         tag[pos - 1] == '\n');
    if (starts_word && eq + 1 < tag.size() && tag[eq] == '=' &&
        (tag[eq + 1] == '"' || tag[eq + 1] == '\'')) {
      const char quote = tag[eq + 1];
      const size_t close = tag.find(quote, eq + 2);
      if (close == std::string_view::npos) return {};
      return tag.substr(eq + 2, close - eq - 2);
    }
    pos = eq;
  }
  return {};
}

double Number(std::string_view text) {
  return std::strtod(std::string(text).c_str(), nullptr);
}

// Walks the element structure and records the facts the checks need.
class Scanner {
 public:
  explicit Scanner(DocumentFacts* facts) : facts_(facts) {}

  void Run(std::string_view xml) {
    size_t pos = 0;
    size_t root_begin = std::string_view::npos;
    size_t root_end = 0;
    while ((pos = xml.find('<', pos)) != std::string_view::npos) {
      // The tag ends at the first '>' outside a quoted attribute value.
      size_t end = pos + 1;
      char quote = 0;
      for (; end < xml.size(); ++end) {
        const char c = xml[end];
        if (quote != 0) {
          if (c == quote) quote = 0;
        } else if (c == '"' || c == '\'') {
          quote = c;
        } else if (c == '>') {
          break;
        }
      }
      if (end >= xml.size()) break;
      const std::string_view tag = xml.substr(pos, end - pos + 1);
      const size_t next = xml.find('<', end + 1);
      const std::string_view text = xml.substr(
          end + 1, (next == std::string_view::npos ? xml.size() : next) -
                       end - 1);
      pos = end + 1;
      if (tag[1] == '?' || tag[1] == '!') continue;
      if (root_begin == std::string_view::npos) {
        root_begin = tag.data() - xml.data();
      }
      root_end = end + 1;
      if (tag[1] == '/') {
        OnEnd();
        continue;
      }
      size_t name_end = 1;
      while (name_end < tag.size() && !IsNameEnd(tag[name_end])) ++name_end;
      const std::string_view name = tag.substr(1, name_end - 1);
      OnStart(name, tag, text);
      if (tag[tag.size() - 2] == '/') OnEnd();
    }
    if (root_begin != std::string_view::npos) {
      facts_->root = xml.substr(root_begin, root_end - root_begin);
    }
    std::sort(facts_->closed_prices.begin(), facts_->closed_prices.end());
  }

 private:
  std::string_view Parent(size_t up = 1) const {
    return stack_.size() >= up ? stack_[stack_.size() - up]
                               : std::string_view();
  }

  bool Inside(std::string_view name) const {
    return std::find(stack_.begin(), stack_.end(), name) != stack_.end();
  }

  void OnStart(std::string_view name, std::string_view tag,
               std::string_view text) {
    ++facts_->elements[std::string(name)];
    const std::string_view parent = Parent();
    if (name == "person" && parent == "people") {
      person_ = Person();
      person_.id = Attribute(tag, "id");
    } else if (name == "name" && parent == "person") {
      person_.name = text;
    } else if (name == "homepage" && parent == "person") {
      person_.has_homepage = !text.empty();
    } else if (name == "income" && parent == "profile" &&
               Parent(2) == "person") {
      person_.has_income = true;
      person_.income = Number(text);
    } else if (name == "item" && Inside("regions")) {
      item_id_ = Attribute(tag, "id");
    } else if (name == "name" && parent == "item") {
      facts_->item_name[std::string(item_id_)] = std::string(text);
    } else if (name == "open_auction") {
      open_auction_id_ = Attribute(tag, "id");
    } else if (name == "current" && parent == "open_auction") {
      facts_->open_auction_current[std::string(open_auction_id_)] =
          std::string(text);
    } else if (name == "price" && parent == "closed_auction") {
      facts_->closed_prices.push_back(Number(text));
    }
    stack_.push_back(name);
  }

  void OnEnd() {
    if (stack_.empty()) return;
    if (stack_.back() == "person" && Parent(2) == "people") {
      facts_->person_name[std::string(person_.id)] = std::string(person_.name);
      if (!person_.has_homepage) {
        facts_->persons_without_homepage.emplace_back(person_.name);
      }
      if (!person_.has_income) {
        ++facts_->income_missing;
      } else if (person_.income >= 100000) {
        ++facts_->income_preferred;
      } else if (person_.income >= 30000) {
        ++facts_->income_standard;
      } else {
        ++facts_->income_challenge;
      }
    }
    stack_.pop_back();
  }

  struct Person {
    std::string_view id;
    std::string_view name;
    bool has_homepage = false;
    bool has_income = false;
    double income = 0;
  };

  DocumentFacts* facts_;
  std::vector<std::string_view> stack_;
  Person person_;
  std::string_view item_id_;
  std::string_view open_auction_id_;
};

}  // namespace

int64_t DocumentFacts::PricesAtLeast(double threshold) const {
  return static_cast<int64_t>(
      closed_prices.end() -
      std::lower_bound(closed_prices.begin(), closed_prices.end(), threshold));
}

DocumentFacts ScanDocument(std::string_view xml) {
  DocumentFacts facts;
  Scanner(&facts).Run(xml);
  return facts;
}

bool ExpectedAnswer(const DocumentFacts& facts, int query, std::string* out) {
  out->clear();
  switch (query) {
    case 1: {
      auto it = facts.person_name.find("person0");
      if (it != facts.person_name.end()) *out = it->second;
      return true;
    }
    case 5:
      *out = std::to_string(facts.PricesAtLeast(40));
      return true;
    case 6:
      *out = std::to_string(facts.Count("item"));
      return true;
    case 7:
      *out = std::to_string(facts.Count("description") + facts.Count("mail") +
                            facts.Count("email"));
      return true;
    case 17:
      for (const std::string& name : facts.persons_without_homepage) {
        if (!out->empty()) *out += '\n';
        *out += "<person name=\"" + name + "\"/>";
      }
      return true;
    case 20:
      *out = "<result><preferred>" + std::to_string(facts.income_preferred) +
             "</preferred><standard>" +
             std::to_string(facts.income_standard) +
             "</standard><challenge>" +
             std::to_string(facts.income_challenge) + "</challenge><na>" +
             std::to_string(facts.income_missing) + "</na></result>";
      return true;
    default:
      return false;
  }
}

}  // namespace xmark::e2e
