// xmark_e2e — one end-to-end XMark benchmark, timed from query text to
// serialized bytes.
//
//   xmark_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--inject flip-byte|wrong-count|missing-doc] [--smoke]
//             [--trace-out <file>] [--git <sha>]
//
// Workloads (single client, closed loop, public API only):
//   xmark-q1q20       Q1-Q20 on systems A-E over one generated document,
//                     plans warm in the plan cache.
//   adhoc-lookups     id and price-threshold lookups on A-E; every request
//                     is a new query text, so every request compiles.
//   corpus-roundtrip  cycles of LoadCorpus, doc()/collection() counts,
//                     whole-document reconstruction and DropDocument on
//                     stores A-D.
//
// A run is a fixed, seeded list of operations whose length follows from
// --seconds (the k*PerSecond constants), never a clock, so every build
// issues the same requests. Every answer is checked against oracles
// computed from the generated bytes (oracle.h) or against the other
// systems; a mismatch is a failed operation. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Lines before it are a '#'-prefixed header.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gen/generator.h"
#include "oracle.h"
#include "query/parser.h"
#include "query/value.h"
#include "trace.h"
#include "util/prng.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "xml/sax_parser.h"
#include "xmark/engine.h"
#include "xmark/queries.h"
#include "xmark/result_check.h"

namespace xmark::e2e {
namespace {

using bench::Engine;
using bench::EngineSession;
using bench::PreparedQuery;
using bench::SystemId;

constexpr std::array<SystemId, 5> kServingSystems = {
    SystemId::kA, SystemId::kB, SystemId::kC, SystemId::kD, SystemId::kE};
// One system per storage mapping: edge, fragmented, inlined, native DOM.
constexpr std::array<SystemId, 4> kStoreSystems = {
    SystemId::kA, SystemId::kB, SystemId::kC, SystemId::kD};

// A run is cut into this many parts, each after a set-up of its own:
// setup_s is the median of the set-ups, and set-ups and loads are spread
// over the run instead of bunched at its start, so their medians do not
// all fall into one phase of the machine's speed.
constexpr int kSetups = 9;

// Run sizes per second of --seconds, calibrated so a run's timed phase
// takes about --seconds on a 4-core Xeon container at the commit that
// introduced the benchmark. A faster build finishes sooner; it never does
// more work.
constexpr double kQ1Q20RoundsPerSecond = 45.0;     // 100 requests a round
constexpr double kAdhocRequestsPerSecond = 27000;  // one new text each
constexpr double kCorpusCyclesPerSecond = 5.0;     // one cycle per store

// Documents. XMark defines its document by the scale factor: the
// generator is deterministic, and every workload uses its default seed
// (42; the corpus adds one per document). --seed picks the request order
// and the literals, not the documents, so runs with different seeds
// measure the same data.
constexpr uint64_t kDocumentSeed = 42;
// xmark-q1q20 runs one store at a time over a document small enough that
// the store (about 1.5 MB) stays in a core's 2 MB L2. At sf 0.01, with the
// (system, query) pairs of a round shuffled across all five stores, qps
// moved twice as much with the machine's memory speed.
constexpr double kQ1Q20Scale = 0.005;
constexpr double kAdhocScale = 0.02;
constexpr std::array<double, 4> kCorpusScales = {0.004, 0.005, 0.006, 0.008};
constexpr int kDeepDepth = 1000;

// Bulkload threads: set explicitly, never the hardware_concurrency default.
// One thread: at these document sizes a 2-thread load was 1.3-1.5x slower,
// and its speed depended on a second core being free: the ingest_mb_s
// medians of two sets of ten runs, one right after the other, differed by
// 42%.
constexpr unsigned kLoadThreads = 1;

// Spans written to the trace file; the per-layer metrics use them all.
constexpr size_t kWrittenSpans = 200000;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  bool smoke = false;  // smallest sizes: for the benchmark's own test
  std::string inject;  // fault to inject into the checks (self-test)
  std::string trace_out;
  std::string git = "unknown";
};

// --- Measurement records ---------------------------------------------------

// What one timed phase did.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> latency_ms;  // per query request: text -> bytes
  double query_ms = 0;             // sum of latency_ms
  uint64_t result_bytes = 0;
  double wall_s = 0;
};

// Bulkload wall times per system, with the bytes loaded and stored.
struct LoadLog {
  std::map<char, std::vector<double>> ms;
  std::map<char, size_t> xml_bytes;  // per load
  std::map<char, size_t> db_bytes;   // per load

  void Add(char system, double millis, size_t xml, size_t db) {
    ms[system].push_back(millis);
    xml_bytes[system] = xml;
    db_bytes[system] = db;
  }
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, p in [0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Millis(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

// Peak resident set of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Counts a failed operation and reports the first few on stderr.
void Fail(Phase* phase, const std::string& what) {
  ++phase->failed;
  if (phase->failed <= 5) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

// Evaluator and plan-cache counters summed over engines.
struct Counters {
  query::EvalStats exec;
  query::PlanCacheStats cache;

  void Add(const Engine& engine) {
    exec.MergeFrom(engine.cumulative_stats());
    const query::PlanCacheStats c = engine.plan_cache_stats();
    cache.hits += c.hits;
    cache.misses += c.misses;
  }

  void Accumulate(const Counters& d) {
    exec.MergeFrom(d.exec);
    cache.hits += d.cache.hits;
    cache.misses += d.cache.misses;
  }

  // The counters this report reads, less `before`.
  Counters Minus(const Counters& before) const {
    Counters d;
    const query::EvalStats& b = before.exec;
    d.exec.nodes_visited = exec.nodes_visited - b.nodes_visited;
    d.exec.index_lookups = exec.index_lookups - b.index_lookups;
    d.exec.descendant_scans = exec.descendant_scans - b.descendant_scans;
    d.exec.join_probes = exec.join_probes - b.join_probes;
    d.exec.nodes_constructed = exec.nodes_constructed - b.nodes_constructed;
    d.exec.pipeline_batches_fused =
        exec.pipeline_batches_fused - b.pipeline_batches_fused;
    d.exec.virtual_batches = exec.virtual_batches - b.virtual_batches;
    d.cache.hits = cache.hits - before.cache.hits;
    d.cache.misses = cache.misses - before.cache.misses;
    return d;
  }
};

// --- Calls into the layers, each under its span ---------------------------

std::string Generate(Tracer* tracer, double scale, uint64_t seed) {
  ScopedSpan span(tracer, "gen.generate");
  gen::GeneratorOptions options;
  options.scale = scale;
  options.seed = seed;
  std::string xml = gen::XmlGen(options).GenerateToString();
  span.set_bytes(xml.size());
  return xml;
}

StatusOr<std::unique_ptr<Engine>> LoadEngine(Tracer* tracer, SystemId id,
                                             const std::string& xml,
                                             LoadLog* log) {
  std::unique_ptr<Engine> engine = Engine::Create(id);
  store::LoadOptions options;
  options.threads = kLoadThreads;
  engine->set_load_options(options);
  const char label = bench::SystemLabel(id);
  const uint64_t start = WallTimeNanos();
  {
    ScopedSpan span(tracer, "store.load", label);
    span.set_bytes(xml.size());
    XMARK_RETURN_IF_ERROR(engine->Load(xml));
  }
  log->Add(label, Millis(start, WallTimeNanos()), xml.size(),
           engine->StorageBytes());
  return engine;
}

// One query request: Prepare, Execute and SerializeSequence. Returns the
// request's latency in ms; `out` holds the bytes, or is untouched on error.
double QueryRequest(Tracer* tracer, EngineSession* session, char system,
                    int query, std::string_view text, std::string* out,
                    Status* status) {
  const uint64_t start = WallTimeNanos();
  ScopedSpan request(tracer, "request", system, query);
  StatusOr<PreparedQuery> prepared = [&] {
    ScopedSpan span(tracer, "query.prepare", system, query);
    return session->Prepare(text);
  }();
  if (!prepared.ok()) {
    *status = prepared.status();
    return Millis(start, WallTimeNanos());
  }
  StatusOr<query::Sequence> result = [&] {
    ScopedSpan span(tracer, "query.execute", system, query);
    return session->Execute(*prepared);
  }();
  if (!result.ok()) {
    *status = result.status();
    return Millis(start, WallTimeNanos());
  }
  {
    ScopedSpan span(tracer, "query.serialize", system, query);
    *out = query::SerializeSequence(*result);
    span.set_bytes(out->size());
  }
  *status = Status::OK();
  return Millis(start, WallTimeNanos());
}

// Times one request and checks its bytes against `expected`. When
// `*flip_byte` is set, the first byte of a non-empty result is altered
// before the check and the flag cleared (the benchmark's self-test).
void CheckedRequest(Tracer* tracer, Phase* phase, EngineSession* session,
                    char system, int query, std::string_view text,
                    std::string_view expected, bool* flip_byte,
                    const char* what) {
  std::string out;
  Status status;
  const double ms =
      QueryRequest(tracer, session, system, query, text, &out, &status);
  ++phase->attempted;
  phase->latency_ms.push_back(ms);
  phase->query_ms += ms;
  if (!status.ok()) {
    Fail(phase, StringPrintf("%s on %c: %s", what, system,
                             status.ToString().c_str()));
    return;
  }
  phase->result_bytes += out.size();
  if (*flip_byte && !out.empty()) {
    out[0] ^= 1;
    *flip_byte = false;
  }
  if (out != expected) {
    Fail(phase, StringPrintf("%s on %c: %zu bytes differ from the expected "
                             "%zu bytes",
                             what, system, out.size(), expected.size()));
  }
}

// Parse, uncached compile and cached compile of one text, each timed on
// its own, for the traced run's query.parse/optimize/prepare_cached split.
void ProbeCompile(Tracer* tracer, const Engine& engine, EngineSession* session,
                  std::string_view text) {
  const char label = engine.label();
  {
    ScopedSpan span(tracer, "probe.parse", label);
    (void)query::ParseQueryText(text);
  }
  {
    ScopedSpan span(tracer, "probe.prepare_uncached", label);
    (void)engine.Prepare(text);
  }
  (void)session->Prepare(text);  // make sure the plan is cached
  {
    ScopedSpan span(tracer, "probe.prepare_cached", label);
    (void)session->Prepare(text);
  }
}

// SAX parse with a handler that does nothing: the xml layer's share of a
// bulkload.
class NullHandler : public xml::SaxHandler {
 public:
  Status OnStartElement(std::string_view,
                        const std::vector<xml::SaxAttribute>&) override {
    return Status::OK();
  }
  Status OnEndElement(std::string_view) override { return Status::OK(); }
  Status OnCharacters(std::string_view) override { return Status::OK(); }
};

void ProbeSaxParse(Tracer* tracer, const std::vector<std::string_view>& docs,
                   int reps) {
  NullHandler handler;
  for (int r = 0; r < reps; ++r) {
    for (std::string_view doc : docs) {
      ScopedSpan span(tracer, "probe.sax_parse");
      span.set_bytes(doc.size());
      (void)xml::SaxParser().Parse(doc, &handler);
    }
  }
}

// --- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the documents once and computes from their bytes the
  /// oracle's answers and the texts of every request. Runs once per
  /// process, before the first set-up and outside setup_s: the documents
  /// are fixed, so every set-up regenerates the same bytes.
  virtual void Prepare(Tracer* tracer) = 0;
  /// Generates the inputs, bulkloads them and warms up.
  virtual Status Setup(Tracer* tracer, LoadLog* loads) = 0;
  /// Checks that need the loaded state once per run, outside set-up time.
  virtual void Verify() {}
  /// Releases everything Setup built.
  virtual void Teardown() = 0;
  /// Part `part` (of kSetups) of the fixed operation list. Adds the wall
  /// time of its timed requests to `phase->wall_s` and records every
  /// bulkload it makes in `loads`.
  virtual void Run(Tracer* tracer, Phase* phase, LoadLog* loads,
                   int part) = 0;
  /// Extra calls of the traced run that split compile and load time.
  virtual void Probe(Tracer* tracer) = 0;
  /// Header line describing the inputs.
  virtual std::string Describe() const = 0;

  /// Counters of every engine the workload has used since Setup.
  Counters counters() const {
    Counters total = retired_;
    for (const auto& engine : engines_) total.Add(*engine);
    return total;
  }

 protected:
  std::vector<std::unique_ptr<Engine>> engines_;
  Counters retired_;  // engines replaced since Setup
};

// Loads `xml` into each of A-E afresh, with a session each.
Status LoadSystems(Tracer* tracer, const std::string& xml, LoadLog* loads,
                   std::vector<std::unique_ptr<Engine>>* engines,
                   std::vector<std::unique_ptr<EngineSession>>* sessions) {
  sessions->clear();
  engines->clear();
  for (SystemId id : kServingSystems) {
    XMARK_ASSIGN_OR_RETURN(auto engine,
                           LoadEngine(tracer, id, xml, loads));
    XMARK_ASSIGN_OR_RETURN(auto session, engine->CreateSession());
    engines->push_back(std::move(engine));
    sessions->push_back(std::move(session));
  }
  return Status::OK();
}

// Q1-Q20 on A-E over one document.
//
// F and G are left out: F's nested-loop joins take most of a second per
// join query and would dominate the mix, and G reloads the document on
// every query, which is the bulkload path corpus-roundtrip measures.
class Q1Q20Workload : public Workload {
 public:
  explicit Q1Q20Workload(const Config& config) : config_(config) {
    rounds_ = config.smoke
                  ? kSetups
                  : std::max(kSetups, static_cast<int>(std::lround(
                                          kQ1Q20RoundsPerSecond *
                                          config.seconds)));
    for (int q = 0; q <= 20; ++q) names_.push_back(StringPrintf("Q%d", q));
  }

  // The oracle's answers for Q1, Q5, Q6, Q7, Q17 and Q20.
  void Prepare(Tracer* tracer) override {
    reference_ = Generate(tracer, Scale(), kDocumentSeed);
    const DocumentFacts facts = ScanDocument(reference_);
    oracle_.assign(21, std::nullopt);
    for (int q = 1; q <= 20; ++q) {
      std::string answer;
      if (ExpectedAnswer(facts, q, &answer)) oracle_[q] = std::move(answer);
    }
    if (config_.inject == "wrong-count") {
      oracle_[6] = std::to_string(facts.Count("item") + 1);
    }
  }

  // Warm-up: every (system, query) pair once, which also fills the plan
  // cache. Run() checks the warm-up outputs too.
  Status Setup(Tracer* tracer, LoadLog* loads) override {
    xml_ = Generate(tracer, Scale(), kDocumentSeed);
    XMARK_RETURN_IF_ERROR(LoadSystems(tracer, xml_, loads, &engines_,
                                      &sessions_));
    warmup_.assign(kServingSystems.size(),
                   std::vector<std::optional<std::string>>(21));
    for (int q = 1; q <= 20; ++q) {
      for (size_t s = 0; s < engines_.size(); ++s) {
        auto result = sessions_[s]->Run(bench::GetQuery(q).text);
        if (result.ok()) warmup_[s][q] = query::SerializeSequence(*result);
      }
    }
    return Status::OK();
  }

  // Result equivalence across A-E for every query (result_check); a query
  // on which any system errs or disagrees with A fails every request. Then
  // fixes each request's expected bytes for the whole run: the oracle's
  // answer where there is one, else the system's own output of this first
  // set-up, which the equivalence check has just compared across systems.
  void Verify() override {
    agree_.assign(21, true);
    for (int q = 1; q <= 20; ++q) {
      std::vector<query::Sequence> results;
      for (auto& session : sessions_) {
        auto result = session->Run(bench::GetQuery(q).text);
        if (!result.ok()) {
          agree_[q] = false;
          break;
        }
        results.push_back(std::move(result).value());
      }
      for (size_t s = 1; agree_[q] && s < results.size(); ++s) {
        agree_[q] = bench::ResultsEquivalent(results[0], results[s]);
      }
    }
    expected_.assign(kServingSystems.size(), std::vector<std::string>(21));
    for (size_t s = 0; s < expected_.size(); ++s) {
      for (int q = 1; q <= 20; ++q) {
        if (oracle_[q]) {
          expected_[s][q] = *oracle_[q];
        } else if (warmup_[s][q]) {
          expected_[s][q] = *warmup_[s][q];
        } else {
          agree_[q] = false;
        }
      }
    }
  }

  void Teardown() override {
    sessions_.clear();
    engines_.clear();
    xml_.clear();
  }

  void Run(Tracer* tracer, Phase* phase, LoadLog* loads, int part) override {
    // The set-up's warm-up outputs, each an operation of its own.
    for (size_t s = 0; s < warmup_.size(); ++s) {
      for (int q = 1; q <= 20; ++q) {
        ++phase->attempted;
        const std::optional<std::string>& out = warmup_[s][q];
        if (!agree_[q] || !out || *out != expected_[s][q]) {
          Fail(phase, StringPrintf("warm-up Q%d on %c", q,
                                   engines_[s]->label()));
        }
      }
    }
    Prng prng(config_.seed, 0x51 + part);
    std::vector<size_t> systems;
    for (size_t s = 0; s < engines_.size(); ++s) systems.push_back(s);
    std::vector<int> queries;
    for (int q = 1; q <= 20; ++q) queries.push_back(q);
    // Fisher-Yates with the benchmark's own PRNG: the order is a pure
    // function of the seed.
    const auto shuffle = [&prng](auto* v) {
      for (size_t i = v->size() - 1; i > 0; --i) {
        std::swap((*v)[i], (*v)[prng.NextBelow(i + 1)]);
      }
    };
    std::vector<std::pair<size_t, int>> round;
    bool flip = part == 0 && config_.inject == "flip-byte";
    for (int r = rounds_ * part / kSetups; r < rounds_ * (part + 1) / kSetups;
         ++r) {
      // A round: Q1-Q20 on one system after another, the systems and each
      // system's queries in seeded order.
      round.clear();
      shuffle(&systems);
      for (size_t s : systems) {
        shuffle(&queries);
        for (int q : queries) round.emplace_back(s, q);
      }
      const uint64_t start = WallTimeNanos();
      for (const auto& [s, q] : round) {
        tracer->set_request(phase->attempted + 1);
        if (!agree_[q]) {
          ++phase->attempted;
          Fail(phase, names_[q] + ": systems A-E disagree");
          continue;
        }
        CheckedRequest(tracer, phase, sessions_[s].get(), engines_[s]->label(),
                       q, bench::GetQuery(q).text, expected_[s][q], &flip,
                       names_[q].c_str());
      }
      phase->wall_s += Millis(start, WallTimeNanos()) / 1e3;
      // The set-ups load each store only a few times: a load of one store
      // every few rounds, outside the timed requests, gives ingest_mb_s
      // samples from all over the run.
      if (r % kRoundsPerLoad == kRoundsPerLoad - 1) {
        const SystemId id =
            kServingSystems[(r / kRoundsPerLoad) % kServingSystems.size()];
        ++phase->attempted;
        auto engine = LoadEngine(tracer, id, xml_, loads);
        if (!engine.ok()) Fail(phase, "Load: " + engine.status().ToString());
      }
    }
  }

  void Probe(Tracer* tracer) override {
    ProbeSaxParse(tracer, {xml_}, 5);
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t s = 0; s < engines_.size(); ++s) {
        for (int q = 1; q <= 20; ++q) {
          tracer->set_request(static_cast<uint64_t>(q));
          ProbeCompile(tracer, *engines_[s], sessions_[s].get(),
                       bench::GetQuery(q).text);
        }
      }
    }
  }

  std::string Describe() const override {
    return StringPrintf("xmark-q1q20: sf=%g document=%zu bytes, systems A-E, "
                        "%d rounds x 100 (system, query) requests, one load "
                        "every %d rounds",
                        Scale(), reference_.size(), rounds_, kRoundsPerLoad);
  }

 private:
  static constexpr int kRoundsPerLoad = 4;

  double Scale() const { return config_.smoke ? 0.002 : kQ1Q20Scale; }

  const Config& config_;
  int rounds_ = 1;
  std::vector<std::string> names_;  // [query]
  std::string reference_;
  std::vector<std::optional<std::string>> oracle_;  // [query]
  std::string xml_;
  std::vector<std::unique_ptr<EngineSession>> sessions_;
  std::vector<std::vector<std::optional<std::string>>> warmup_;  // [s][q]
  std::vector<std::vector<std::string>> expected_;  // [system][query]
  std::vector<bool> agree_;                          // [query]
};

// Parameterized lookups: person, item and open_auction by @id, and
// closed_auction counts above a price threshold. Within an epoch each
// request carries a literal no earlier request on that system used, so
// every request misses the plan cache and pays parse + optimize. The id
// lookups execute as one id-index probe; the threshold count, one request
// in twenty, scans the closed auctions. Its share is kept below a tenth so
// that latency_p90_ms falls among the compile-bound id lookups: a
// percentile inside the scans, or on their edge, moved with the machine's
// memory speed by twice as much as qps did.
//
// The plan cache keeps every text (several KB each), so the run is cut
// into epochs of one pass over the literal ranges: each epoch reloads the
// five stores, which empties the caches and bounds memory, and replays the
// same request list. The reloads are not part of the timed phase; they
// count as the workload's loads.
class AdhocWorkload : public Workload {
 public:
  enum Shape { kPerson, kItem, kOpenAuction, kPrice, kShapes };

  explicit AdhocWorkload(const Config& config) : config_(config) {}

  void Prepare(Tracer* tracer) override {
    reference_ = Generate(tracer, Scale(), kDocumentSeed);
    facts_ = ScanDocument(reference_);
    BuildRequests();
  }

  Status Setup(Tracer* tracer, LoadLog* loads) override {
    xml_ = Generate(tracer, Scale(), kDocumentSeed);
    retired_ = Counters();
    return Reload(tracer, loads);
  }

  void Teardown() override {
    sessions_.clear();
    engines_.clear();
    xml_.clear();
  }

  void Run(Tracer* tracer, Phase* phase, LoadLog* loads, int part) override {
    bool flip = part == 0 && config_.inject == "flip-byte";
    const int first = epochs_ * part / kSetups;
    for (int epoch = first; epoch < epochs_ * (part + 1) / kSetups; ++epoch) {
      if (epoch > first) {  // the part's first epoch runs on Setup's stores
        ++phase->attempted;
        Status status = Reload(tracer, loads);
        if (!status.ok()) {
          Fail(phase, "reload: " + status.ToString());
          phase->attempted += requests_.size();
          phase->failed += requests_.size();
          continue;
        }
      }
      const uint64_t start = WallTimeNanos();
      for (const Request& r : requests_) {
        tracer->set_request(phase->attempted + 1);
        CheckedRequest(tracer, phase, sessions_[r.system].get(),
                       engines_[r.system]->label(), 0, r.text, r.expected,
                       &flip, kShapeNames[r.shape]);
      }
      phase->wall_s += Millis(start, WallTimeNanos()) / 1e3;
    }
  }

  void Probe(Tracer* tracer) override {
    ProbeSaxParse(tracer, {xml_}, 5);
    // The first requests of the last epoch, whose plans are now cached.
    for (size_t i = 0; i < requests_.size() && i < 700; ++i) {
      const Request& r = requests_[i];
      tracer->set_request(i + 1);
      ProbeCompile(tracer, *engines_[r.system], sessions_[r.system].get(),
                   r.text);
    }
  }

  std::string Describe() const override {
    return StringPrintf(
        "adhoc-lookups: sf=%g document=%zu bytes, systems A-E, %d epochs x "
        "%zu requests (person:item:open_auction:price = 8:7:4:1); literal "
        "ranges: ids person/item/open_auction 0..%lld/%lld/%lld (the upper "
        "half absent), price thresholds 0.005..%lld.005",
        Scale(), reference_.size(), epochs_, requests_.size(),
        static_cast<long long>(ranges_[kPerson] - 1),
        static_cast<long long>(ranges_[kItem] - 1),
        static_cast<long long>(ranges_[kOpenAuction] - 1),
        static_cast<long long>(ranges_[kPrice] / 100));
  }

 private:
  struct Request {
    size_t system;
    Shape shape;
    std::string text;
    std::string expected;  // the oracle's answer
  };

  // One round runs the mix on every system: id lookups in proportion to
  // the entity counts (persons : items : open auctions = 8 : 7 : 4), then
  // one threshold count.
  static constexpr std::array<Shape, 20> kMix = {
      kPerson, kItem,   kOpenAuction, kPerson, kItem,        kPerson, kItem,
      kOpenAuction, kPerson, kItem,   kPerson, kItem,        kOpenAuction,
      kPerson, kItem,   kPerson,      kItem,   kOpenAuction, kPerson, kPrice};
  static constexpr std::array<const char*, kShapes> kShapeNames = {
      "person-by-id", "item-by-id", "open_auction-by-id", "price-count"};

  double Scale() const { return config_.smoke ? 0.002 : kAdhocScale; }

  // Loads the five stores afresh (empty plan caches) and warms them up
  // with one request per (system, shape), on literals the timed requests
  // never use.
  Status Reload(Tracer* tracer, LoadLog* loads) {
    for (const auto& engine : engines_) retired_.Add(*engine);
    XMARK_RETURN_IF_ERROR(LoadSystems(tracer, xml_, loads, &engines_,
                                      &sessions_));
    for (const Request& r : warmup_) (void)sessions_[r.system]->Run(r.text);
    return Status::OK();
  }

  // Literal ranges: id suffixes run to twice the document's id count, so
  // half the id lookups ask for an absent key and return the empty
  // sequence; price thresholds are cents up to the highest price, so
  // every threshold count has matches and the counts cost alike.
  // An epoch is as many rounds as the smallest range allows; the run is as
  // many epochs as kAdhocRequestsPerSecond asks for. Entity counts depend
  // on the scale only, so the sizes are the same for every seed. Every
  // epoch replays the same list, so each request's text and expected answer
  // are made here, once.
  void BuildRequests() {
    const std::array<int64_t, kShapes> counts = {
        static_cast<int64_t>(facts_.person_name.size()),
        static_cast<int64_t>(facts_.item_name.size()),
        static_cast<int64_t>(facts_.open_auction_current.size()),
        facts_.closed_prices.empty()
            ? 1
            : static_cast<int64_t>(facts_.closed_prices.back()) * 100};
    std::array<int64_t, kShapes> uses{};  // per round
    for (Shape shape : kMix) ++uses[shape];
    int64_t rounds = std::numeric_limits<int64_t>::max();
    for (int shape = 0; shape < kShapes; ++shape) {
      ranges_[shape] =
          std::max<int64_t>(2, shape == kPrice ? counts[shape]
                                               : 2 * counts[shape]);
      rounds = std::min(rounds, (ranges_[shape] - 1) / uses[shape]);
    }
    if (config_.smoke) rounds = std::min<int64_t>(rounds, 2);
    const size_t systems = kServingSystems.size();
    const int64_t per_epoch =
        rounds * static_cast<int64_t>(kMix.size() * systems);
    epochs_ = config_.smoke
                  ? 2 * kSetups
                  : std::max(kSetups, static_cast<int>(std::lround(
                                          kAdhocRequestsPerSecond *
                                          config_.seconds /
                                          static_cast<double>(per_epoch))));

    // Per (system, shape): a seeded permutation of the range, drawn in
    // order, so no literal repeats on one system within an epoch. The
    // first draw is the warm-up's.
    std::vector<std::vector<std::vector<int64_t>>> pools(
        systems, std::vector<std::vector<int64_t>>(kShapes));
    warmup_.clear();
    for (size_t s = 0; s < systems; ++s) {
      for (int shape = 0; shape < kShapes; ++shape) {
        std::vector<int64_t> perm(static_cast<size_t>(ranges_[shape]));
        for (size_t v = 0; v < perm.size(); ++v) {
          perm[v] = static_cast<int64_t>(v);
        }
        Prng prng(config_.seed, 0xad0c + s * kShapes + shape);
        for (size_t i = perm.size() - 1; i > 0; --i) {
          std::swap(perm[i], perm[prng.NextBelow(i + 1)]);
        }
        perm.resize(static_cast<size_t>(1 + rounds * uses[shape]));
        warmup_.push_back(MakeRequest(s, static_cast<Shape>(shape), perm[0]));
        pools[s][shape] = std::move(perm);
      }
    }
    requests_.clear();
    std::vector<std::array<size_t, kShapes>> next(systems);
    for (auto& n : next) n.fill(1);
    for (int64_t round = 0; round < rounds; ++round) {
      for (Shape shape : kMix) {
        for (size_t s = 0; s < systems; ++s) {
          requests_.push_back(
              MakeRequest(s, shape, pools[s][shape][next[s][shape]++]));
        }
      }
    }
    if (config_.inject == "wrong-count") {
      for (Request& r : requests_) {
        if (r.shape != kPrice) continue;
        r.expected = std::to_string(std::atoll(r.expected.c_str()) + 1);
        break;
      }
    }
  }

  Request MakeRequest(size_t system, Shape shape, int64_t literal) const {
    return {system, shape, Text(shape, literal), Expected(shape, literal)};
  }

  static std::string Text(Shape shape, int64_t literal) {
    const long long v = static_cast<long long>(literal);
    switch (shape) {
      case kPerson:
        return StringPrintf(
            "for $p in document(\"auction.xml\")/site/people/person"
            "[@id = \"person%lld\"] return $p/name/text()",
            v);
      case kItem:
        return StringPrintf(
            "for $i in document(\"auction.xml\")/site/regions/*/item"
            "[@id = \"item%lld\"] return $i/name/text()",
            v);
      case kOpenAuction:
        return StringPrintf(
            "for $a in document(\"auction.xml\")/site/open_auctions/"
            "open_auction[@id = \"open_auction%lld\"] return "
            "$a/current/text()",
            v);
      default:
        // Thresholds end in 5 in the third decimal, so they never equal a
        // two-decimal price and the comparison has no ties to round.
        return StringPrintf(
            "count(document(\"auction.xml\")/site/closed_auctions/"
            "closed_auction[price >= %lld.%02lld5])",
            v / 100, v % 100);
    }
  }

  std::string Expected(Shape shape, int64_t literal) const {
    const auto lookup =
        [](const std::unordered_map<std::string, std::string>& m,
           const std::string& key) {
          auto it = m.find(key);
          return it == m.end() ? std::string() : it->second;
        };
    const std::string n = std::to_string(literal);
    switch (shape) {
      case kPerson:
        return lookup(facts_.person_name, "person" + n);
      case kItem:
        return lookup(facts_.item_name, "item" + n);
      case kOpenAuction:
        return lookup(facts_.open_auction_current, "open_auction" + n);
      default:
        return std::to_string(facts_.PricesAtLeast(
            static_cast<double>(literal) / 100.0 + 0.005));
    }
  }

  const Config& config_;
  int epochs_ = 1;
  std::string reference_;
  DocumentFacts facts_;  // of reference_
  std::string xml_;
  std::vector<std::unique_ptr<EngineSession>> sessions_;
  std::array<int64_t, kShapes> ranges_{};
  std::vector<Request> warmup_;
  std::vector<Request> requests_;
};

// Corpus round trip on each storage mapping: LoadCorpus, per-document and
// collection() counts, the deep document's count, reconstruction of every
// document, DropDocument of every document.
class CorpusWorkload : public Workload {
 public:
  explicit CorpusWorkload(const Config& config) : config_(config) {
    cycles_ = config.smoke
                  ? kSetups
                  : std::max(kSetups, static_cast<int>(std::lround(
                                          kCorpusCyclesPerSecond *
                                          config.seconds)));
  }

  // The counts, collection() total and reconstructions, from the bytes.
  void Prepare(Tracer* tracer) override {
    reference_ = MakeDocuments(tracer);
    for (size_t i = 0; i < reference_.size(); ++i) {
      const store::CorpusDocument& doc = reference_[i];
      order_.push_back(i);
      facts_.push_back(ScanDocument(doc.xml));
      corpus_bytes_ += doc.xml.size();
      reconstruct_.push_back("doc(\"" + doc.id + "\")/site");
      if (i + 1 == reference_.size()) break;  // the deep document
      for (const char* element : kCountedElements) {
        const int64_t n = facts_[i].Count(element);
        if (std::strcmp(element, "item") == 0) total_items_ += n;
        counts_.push_back({"count(doc(\"" + doc.id + "\")//" + element + ")",
                           std::to_string(n)});
      }
    }
    counts_.push_back({"count(doc(\"deep.xml\")//a)",
                       std::to_string(deep_depth_)});
  }

  Status Setup(Tracer* tracer, LoadLog* loads) override {
    docs_ = MakeDocuments(tracer);
    engines_.clear();
    for (SystemId id : kStoreSystems) {
      engines_.push_back(Engine::Create(id));
      store::LoadOptions options;
      options.threads = kLoadThreads;
      engines_.back()->set_load_options(options);
    }
    // Warm-up: one whole cycle per store; its loads are the first loads.
    inject_.clear();
    Phase warmup;
    for (auto& engine : engines_) Cycle(tracer, engine.get(), &warmup, loads);
    return Status::OK();
  }

  void Teardown() override {
    engines_.clear();
    docs_.clear();
  }

  void Run(Tracer* tracer, Phase* phase, LoadLog* loads, int part) override {
    inject_ = part == 0 ? config_.inject : "";
    Prng prng(config_.seed, 0xc0 + part);
    const uint64_t start = WallTimeNanos();
    for (int c = cycles_ * part / kSetups; c < cycles_ * (part + 1) / kSetups;
         ++c) {
      // The seed orders the reconstructions and drops of each cycle.
      for (size_t i = order_.size() - 1; i > 0; --i) {
        std::swap(order_[i], order_[prng.NextBelow(i + 1)]);
      }
      for (auto& engine : engines_) Cycle(tracer, engine.get(), phase, loads);
    }
    phase->wall_s += Millis(start, WallTimeNanos()) / 1e3;
  }

  void Probe(Tracer* tracer) override {
    std::vector<std::string_view> views;
    for (const auto& doc : docs_) views.push_back(doc.xml);
    ProbeSaxParse(tracer, views, 5);
    for (auto& engine : engines_) {
      if (!engine->LoadCorpus(docs_).ok()) continue;
      auto session = engine->CreateSession();
      if (session.ok()) {
        for (const CountCheck& count : counts_) {
          ProbeCompile(tracer, *engine, session->get(), count.text);
        }
        ProbeCompile(tracer, *engine, session->get(), kCollectionCount);
      }
      for (const auto& doc : docs_) (void)engine->DropDocument(doc.id);
    }
  }

  std::string Describe() const override {
    std::string sizes;
    for (const auto& doc : reference_) {
      sizes += StringPrintf(" %s=%zu", doc.id.c_str(), doc.xml.size());
    }
    return StringPrintf("corpus-roundtrip: stores A-D, %d cycles, deep "
                        "depth %d, documents:%s",
                        cycles_, deep_depth_, sizes.c_str());
  }

 private:
  struct CountCheck {
    std::string text;
    std::string expected;
  };

  // The XMark documents of several sizes and seeds, then a chain of nested
  // <a> elements. The chain's innermost element is written empty-tagged,
  // the form the serializer writes, so reconstruction can be compared byte
  // for byte.
  std::vector<store::CorpusDocument> MakeDocuments(Tracer* tracer) {
    std::vector<store::CorpusDocument> docs;
    const size_t xmark_docs = config_.smoke ? 2 : kCorpusScales.size();
    for (size_t i = 0; i < xmark_docs; ++i) {
      const double scale = config_.smoke ? 0.001 : kCorpusScales[i];
      docs.push_back({StringPrintf("xmark-%zu.xml", i),
                      Generate(tracer, scale, kDocumentSeed + 1 + i)});
    }
    deep_depth_ = config_.smoke ? 50 : kDeepDepth;
    std::string deep = "<site>";
    for (int i = 1; i < deep_depth_; ++i) deep += "<a>";
    deep += "<a/>";
    for (int i = 1; i < deep_depth_; ++i) deep += "</a>";
    deep += "</site>";
    docs.push_back({"deep.xml", std::move(deep)});
    return docs;
  }

  void Cycle(Tracer* tracer, Engine* engine, Phase* phase, LoadLog* loads) {
    const char label = engine->label();
    ++phase->attempted;
    const uint64_t start = WallTimeNanos();
    Status loaded;
    {
      ScopedSpan span(tracer, "catalog.load_corpus", label);
      span.set_bytes(corpus_bytes_);
      loaded = engine->LoadCorpus(docs_);
    }
    const double load_ms = Millis(start, WallTimeNanos());
    if (!loaded.ok() || engine->DocumentCount() != docs_.size()) {
      Fail(phase, StringPrintf("LoadCorpus on %c: %s", label,
                               loaded.ToString().c_str()));
      return;
    }
    loads->Add(label, load_ms, corpus_bytes_, engine->StorageBytes());
    if (inject_ == "missing-doc") {
      (void)engine->DropDocument(docs_.front().id);
    }
    auto session_or = engine->CreateSession();
    if (!session_or.ok()) {
      Fail(phase, "CreateSession: " + session_or.status().ToString());
      return;
    }
    EngineSession* session = session_or->get();

    bool no_flip = false;
    for (const CountCheck& count : counts_) {
      CheckedRequest(tracer, phase, session, label, 0, count.text,
                     count.expected, &no_flip, "count");
    }
    CollectionCount(tracer, phase, session, label);

    bool flip = inject_ == "flip-byte";
    for (size_t i : order_) {
      CheckedRequest(tracer, phase, session, label, 0, reconstruct_[i],
                     facts_[i].root, &flip, "reconstruct");
    }
    if (inject_ == "flip-byte") inject_.clear();
    session_or->reset();

    for (size_t i : order_) {
      const store::CorpusDocument& doc = docs_[i];
      ++phase->attempted;
      Status dropped;
      {
        ScopedSpan span(tracer, "catalog.drop", label);
        dropped = engine->DropDocument(doc.id);
      }
      if (!dropped.ok()) {
        Fail(phase, StringPrintf("DropDocument(%s) on %c: %s", doc.id.c_str(),
                                 label, dropped.ToString().c_str()));
      }
    }
    if (engine->DocumentCount() != 0) {
      Fail(phase, StringPrintf("%c still holds %zu documents after the drops",
                               label, engine->DocumentCount()));
    }
    if (inject_ == "missing-doc") inject_.clear();
  }

  // count(collection()//item): the numbers the query returns must add up
  // to the corpus-wide item count (the catalog evaluates the query per
  // document and concatenates, so today there is one number per
  // document; a single total passes as well).
  void CollectionCount(Tracer* tracer, Phase* phase, EngineSession* session,
                       char label) {
    int64_t expected = total_items_;
    if (inject_ == "wrong-count") {
      ++expected;
      inject_.clear();
    }
    std::string out;
    Status status;
    double ms = 0;
    {
      ScopedSpan span(tracer, "catalog.collection", label);
      ms = QueryRequest(tracer, session, label, 0, kCollectionCount, &out,
                        &status);
    }
    ++phase->attempted;
    phase->latency_ms.push_back(ms);
    phase->query_ms += ms;
    if (!status.ok()) {
      Fail(phase, StringPrintf("count(collection()//item) on %c: %s", label,
                               status.ToString().c_str()));
      return;
    }
    phase->result_bytes += out.size();
    int64_t sum = 0;
    for (std::string_view part : SplitString(out, ' ')) {
      if (!part.empty()) sum += std::atoll(std::string(part).c_str());
    }
    if (sum != expected) {
      Fail(phase, StringPrintf("count(collection()//item) on %c: %lld, "
                               "expected %lld",
                               label, static_cast<long long>(sum),
                               static_cast<long long>(expected)));
    }
  }

  static constexpr std::array<const char*, 2> kCountedElements = {"item",
                                                                  "person"};
  static constexpr const char* kCollectionCount = "count(collection()//item)";

  const Config& config_;
  int cycles_ = 1;
  int deep_depth_ = 0;
  std::string inject_;
  // From Prepare: the reference documents and what the oracle knows of
  // them, each check's text and answer, and the documents' total size.
  std::vector<store::CorpusDocument> reference_;
  std::vector<DocumentFacts> facts_;
  std::vector<CountCheck> counts_;  // per-document counts, then the deep one
  std::vector<std::string> reconstruct_;  // doc(d)/site per document
  int64_t total_items_ = 0;
  size_t corpus_bytes_ = 0;
  std::vector<size_t> order_;  // document order of this cycle
  std::vector<store::CorpusDocument> docs_;  // of the current set-up
};

// --- Reporting -------------------------------------------------------------

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += StringPrintf("\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                          name.c_str(), std::isfinite(value) ? value : 0.0,
                          unit);
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

// Bytes of one load of each system over the sum of the systems' median
// load times, as MB/s. The median keeps one slow load from moving it.
double IngestMbS(const LoadLog& log) {
  double bytes = 0;
  double ms = 0;
  for (const auto& [system, samples] : log.ms) {
    bytes += static_cast<double>(log.xml_bytes.at(system));
    ms += Median(samples);
  }
  return ms > 0 ? bytes / 1e6 / (ms / 1e3) : 0;
}

double DbBytesPerXmlByte(const LoadLog& log) {
  double db = 0;
  double xml = 0;
  for (const auto& [system, bytes] : log.db_bytes) {
    db += static_cast<double>(bytes);
    xml += static_cast<double>(log.xml_bytes.at(system));
  }
  return xml > 0 ? db / xml : 0;
}

void AddEndToEnd(MetricsJson* json, const std::vector<double>& setup_s,
                 const Phase& phase, const LoadLog& loads) {
  json->Add("setup_s", Median(setup_s), "s");
  json->Add("qps",
            phase.wall_s > 0
                ? static_cast<double>(phase.latency_ms.size()) / phase.wall_s
                : 0,
            "1/s");
  json->Add("latency_p50_ms", Percentile(phase.latency_ms, 0.5), "ms");
  json->Add("latency_p90_ms", Percentile(phase.latency_ms, 0.9), "ms");
  json->Add("ingest_mb_s", IngestMbS(loads), "MB/s");
  json->Add("result_mb_s",
            phase.query_ms > 0 ? static_cast<double>(phase.result_bytes) /
                                     1e6 / (phase.query_ms / 1e3)
                               : 0,
            "MB/s");
  json->Add("rss_peak_mb", PeakRssMb(), "MB");
  json->Add("db_bytes_per_xml_byte", DbBytesPerXmlByte(loads), "ratio");
}

// Per-layer metrics of the traced run: self times of its spans, its loads,
// and the engines' counters over its timed phase.
void AddPerLayer(MetricsJson* json, const Tracer& tracer, const LoadLog& loads,
                 const Counters& counters, double overhead_pct) {
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<double> self = tracer.SelfMillis();
  const auto select = [&](const char* name, char system, int query) {
    std::vector<double> ms;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, name) != 0) continue;
      if (system != 0 && spans[i].system != system) continue;
      if (query != 0 && spans[i].query != query) continue;
      ms.push_back(self[i]);
    }
    return ms;
  };
  const auto total_bytes = [&](const char* name) {
    double bytes = 0;
    for (const Span& span : spans) {
      if (std::strcmp(span.name, name) == 0) {
        bytes += static_cast<double>(span.bytes);
      }
    }
    return bytes;
  };
  const auto rate = [&](const char* name) {
    double ms = 0;
    for (double v : select(name, 0, 0)) ms += v;
    return ms > 0 ? total_bytes(name) / 1e6 / (ms / 1e3) : 0;
  };

  const double sax_mb_s = rate("probe.sax_parse");
  json->Add("gen.mb_s", rate("gen.generate"), "MB/s");
  json->Add("xml.parse_mb_s", sax_mb_s, "MB/s");
  for (SystemId id : kServingSystems) {
    const char c = bench::SystemLabel(id);
    auto it = loads.ms.find(c);
    const bool loaded = it != loads.ms.end();
    const double load_ms = loaded ? Median(it->second) : 0;
    // Fill time: the load minus what a bare SAX parse of the same bytes
    // takes.
    const double parse_ms =
        loaded && sax_mb_s > 0
            ? static_cast<double>(loads.xml_bytes.at(c)) / 1e6 / sax_mb_s * 1e3
            : 0;
    json->Add(StringPrintf("store.load_ms.%c", c), load_ms, "ms");
    json->Add(StringPrintf("store.fill_ms.%c", c), load_ms - parse_ms, "ms");
    json->Add(StringPrintf("store.db_bytes.%c", c),
              loaded ? static_cast<double>(loads.db_bytes.at(c)) : 0, "bytes");
  }
  json->Add("catalog.load_corpus_ms",
            Median(select("catalog.load_corpus", 0, 0)), "ms");
  json->Add("catalog.drop_ms", Median(select("catalog.drop", 0, 0)), "ms");
  // The whole collection() request: the span's own self time is ~0, so
  // its duration is what the fan-out costs.
  std::vector<double> collection;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, "catalog.collection") == 0) {
      collection.push_back(span.millis());
    }
  }
  json->Add("catalog.collection_ms", Median(collection), "ms");

  // Compile split from the probes: parse, uncached compile minus the parse
  // of the same text, cached compile.
  const std::vector<double> parse = select("probe.parse", 0, 0);
  const std::vector<double> uncached = select("probe.prepare_uncached", 0, 0);
  std::vector<double> optimize;
  for (size_t i = 0; i < parse.size() && i < uncached.size(); ++i) {
    optimize.push_back(uncached[i] - parse[i]);
  }
  json->Add("query.parse_ms", Median(parse), "ms");
  json->Add("query.optimize_ms", Median(optimize), "ms");
  json->Add("query.prepare_cached_ms",
            Median(select("probe.prepare_cached", 0, 0)), "ms");
  json->Add("query.plan_cache.hits",
            static_cast<double>(counters.cache.hits), "count");
  json->Add("query.plan_cache.misses",
            static_cast<double>(counters.cache.misses), "count");
  for (SystemId id : kServingSystems) {
    const char c = bench::SystemLabel(id);
    json->Add(StringPrintf("query.execute_ms.%c", c),
              Median(select("query.execute", c, 0)), "ms");
  }
  for (int q = 1; q <= 20; ++q) {
    json->Add(StringPrintf("query.execute_ms.Q%d", q),
              Median(select("query.execute", 0, q)), "ms");
  }
  const query::EvalStats& exec = counters.exec;
  const std::array<std::pair<const char*, int64_t>, 7> exec_counters = {{
      {"nodes_visited", exec.nodes_visited},
      {"index_lookups", exec.index_lookups},
      {"descendant_scans", exec.descendant_scans},
      {"join_probes", exec.join_probes},
      {"nodes_constructed", exec.nodes_constructed},
      {"pipeline_batches_fused", exec.pipeline_batches_fused},
      {"virtual_batches", exec.virtual_batches},
  }};
  for (const auto& [name, value] : exec_counters) {
    json->Add(std::string("query.exec.") + name, static_cast<double>(value),
              "count");
  }
  for (SystemId id : kServingSystems) {
    const char c = bench::SystemLabel(id);
    json->Add(StringPrintf("query.serialize_ms.%c", c),
              Median(select("query.serialize", c, 0)), "ms");
  }
  json->Add("query.serialize_mb_s", rate("query.serialize"), "MB/s");
  json->Add("query.result_bytes", total_bytes("query.serialize"), "bytes");
  json->Add("trace.overhead_pct", overhead_pct, "%");
}

int Main(const Config& config) {
  std::unique_ptr<Workload> workload;
  if (config.workload == "xmark-q1q20") {
    workload = std::make_unique<Q1Q20Workload>(config);
  } else if (config.workload == "adhoc-lookups") {
    workload = std::make_unique<AdhocWorkload>(config);
  } else if (config.workload == "corpus-roundtrip") {
    workload = std::make_unique<CorpusWorkload>(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }

  std::printf("# xmark_e2e workload=%s seed=%llu seconds=%d trace=%d%s%s\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.inject.empty() ? "" : " inject=",
              config.inject.c_str());
  std::printf("# git=%s cpu=\"%s\" nproc=%u load_threads=%u\n",
              config.git.c_str(), CpuModel().c_str(),
              std::thread::hardware_concurrency(), kLoadThreads);

  Tracer tracer(false);
  workload->Prepare(&tracer);
  // One part of the operation list, after a set-up of its own.
  const auto run_part = [&](int part, Phase* phase, LoadLog* loads,
                            std::vector<double>* setup_s,
                            Counters* counters) -> Status {
    workload->Teardown();
    const uint64_t start = WallTimeNanos();
    XMARK_RETURN_IF_ERROR(workload->Setup(&tracer, loads));
    setup_s->push_back(Millis(start, WallTimeNanos()) / 1e3);
    if (part == 0 && !tracer.enabled()) {
      workload->Verify();
      std::printf("# %s\n", workload->Describe().c_str());
    }
    const Counters before = workload->counters();
    workload->Run(&tracer, phase, loads, part);
    counters->Accumulate(workload->counters().Minus(before));
    return Status::OK();
  };

  // The untraced parts give the end-to-end metrics. A traced run follows
  // each untraced part with the same part traced, so both meet the machine
  // in the same state, and reports per-layer metrics from the traced parts
  // and the tracing overhead from the two wall times.
  Phase phase;
  Phase traced;
  LoadLog loads;
  LoadLog traced_loads;
  std::vector<double> setup_s;
  std::vector<double> traced_setup_s;
  Counters counters;
  Counters traced_counters;
  Status status;
  for (int part = 0; status.ok() && part < kSetups; ++part) {
    tracer.set_enabled(false);
    status = run_part(part, &phase, &loads, &setup_s, &counters);
    if (status.ok() && config.trace) {
      tracer.set_enabled(true);
      status = run_part(part, &traced, &traced_loads, &traced_setup_s,
                        &traced_counters);
    }
  }
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::string setups;
  for (double s : setup_s) setups += StringPrintf(" %.4f", s);
  std::printf("# set-ups (s):%s\n", setups.c_str());

  MetricsJson json;
  if (!config.trace) {
    AddEndToEnd(&json, setup_s, phase, loads);
  } else {
    workload->Probe(&tracer);
    const double overhead_pct =
        phase.wall_s > 0 ? (traced.wall_s / phase.wall_s - 1) * 100 : 0;
    AddPerLayer(&json, tracer, traced_loads, traced_counters, overhead_pct);
    std::printf("# traced run: %zu spans, %.3f s traced vs %.3f s "
                "untraced\n",
                tracer.spans().size(), traced.wall_s, phase.wall_s);
    if (!config.trace_out.empty() &&
        !tracer.WriteChromeTrace(config.trace_out, kWrittenSpans)) {
      std::fprintf(stderr, "cannot write %s\n", config.trace_out.c_str());
      return 1;
    }
  }
  const uint64_t attempted = phase.attempted + traced.attempted;
  const uint64_t failed = phase.failed + traced.failed;
  workload->Teardown();
  // Every operation is checked, and a wrong answer or an error counts in
  // `failed`; no operation is known to fail, so any failure is incorrect.
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), json.body().c_str());
  return 0;
}

}  // namespace
}  // namespace xmark::e2e

int main(int argc, char** argv) {
  xmark::e2e::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      config.trace = std::atoi(value) != 0;
    } else if (flag == "--inject") {
      config.inject = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else if (flag == "--git") {
      config.git = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.seconds < 1 || config.seconds > 60) {
    std::fprintf(stderr, "--seconds must be 1..60\n");
    return 2;
  }
  // Faults for the self-test: every workload takes flip-byte and
  // wrong-count; missing-doc applies to corpus-roundtrip, the workload
  // that loads and drops documents.
  if (!config.inject.empty() && config.inject != "flip-byte" &&
      config.inject != "wrong-count" &&
      !(config.inject == "missing-doc" &&
        config.workload == "corpus-roundtrip")) {
    std::fprintf(stderr, "--inject %s does not apply to %s\n",
                 config.inject.c_str(), config.workload.c_str());
    return 2;
  }
  return xmark::e2e::Main(config);
}
