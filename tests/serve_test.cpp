// Serving-tier tests (src/serve): cache-key canonicalization (the key
// ignores trials/seed/labels/backend and JSON key order, and changes on
// every semantic field), the self-contained SHA-256 against FIPS 180-4
// vectors, ResultStore round trip + corruption/stale-epoch degradation
// to diagnosed misses, trial-range merging, and the SweepService
// contract — miss seeds the cache, repeat hits run zero trials, top-up
// computes only the missing range and is BIT-identical to a cold run,
// concurrent identical queries share one computation — plus the daemon
// protocol via handle_request_line (no sockets needed), and the socket
// loop's request-line cap through a real run_daemon.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "local/batch_runner.h"
#include "scenario/presets.h"
#include "scenario/scenario.h"
#include "scenario/spec_json.h"
#include "scenario/sweep.h"
#include "serve/cache_key.h"
#include "serve/daemon.h"
#include "serve/result_store.h"
#include "serve/service.h"
#include "util/build_info.h"
#include "util/file_util.h"

namespace {

using namespace lnc;
using scenario::ScenarioSpec;
using serve::CacheEntry;
using serve::CacheKey;
using serve::CacheOutcome;

ScenarioSpec shrunk(const char* preset_name, std::uint64_t trials,
                    std::uint64_t n) {
  const ScenarioSpec* preset = scenario::find_preset(preset_name);
  EXPECT_NE(preset, nullptr) << preset_name;
  ScenarioSpec spec = *preset;
  spec.trials = trials;
  spec.n_grid = {n};
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("lnc-serve-" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

scenario::SweepResult cold_run(const ScenarioSpec& spec) {
  return scenario::run_sweep(scenario::compile(spec));
}

/// Bit-level row equality: tallies, exact accumulators (canonical hex
/// words), counter slots, deterministic telemetry. Timing excluded.
void expect_rows_bit_identical(const scenario::SweepResult& want,
                               const scenario::SweepResult& got) {
  ASSERT_EQ(want.rows.size(), got.rows.size());
  EXPECT_EQ(want.workload, got.workload);
  for (std::size_t i = 0; i < want.rows.size(); ++i) {
    const local::ShardTally& w = want.rows[i].tally;
    const local::ShardTally& g = got.rows[i].tally;
    EXPECT_EQ(want.rows[i].total_trials, got.rows[i].total_trials);
    EXPECT_EQ(w.trials, g.trials);
    EXPECT_EQ(w.successes, g.successes);
    EXPECT_EQ(w.value_sum.to_hex(), g.value_sum.to_hex());
    EXPECT_EQ(w.value_sum_sq.to_hex(), g.value_sum_sq.to_hex());
    EXPECT_EQ(w.counts, g.counts);
    EXPECT_EQ(w.telemetry.messages_sent, g.telemetry.messages_sent);
    EXPECT_EQ(w.telemetry.words_sent, g.telemetry.words_sent);
    EXPECT_EQ(w.telemetry.rounds_executed, g.telemetry.rounds_executed);
    EXPECT_EQ(w.telemetry.ball_expansions, g.telemetry.ball_expansions);
    EXPECT_EQ(w.telemetry.messages_dropped, g.telemetry.messages_dropped);
    EXPECT_EQ(w.telemetry.nodes_crashed, g.telemetry.nodes_crashed);
    EXPECT_EQ(w.telemetry.edges_churned, g.telemetry.edges_churned);
  }
}

// ------------------------------------------------------------- sha256 --

TEST(Sha256, Fips180KnownAnswers) {
  EXPECT_EQ(serve::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(serve::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  // Two-block message (FIPS 180-4 example B.2).
  EXPECT_EQ(serve::sha256_hex(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039"
            "a33ce45964ff2167f6ecedd419db06c1");
  // Padding boundary: 55/56/64-byte messages exercise the one- vs
  // two-block finalization split.
  EXPECT_EQ(serve::sha256_hex(std::string(56, 'a')),
            "b35439a4ac6f0948b6d6f9e3c6af0f5f"
            "590ce20f1bde7090ef7970686ec6738a");
}

// ---------------------------------------------------------- cache key --

TEST(CacheKey, IgnoresNonSemanticFields) {
  const ScenarioSpec base = shrunk("luby-mis-rounds", 100, 64);
  const CacheKey key = serve::cache_key(base);
  EXPECT_EQ(key.size(), 64u);

  ScenarioSpec variant = base;
  variant.trials = 7777;
  EXPECT_EQ(serve::cache_key(variant), key) << "trials must not key";
  variant = base;
  variant.base_seed = 999;
  EXPECT_EQ(serve::cache_key(variant), key) << "seed must not key";
  variant = base;
  variant.name = "renamed";
  variant.doc = "other docs";
  EXPECT_EQ(serve::cache_key(variant), key) << "labels must not key";
  variant = base;
  variant.backend = local::OptimizationConfig::Backend::kNaive;
  EXPECT_EQ(serve::cache_key(variant), key)
      << "backends are bit-identical, so they must not key";
}

TEST(CacheKey, JsonKeyOrderDoesNotMatter) {
  // The same spec spelled with top-level keys in two different orders
  // must produce the same key: canonicalization goes through the parsed
  // (ordered-map) form, not the input bytes.
  const std::string forward =
      "{\"name\": \"a\", \"topology\": \"ring\", \"language\": \"amos\","
      " \"construction\": \"amos-verifier\", \"decider\": \"exact\","
      " \"params\": {\"ids\": 1, \"radius\": 2}, \"workload\": \"success\","
      " \"n\": [16], \"trials\": 10, \"seed\": 3}";
  const std::string reordered =
      "{\"trials\": 99, \"seed\": 42, \"n\": [16],"
      " \"params\": {\"radius\": 2, \"ids\": 1},"
      " \"decider\": \"exact\", \"construction\": \"amos-verifier\","
      " \"language\": \"amos\", \"topology\": \"ring\","
      " \"workload\": \"success\", \"name\": \"b\"}";
  const ScenarioSpec a = scenario::spec_from_json(forward);
  const ScenarioSpec b = scenario::spec_from_json(reordered);
  EXPECT_EQ(serve::cache_key(a), serve::cache_key(b));
}

TEST(CacheKey, SemanticChangesChangeTheKey) {
  const ScenarioSpec base = shrunk("luby-mis-rounds", 100, 64);
  const CacheKey key = serve::cache_key(base);

  ScenarioSpec variant = base;
  variant.params["degree"] = 4;
  EXPECT_NE(serve::cache_key(variant), key) << "param value";
  variant = base;
  variant.params["extra"] = 1;
  EXPECT_NE(serve::cache_key(variant), key) << "param presence";
  variant = base;
  variant.n_grid = {64, 128};
  EXPECT_NE(serve::cache_key(variant), key) << "n grid";
  variant = base;
  variant.statistic = "messages";
  EXPECT_NE(serve::cache_key(variant), key) << "statistic";
  variant = base;
  variant.mode = local::ExecMode::kMessages;
  EXPECT_NE(serve::cache_key(variant), key)
      << "exec mode (telemetry is measured vs modeled)";
  variant = base;
  variant.topology = "ring";
  EXPECT_NE(serve::cache_key(variant), key) << "topology";

  const ScenarioSpec success = shrunk("ring-amos-yes", 100, 16);
  ScenarioSpec flipped = success;
  flipped.success_on_accept = !success.success_on_accept;
  EXPECT_NE(serve::cache_key(flipped), serve::cache_key(success))
      << "success side";
}

TEST(CacheKey, TrivialFaultBlocksDoNotKey) {
  // A spec that never mentions faults, one that says fault="none", and
  // one that says fault="none" with no parameters all canonicalize to the
  // same bytes — pre-fault cache entries stay addressable, byte for byte.
  const ScenarioSpec base = shrunk("ring-amos-yes", 100, 16);
  const CacheKey key = serve::cache_key(base);

  ScenarioSpec variant = base;
  variant.fault = "none";
  EXPECT_EQ(serve::cache_key(variant), key) << "explicit none must not key";

  // Spelling out a non-trivial model's schema default equals omitting
  // it: cache_normal_form materializes defaults before hashing, so
  // `drop` and `drop{p-loss=0.1}` share one cache entry.
  ScenarioSpec defaulted = base;
  defaulted.fault = "drop";
  ScenarioSpec spelled = defaulted;
  spelled.fault_params = {{"p-loss", 0.1}};  // the declared default
  EXPECT_EQ(serve::cache_key(spelled), serve::cache_key(defaulted));
  EXPECT_NE(serve::cache_key(defaulted), key)
      << "a non-trivial fault model must key";
}

TEST(CacheKey, EveryFaultModelAndParamIsKeySensitive) {
  const ScenarioSpec base = shrunk("ring-amos-yes", 100, 16);
  auto with_fault = [&](const char* model, scenario::ParamMap params) {
    ScenarioSpec spec = base;
    spec.fault = model;
    spec.fault_params = std::move(params);
    return serve::cache_key(spec);
  };

  // Distinct models key distinctly.
  const CacheKey drop = with_fault("drop", {{"p-loss", 0.1}});
  const CacheKey crash =
      with_fault("crash", {{"p-crash", 0.05}, {"crash-round", 1}});
  const CacheKey churn = with_fault("churn", {{"p-churn", 0.1}});
  EXPECT_NE(drop, crash);
  EXPECT_NE(drop, churn);
  EXPECT_NE(crash, churn);

  // Every declared parameter is key-sensitive.
  EXPECT_NE(with_fault("drop", {{"p-loss", 0.2}}), drop);
  EXPECT_NE(with_fault("crash", {{"p-crash", 0.1}, {"crash-round", 1}}),
            crash);
  EXPECT_NE(with_fault("crash", {{"p-crash", 0.05}, {"crash-round", 4}}),
            crash);
  EXPECT_NE(with_fault("churn", {{"p-churn", 0.25}}), churn);
}

TEST(CacheKey, PreimageIsVersionedByEpoch) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 10, 16);
  const std::string preimage = serve::cache_key_preimage(spec);
  const std::string expected_prefix =
      "lnc-cache-v1 epoch=" + std::to_string(util::seed_stream_epoch()) +
      "\n";
  ASSERT_GE(preimage.size(), expected_prefix.size());
  EXPECT_EQ(preimage.substr(0, expected_prefix.size()), expected_prefix);
  EXPECT_EQ(serve::cache_key(spec), serve::sha256_hex(preimage));
}

// --------------------------------------------------------- ResultStore --

TEST(ResultStore, RoundTripsAnEntry) {
  const serve::ResultStore store(fresh_dir("roundtrip"));
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 12, 64);
  CacheEntry entry;
  entry.key = serve::cache_key(spec);
  entry.spec = spec;
  entry.result = cold_run(spec);
  ASSERT_EQ(store.store(entry), "");

  std::string diagnostic;
  const std::optional<CacheEntry> loaded =
      store.lookup(entry.key, &diagnostic);
  ASSERT_TRUE(loaded.has_value()) << diagnostic;
  EXPECT_EQ(loaded->key, entry.key);
  EXPECT_EQ(loaded->seed_stream_epoch, util::seed_stream_epoch());
  EXPECT_EQ(loaded->spec.trials, spec.trials);
  EXPECT_EQ(loaded->spec.base_seed, spec.base_seed);
  expect_rows_bit_identical(entry.result, loaded->result);
}

TEST(ResultStore, NeverReplacesAnEntryCoveringMoreTrials) {
  // A smaller write-back (a racing miss, or the resume of a superseded
  // run) must not throw away trials the store already holds.
  const serve::ResultStore store(fresh_dir("keep-larger"));
  const ScenarioSpec big = shrunk("ring-amos-yes", 20, 16);
  ScenarioSpec small = big;
  small.trials = 8;
  small.base_seed = big.base_seed + 1;
  const CacheKey key = serve::cache_key(big);
  ASSERT_EQ(key, serve::cache_key(small));
  ASSERT_EQ(store.store({key, 0, {}, big, cold_run(big)}), "");
  ASSERT_EQ(store.store({key, 0, {}, small, cold_run(small)}), "");
  std::optional<CacheEntry> kept = store.lookup(key);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->spec.trials, 20u);
  EXPECT_EQ(kept->spec.base_seed, big.base_seed);

  // An entry covering more trials does replace a smaller one.
  ScenarioSpec bigger = big;
  bigger.trials = 30;
  ASSERT_EQ(store.store({key, 0, {}, bigger, cold_run(bigger)}), "");
  kept = store.lookup(key);
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->spec.trials, 30u);
}

TEST(ResultStore, MissingEntryIsADiagnosedMiss) {
  const serve::ResultStore store(fresh_dir("absent"));
  std::string diagnostic;
  EXPECT_FALSE(store.lookup(std::string(64, '0'), &diagnostic).has_value());
  EXPECT_EQ(diagnostic, "no entry");
}

TEST(ResultStore, CorruptEntryDegradesToAMiss) {
  const serve::ResultStore store(fresh_dir("corrupt"));
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  const CacheKey key = serve::cache_key(spec);
  ASSERT_EQ(util::write_file_atomic(store.path_for(key), "{ not json"), "");
  std::string diagnostic;
  EXPECT_FALSE(store.lookup(key, &diagnostic).has_value());
  EXPECT_NE(diagnostic, "");
  EXPECT_NE(diagnostic, "no entry");
}

TEST(ResultStore, StaleEpochDegradesToAMiss) {
  const serve::ResultStore store(fresh_dir("epoch"));
  const ScenarioSpec spec = shrunk("ring-amos-yes", 8, 16);
  CacheEntry entry;
  entry.key = serve::cache_key(spec);
  entry.spec = spec;
  entry.result = cold_run(spec);
  ASSERT_EQ(store.store(entry), "");

  // Rewrite the stored entry claiming a different seed-stream epoch —
  // as a binary from another generation would have.
  std::string text;
  ASSERT_EQ(util::read_file(store.path_for(entry.key), text), "");
  const std::string field = "\"seed_stream_epoch\": ";
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  std::size_t end = at + field.size();
  while (end < text.size() && std::isdigit(text[end])) ++end;
  text.replace(at + field.size(), end - (at + field.size()), "999");
  ASSERT_EQ(util::write_file_atomic(store.path_for(entry.key), text), "");

  std::string diagnostic;
  EXPECT_FALSE(store.lookup(entry.key, &diagnostic).has_value());
  EXPECT_NE(diagnostic.find("epoch"), std::string::npos) << diagnostic;
}

// --------------------------------------------------- trial-range merge --

TEST(TrialRanges, SplitRunsMergeBitIdentically) {
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 25, 64);
  const scenario::SweepResult whole = cold_run(spec);
  const scenario::CompiledScenario compiled = scenario::compile(spec);

  // Deliberately uneven split points — nothing about the merge depends
  // on near-equal shard_range slices.
  std::vector<scenario::SweepResult> parts;
  const std::uint64_t cuts[] = {0, 3, 4, 20, 25};
  for (int i = 0; i + 1 < 5; ++i) {
    scenario::SweepOptions options;
    options.trial_range = local::TrialRange{cuts[i], cuts[i + 1]};
    parts.push_back(scenario::run_sweep(compiled, options));
  }
  ASSERT_EQ(scenario::can_merge_trial_ranges(parts), "");
  const scenario::SweepResult merged = scenario::merge_trial_ranges(parts);
  EXPECT_EQ(merged.trial_begin, 0u);
  EXPECT_EQ(merged.trial_end, spec.trials);
  EXPECT_TRUE(merged.complete());
  expect_rows_bit_identical(whole, merged);
}

TEST(TrialRanges, GapsAndDisorderAreRejected) {
  const ScenarioSpec spec = shrunk("ring-amos-yes", 20, 16);
  const scenario::CompiledScenario compiled = scenario::compile(spec);
  auto slice = [&](std::uint64_t begin, std::uint64_t end) {
    scenario::SweepOptions options;
    options.trial_range = local::TrialRange{begin, end};
    return scenario::run_sweep(compiled, options);
  };
  const scenario::SweepResult a = slice(0, 8);
  const scenario::SweepResult b = slice(8, 20);
  const scenario::SweepResult late = slice(10, 20);

  EXPECT_EQ(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{a, b}),
            "");
  EXPECT_NE(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{a, late}),
            "")
      << "a gap [8,10) must not merge";
  EXPECT_NE(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{b, a}),
            "")
      << "out-of-order parts must not merge";
  EXPECT_NE(scenario::can_merge_trial_ranges(
                std::vector<scenario::SweepResult>{b}),
            "")
      << "coverage must start at trial 0";
}

// -------------------------------------------------------- SweepService --

TEST(SweepService, MissSeedsTheCacheAndRepeatHits) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("misshit"), options);
  const ScenarioSpec spec = shrunk("ring-amos-yes", 16, 16);

  const serve::QueryOutcome first = service.query(spec);
  EXPECT_EQ(first.outcome, CacheOutcome::kMiss);
  EXPECT_EQ(first.trials_computed, 16u);
  EXPECT_EQ(first.trials_reused, 0u);

  const serve::QueryOutcome second = service.query(spec);
  EXPECT_EQ(second.outcome, CacheOutcome::kHit);
  EXPECT_EQ(second.trials_computed, 0u);
  EXPECT_EQ(second.trials_reused, 16u);
  EXPECT_EQ(second.key, first.key);
  expect_rows_bit_identical(first.result, second.result);

  const serve::SweepService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.trials_computed, 16u)
      << "the repeat query must not rerun any trial";
}

TEST(SweepService, TopUpIsBitIdenticalToAColdRun) {
  // The acceptance-criterion property, library-level: miss at T', then
  // query T > T' (computes only [T', T)) == cold run at T, exactly —
  // for a value workload (exact sums + telemetry) and a success one.
  struct Case {
    const char* preset;
    std::uint64_t n;
  };
  for (const Case& c : {Case{"luby-mis-rounds", 64},
                        Case{"ring-amos-yes", 16}}) {
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(
        fresh_dir(std::string("topup-") + c.preset), options);

    const ScenarioSpec small = shrunk(c.preset, 11, c.n);
    ScenarioSpec big = small;
    big.trials = 29;

    EXPECT_EQ(service.query(small).outcome, CacheOutcome::kMiss);
    const serve::QueryOutcome topped = service.query(big);
    EXPECT_EQ(topped.outcome, CacheOutcome::kTopUp);
    EXPECT_EQ(topped.trials_reused, 11u);
    EXPECT_EQ(topped.trials_computed, 18u);

    expect_rows_bit_identical(cold_run(big), topped.result);

    // And the topped-up entry serves the next query outright.
    const serve::QueryOutcome again = service.query(big);
    EXPECT_EQ(again.outcome, CacheOutcome::kHit);
    expect_rows_bit_identical(topped.result, again.result);
  }
}

TEST(SweepService, FaultyMissHitAndTopUpAreBitIdentical) {
  // The serving tier treats faulty scenarios like any other: a miss
  // seeds the cache, a repeat query hits without recomputation, and a
  // top-up (computing only the missing trial range) is bit-identical to
  // a cold run — fault telemetry included. Works because fault coins are
  // pure functions of the trial index, never of the cached prefix.
  struct Case {
    const char* preset;
    std::uint64_t n;
  };
  for (const Case& c : {Case{"ring-amos-drop", 16}, Case{"luby-mis-crash", 64},
                        Case{"rand-matching-churn", 64}}) {
    serve::ServiceOptions options;
    options.threads = 1;
    serve::SweepService service(
        fresh_dir(std::string("fault-topup-") + c.preset), options);

    const ScenarioSpec small = shrunk(c.preset, 11, c.n);
    ScenarioSpec big = small;
    big.trials = 29;

    EXPECT_EQ(service.query(small).outcome, CacheOutcome::kMiss) << c.preset;
    const serve::QueryOutcome repeat = service.query(small);
    EXPECT_EQ(repeat.outcome, CacheOutcome::kHit) << c.preset;
    EXPECT_EQ(repeat.trials_computed, 0u) << c.preset;

    const serve::QueryOutcome topped = service.query(big);
    EXPECT_EQ(topped.outcome, CacheOutcome::kTopUp) << c.preset;
    EXPECT_EQ(topped.trials_reused, 11u) << c.preset;
    EXPECT_EQ(topped.trials_computed, 18u) << c.preset;
    expect_rows_bit_identical(cold_run(big), topped.result);

    const local::Telemetry& telemetry = topped.result.rows[0].tally.telemetry;
    EXPECT_GT(telemetry.messages_dropped + telemetry.nodes_crashed +
                  telemetry.edges_churned,
              0u)
        << c.preset << ": the fault model never fired";
  }
}

TEST(SweepService, EntrySeedIsCanonical) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("seed"), options);
  ScenarioSpec spec = shrunk("ring-amos-yes", 12, 16);
  spec.base_seed = 101;
  EXPECT_EQ(service.query(spec).outcome, CacheOutcome::kMiss);

  ScenarioSpec other_seed = spec;
  other_seed.base_seed = 202;
  const serve::QueryOutcome served = service.query(other_seed);
  EXPECT_EQ(served.outcome, CacheOutcome::kHit)
      << "the key excludes the seed";
  EXPECT_TRUE(served.seed_differs);
  EXPECT_EQ(served.served_seed, 101u) << "first writer's seed wins";
  EXPECT_EQ(served.result.base_seed, 101u);
}

TEST(SweepService, ConcurrentIdenticalQueriesShareOneComputation) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("dedup"), options);
  const ScenarioSpec spec = shrunk("luby-mis-rounds", 14, 64);

  serve::QueryOutcome a, b;
  std::thread ta([&] { a = service.query(spec); });
  std::thread tb([&] { b = service.query(spec); });
  ta.join();
  tb.join();

  // The per-key lock serializes them: exactly one computes, the other
  // finds the fresh entry and hits.
  const serve::SweepService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.trials_computed, 14u);
  EXPECT_EQ(stats.key_locks, 0u) << "the last of the two frees the lock";
  expect_rows_bit_identical(a.result, b.result);
}

TEST(SweepService, IdleKeyLocksAreFreed) {
  // The key covers n but not the trial count or the seed: 40 values of n
  // are 40 keys, and none keeps a lock once its query is answered.
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("key-locks"), options);
  for (std::uint64_t n = 8; n < 48; ++n) {
    EXPECT_EQ(service.query(shrunk("ring-amos-yes", 2, n)).outcome,
              CacheOutcome::kMiss);
  }
  const serve::SweepService::Stats stats = service.stats();
  EXPECT_EQ(stats.misses, 40u);
  EXPECT_EQ(stats.key_locks, 0u);
  // The daemon's stats reply reports the same count.
  EXPECT_NE(serve::handle_request_line(service, "{\"op\": \"stats\"}")
                .find("\"key_locks\": 0}"),
            std::string::npos);
}

// ------------------------------------------------------ wire protocol --

TEST(DaemonProtocol, AnswersAndCachesRequests) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("protocol"), options);

  const std::string request =
      "{\"scenario\": \"ring-amos-yes\", \"trials\": 8, \"n\": [16]}";
  const std::string first = serve::handle_request_line(service, request);
  EXPECT_NE(first.find("\"status\": \"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"outcome\": \"miss\""), std::string::npos);
  EXPECT_NE(first.find("\"seed_stream_epoch\": "), std::string::npos);
  EXPECT_EQ(first.find('\n'), first.size() - 1)
      << "exactly one newline-terminated line";

  const std::string second = serve::handle_request_line(service, request);
  EXPECT_NE(second.find("\"outcome\": \"hit\""), std::string::npos)
      << second;
  EXPECT_NE(second.find("\"trials_computed\": 0"), std::string::npos);
}

TEST(DaemonProtocol, RejectsBadRequestsWithoutDying) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("badreq"), options);
  for (const char* bad : {
           "not json at all",
           "{\"scenario\": \"no-such-preset\"}",
           "{\"scenario\": \"ring-amos-yes\", \"bogus\": 1}",
           "{}",
           "{\"scenario\": \"ring-amos-yes\", \"spec\": {}}",
       }) {
    const std::string response = serve::handle_request_line(service, bad);
    EXPECT_NE(response.find("\"status\": \"error\""), std::string::npos)
        << bad << " -> " << response;
  }
  EXPECT_EQ(service.stats().trials_computed, 0u);
}

// Parameter values inside their declared ranges that once aborted the
// daemon are answered with an error, and the next query is served.
TEST(DaemonProtocol, InadmissibleParametersAreErrorsAndServingGoesOn) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("inadmissible"), options);
  const std::string query =
      "{\"scenario\": \"hard-ring-resilient-coloring\", \"trials\": 4, "
      "\"n\": [12]";
  for (const char* params : {
           "{\"p\": 0}",
           "{\"p\": 0.3}",
           "{\"p\": 1}",
           "{\"faults\": 1e9}",
           "{\"id-start\": 0}",
       }) {
    const std::string response = serve::handle_request_line(
        service, query + ", \"params\": " + params + "}");
    EXPECT_NE(response.find("\"status\": \"error\""), std::string::npos)
        << params << " -> " << response;
  }
  EXPECT_EQ(service.stats().trials_computed, 0u);
  const std::string next = serve::handle_request_line(service, query + "}");
  EXPECT_NE(next.find("\"status\": \"ok\""), std::string::npos) << next;
}

TEST(DaemonProtocol, DeeplyNestedRequestIsAnErrorNotACrash) {
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("deepreq"), options);
  const std::string response =
      serve::handle_request_line(service, std::string(200000, '['));
  EXPECT_NE(response.find("\"status\": \"error\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("JSON error at offset " +
                          std::to_string(scenario::Json::kMaxDepth)),
            std::string::npos)
      << response;
  EXPECT_EQ(response.find('\n'), response.size() - 1);
}

TEST(DaemonProtocol, SpecRequestsShareTheirPresetFormsCacheEntry) {
  // lnc_serve --query resolves its flags into {"spec": ...}; the preset
  // form with overrides still parses, and both name one cache entry.
  serve::ServiceOptions options;
  options.threads = 1;
  serve::SweepService service(fresh_dir("specform"), options);
  const auto key_of = [](const std::string& response) {
    const std::size_t at = response.find("\"key\": \"");
    EXPECT_NE(at, std::string::npos) << response;
    return at == std::string::npos ? std::string()
                                   : response.substr(at + 8, 64);
  };
  const std::string preset_form =
      "{\"scenario\": \"luby-mis-rounds\", \"trials\": 6, \"n\": [64], "
      "\"params\": {\"degree\": 3}}";
  ScenarioSpec spec = shrunk("luby-mis-rounds", 6, 64);
  spec.params["degree"] = 3;
  std::string spec_json = scenario::spec_to_json(spec);
  spec_json.pop_back();  // the trailing newline

  const std::string first = serve::handle_request_line(service, preset_form);
  const std::string second =
      serve::handle_request_line(service, "{\"spec\": " + spec_json + "}");
  EXPECT_EQ(key_of(first), key_of(second));
  EXPECT_NE(second.find("\"outcome\": \"hit\""), std::string::npos)
      << second;
}

TEST(CacheLine, IsTheGrepStableDecisionLine) {
  EXPECT_EQ(serve::cache_line("luby-mis-rounds", CacheOutcome::kTopUp, 30, 30,
                              std::string(64, 'a')),
            "cache[luby-mis-rounds]: outcome=topup trials_reused=30 "
            "trials_computed=30 key=aaaaaaaaaaaaaaaa epoch=" +
                std::to_string(util::seed_stream_epoch()));
}

// -------------------------------------------------------- socket loop --

TEST(Daemon, OverlongRequestLineIsRefusedAndTheDaemonSurvives) {
  const std::string dir = fresh_dir("linecap");
  std::filesystem::create_directories(dir);
  serve::DaemonOptions options;
  options.socket_path = dir + "/sock";
  options.cache_dir = dir + "/store";
  options.threads = 1;
  options.max_requests = 2;  // the two well-formed queries below
  int daemon_rc = -1;
  std::thread daemon([&] { daemon_rc = serve::run_daemon(options); });

  serve::Endpoint endpoint;
  endpoint.socket_path = options.socket_path;
  const std::string query =
      "{\"scenario\": \"ring-amos-yes\", \"trials\": 8, \"n\": [16]}";
  std::string response;
  std::string error;
  // Also waits for the daemon to bind its socket.
  ASSERT_TRUE(serve::query_daemon(endpoint, query, 10.0, response, error))
      << error;
  EXPECT_NE(response.find("\"status\": \"ok\""), std::string::npos);

  // Twice the cap with no newline: one error line naming the cap, then
  // the daemon hangs up (the rest of the send fails).
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  timeval timeout{};
  timeout.tv_sec = 10;  // a regression fails the test instead of hanging it
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const std::string flood(2 * serve::kMaxRequestLine, 'x');
  std::size_t sent = 0;
  while (sent < flood.size()) {
    const ssize_t n = ::send(fd, flood.data() + sent, flood.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) break;
    reply.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(reply.find("\"status\": \"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find(std::to_string(serve::kMaxRequestLine) + " bytes"),
            std::string::npos)
      << reply;

  // A new connection is still answered; it is the second counted
  // request, so the daemon then exits on its own.
  ASSERT_TRUE(serve::query_daemon(endpoint, query, 10.0, response, error))
      << error;
  EXPECT_NE(response.find("\"outcome\": \"hit\""), std::string::npos)
      << response;
  daemon.join();
  EXPECT_EQ(daemon_rc, 0);
}

}  // namespace
