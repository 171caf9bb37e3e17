#include "scenario/registry.h"

#include <ios>
#include <mutex>
#include <sstream>

#include "lang/relax.h"
#include "scenario/builtins.h"
#include "util/assert.h"

namespace lnc::scenario {

ParamMap merged_params(const ParamSchema& schema, const ParamMap& params) {
  ParamMap merged;
  for (const ParamSpec& spec : schema) {
    const auto it = params.find(spec.name);
    merged[spec.name] = it != params.end() ? it->second : spec.default_value;
  }
  return merged;
}

double param(const ParamMap& merged, const std::string& name) {
  const auto it = merged.find(name);
  LNC_EXPECTS(it != merged.end() && "parameter not in merged map");
  return it->second;
}

bool is_canonical_ring(const std::string& topology) {
  return topology == "ring" || topology == "hard-ring";
}

const lang::LclLanguage* lcl_core(const lang::Language& language) {
  if (const auto* lcl = dynamic_cast<const lang::LclLanguage*>(&language)) {
    return lcl;
  }
  if (const auto* relaxed = dynamic_cast<const RelaxedLanguage*>(&language)) {
    return &relaxed->core();
  }
  if (const auto* raw = dynamic_cast<const lang::FResilient*>(&language)) {
    return &raw->base();
  }
  if (const auto* raw = dynamic_cast<const lang::EpsSlack*>(&language)) {
    return &raw->base();
  }
  if (const auto* raw = dynamic_cast<const lang::PolyResilient*>(&language)) {
    return &raw->base();
  }
  return nullptr;
}

template <typename Entry>
void Registry<Entry>::add(Entry entry) {
  LNC_EXPECTS(!entry.name.empty());
  const auto [it, inserted] = entries_.emplace(entry.name, std::move(entry));
  (void)it;
  LNC_EXPECTS(inserted && "duplicate registry name");
}

template <typename Entry>
const Entry* Registry<Entry>::find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() ? &it->second : nullptr;
}

template <typename Entry>
std::vector<const Entry*> Registry<Entry>::all() const {
  std::vector<const Entry*> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(&entry);
  return out;
}

template class Registry<TopologyEntry>;
template class Registry<LanguageEntry>;
template class Registry<ConstructionEntry>;
template class Registry<DeciderEntry>;
template class Registry<StatisticEntry>;
template class Registry<FaultEntry>;

namespace {

struct Registries {
  Registry<TopologyEntry> topologies;
  Registry<LanguageEntry> languages;
  Registry<ConstructionEntry> constructions;
  Registry<DeciderEntry> deciders;
  Registry<StatisticEntry> statistics;
  Registry<FaultEntry> faults;
};

/// Built-ins register during the (thread-safe) static-local init, so the
/// public accessors below never hand out a half-populated registry.
Registries& registries() {
  static Registries* instance = [] {
    auto* r = new Registries;
    detail::register_builtins(r->topologies, r->languages, r->constructions,
                              r->deciders, r->statistics, r->faults);
    return r;
  }();
  return *instance;
}

}  // namespace

Registry<TopologyEntry>& topologies() { return registries().topologies; }
Registry<LanguageEntry>& languages() { return registries().languages; }
Registry<ConstructionEntry>& constructions() {
  return registries().constructions;
}
Registry<DeciderEntry>& deciders() { return registries().deciders; }
Registry<StatisticEntry>& statistics() { return registries().statistics; }
Registry<FaultEntry>& faults() { return registries().faults; }

local::Instance build_instance(const std::string& topology, std::uint64_t n,
                               const ParamMap& params, std::uint64_t seed) {
  const TopologyEntry* entry = topologies().find(topology);
  LNC_EXPECTS(entry != nullptr && "unknown topology");
  return entry->build(n, merged_params(entry->schema, params), seed);
}

namespace {

/// The process-wide intern cache behind both representations. The key is
/// `prefix` + topology/n/seed/merged params; hexfloat keeps it injective
/// in the parameter values (default stream precision would collide
/// parameters agreeing to 6 digits). `build` runs outside the lock
/// (instances can be large); on a race the first insert wins, and both
/// builds are identical by determinism in (params, seed). A null build
/// is returned and never cached.
std::shared_ptr<const local::Instance> intern(
    const char* prefix, const std::string& topology, std::uint64_t n,
    std::uint64_t seed, const ParamMap& merged,
    const std::function<std::shared_ptr<const local::Instance>()>& build) {
  std::ostringstream key_stream;
  key_stream << std::hexfloat << prefix << topology << '/' << n << '/'
             << seed;
  for (const auto& [name, value] : merged) {
    key_stream << '/' << name << '=' << value;
  }
  const std::string key = key_stream.str();

  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const local::Instance>>* cache =
      new std::map<std::string, std::shared_ptr<const local::Instance>>;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache->find(key);
    if (it != cache->end()) return it->second;
  }
  std::shared_ptr<const local::Instance> built = build();
  if (built == nullptr) return nullptr;
  const std::lock_guard<std::mutex> lock(mutex);
  return cache->emplace(key, std::move(built)).first->second;
}

}  // namespace

std::shared_ptr<const local::Instance> interned_instance(
    const std::string& topology, std::uint64_t n, const ParamMap& params,
    std::uint64_t seed) {
  const TopologyEntry* entry = topologies().find(topology);
  LNC_EXPECTS(entry != nullptr && "unknown topology");
  const ParamMap merged = merged_params(entry->schema, params);
  return intern("", topology, n, seed, merged, [&] {
    return std::make_shared<const local::Instance>(
        entry->build(n, merged, seed));
  });
}

std::shared_ptr<const local::Instance> interned_implicit_instance(
    const std::string& topology, std::uint64_t n, const ParamMap& params,
    std::uint64_t seed) {
  const TopologyEntry* entry = topologies().find(topology);
  LNC_EXPECTS(entry != nullptr && "unknown topology");
  LNC_EXPECTS(entry->build_implicit &&
              "topology has no implicit representation");
  const ParamMap merged = merged_params(entry->schema, params);
  // "implicit:" prefixes the key space so the two representations of one
  // spec intern side by side instead of evicting each other.
  return intern("implicit:", topology, n, seed, merged,
                [&]() -> std::shared_ptr<const local::Instance> {
                  auto implicit = entry->build_implicit(n, merged, seed);
                  if (implicit == nullptr) return nullptr;  // hook declined
                  return std::make_shared<const local::Instance>(
                      local::make_implicit_instance(std::move(implicit)));
                });
}

std::unique_ptr<lang::Language> make_language(const std::string& name,
                                              const ParamMap& params) {
  const LanguageEntry* entry = languages().find(name);
  LNC_EXPECTS(entry != nullptr && "unknown language");
  return entry->build(merged_params(entry->schema, params));
}

std::unique_ptr<Construction> make_construction(const std::string& name,
                                                const ParamMap& params) {
  const ConstructionEntry* entry = constructions().find(name);
  LNC_EXPECTS(entry != nullptr && "unknown construction");
  return entry->build(merged_params(entry->schema, params));
}

std::unique_ptr<decide::Decider> make_decider(
    const std::string& name, const lang::Language* language,
    const ParamMap& params) {
  const DeciderEntry* entry = deciders().find(name);
  LNC_EXPECTS(entry != nullptr && "unknown decider");
  LNC_EXPECTS(!entry->global_check &&
              "the exact pseudo-decider has no decider object");
  if (entry->needs_lcl) {
    LNC_EXPECTS(language != nullptr && lcl_core(*language) != nullptr &&
                "decider needs an LCL-backed language");
  }
  return entry->build(language, merged_params(entry->schema, params));
}

std::shared_ptr<const fault::FaultModel> make_fault(const std::string& name,
                                                    const ParamMap& params) {
  const FaultEntry* entry = faults().find(name);
  LNC_EXPECTS(entry != nullptr && "unknown fault model");
  return entry->build(merged_params(entry->schema, params));
}

}  // namespace lnc::scenario
