#include "scenario/spec_flags.h"

#include <cstdint>
#include <string_view>
#include <utility>

#include "scenario/presets.h"
#include "scenario/spec_json.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace lnc::scenario {
namespace {

using Edit = std::function<void(ScenarioSpec&)>;

/// One override flag: a parser from its value to an edit of the spec, or
/// nullopt with `error` set to a diagnostic naming the flag.
struct Override {
  std::string_view flag;
  std::optional<Edit> (*parse)(const std::string& value, std::string& error);
};

template <typename T>
Edit set(T ScenarioSpec::*field, T value) {
  return [field, value = std::move(value)](ScenarioSpec& spec) {
    spec.*field = value;
  };
}

std::optional<Edit> uint_edit(std::uint64_t ScenarioSpec::*field,
                              const char* flag, const std::string& value,
                              std::string& error) {
  const std::optional<std::uint64_t> parsed = util::parse_uint(value);
  if (!parsed) {
    error = std::string(flag) + " expects a non-negative integer, got '" +
            value + "'";
    return std::nullopt;
  }
  return set(field, *parsed);
}

/// k=v with a finite numeric v, merged into the map `field`.
std::optional<Edit> param_edit(ParamMap ScenarioSpec::*field,
                               const char* flag, const std::string& text,
                               std::string& error) {
  const std::size_t eq = text.find('=');
  if (eq == std::string::npos) {
    error = std::string(flag) + " expects k=v, got '" + text + "'";
    return std::nullopt;
  }
  const std::optional<double> value =
      util::parse_finite_double(text.substr(eq + 1));
  if (!value) {
    error = std::string(flag) + " " + text + " has a malformed numeric value";
    return std::nullopt;
  }
  return [field, key = text.substr(0, eq), number = *value](
             ScenarioSpec& spec) { (spec.*field)[key] = number; };
}

/// One of a fixed set of tags, read by `parse` (nullopt on an unknown
/// tag, which reports `diagnostic`).
template <typename T, typename Parse>
std::optional<Edit> choice_edit(T ScenarioSpec::*field, Parse parse,
                                const std::string& value, std::string& error,
                                std::string diagnostic) {
  const std::optional<T> parsed = parse(value);
  if (!parsed) {
    error = std::move(diagnostic);
    return std::nullopt;
  }
  return set(field, *parsed);
}

std::optional<bool> success_from_string(std::string_view text) {
  if (text == "accept") return true;
  if (text == "reject") return false;
  return std::nullopt;
}

const Override kOverrides[] = {
    {"--param",
     [](const std::string& v, std::string& e) {
       return param_edit(&ScenarioSpec::params, "--param", v, e);
     }},
    {"--n",
     [](const std::string& v, std::string& e) -> std::optional<Edit> {
       std::vector<std::uint64_t> grid;
       for (const std::string& part : util::split(v, ',')) {
         const std::optional<std::uint64_t> n = util::parse_uint(part);
         if (!n) {
           e = "--n expects non-negative integers, got '" + part + "'";
           return std::nullopt;
         }
         grid.push_back(*n);
       }
       return set(&ScenarioSpec::n_grid, std::move(grid));
     }},
    {"--trials",
     [](const std::string& v, std::string& e) {
       return uint_edit(&ScenarioSpec::trials, "--trials", v, e);
     }},
    {"--seed",
     [](const std::string& v, std::string& e) {
       return uint_edit(&ScenarioSpec::base_seed, "--seed", v, e);
     }},
    {"--workload",
     [](const std::string& v, std::string& e) {
       return choice_edit(&ScenarioSpec::workload, local::workload_from_string,
                          v, e, "--workload expects success|value|counter");
     }},
    {"--statistic",
     [](const std::string& v, std::string&) -> std::optional<Edit> {
       return set(&ScenarioSpec::statistic, v);
     }},
    {"--success",
     [](const std::string& v, std::string& e) {
       return choice_edit(&ScenarioSpec::success_on_accept,
                          success_from_string, v, e,
                          "--success expects accept|reject");
     }},
    {"--mode",
     [](const std::string& v, std::string& e) {
       return choice_edit(&ScenarioSpec::mode, local::exec_mode_from_string,
                          v, e, "--mode expects balls|messages|two-phase");
     }},
    {"--backend",
     [](const std::string& v, std::string& e) {
       return choice_edit(
           &ScenarioSpec::backend, local::backend_from_string, v, e,
           "--backend expects auto|naive|batched|vectorized, got '" + v + "'");
     }},
    {"--execution",
     [](const std::string& v, std::string& e) {
       return choice_edit(
           &ScenarioSpec::execution, execution_from_string, v, e,
           "--execution expects auto|materialized|implicit, got '" + v + "'");
     }},
    {"--fault",
     [](const std::string& v, std::string&) -> std::optional<Edit> {
       return set(&ScenarioSpec::fault, v);
     }},
    {"--fault-param",
     [](const std::string& v, std::string& e) {
       return param_edit(&ScenarioSpec::fault_params, "--fault-param", v, e);
     }},
};

}  // namespace

bool SpecFlags::offer(int argc, char** argv, int& i, std::string& error) {
  const std::string flag = argv[i];
  std::optional<std::string>* name = nullptr;
  if (flag == "--scenario") name = &scenario_;
  if (flag == "--spec") name = &spec_file_;
  if (flag == "--topology") name = &topology_;
  if (flag == "--language") name = &language_;
  if (flag == "--construction") name = &construction_;
  if (flag == "--decider") name = &decider_;
  const Override* edit_flag = nullptr;
  for (const Override& entry : kOverrides) {
    if (entry.flag == flag) edit_flag = &entry;
  }
  if (name == nullptr && edit_flag == nullptr) return false;
  if (i + 1 >= argc) {
    error = flag + " needs a value";
    return true;
  }
  const std::string value = argv[++i];
  if (name != nullptr) {
    *name = value;
  } else if (std::optional<Edit> edit = edit_flag->parse(value, error)) {
    edits_.push_back(std::move(*edit));
  }
  return true;
}

int SpecFlags::named() const {
  const bool adhoc = topology_ || language_ || construction_ || decider_;
  return (scenario_ ? 1 : 0) + (spec_file_ ? 1 : 0) + (adhoc ? 1 : 0);
}

void SpecFlags::apply(ScenarioSpec& spec) const {
  for (const Edit& edit : edits_) edit(spec);
}

ScenarioSpec SpecFlags::resolve() const {
  if (named() != 1) {
    throw UsageError("name exactly one spec (" + std::to_string(named()) +
                     " named): --scenario NAME, --spec FILE.json, or ad-hoc "
                     "--topology/--language/--construction");
  }
  ScenarioSpec spec;
  if (scenario_) {
    const ScenarioSpec* preset = find_preset(*scenario_);
    if (preset == nullptr) {
      throw std::runtime_error("unknown scenario '" + *scenario_ +
                               "' (see lnc_sweep --list)");
    }
    spec = *preset;
  } else if (spec_file_) {
    std::string text;
    const std::string error = util::read_file(*spec_file_, text);
    if (!error.empty()) throw std::runtime_error(error);
    spec = spec_from_json(text);
  } else {
    if (!topology_ && !language_ && !construction_) {
      throw UsageError("--decider completes an ad-hoc spec; name its "
                       "--topology, --language and --construction too");
    }
    spec.name = "adhoc";
    spec.topology = topology_.value_or("");
    spec.language = language_.value_or("");
    spec.construction = construction_.value_or("");
    if (decider_) spec.decider = *decider_;
    spec.n_grid = {64};
  }
  apply(spec);
  return spec;
}

const char* SpecFlags::usage() noexcept {
  return "SPEC (exactly one): --scenario NAME | --spec FILE.json\n"
         "         | --topology T --language L --construction C "
         "[--decider D]\n"
         "overrides: --param k=v | --n A,B,C | --trials N | --seed S\n"
         "         --workload success|value|counter | --statistic NAME\n"
         "         --success accept|reject | --mode balls|messages|two-phase\n"
         "         --backend auto|naive|batched|vectorized\n"
         "         --execution auto|materialized|implicit\n"
         "         --fault NAME | --fault-param k=v\n"
         "--param and --fault-param repeat; for any other repeated flag the "
         "last wins.\n";
}

}  // namespace lnc::scenario
