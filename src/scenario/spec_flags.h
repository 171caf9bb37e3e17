// The one command-line spelling of a ScenarioSpec, shared by lnc_sweep,
// lnc_launch and lnc_serve --query.
//
// Flags NAME a spec: a preset (--scenario), a spec file (--spec), or
// ad-hoc components (--topology/--language/--construction[/--decider]).
// Twelve override flags, --param through --fault-param, then EDIT it.
// Each tool offers every argument to this table first and parses only
// what it declines, so each flag has one spelling, one value syntax and
// one diagnostic in every tool.
#pragma once

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace lnc::scenario {

class SpecFlags {
 public:
  /// Thrown by resolve() when the flags do not name exactly one spec: a
  /// usage error (the tools exit 2), unlike an unknown preset or a spec
  /// file that cannot be read or parsed (std::runtime_error, exit 1).
  struct UsageError : std::runtime_error {
    using std::runtime_error::runtime_error;
  };

  /// Offers argv[i]. Returns false when it is not a spec flag, leaving it
  /// to the tool. Otherwise consumes the flag and its value (advancing i)
  /// and returns true; a missing or malformed value sets `error` to a
  /// diagnostic that names the flag.
  bool offer(int argc, char** argv, int& i, std::string& error);

  /// Specs named: --scenario, --spec and the ad-hoc component flags
  /// count one each.
  int named() const;

  /// True when any override flag was given.
  bool has_overrides() const noexcept { return !edits_.empty(); }

  /// Writes the overrides into `spec` in command-line order: the last
  /// value of a repeated flag wins, and repeated --param / --fault-param
  /// keys merge into the spec's maps.
  void apply(ScenarioSpec& spec) const;

  /// The named spec with the overrides applied: a preset, a spec file,
  /// or the ad-hoc components (name "adhoc", n-grid {64} unless --n).
  /// Throws UsageError unless exactly one spec is named, and
  /// std::runtime_error for an unknown preset or a spec file that cannot
  /// be read or parsed.
  ScenarioSpec resolve() const;

  /// The table as usage text, printed by every tool's usage().
  static const char* usage() noexcept;

 private:
  std::optional<std::string> scenario_;
  std::optional<std::string> spec_file_;
  std::optional<std::string> topology_;
  std::optional<std::string> language_;
  std::optional<std::string> construction_;
  std::optional<std::string> decider_;
  std::vector<std::function<void(ScenarioSpec&)>> edits_;
};

}  // namespace lnc::scenario
