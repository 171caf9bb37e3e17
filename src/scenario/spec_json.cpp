#include "scenario/spec_json.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/string_util.h"

namespace lnc::scenario {
namespace {

[[noreturn]] void fail(std::size_t offset, const std::string& what) {
  throw std::runtime_error("JSON error at offset " + std::to_string(offset) +
                           ": " + what);
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) {
      fail(pos_, std::string("expected '") + ch + "'");
    }
    ++pos_;
  }

  bool consume_literal(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) == 0) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    const char ch = peek();
    if (ch == '{' || ch == '[') {
      // Containers recurse; refuse to nest past the cap instead of
      // running out of stack on hostile input.
      if (depth_ == Json::kMaxDepth) {
        fail(pos_, "nesting deeper than " + std::to_string(Json::kMaxDepth));
      }
      ++depth_;
      Json value = ch == '{' ? parse_object() : parse_array();
      --depth_;
      return value;
    }
    if (ch == '"') {
      Json value;
      value.kind = Json::Kind::kString;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      Json value;
      value.kind = Json::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      Json value;
      value.kind = Json::Kind::kBool;
      return value;
    }
    if (consume_literal("null")) return {};
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      if (ch == '\\') {
        if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            // \uXXXX, UTF-8-encoded (BMP code points; surrogate pairs are
            // not combined — the stack only ever emits \u00XX for control
            // characters, but files written by other tools parse too).
            if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char hex = text_[pos_ + static_cast<std::size_t>(k)];
              code <<= 4;
              if (hex >= '0' && hex <= '9') {
                code |= static_cast<unsigned>(hex - '0');
              } else if (hex >= 'a' && hex <= 'f') {
                code |= static_cast<unsigned>(hex - 'a' + 10);
              } else if (hex >= 'A' && hex <= 'F') {
                code |= static_cast<unsigned>(hex - 'A' + 10);
              } else {
                fail(pos_ + static_cast<std::size_t>(k),
                     "bad \\u escape digit");
              }
            }
            pos_ += 4;
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(
                  static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            fail(pos_ - 1, "unsupported escape");
        }
        continue;
      }
      out.push_back(ch);
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) fail(start, "expected a value");
    Json json;
    json.kind = Json::Kind::kNumber;
    json.number = value;
    // Plain non-negative integer tokens additionally keep their exact
    // 64-bit value (doubles round above 2^53 — seeds are full-width).
    const std::string_view token(begin, static_cast<std::size_t>(end - begin));
    if (!token.empty() &&
        token.find_first_not_of("0123456789") == std::string_view::npos) {
      char* int_end = nullptr;
      errno = 0;
      const std::uint64_t exact = std::strtoull(begin, &int_end, 10);
      if (int_end == end && errno == 0) {
        json.is_uint64 = true;
        json.integer = exact;
      }
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return json;
  }

  Json parse_array() {
    expect('[');
    Json value;
    value.kind = Json::Kind::kArray;
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      const char ch = peek();
      ++pos_;
      if (ch == ']') return value;
      if (ch != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  Json parse_object() {
    expect('{');
    Json value;
    value.kind = Json::Kind::kObject;
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      if (peek() != '"') fail(pos_, "expected object key string");
      std::string key = parse_string();
      expect(':');
      value.object.emplace(std::move(key), parse_value());
      const char ch = peek();
      ++pos_;
      if (ch == '}') return value;
      if (ch != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers currently open
};

[[noreturn]] void type_error(const std::string& what) {
  throw std::runtime_error("JSON type error: " + what);
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

bool Json::has(const std::string& key) const {
  return kind == Kind::kObject && object.find(key) != object.end();
}

const Json& Json::at(const std::string& key) const {
  if (kind != Kind::kObject) type_error("not an object (key '" + key + "')");
  const auto it = object.find(key);
  if (it == object.end()) type_error("missing key '" + key + "'");
  return it->second;
}

double Json::as_number() const {
  if (kind != Kind::kNumber) type_error("expected a number");
  return number;
}

std::uint64_t Json::as_uint64() const {
  if (kind != Kind::kNumber || !is_uint64) {
    type_error("expected a non-negative integer");
  }
  return integer;
}

const std::string& Json::as_string() const {
  if (kind != Kind::kString) type_error("expected a string");
  return string;
}

const Json::Array& Json::as_array() const {
  if (kind != Kind::kArray) type_error("expected an array");
  return array;
}

const Json::Object& Json::as_object() const {
  if (kind != Kind::kObject) type_error("expected an object");
  return object;
}

ScenarioSpec spec_from_json(const std::string& text) {
  return spec_from_json(Json::parse(text));
}

ScenarioSpec spec_from_json(const Json& root) {
  ScenarioSpec spec;
  for (const auto& [key, value] : root.as_object()) {
    if (key == "name") {
      spec.name = value.as_string();
    } else if (key == "doc") {
      spec.doc = value.as_string();
    } else if (key == "topology") {
      spec.topology = value.as_string();
    } else if (key == "language") {
      spec.language = value.as_string();
    } else if (key == "construction") {
      spec.construction = value.as_string();
    } else if (key == "decider") {
      spec.decider = value.as_string();
    } else if (key == "fault") {
      spec.fault = value.as_string();
    } else if (key == "fault-params") {
      for (const auto& [param_name, param_value] : value.as_object()) {
        spec.fault_params[param_name] = param_value.as_number();
      }
    } else if (key == "params") {
      for (const auto& [param_name, param_value] : value.as_object()) {
        spec.params[param_name] = param_value.as_number();
      }
    } else if (key == "n") {
      for (const Json& n : value.as_array()) {
        spec.n_grid.push_back(n.as_uint64());
      }
    } else if (key == "trials") {
      spec.trials = value.as_uint64();
    } else if (key == "seed") {
      spec.base_seed = value.as_uint64();
    } else if (key == "workload") {
      const std::optional<local::WorkloadKind> kind =
          local::workload_from_string(value.as_string());
      if (!kind) {
        throw std::runtime_error(
            "spec 'workload' must be success|value|counter");
      }
      spec.workload = *kind;
    } else if (key == "statistic") {
      spec.statistic = value.as_string();
    } else if (key == "success") {
      const std::string& side = value.as_string();
      if (side != "accept" && side != "reject") {
        throw std::runtime_error("spec 'success' must be accept|reject");
      }
      spec.success_on_accept = side == "accept";
    } else if (key == "backend") {
      const std::optional<local::OptimizationConfig::Backend> backend =
          local::backend_from_string(value.as_string());
      if (!backend) {
        throw std::runtime_error(
            "spec 'backend' must be auto|naive|batched|vectorized, got '" +
            value.as_string() + "'");
      }
      spec.backend = *backend;
    } else if (key == "execution") {
      const std::optional<Execution> execution =
          execution_from_string(value.as_string());
      if (!execution) {
        throw std::runtime_error(
            "spec 'execution' must be auto|materialized|implicit, got '" +
            value.as_string() + "'");
      }
      spec.execution = *execution;
    } else if (key == "mode") {
      const std::optional<local::ExecMode> mode =
          local::exec_mode_from_string(value.as_string());
      if (!mode) {
        throw std::runtime_error(
            "spec 'mode' must be balls|messages|two-phase");
      }
      spec.mode = *mode;
    } else {
      throw std::runtime_error("unknown spec key '" + key + "'");
    }
  }
  return spec;
}

ScenarioSpec cache_normal_form(const ScenarioSpec& spec) {
  ScenarioSpec normal = spec;
  // Not part of WHICH curve: the cache stores an explicit trial range at
  // the entry's own seed, labels don't change results, and backends are
  // bit-identical by contract (CI backend identity gate). Mode stays —
  // measured vs modeled telemetry makes ball/message runs distinct
  // cacheable results.
  normal.trials = 0;
  normal.base_seed = 0;
  normal.name.clear();
  normal.doc.clear();
  normal.backend = local::OptimizationConfig::Backend::kAuto;
  // Implicit and materialized execution of one spec are bit-identical by
  // contract (CI implicit topology gate), so runs on either path share a
  // cache entry and top each other up.
  normal.execution = Execution::kAuto;
  // Fault canonicalization: "none" always normalizes to the absent block
  // (pre-fault keys stay byte-unchanged), and non-trivial models
  // materialize their schema defaults so `drop` and `drop{p-loss=0.1}` —
  // the same realized adversary — share one cache entry.
  if (normal.fault == "none") {
    normal.fault_params.clear();
  } else if (const FaultEntry* entry = faults().find(normal.fault)) {
    normal.fault_params = merged_params(entry->schema, normal.fault_params);
  }
  return normal;
}

std::string spec_to_json(const ScenarioSpec& spec) {
  std::ostringstream os;
  os << "{\"name\": \"" << util::json_escape(spec.name) << "\"";
  if (!spec.doc.empty()) {
    os << ", \"doc\": \"" << util::json_escape(spec.doc) << "\"";
  }
  os << ", \"topology\": \"" << util::json_escape(spec.topology)
     << "\", \"language\": \"" << util::json_escape(spec.language)
     << "\", \"construction\": \"" << util::json_escape(spec.construction)
     << "\", \"decider\": \"" << util::json_escape(spec.decider) << "\"";
  // The fault block is emitted only when non-trivial: specs predating the
  // fault axis (and every cache key derived from their JSON) stay
  // byte-unchanged, and fault="none" IS the absent block.
  if (spec.fault != "none") {
    os << ", \"fault\": \"" << util::json_escape(spec.fault) << "\"";
    if (!spec.fault_params.empty()) {
      os << ", \"fault-params\": {";
      bool first = true;
      for (const auto& [key, value] : spec.fault_params) {
        if (!first) os << ", ";
        first = false;
        std::ostringstream number;
        number.precision(17);
        number << value;
        os << "\"" << util::json_escape(key) << "\": " << number.str();
      }
      os << "}";
    }
  }
  if (!spec.params.empty()) {
    os << ", \"params\": {";
    bool first = true;
    // ParamMap is ordered — emission is deterministic.
    for (const auto& [key, value] : spec.params) {
      if (!first) os << ", ";
      first = false;
      std::ostringstream number;
      number.precision(17);  // doubles round-trip at 17 significant digits
      number << value;
      os << "\"" << util::json_escape(key) << "\": " << number.str();
    }
    os << "}";
  }
  os << ", \"workload\": \"" << local::to_string(spec.workload) << "\"";
  if (!spec.statistic.empty()) {
    os << ", \"statistic\": \"" << util::json_escape(spec.statistic) << "\"";
  }
  os << ", \"n\": [";
  for (std::size_t i = 0; i < spec.n_grid.size(); ++i) {
    if (i > 0) os << ", ";
    os << spec.n_grid[i];
  }
  os << "], \"trials\": " << spec.trials << ", \"seed\": " << spec.base_seed
     << ", \"success\": \"" << (spec.success_on_accept ? "accept" : "reject")
     << "\", \"mode\": \"" << local::to_string(spec.mode)
     << "\", \"backend\": \"" << local::to_string(spec.backend) << "\"";
  // Emitted only when forced: kAuto stays implicit so pre-existing spec
  // JSON (and every cache key derived from it) is byte-unchanged.
  if (spec.execution != Execution::kAuto) {
    os << ", \"execution\": \"" << to_string(spec.execution) << "\"";
  }
  os << "}\n";
  return os.str();
}

std::string telemetry_to_json(const local::Telemetry& telemetry) {
  std::ostringstream os;
  os.precision(9);
  os << "{\"messages\": " << telemetry.messages_sent
     << ", \"words\": " << telemetry.words_sent
     << ", \"rounds\": " << telemetry.rounds_executed
     << ", \"ball_expansions\": " << telemetry.ball_expansions;
  // Fault counters appear only when a fault model actually charged them:
  // fault-free telemetry JSON is byte-identical to the pre-fault format.
  if (telemetry.messages_dropped != 0) {
    os << ", \"messages_dropped\": " << telemetry.messages_dropped;
  }
  if (telemetry.nodes_crashed != 0) {
    os << ", \"nodes_crashed\": " << telemetry.nodes_crashed;
  }
  if (telemetry.edges_churned != 0) {
    os << ", \"edges_churned\": " << telemetry.edges_churned;
  }
  os << ", \"arena_peak_bytes\": " << telemetry.arena_peak_bytes
     << ", \"wall_seconds\": " << telemetry.wall_seconds << "}";
  return os.str();
}

std::string optimization_to_json(const local::OptimizationConfig& config) {
  std::ostringstream os;
  os << "{\"backend\": \"" << local::to_string(config.backend)
     << "\", \"batch_trials\": " << config.batch_trials << "}";
  return os.str();
}

local::Telemetry telemetry_from_json(const Json& json) {
  local::Telemetry telemetry;
  if (json.has("messages")) {
    telemetry.messages_sent = json.at("messages").as_uint64();
  }
  if (json.has("words")) telemetry.words_sent = json.at("words").as_uint64();
  if (json.has("rounds")) {
    telemetry.rounds_executed = json.at("rounds").as_uint64();
  }
  if (json.has("ball_expansions")) {
    telemetry.ball_expansions = json.at("ball_expansions").as_uint64();
  }
  if (json.has("messages_dropped")) {
    telemetry.messages_dropped = json.at("messages_dropped").as_uint64();
  }
  if (json.has("nodes_crashed")) {
    telemetry.nodes_crashed = json.at("nodes_crashed").as_uint64();
  }
  if (json.has("edges_churned")) {
    telemetry.edges_churned = json.at("edges_churned").as_uint64();
  }
  if (json.has("arena_peak_bytes")) {
    telemetry.arena_peak_bytes = json.at("arena_peak_bytes").as_uint64();
  }
  if (json.has("wall_seconds")) {
    telemetry.wall_seconds = json.at("wall_seconds").as_number();
  }
  return telemetry;
}

}  // namespace lnc::scenario
