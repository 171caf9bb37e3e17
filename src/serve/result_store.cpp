#include "serve/result_store.h"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "scenario/spec_json.h"
#include "util/build_info.h"
#include "util/file_util.h"

namespace lnc::serve {

std::string entry_to_json(const CacheEntry& entry) {
  // The embedded spec/result blobs end with '\n' (their file forms);
  // trim so the entry stays a single readable document.
  auto trimmed = [](std::string text) {
    while (!text.empty() && (text.back() == '\n' || text.back() == ' ')) {
      text.pop_back();
    }
    return text;
  };
  std::ostringstream result_os;
  scenario::write_json(result_os, entry.result);
  std::ostringstream os;
  os << "{\"key\": \"" << entry.key
     << "\", \"seed_stream_epoch\": " << entry.seed_stream_epoch
     << ", \"build_rev\": \"" << entry.build_rev
     << "\", \"spec\": " << trimmed(scenario::spec_to_json(entry.spec))
     << ", \"result\": " << trimmed(result_os.str()) << "}\n";
  return os.str();
}

CacheEntry entry_from_json(const std::string& text,
                           std::vector<std::string>* warnings) {
  const scenario::Json root = scenario::Json::parse(text);
  CacheEntry entry;
  entry.key = root.at("key").as_string();
  entry.seed_stream_epoch = root.at("seed_stream_epoch").as_uint64();
  if (root.has("build_rev")) entry.build_rev = root.at("build_rev").as_string();
  entry.spec = scenario::spec_from_json(root.at("spec"));
  entry.result = scenario::sweep_from_json(root.at("result"), warnings);
  return entry;
}

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  const std::filesystem::path root(dir_);
  if (std::filesystem::exists(root, ec)) {
    if (!std::filesystem::is_directory(root, ec)) {
      throw std::runtime_error("cache path '" + dir_ +
                               "' exists but is not a directory");
    }
  } else {
    std::filesystem::create_directories(root, ec);
    if (ec) {
      throw std::runtime_error("cannot create cache directory '" + dir_ +
                               "': " + ec.message());
    }
  }
}

std::string ResultStore::path_for(const CacheKey& key) const {
  return dir_ + "/" + key + ".json";
}

std::optional<CacheEntry> ResultStore::lookup(const CacheKey& key,
                                              std::string* diagnostic) const {
  auto miss = [&](const std::string& why) -> std::optional<CacheEntry> {
    if (diagnostic != nullptr) *diagnostic = why;
    return std::nullopt;
  };
  const std::string path = path_for(key);
  std::string text;
  {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return miss("no entry");
  }
  const std::string read_error = util::read_file(path, text);
  if (!read_error.empty()) return miss(read_error);
  CacheEntry entry;
  try {
    entry = entry_from_json(text, nullptr);
  } catch (const std::exception& ex) {
    return miss("corrupt entry '" + path + "': " + ex.what());
  }
  // Defense in depth: the epoch already lives in the key preimage, so a
  // stale-epoch entry should be unreachable — but a hand-copied or
  // renamed file must still fail closed, with the reason on record.
  if (entry.seed_stream_epoch != util::seed_stream_epoch()) {
    return miss("entry '" + path + "' was written at seed-stream epoch " +
                std::to_string(entry.seed_stream_epoch) +
                " but this binary is at epoch " +
                std::to_string(util::seed_stream_epoch()));
  }
  if (entry.key != key) {
    return miss("entry '" + path + "' records key " + entry.key +
                " (file renamed?)");
  }
  if (cache_key(entry.spec) != key) {
    return miss("entry '" + path +
                "' hashes to a different key than its file name — spec "
                "canonicalization changed without an epoch bump?");
  }
  if (!entry.result.complete()) {
    return miss("entry '" + path + "' holds an incomplete result");
  }
  if (entry.result.trial_end != entry.spec.trials ||
      entry.result.trial_begin != 0) {
    return miss("entry '" + path + "' covers trials [" +
                std::to_string(entry.result.trial_begin) + ", " +
                std::to_string(entry.result.trial_end) +
                ") but its spec declares " +
                std::to_string(entry.spec.trials));
  }
  return entry;
}

std::string ResultStore::store(CacheEntry entry) const {
  if (!entry.result.complete()) {
    return "refusing to cache an incomplete result for key " + entry.key;
  }
  if (entry.result.trial_begin != 0 ||
      entry.result.trial_end != entry.spec.trials) {
    return "refusing to cache: result covers trials [" +
           std::to_string(entry.result.trial_begin) + ", " +
           std::to_string(entry.result.trial_end) +
           ") but the entry spec declares " +
           std::to_string(entry.spec.trials);
  }
  const std::optional<CacheEntry> stored = lookup(entry.key);
  if (stored && stored->spec.trials >= entry.spec.trials) return {};
  entry.seed_stream_epoch = util::seed_stream_epoch();
  entry.build_rev = util::build_rev();
  return util::write_file_atomic(path_for(entry.key), entry_to_json(entry));
}

}  // namespace lnc::serve
