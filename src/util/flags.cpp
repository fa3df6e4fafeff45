#include "util/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace spr {

namespace {

bool parse_int(std::string_view text, int& out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_uint64(std::string_view text, unsigned long long& out) {
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

bool parse_double(std::string_view text, double& out) {
  // std::from_chars<double> is available in libstdc++ 11+, but strtod keeps
  // this portable to older standard libraries.
  std::string owned(text);
  char* end = nullptr;
  out = std::strtod(owned.c_str(), &end);
  return end == owned.c_str() + owned.size() && !owned.empty();
}

bool parse_boolish(std::string_view text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

FlagSet::FlagSet(std::string program_description)
    : description_(std::move(program_description)) {}

void FlagSet::add_int(std::string name, int* target, std::string help) {
  Flag flag;
  flag.help = std::move(help);
  flag.default_value = std::to_string(*target);
  flag.set = [target](std::string_view value) { return parse_int(value, *target); };
  flags_.emplace(std::move(name), std::move(flag));
}

void FlagSet::add_uint64(std::string name, unsigned long long* target, std::string help) {
  Flag flag;
  flag.help = std::move(help);
  flag.default_value = std::to_string(*target);
  flag.set = [target](std::string_view value) { return parse_uint64(value, *target); };
  flags_.emplace(std::move(name), std::move(flag));
}

void FlagSet::add_double(std::string name, double* target, std::string help) {
  Flag flag;
  flag.help = std::move(help);
  flag.default_value = std::to_string(*target);
  flag.set = [target](std::string_view value) { return parse_double(value, *target); };
  flags_.emplace(std::move(name), std::move(flag));
}

void FlagSet::add_bool(std::string name, bool* target, std::string help) {
  Flag flag;
  flag.help = std::move(help);
  flag.default_value = *target ? "true" : "false";
  flag.is_bool = true;
  flag.set = [target](std::string_view value) { return parse_boolish(value, *target); };
  flags_.emplace(std::move(name), std::move(flag));
}

void FlagSet::add_string(std::string name, std::string* target, std::string help) {
  Flag flag;
  flag.help = std::move(help);
  flag.default_value = *target;
  flag.set = [target](std::string_view value) {
    *target = std::string(value);
    return true;
  };
  flags_.emplace(std::move(name), std::move(flag));
}

bool FlagSet::apply(const std::string& name, std::string_view value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(), usage().c_str());
    return false;
  }
  if (!it->second.set(value)) {
    std::fprintf(stderr, "bad value '%.*s' for flag --%s\n",
                 static_cast<int>(value.size()), value.data(), name.c_str());
    return false;
  }
  return true;
}

bool FlagSet::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    std::string name;
    std::optional<std::string_view> inline_value;
    if (auto eq = arg.find('='); eq != std::string_view::npos) {
      name = std::string(arg.substr(0, eq));
      inline_value = arg.substr(eq + 1);
    } else {
      name = std::string(arg);
    }

    auto it = flags_.find(name);
    bool negated = false;
    if (it == flags_.end() && name.starts_with("no-")) {
      auto base = flags_.find(name.substr(3));
      if (base != flags_.end() && base->second.is_bool) {
        it = base;
        name = name.substr(3);
        negated = true;
      }
    }
    if (negated && inline_value) {
      // `--no-fa=true` would otherwise set what it negates.
      std::fprintf(stderr, "bad value '%.*s' for flag --no-%s\n",
                   static_cast<int>(inline_value->size()),
                   inline_value->data(), name.c_str());
      return false;
    }
    if (it != flags_.end() && it->second.is_bool && !inline_value) {
      if (!apply(name, negated ? "false" : "true")) return false;
      continue;
    }
    if (inline_value) {
      if (!apply(name, *inline_value)) return false;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag --%s expects a value\n", name.c_str());
      return false;
    }
    if (!apply(name, argv[++i])) return false;
  }
  return true;
}

std::string FlagSet::usage() const {
  std::ostringstream out;
  out << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    if (!flag.is_bool) out << "=<value>";
    out << "  (default: " << flag.default_value << ")\n      " << flag.help << "\n";
  }
  return out.str();
}

}  // namespace spr
