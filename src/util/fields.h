#pragma once

/// \file fields.h
/// A record's member list, kept in its struct as `static constexpr
/// std::tuple fields{...}`: besides the declarations, the one place that
/// names its members. An entry is data: a key plus a member pointer
/// (`Field`), a key plus a const getter for a derived value (`Derived`),
/// or a key plus the one value a format version accepts (`Constant`).
/// `merge_fields` and the JSON forms (report/serialize.cpp) walk the list,
/// so a new member is one line in the struct and one in its list.

#include <tuple>

namespace spr {

template <typename T, typename M>
struct Field {
  const char* key;
  M T::*member;
};

/// Only the report's stats form writes a derived value; nothing reads it
/// back or merges it.
template <typename T, typename R>
struct Derived {
  const char* key;
  R (T::*get)() const noexcept;
};

/// Written as is; a file with any other value is not read.
struct Constant {
  const char* key;
  int value;
};

/// Accumulates `from` into `into` in list order: a member with a `merge`
/// (a Summary) merges, any other (a count, a seconds value) adds, and a
/// derived or constant entry is skipped.
template <typename T>
void merge_fields(T& into, const T& from) {
  auto merge_one = [&](const auto& entry) {
    if constexpr (requires { entry.member; }) {
      auto& to = into.*entry.member;
      if constexpr (requires { to.merge(to); }) {
        to.merge(from.*entry.member);
      } else {
        to += from.*entry.member;
      }
    }
  };
  std::apply([&](const auto&... entry) { (merge_one(entry), ...); },
             T::fields);
}

}  // namespace spr
