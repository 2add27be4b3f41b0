// Minimal expected-like result type.
//
// Following the Core Guidelines split between programming errors
// (exceptions/asserts) and expected runtime conditions (return values):
// parsing untrusted network bytes fails routinely, so those paths return
// Result<T> instead of throwing.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace mecdns::util {

/// Error payload: a human-readable message describing why an operation
/// failed. Kept deliberately simple; callers branch on ok()/!ok().
struct Error {
  std::string message;
};

/// Constructs an Error in-place; reads better at call sites:
///   return Err("name exceeds 255 octets");
inline Error Err(std::string message) { return Error{std::move(message)}; }

template <typename T>
class [[nodiscard]] Result {
 public:
  // Copy and move overloads rather than one by-value constructor: a
  // by-value parameter costs a second move of every returned value.
  Result(const T& value) : value_(std::in_place_index<0>, value) {}
  Result(T&& value) : value_(std::in_place_index<0>, std::move(value)) {}
  Result(Error error) : value_(std::in_place_index<1>, std::move(error)) {}

  bool ok() const { return value_.index() == 0; }
  explicit operator bool() const { return ok(); }

  /// Returns the contained value; throws std::logic_error if this holds an
  /// error (that would be a caller bug — check ok() first).
  T& value() & {
    require_ok();
    return std::get<0>(value_);
  }
  const T& value() const& {
    require_ok();
    return std::get<0>(value_);
  }
  T&& value() && {
    require_ok();
    return std::get<0>(std::move(value_));
  }

  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() on success value");
    return std::get<1>(value_);
  }

  T value_or(T fallback) const {
    return ok() ? std::get<0>(value_) : std::move(fallback);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  void require_ok() const {
    if (!ok()) {
      throw std::logic_error("Result::value() on error: " +
                             std::get<1>(value_).message);
    }
  }

  std::variant<T, Error> value_;
};

/// Specialization for operations with no payload.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;
  Result(Error error) : error_(std::move(error)) {}

  bool ok() const { return !error_.has_value(); }
  explicit operator bool() const { return ok(); }

  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() on success value");
    return *error_;
  }

 private:
  std::optional<Error> error_;
};

/// Success value for Result<void>.
inline Result<void> Ok() { return {}; }

}  // namespace mecdns::util
