// Contract-checking helpers.
//
// Preconditions throw std::invalid_argument, lookups that must succeed throw
// std::out_of_range, and internal invariants throw std::logic_error.  These
// are programmer errors, not recoverable conditions, so exceptions (rather
// than status returns) keep call sites clean per the Core Guidelines (I.6).
//
// All throws in the library go through these helpers (vodlint's [raw-throw]
// rule enforces it), which keeps the exception taxonomy in one place and the
// failure messages lazy: the message argument is either a pointer/string
// passed through untouched, or a callable invoked only on the failing path —
// so a hot-path `require(ok, "literal")` never allocates, and
// `require(ok, [&] { return "id " + std::to_string(id); })` builds its
// message only when the check actually fails.
#pragma once

#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace vod {

namespace detail {

/// Throws `Exception` with `message`, invoking `message` first when it is a
/// lazy builder (any nullary callable whose result converts to the
/// exception's what-string).
template <class Exception, class Message>
[[noreturn]] void raise(Message&& message) {
  if constexpr (std::is_invocable_v<Message&>) {
    throw Exception(message());
  } else {
    throw Exception(std::forward<Message>(message));
  }
}

}  // namespace detail

/// Throws std::invalid_argument unless `condition` holds (precondition).
/// The condition may be anything contextually convertible to bool
/// (std::optional, std::function, smart pointers, ...).
template <class Condition, class Message>
constexpr void require(const Condition& condition, Message&& message) {
  if (static_cast<bool>(condition)) [[likely]] return;
  detail::raise<std::invalid_argument>(std::forward<Message>(message));
}

/// Throws std::invalid_argument unless `value` is positive and finite.
/// Use it instead of `!(value <= 0.0)`, which lets NaN and +inf through.
template <class Message>
constexpr void require_positive_finite(double value, Message&& message) {
  require(value > 0.0 && value < std::numeric_limits<double>::infinity(),
          std::forward<Message>(message));
}

/// Throws std::out_of_range unless `condition` holds (lookup that must
/// succeed, e.g. `require_found(it != map.end(), "...")`).
template <class Condition, class Message>
constexpr void require_found(const Condition& condition, Message&& message) {
  if (static_cast<bool>(condition)) [[likely]] return;
  detail::raise<std::out_of_range>(std::forward<Message>(message));
}

/// Throws std::logic_error unless `condition` holds (internal invariant).
template <class Condition, class Message>
constexpr void ensure(const Condition& condition, Message&& message) {
  if (static_cast<bool>(condition)) [[likely]] return;
  detail::raise<std::logic_error>(std::forward<Message>(message));
}

/// Unconditional forms, for paths already known to be failures (a parse
/// helper that only reports, a default: branch that must be unreachable).
/// Messages here may be built eagerly — the throw allocates regardless.
template <class Message>
[[noreturn]] void fail_require(Message&& message) {
  detail::raise<std::invalid_argument>(std::forward<Message>(message));
}

template <class Message>
[[noreturn]] void fail_lookup(Message&& message) {
  detail::raise<std::out_of_range>(std::forward<Message>(message));
}

template <class Message>
[[noreturn]] void fail_ensure(Message&& message) {
  detail::raise<std::logic_error>(std::forward<Message>(message));
}

}  // namespace vod
