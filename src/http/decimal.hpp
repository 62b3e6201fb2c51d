// Checked decimal parsing for integers that arrive over the wire (header
// values, URL ports).  Another node's bytes must never throw: the whole text
// has to be a decimal number that fits in T, otherwise the result is empty
// and the caller rejects the message or falls back to its default.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace ape::http {

template <typename T>
[[nodiscard]] std::optional<T> parse_decimal(std::string_view text) noexcept {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace ape::http
