// Small string utilities shared across modules.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ep {

/// Split on a single character; empty fields are kept ("a::b" -> a,"",b).
std::vector<std::string> split(std::string_view s, char sep);

/// Split, dropping empty fields ("/a//b/" with '/' -> a,b).
std::vector<std::string> split_nonempty(std::string_view s, char sep);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);
bool contains(std::string_view s, std::string_view needle);

std::string to_lower(std::string_view s);

/// Replace every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from,
                        std::string_view to);

std::string trim(std::string_view s);

/// "57.0%"-style percent formatting used by the table benches.
std::string percent(double numerator, double denominator, int decimals = 1);

/// Repeat a string n times.
std::string repeat(std::string_view s, std::size_t n);

/// Escape for embedding inside a JSON string literal (quotes, backslash,
/// control characters).
std::string json_escape(const std::string& s);

/// `s` as a quoted JSON string: json_quote("a\"b") -> "\"a\\\"b\"".
std::string json_quote(const std::string& s);

/// json_quote(s) appended to `out`, for renderers that stream into one
/// buffer.
void append_json_quoted(std::string& out, std::string_view s);

}  // namespace ep
