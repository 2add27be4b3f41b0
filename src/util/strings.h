// Small string helpers shared across the project.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace mecdns::util {

/// Splits on a single-character delimiter. Adjacent delimiters produce empty
/// fields; an empty input produces one empty field.
std::vector<std::string> split(std::string_view input, char delim);

/// Joins with a delimiter string.
std::string join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// ASCII lowercase copy (DNS names compare case-insensitively).
std::string to_lower(std::string_view input);

/// Trims ASCII whitespace from both ends.
std::string trim(std::string_view input);

/// True if `s` ends with `suffix` (ASCII case-insensitive).
bool ends_with_icase(std::string_view s, std::string_view suffix);

/// Inserts `slug` before the extension of `path`, every '/' in the slug
/// becoming '.': "trace.json" + "node-down/robust" ->
/// "trace.node-down.robust.json". A path without an extension gets
/// ".<slug>" appended. Names one artifact per scenario of a sweep.
std::string with_slug(const std::string& path, std::string slug);

/// Formats a double with fixed precision (printf "%.*f").
std::string fmt_fixed(double value, int precision);

/// Renders a proportional ASCII bar: '#' cells for value/max of `width`,
/// padded with spaces (so columns align). Values are clamped to [0, max];
/// max <= 0 yields an empty bar.
std::string ascii_bar(double value, double max, int width = 40);

}  // namespace mecdns::util
