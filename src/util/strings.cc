#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace mecdns::util {

std::vector<std::string> split(std::string_view input, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = input.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(input.substr(start));
      return out;
    }
    out.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view delim) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += delim;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  for (const char c : input) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(c))));
  }
  return out;
}

std::string trim(std::string_view input) {
  std::size_t begin = 0;
  std::size_t end = input.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return std::string(input.substr(begin, end - begin));
}

bool ends_with_icase(std::string_view s, std::string_view suffix) {
  if (suffix.size() > s.size()) return false;
  const std::string_view tail = s.substr(s.size() - suffix.size());
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(tail[i])) !=
        std::tolower(static_cast<unsigned char>(suffix[i]))) {
      return false;
    }
  }
  return true;
}

std::string with_slug(const std::string& path, std::string slug) {
  for (char& c : slug) {
    if (c == '/') c = '.';
  }
  const auto dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + slug;
  }
  return path.substr(0, dot) + "." + slug + path.substr(dot);
}

std::string fmt_fixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string ascii_bar(double value, double max, int width) {
  if (width <= 0) return {};
  std::string bar(static_cast<std::size_t>(width), ' ');
  if (max <= 0.0) return bar;
  const double fraction = std::min(1.0, std::max(0.0, value / max));
  const auto cells = static_cast<std::size_t>(fraction * width + 0.5);
  for (std::size_t i = 0; i < cells; ++i) bar[i] = '#';
  return bar;
}

}  // namespace mecdns::util
