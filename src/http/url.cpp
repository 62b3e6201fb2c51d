#include "http/url.hpp"

#include <algorithm>
#include <cctype>

#include "http/decimal.hpp"

namespace ape::http {

Result<Url> Url::parse(const std::string& text) {
  Url url;
  std::string_view rest{text};

  if (const auto scheme_end = rest.find("://"); scheme_end != std::string_view::npos) {
    url.scheme = std::string(rest.substr(0, scheme_end));
    std::transform(url.scheme.begin(), url.scheme.end(), url.scheme.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    if (url.scheme != "http" && url.scheme != "https") {
      return make_error<Url>("unsupported scheme: " + url.scheme);
    }
    rest.remove_prefix(scheme_end + 3);
  }

  const auto path_start = rest.find('/');
  std::string_view authority =
      path_start == std::string_view::npos ? rest : rest.substr(0, path_start);
  if (authority.empty()) return make_error<Url>("missing host");

  if (const auto colon = authority.find(':'); colon != std::string_view::npos) {
    url.host = std::string(authority.substr(0, colon));
    const std::string_view port_text = authority.substr(colon + 1);
    if (port_text.empty() ||
        !std::all_of(port_text.begin(), port_text.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      return make_error<Url>("invalid port");
    }
    const auto port = parse_decimal<std::uint16_t>(port_text);
    if (!port || *port == 0) return make_error<Url>("port out of range");
    url.port = *port;
  } else {
    url.host = std::string(authority);
  }
  std::transform(url.host.begin(), url.host.end(), url.host.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (url.host.empty()) return make_error<Url>("missing host");

  if (path_start == std::string_view::npos) {
    url.path = "/";
  } else {
    std::string_view path_and_query = rest.substr(path_start);
    if (const auto qmark = path_and_query.find('?'); qmark != std::string_view::npos) {
      url.path = std::string(path_and_query.substr(0, qmark));
      url.query = std::string(path_and_query.substr(qmark + 1));
    } else {
      url.path = std::string(path_and_query);
    }
  }
  return url;
}

std::uint16_t Url::effective_port() const noexcept {
  if (port != 0) return port;
  return scheme == "https" ? 443 : 80;
}

std::string Url::to_string() const {
  std::string out = scheme + "://" + host;
  if (port != 0) out += ":" + std::to_string(port);
  out += path;
  if (!query.empty()) out += "?" + query;
  return out;
}

std::string Url::base() const {
  std::string out = scheme + "://" + host;
  if (port != 0) out += ":" + std::to_string(port);
  out += path;
  return out;
}

}  // namespace ape::http
