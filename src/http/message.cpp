#include "http/message.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace ape::http {

namespace {

bool iequals(const std::string& a, const std::string& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(), [](unsigned char x, unsigned char y) {
           return std::tolower(x) == std::tolower(y);
         });
}

std::string serialize_headers(const Headers& headers, std::size_t simulated_body,
                              std::size_t inline_body) {
  std::string out;
  for (const auto& [k, v] : headers) {
    out += k + ": " + v + "\r\n";
  }
  out += "Content-Length: " + std::to_string(simulated_body + inline_body) + "\r\n";
  if (simulated_body > 0) {
    // Private header carrying the modeled (non-materialized) body size.
    out += "X-Sim-Body: " + std::to_string(simulated_body) + "\r\n";
  }
  out += "\r\n";
  return out;
}

struct ParsedHead {
  std::string start_line;
  Headers headers;
  std::size_t simulated_body = 0;
  std::string body;
};

Result<ParsedHead> parse_head(const net::TcpMessage& msg) {
  const std::string text(msg.bytes.begin(), msg.bytes.end());
  const auto head_end = text.find("\r\n\r\n");
  if (head_end == std::string::npos) return make_error<ParsedHead>("missing header terminator");

  ParsedHead parsed;
  std::istringstream head(text.substr(0, head_end));
  if (!std::getline(head, parsed.start_line)) return make_error<ParsedHead>("empty message");
  if (!parsed.start_line.empty() && parsed.start_line.back() == '\r') parsed.start_line.pop_back();

  std::string line;
  while (std::getline(head, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) return make_error<ParsedHead>("malformed header line");
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (iequals(key, "X-Sim-Body")) {
      const auto body = parse_decimal<std::size_t>(value);
      if (!body) return make_error<ParsedHead>("malformed X-Sim-Body");
      parsed.simulated_body = *body;
    } else if (!iequals(key, "Content-Length")) {
      parsed.headers.emplace_back(std::move(key), std::move(value));
    }
  }
  parsed.body = text.substr(head_end + 4);
  return parsed;
}

net::TcpMessage to_tcp_message(const std::string& start_line, const Headers& headers,
                               const std::string& body, std::size_t simulated_body) {
  std::string text = start_line + "\r\n" +
                     serialize_headers(headers, simulated_body, body.size()) + body;
  net::TcpMessage msg;
  msg.bytes.assign(text.begin(), text.end());
  msg.simulated_body_bytes = simulated_body;
  return msg;
}

}  // namespace

const std::string* find_header(const Headers& headers, const std::string& name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

void set_trace_context_header(Headers& headers, const std::string& encoded) {
  for (auto& [k, v] : headers) {
    if (iequals(k, kTraceContextHeader)) {
      v = encoded;
      return;
    }
  }
  headers.emplace_back(kTraceContextHeader, encoded);
}

const std::string* find_trace_context_header(const Headers& headers) {
  return find_header(headers, kTraceContextHeader);
}

net::TcpMessage HttpRequest::to_tcp() const {
  Headers with_host = headers;
  if (find_header(with_host, "Host") == nullptr) {
    with_host.emplace_back("Host", url.host);
  }
  const std::string start = method + " " + url.path +
                            (url.query.empty() ? "" : "?" + url.query) + " HTTP/1.1";
  return to_tcp_message(start, with_host, body, simulated_body_bytes);
}

Result<HttpRequest> HttpRequest::from_tcp(const net::TcpMessage& msg) {
  auto head = parse_head(msg);
  if (!head) return make_error<HttpRequest>(head.error().message);

  std::istringstream line(head.value().start_line);
  HttpRequest req;
  std::string target, version;
  if (!(line >> req.method >> target >> version)) {
    return make_error<HttpRequest>("malformed request line");
  }

  const std::string* host = find_header(head.value().headers, "Host");
  const std::string url_text =
      target.starts_with("http") ? target : ("http://" + (host ? *host : "unknown") + target);
  auto url = Url::parse(url_text);
  if (!url) return make_error<HttpRequest>("bad request target: " + url.error().message);
  req.url = std::move(url.value());
  req.headers = std::move(head.value().headers);
  req.body = std::move(head.value().body);
  req.simulated_body_bytes = head.value().simulated_body;
  return req;
}

net::TcpMessage HttpResponse::to_tcp() const {
  const std::string start = "HTTP/1.1 " + std::to_string(status) + " " +
                            (status == 200 ? "OK" : status == 404 ? "Not Found" : "Status");
  return to_tcp_message(start, headers, body, simulated_body_bytes);
}

Result<HttpResponse> HttpResponse::from_tcp(const net::TcpMessage& msg) {
  auto head = parse_head(msg);
  if (!head) return make_error<HttpResponse>(head.error().message);

  std::istringstream line(head.value().start_line);
  std::string version;
  int status = 0;
  if (!(line >> version >> status) || status < 100 || status > 599) {
    return make_error<HttpResponse>("malformed status line");
  }
  HttpResponse resp;
  resp.status = status;
  resp.headers = std::move(head.value().headers);
  resp.body = std::move(head.value().body);
  resp.simulated_body_bytes = head.value().simulated_body;
  return resp;
}

HttpResponse make_status_response(int status, std::string reason) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(reason);
  return resp;
}

}  // namespace ape::http
