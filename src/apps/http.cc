#include "src/apps/http.h"

#include <algorithm>

#include "src/apps/bulk.h"
#include "src/filters/http_filters.h"
#include "src/filters/media_filters.h"
#include "src/filters/transform_filters.h"
#include "src/util/strings.h"

namespace comma::apps {

namespace {

// Parses the decimal component after `prefix` in targets like "/text/4096".
bool TargetNumber(const std::string& target, const std::string& prefix, size_t* out) {
  if (target.rfind(prefix, 0) != 0) {
    return false;
  }
  const std::string rest = target.substr(prefix.size());
  if (rest.empty()) {
    return false;
  }
  size_t n = 0;
  for (char c : rest) {
    if (c < '0' || c > '9') {
      return false;
    }
    n = n * 10 + static_cast<size_t>(c - '0');
    if (n > (1u << 26)) {
      return false;
    }
  }
  *out = n;
  return true;
}

util::Bytes BuildResponse(int status, const std::string& reason, const std::string& content_type,
                          const util::Bytes& body) {
  std::string head = util::Format("HTTP/1.1 %d %s\r\n", status, reason.c_str());
  head += "Content-Type: " + content_type + "\r\n";
  head += util::Format("Content-Length: %zu\r\n", body.size());
  head += "\r\n";
  util::Bytes out = util::ToBytes(head);
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

}  // namespace

util::Bytes MediaBody(int layers, int frame_groups, size_t frame_bytes) {
  util::Bytes body;
  util::ByteWriter w(&body);
  for (int g = 0; g < frame_groups; ++g) {
    for (int layer = 0; layer < layers; ++layer) {
      w.WriteU8(static_cast<uint8_t>(layer));
      w.WriteU8(filters::kMediaTypeColorImage);
      w.WriteU16(static_cast<uint16_t>(frame_bytes));
      // Filled in place, not pushed a byte at a time: this is the bulk of the body.
      const size_t start = body.size();
      body.resize(start + frame_bytes);
      const auto base = static_cast<uint8_t>(g * 131 + layer * 17);
      for (size_t i = 0; i < frame_bytes; ++i) {
        body[start + i] = static_cast<uint8_t>(base + i);
      }
    }
  }
  return body;
}

size_t MediaUsefulBytes(const util::Bytes& body, int max_layer) {
  size_t useful = 0;
  size_t pos = 0;
  while (body.size() - pos >= 4) {
    const uint8_t layer = body[pos];
    const size_t len = (static_cast<size_t>(body[pos + 2]) << 8) | body[pos + 3];
    if (body.size() - pos < 4 + len) {
      break;  // Truncated trailing frame: not useful.
    }
    if (max_layer < 0 || layer <= static_cast<uint8_t>(max_layer)) {
      useful += len;
    }
    pos += 4 + len;
  }
  return useful;
}

// --- HttpServer ---

HttpServer::HttpServer(core::Host* host, uint16_t port, const tcp::TcpConfig& config)
    : host_(host) {
  host_->tcp().Listen(
      port,
      [this](tcp::TcpConnection* conn) {
        conns_.push_back(std::make_unique<ConnState>());
        ConnState* st = conns_.back().get();
        conn->set_on_data([this, conn, st](const util::Bytes& data) {
          if (!st->parser.Feed(data)) {
            ++parse_failures_;
            return;
          }
          while (st->parser.HasMessage()) {
            HandleRequest(st->parser.PopMessage(), st);
          }
          Pump(conn, st);
        });
        conn->set_on_writable([conn, st] { Pump(conn, st); });
        conn->set_on_remote_close([conn, st] {
          if (st->sent >= st->outbox.size()) {
            conn->Close();
          }
        });
      },
      config);
}

void HttpServer::HandleRequest(const reassembly::HttpMessage& req, ConnState* st) {
  ++requests_served_;
  util::Bytes response;
  size_t n = 0;
  if (req.method == "POST") {
    const util::Bytes ack = util::ToBytes(util::Format("accepted %zu bytes\n", req.body.size()));
    response = BuildResponse(200, "OK", "text/plain", ack);
  } else if (req.method != "GET") {
    response = BuildResponse(405, "Method Not Allowed", "text/plain", util::ToBytes("nope\n"));
  } else if (TargetNumber(req.target, "/text/", &n)) {
    response = BuildResponse(200, "OK", "text/plain", TextPayload(n));
  } else if (TargetNumber(req.target, "/image/", &n)) {
    response = BuildResponse(200, "OK", "application/octet-stream", PatternPayload(n));
  } else if (req.target.rfind("/media/", 0) == 0) {
    // /media/<layers>/<groups>/<frame_bytes>
    int layers = 0;
    int groups = 0;
    size_t frame_bytes = 0;
    size_t a = 0;
    size_t b = 0;
    const size_t slash1 = req.target.find('/', 7);
    const size_t slash2 = slash1 == std::string::npos ? std::string::npos
                                                      : req.target.find('/', slash1 + 1);
    if (slash2 != std::string::npos &&
        TargetNumber(req.target.substr(0, slash1), "/media/", &a) &&
        TargetNumber(req.target.substr(slash1, slash2 - slash1), "/", &b) &&
        TargetNumber(req.target.substr(slash2), "/", &frame_bytes) && a > 0 && a <= 8 &&
        frame_bytes <= 0xFFFF) {
      layers = static_cast<int>(a);
      groups = static_cast<int>(b);
      response = BuildResponse(200, "OK", filters::HtypeFilter::kMediaContentType,
                               MediaBody(layers, groups, frame_bytes));
    } else {
      response = BuildResponse(404, "Not Found", "text/plain", util::ToBytes("bad media target\n"));
    }
  } else {
    response = BuildResponse(404, "Not Found", "text/plain", util::ToBytes("no such resource\n"));
  }
  st->outbox.insert(st->outbox.end(), response.begin(), response.end());
}

void HttpServer::Pump(tcp::TcpConnection* conn, ConnState* st) {
  while (st->sent < st->outbox.size()) {
    const size_t n = conn->Send(st->outbox.data() + st->sent, st->outbox.size() - st->sent);
    if (n == 0) {
      return;
    }
    st->sent += n;
  }
}

// --- HttpClient ---

HttpClient::HttpClient(core::Host* host, net::Ipv4Address server, uint16_t port,
                       std::vector<HttpRequestSpec> requests, size_t pipeline_depth,
                       const tcp::TcpConfig& config)
    : host_(host),
      requests_(std::move(requests)),
      pipeline_depth_(std::max<size_t>(pipeline_depth, 1)),
      started_at_(host->simulator()->Now()) {
  conn_ = host_->tcp().Connect(server, port, config);
  conn_->set_on_connected([this] { SendNext(); });
  conn_->set_on_writable([this] { Pump(); });
  conn_->set_on_data([this](const util::Bytes& data) {
    if (finished_) {
      return;
    }
    if (!parser_.Feed(data)) {
      Finish(/*failed=*/true);
      return;
    }
    while (!finished_ && parser_.HasMessage()) {
      HandleResponse(parser_.PopMessage());
    }
  });
  conn_->set_on_remote_close([this] {
    if (!finished_) {
      Finish(/*failed=*/responses_.size() < requests_.size());
    }
    conn_->Close();
  });
}

void HttpClient::SendNext() {
  // Keep up to pipeline_depth_ requests outstanding.
  while (next_request_ < requests_.size() &&
         next_request_ - responses_.size() < pipeline_depth_) {
    const HttpRequestSpec& spec = requests_[next_request_];
    std::string head = spec.method + " " + spec.target + " HTTP/1.1\r\n";
    head += "Host: origin\r\n";
    if (!spec.body.empty() || spec.method == "POST") {
      head += util::Format("Content-Length: %zu\r\n", spec.body.size());
    }
    head += "\r\n";
    util::Bytes wire = util::ToBytes(head);
    wire.insert(wire.end(), spec.body.begin(), spec.body.end());
    outbox_.insert(outbox_.end(), wire.begin(), wire.end());
    ++next_request_;
  }
  Pump();
}

void HttpClient::Pump() {
  while (sent_ < outbox_.size()) {
    const size_t n = conn_->Send(outbox_.data() + sent_, outbox_.size() - sent_);
    if (n == 0) {
      return;
    }
    sent_ += n;
  }
}

void HttpClient::HandleResponse(const reassembly::HttpMessage& resp) {
  body_bytes_ += resp.body.size();
  const std::string* encoding = resp.FindHeader(filters::HtypeFilter::kEncodingHeader);
  const std::string* content_type = resp.FindHeader("Content-Type");
  if (encoding != nullptr && *encoding == filters::HtypeFilter::kEncodingFrames) {
    // htype-compressed body: useful bytes are the decoded original bytes.
    auto decoded = filters::DecodeCompressedFrames(resp.body, nullptr);
    if (decoded.has_value()) {
      useful_bytes_ += decoded->size();
    }
  } else if (content_type != nullptr &&
             reassembly::ValueHasPrefix(*content_type,
                                        filters::HtypeFilter::kMediaContentType)) {
    useful_bytes_ += MediaUsefulBytes(resp.body);
  } else {
    useful_bytes_ += resp.body.size();
  }
  responses_.push_back(resp);
  if (responses_.size() == requests_.size()) {
    Finish(/*failed=*/false);
    return;
  }
  SendNext();
}

void HttpClient::Finish(bool failed) {
  if (finished_) {
    return;
  }
  finished_ = true;
  failed_ = failed;
  finished_at_ = host_->simulator()->Now();
  conn_->Close();
  if (on_finished_) {
    on_finished_();
  }
}

double HttpClient::UsefulGoodputBps(sim::TimePoint now) const {
  const sim::TimePoint end = finished_ ? finished_at_ : now;
  if (end <= started_at_) {
    return 0.0;
  }
  return static_cast<double>(useful_bytes_) * 8.0 / sim::DurationToSeconds(end - started_at_);
}

}  // namespace comma::apps
