#include "paths.h"

#include "obs/trace.h"
#include "serve/codec.h"
#include "spans.h"

namespace perfbench {

namespace {

/// The context a layer call runs under, so the server's workers hand it
/// to core.predict: the request's root id as the trace id, `span` as the
/// parent of whatever the call does.
obs::TraceContext context_for(std::uint64_t root, std::uint64_t span) {
  obs::TraceContext context;
  context.trace_id = root;
  context.span_id = span;
  context.sampled = true;
  return context;
}

serve::SelectResponse decode_response(
    const std::vector<std::uint8_t>& reply) {
  const serve::Decoded decoded = serve::decode_frame(reply);
  if (decoded.status == serve::DecodeStatus::Ok &&
      decoded.type == serve::MessageType::SelectResponse) {
    return decoded.response;
  }
  serve::SelectResponse failed;
  failed.status = serve::ResponseStatus::MalformedRequest;
  return failed;
}

}  // namespace

std::uint64_t WireClient::round_trip(serve::Server& server,
                                     const Entry& entry,
                                     std::uint64_t version, Checker& checker,
                                     bool traced) {
  serve::SelectResponse response;
  if (!traced) {
    const std::uint64_t start = now_ns();
    frame_.clear();
    serve::encode_request(entry.request, frame_);
    const std::vector<std::uint8_t> reply = server.serve_frame(frame_);
    response = decode_response(reply);
    const std::uint64_t end = now_ns();
    checker.check(entry, response, version);
    return end - start;
  }
  const std::uint64_t root = spans::new_id();
  const std::uint64_t start = now_ns();
  frame_.clear();
  serve::encode_request(entry.request, frame_);
  const std::uint64_t encoded = now_ns();
  const std::uint64_t serve_span = spans::new_id();
  std::vector<std::uint8_t> reply;
  {
    const obs::ScopedTraceContext scope{context_for(root, serve_span)};
    reply = server.serve_frame(frame_);
  }
  const std::uint64_t served = now_ns();
  response = decode_response(reply);
  const std::uint64_t end = now_ns();
  spans::record("serve.encode", start, encoded, spans::new_id(), root, root);
  spans::record("serve.serve_frame", encoded, served, serve_span, root, root);
  spans::record("serve.decode", served, end, spans::new_id(), root, root);
  spans::record("client.request", start, end, root, 0, root);
  checker.check(entry, response, version);
  return end - start;
}

std::uint64_t run_burst(serve::Server& server, std::span<const Entry> burst,
                        std::uint64_t version, Checker& checker, bool traced,
                        std::vector<std::future<serve::SelectResponse>>& futures) {
  futures.clear();
  const std::uint64_t root = traced ? spans::new_id() : 0;
  const std::uint64_t start = now_ns();
  {
    const obs::ScopedTraceContext scope{
        traced ? context_for(root, root) : obs::current_trace_context()};
    for (const Entry& entry : burst) {
      futures.push_back(server.submit(entry.request));
    }
  }
  const std::uint64_t submitted = now_ns();
  std::vector<serve::SelectResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) {
    responses.push_back(future.get());
  }
  const std::uint64_t end = now_ns();
  if (traced) {
    spans::record("serve.submit", start, submitted, spans::new_id(), root,
                  root);
    spans::record("serve.wait", submitted, end, spans::new_id(), root, root);
    spans::record("client.burst", start, end, root, 0, root);
  }
  for (std::size_t i = 0; i < burst.size(); ++i) {
    checker.check(burst[i], responses[i], version);
  }
  return end - start;
}

double mean_frame_bytes(const std::vector<Entry>& list) {
  std::vector<std::uint8_t> frame;
  double total = 0.0;
  for (const Entry& entry : list) {
    frame.clear();
    serve::encode_request(entry.request, frame);
    total += static_cast<double>(frame.size());
  }
  return list.empty() ? 0.0 : total / static_cast<double>(list.size());
}

std::uint64_t fleet_select(fleet::Fleet& fleet, const Entry& entry,
                           std::uint64_t version, Checker& checker,
                           bool traced) {
  const std::uint64_t root = traced ? spans::new_id() : 0;
  serve::SelectResponse response;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  {
    const obs::ScopedTraceContext scope{
        traced ? context_for(root, root) : obs::current_trace_context()};
    start = now_ns();
    response = fleet.select(entry.request);
    end = now_ns();
  }
  if (traced) {
    spans::record("fleet.select", start, end, root, 0, root);
  }
  checker.check(entry, response, version);
  return end - start;
}

std::uint64_t fleet_tick(fleet::Fleet& fleet) {
  const std::uint64_t start = now_ns();
  fleet.tick();
  const std::uint64_t end = now_ns();
  spans::record("fleet.tick", start, end, spans::new_id(), 0, 0);
  return end - start;
}

}  // namespace perfbench
