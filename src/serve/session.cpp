#include "serve/session.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace np::serve {

namespace {

obs::Counter& malformed_counter() {
  static obs::Counter& c = obs::counter("serve.malformed_frames");
  return c;
}

}  // namespace

Session::Session(Engine& engine, WriteFn write_frame)
    : engine_(engine), write_frame_(std::move(write_frame)) {
  NP_ASSERT(write_frame_ != nullptr, "Session: null write hook");
}

void Session::on_bytes(const char* data, std::size_t size) {
  NP_ASSERT(size == 0 || data != nullptr, "Session::on_bytes: null data");
  if (dead_) return;
  reader_.feed(data, size);
  std::string payload;
  std::string error;
  for (;;) {
    switch (reader_.next(&payload, &error)) {
      case FrameEvent::kNeedMore:
        return;
      case FrameEvent::kFrame:
        dispatch(payload);
        break;
      case FrameEvent::kFatal: {
        // One typed goodbye, then the owner hangs up: a corrupt length
        // prefix means nothing later in the stream can be trusted.
        malformed_counter().add(1);
        Reply reply;
        reply.status = ReplyStatus::kError;
        reply.id = -1;
        reply.reason = error;
        write_reply(reply);
        dead_ = true;
        return;
      }
    }
  }
}

void Session::dispatch(const std::string& payload) {
  NP_ASSERT(payload.size() <= kMaxFrameBytes,
            "Session::dispatch: ", payload.size(),
            "-byte payload leaked past the framer");
  Request request;
  try {
    request = parse_request(payload);
  } catch (const ParseError& e) {
    // Malformed payload: typed error reply, connection survives.
    malformed_counter().add(1);
    Reply reply;
    reply.status = ReplyStatus::kError;
    reply.id = -1;
    reply.reason = e.what();
    write_reply(reply);
    return;
  }
  // The write hook is copied into the callback: the engine may answer
  // from a worker thread after this stack frame is gone, and must not
  // reach back into session state to do it.
  WriteFn write = write_frame_;
  engine_.submit(request, [write](const Reply& reply) {
    NP_FAULT_POINT("serve.reply");
    write(frame(encode_reply(reply)));
  });
}

void Session::write_reply(const Reply& reply) {
  NP_FAULT_POINT("serve.reply");
  write_frame_(frame(encode_reply(reply)));
}

}  // namespace np::serve
