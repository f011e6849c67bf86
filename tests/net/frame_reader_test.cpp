// Chunked frame reader (net/frame_reader.h) over an AF_UNIX SOCK_SEQPACKET
// pair: every send() is one record and every recv() returns at most one,
// so the tests choose exactly where each read ends — a split header, a
// split payload, a stream that stops mid-frame — without timing tricks.
#include "net/frame_reader.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace otac::net {
namespace {

struct Pipe {
  UniqueFd read_end;
  UniqueFd write_end;
};

Pipe record_pipe() {
  std::array<int, 2> fds{};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, fds.data()) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  Pipe pipe{UniqueFd{fds[0]}, UniqueFd{fds[1]}};
  // A reader that wrongly waits for bytes that never come fails the test
  // after this timeout instead of hanging it.
  timeval timeout{};
  timeout.tv_sec = 5;
  (void)::setsockopt(pipe.read_end.get(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
  return pipe;
}

/// Send `bytes[begin, end)` as one record.
void send_record(const Pipe& pipe, const std::vector<std::uint8_t>& bytes,
                 std::size_t begin, std::size_t end) {
  ASSERT_TRUE(send_all(pipe.write_end.get(), bytes.data() + begin,
                       end - begin));
}

std::vector<std::uint8_t> get_frame(std::uint64_t index) {
  GetPayload get;
  get.index = index;
  get.photo = static_cast<std::uint32_t>(100 + index);
  std::vector<std::uint8_t> frame(kGetFrameBytes);
  encode_get_frame(frame.data(), index, get);
  return frame;
}

std::string error_of(FrameReader& reader) {
  try {
    (void)reader.next();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "no error";
}

TEST(FrameReader, DecodesEveryFrameOfOneRead) {
  Pipe pipe = record_pipe();
  std::vector<std::uint8_t> stream = get_frame(0);
  const std::vector<std::uint8_t> second = get_frame(1);
  stream.insert(stream.end(), second.begin(), second.end());
  send_record(pipe, stream, 0, stream.size());
  pipe.write_end.reset();

  FrameReader reader{pipe.read_end.get(), &check_client_frame};
  EXPECT_FALSE(reader.frame_buffered());
  const std::optional<FrameView> first = reader.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->number, 1u);
  EXPECT_EQ(decode_get(first->payload, 1).index, 0u);
  EXPECT_TRUE(reader.frame_buffered());
  const std::optional<FrameView> next = reader.next();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->number, 2u);
  EXPECT_EQ(decode_get(next->payload, 2).photo, 101u);
  EXPECT_EQ(reader.socket_reads(), 1u);  // both frames from one recv()
  EXPECT_FALSE(reader.frame_buffered());
  EXPECT_FALSE(reader.next().has_value());  // clean EOF
  EXPECT_EQ(reader.socket_reads(), 2u);
}

TEST(FrameReader, SplitHeaderIsReassembled) {
  Pipe pipe = record_pipe();
  const std::vector<std::uint8_t> frame = get_frame(7);
  send_record(pipe, frame, 0, 10);
  send_record(pipe, frame, 10, frame.size());

  FrameReader reader{pipe.read_end.get(), &check_client_frame};
  const std::optional<FrameView> view = reader.next();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->header.sequence, 7u);
  EXPECT_EQ(decode_get(view->payload, 1).index, 7u);
  EXPECT_EQ(reader.socket_reads(), 2u);
}

TEST(FrameReader, SplitPayloadIsReassembled) {
  Pipe pipe = record_pipe();
  const std::vector<std::uint8_t> frame = get_frame(3);
  send_record(pipe, frame, 0, kHeaderBytes + 5);
  send_record(pipe, frame, kHeaderBytes + 5, frame.size());

  FrameReader reader{pipe.read_end.get(), &check_client_frame};
  const std::optional<FrameView> view = reader.next();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(decode_get(view->payload, 1).photo, 103u);
  EXPECT_EQ(reader.socket_reads(), 2u);
}

TEST(FrameReader, OversizedHeaderRejectedBeforePayload) {
  // Neither header is followed by its payload and the write end stays
  // open: a reader that waited for the payload would time out instead.
  Pipe pipe = record_pipe();
  std::vector<std::uint8_t> head(kHeaderBytes);
  encode_header(head.data(), FrameType::get_request, 0, {});
  put_u32(head.data() + 16, 1U << 30);
  send_record(pipe, head, 0, head.size());
  FrameReader codec_bound{pipe.read_end.get()};
  EXPECT_EQ(error_of(codec_bound),
            "frame 1: oversized payload 1073741824 bytes (max 8388608)");
  EXPECT_EQ(codec_bound.socket_reads(), 1u);

  put_u32(head.data() + 16, 100);
  send_record(pipe, head, 0, head.size());
  FrameReader client_bound{pipe.read_end.get(), &check_client_frame};
  EXPECT_EQ(error_of(client_bound),
            "frame 1: get payload is 100 bytes (expected 24)");
  EXPECT_EQ(client_bound.socket_reads(), 1u);
}

TEST(FrameReader, EofMidPayloadKeepsTheCodecError) {
  Pipe pipe = record_pipe();
  std::vector<std::uint8_t> stream = get_frame(0);
  const std::vector<std::uint8_t> second = get_frame(1);
  stream.insert(stream.end(), second.begin(), second.begin() + 34);
  send_record(pipe, stream, 0, stream.size());
  pipe.write_end.reset();

  FrameReader reader{pipe.read_end.get(), &check_client_frame};
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_EQ(error_of(reader),
            "frame 2: truncated payload (got 10 of 24 bytes)");
}

TEST(FrameReader, EofMidHeaderKeepsTheCodecError) {
  Pipe pipe = record_pipe();
  const std::vector<std::uint8_t> frame = get_frame(0);
  send_record(pipe, frame, 0, 7);
  pipe.write_end.reset();

  FrameReader reader{pipe.read_end.get()};
  EXPECT_EQ(error_of(reader),
            "frame 1: truncated header (got 7 of 24 bytes)");
}

TEST(FrameReader, FrameLargerThanTheBufferIsAssembled) {
  Pipe pipe = record_pipe();
  std::vector<std::uint8_t> text(FrameReader::kBufferBytes + 40'000);
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<std::uint8_t>('a' + i % 26);
  }
  // The big frame's last record ends with it: a SEQPACKET recv() shorter
  // than its record would drop the rest, which a byte stream never does.
  const std::vector<std::uint8_t> report_frame =
      encode_frame(FrameType::report, 9, text);
  constexpr std::size_t kPiece = 30'000;
  for (std::size_t begin = 0; begin < report_frame.size(); begin += kPiece) {
    send_record(pipe, report_frame, begin,
                std::min(report_frame.size(), begin + kPiece));
  }
  const std::vector<std::uint8_t> ack =
      encode_frame(FrameType::shutdown_ack, 10, {});
  send_record(pipe, ack, 0, ack.size());
  pipe.write_end.reset();

  FrameReader reader{pipe.read_end.get()};
  const std::optional<FrameView> report = reader.next();
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->header.type == FrameType::report);
  EXPECT_TRUE(std::equal(report->payload.begin(), report->payload.end(),
                         text.begin(), text.end()));
  const std::optional<FrameView> tail = reader.next();
  ASSERT_TRUE(tail.has_value());
  EXPECT_TRUE(tail->header.type == FrameType::shutdown_ack);
  EXPECT_EQ(tail->number, 2u);
  EXPECT_FALSE(reader.next().has_value());
}

}  // namespace
}  // namespace otac::net
