// Wire framing for the real-process execution backend: net::Message
// vectors serialized into checksummed frames and moved over byte-stream
// sockets (AF_UNIX socketpairs or TCP loopback connections).
//
// The layer is deliberately dumb: it knows how to create a connected
// stream pair, how to encode/decode a frame, and how to move exact byte
// counts with a bounded deadline. Everything protocol-shaped (which rank
// sends what when) lives in exec::ProcBackend. All sockets are
// non-blocking; send_all/recv_all poll with a deadline so a dead or
// wedged peer surfaces as a WireError diagnostic instead of a hang.
#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace hpfc::net::wire {

/// Thrown when the wire fails: a peer closed the connection, an
/// operation exceeded its deadline, or a frame arrived corrupted.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// RAII owner of a socket file descriptor (move-only).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Creates a connected bidirectional byte-stream pair: an AF_UNIX
/// socketpair, or — with `tcp` — a loopback TCP connection (same frames,
/// real network stack). Both ends are non-blocking.
std::pair<Socket, Socket> make_stream_pair(bool tcp);

enum class FrameKind : std::uint16_t {
  Outbox = 1,    ///< controller -> worker: the rank's outgoing messages
  Peer = 2,      ///< worker -> worker: one (src, dst) hop of a superstep
  Inbox = 3,     ///< worker -> controller: the rank's assembled inbox
  Ping = 4,      ///< calibration probe (echoed back as Pong)
  Pong = 5,      ///< calibration echo
  Shutdown = 6,  ///< controller -> worker: exit cleanly
};

/// Sender rank placed in frame headers by the controlling process.
inline constexpr int kControllerRank = 0xFFFF;

/// Serialized frame header size (magic, kind, src, body size, checksum).
inline constexpr std::size_t kHeaderBytes = 24;

/// Bytes/messages moved over a socket, accumulated by the send helpers
/// (a message counts once per hop it is serialized onto).
struct Tally {
  std::uint64_t bytes = 0;
  std::uint64_t msgs = 0;

  Tally& operator+=(const Tally& other) {
    bytes += other.bytes;
    msgs += other.msgs;
    return *this;
  }
};

/// A decoded frame.
struct Frame {
  FrameKind kind = FrameKind::Shutdown;
  int src = -1;
  std::vector<Message> messages;   ///< Outbox / Peer / Inbox bodies
  std::vector<std::uint8_t> blob;  ///< Ping / Pong payload
  Tally reported;                  ///< Inbox only: the worker's own tally
  std::uint64_t frame_bytes = 0;   ///< on-wire size (header + body)
};

/// Encodes a complete message frame (header + body) into one buffer: the
/// byte oracle of encode_frame_gather (the exchange itself only sends
/// gather frames). `reported` rides along in Inbox frames so workers can
/// surface their mesh-phase traffic to the controller.
std::vector<std::uint8_t> encode_frame(FrameKind kind, int src,
                                       std::span<const Message> messages,
                                       const Tally& reported = {});
/// Encodes a raw-byte frame (Ping / Pong / Shutdown).
std::vector<std::uint8_t> encode_blob_frame(FrameKind kind, int src,
                                            std::span<const std::uint8_t> blob);
/// Decodes a header; throws WireError on a bad magic.
void decode_header(std::span<const std::uint8_t> header, FrameKind& kind,
                   int& src, std::uint64_t& body_bytes,
                   std::uint64_t& checksum);
/// Decodes a frame body (checksum already verified by the caller).
Frame decode_body(FrameKind kind, int src, std::span<const std::uint8_t> body);

/// FNV-1a over a byte span (frame-body integrity checksum).
std::uint64_t checksum_bytes(std::span<const std::uint8_t> data);

/// Streaming form of checksum_bytes: fold `data` into a running hash.
/// checksum_bytes(b) == checksum_feed(checksum_init(), b), and feeding a
/// body in pieces (in order) yields the same value as one contiguous
/// pass — which is what lets the scatter-gather paths below keep the
/// exact frame checksums of encode_frame/decode_body without ever
/// materializing the body.
std::uint64_t checksum_init();
std::uint64_t checksum_feed(std::uint64_t hash,
                            std::span<const std::uint8_t> data);

/// A message frame encoded for gather sending: every non-payload byte
/// (the header, the body prefix, each message's metadata) lives in
/// `meta`, and `iov` lists the frame's on-wire chunks in order — slices
/// of `meta` interleaved with the messages' payload bytes in place.
/// writev-ing the chunks puts byte-for-byte the same frame on the wire
/// as encode_frame (same body, same checksum) without copying a single
/// payload double. The referenced messages must outlive the send.
struct GatherFrame {
  std::vector<std::uint8_t> meta;
  std::vector<::iovec> iov;  ///< points into `meta` and the payloads
  std::uint64_t bytes = 0;   ///< total on-wire size (header + body)
  std::uint64_t msgs = 0;    ///< messages framed (for Tally accounting)
};

/// Gather-encodes a message frame (the zero-copy encode_frame).
GatherFrame encode_frame_gather(FrameKind kind, int src,
                                std::span<const Message> messages,
                                const Tally& reported = {});

/// Progress of a GatherFrame onto the wire, for poll-driven senders that
/// interleave many frames (the worker mesh).
struct GatherCursor {
  std::size_t chunk = 0;  ///< next iov entry
  std::size_t off = 0;    ///< bytes of that entry already written

  [[nodiscard]] bool done(const GatherFrame& frame) const {
    return chunk >= frame.iov.size();
  }
};

/// Drives one frame's non-blocking gather send forward (sendmsg with
/// MSG_NOSIGNAL) until the frame is fully written (returns true) or the
/// socket would block (returns false; poll POLLOUT and call again).
/// Throws WireError on a dead peer.
bool pump_gather_send(int fd, const GatherFrame& frame, GatherCursor& cursor,
                      const std::string& what);

/// Sends one gather frame completely, polling with a deadline
/// (send_all's rules), and accounts it into `tally` when non-null.
void send_gather_frame(int fd, const GatherFrame& frame, int timeout_ms,
                       const std::string& what, Tally* tally);

/// Incremental scatter decoder for one frame body: bytes are landed
/// where window() points — message payloads go STRAIGHT into their
/// destination Message::payload buffer, metadata into a tiny internal
/// scratch — and advance() folds them into the running checksum and
/// steps the parse. No staging buffer, no decode copy; the accepted
/// byte stream and the resulting Frame are exactly decode_body's.
/// Blob bodies (Ping/Pong/Shutdown) land in Frame::blob.
class BodyScatterDecoder {
 public:
  /// Arms the decoder for a frame whose header was just decoded.
  void reset(FrameKind kind, int src, std::uint64_t body_bytes,
             std::uint64_t expected_checksum);
  [[nodiscard]] bool done() const { return state_ == State::Done; }
  /// The next landing area; non-empty while !done().
  [[nodiscard]] std::span<std::uint8_t> window();
  /// Commits `n` bytes written at window().data(). Throws WireError on a
  /// malformed body (truncated payload, trailing bytes).
  void advance(std::size_t n);
  /// Valid once done(): the accumulated FNV-1a matched the header's.
  [[nodiscard]] bool checksum_ok() const;
  /// Verifies the checksum and moves the decoded frame out.
  Frame take(const std::string& what);

 private:
  enum class State { Prefix, Meta, Payload, Blob, Done };

  State state_ = State::Done;
  Frame frame_;
  std::uint64_t body_left_ = 0;
  std::uint64_t expected_checksum_ = 0;
  std::uint64_t hash_ = 0;
  std::uint32_t msgs_left_ = 0;
  std::uint8_t scratch_[24] = {};
  std::size_t scratch_need_ = 0;
  std::size_t scratch_pos_ = 0;
  std::size_t payload_pos_ = 0;  ///< bytes landed of the open payload
};

/// Writes exactly `size` bytes, polling with a deadline; `timeout_ms < 0`
/// waits forever. Throws WireError on timeout or a closed peer.
void send_all(int fd, const void* data, std::size_t size, int timeout_ms,
              const std::string& what);
/// Reads exactly `size` bytes under the same deadline rules.
void recv_all(int fd, void* data, std::size_t size, int timeout_ms,
              const std::string& what);

/// Sends one encoded frame and accounts it into `tally` (when non-null).
void send_frame(int fd, std::span<const std::uint8_t> encoded,
                std::uint64_t msgs, int timeout_ms, const std::string& what,
                Tally* tally);
/// Receives and decodes one frame, verifying the body checksum.
Frame recv_frame(int fd, int timeout_ms, const std::string& what);

/// Receives one frame with zero-copy payload landing: the body is parsed
/// as it arrives (BodyScatterDecoder), so each message's payload bytes
/// go straight from the socket into its destination Message::payload.
/// Same accepted byte stream, same checksum and timeout behavior as
/// recv_frame — only the staging buffer and the decode copy are gone.
Frame recv_frame_scatter(int fd, int timeout_ms, const std::string& what);

}  // namespace hpfc::net::wire
