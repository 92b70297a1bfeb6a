// Backend equivalence: the thread-per-rank and process-per-rank engines
// must be observationally identical to the sequential BSP engine — same
// read checksums, same NetStats byte for byte, same deterministic
// (src, emission) inbox order — across randomized programs, machine
// sizes, worker counts, and random_layout-generated redistributions.
// The proc backend additionally proves its robustness contract: a killed
// worker surfaces as a bounded-time ProcError diagnostic, never a hang.
#include <gtest/gtest.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <random>
#include <thread>

#include "driver/compiler.hpp"
#include "exec/backend.hpp"
#include "exec/proc_backend.hpp"
#include "net/wire.hpp"
#include "redist/commsets.hpp"
#include "redist/segments.hpp"
#include "support/check.hpp"
#include "testing/program_gen.hpp"

namespace hpfc {
namespace {

using driver::Compiled;
using driver::CompileOptions;
using driver::OptLevel;
using mapping::ConcreteLayout;
using mapping::Index;
using mapping::Shape;

TEST(BackendKind, ParsesAndPrints) {
  EXPECT_EQ(exec::parse_backend_kind("seq"), exec::BackendKind::Seq);
  EXPECT_EQ(exec::parse_backend_kind("thread"), exec::BackendKind::Thread);
  EXPECT_EQ(exec::parse_backend_kind("proc"), exec::BackendKind::Proc);
  EXPECT_FALSE(exec::parse_backend_kind("mpi").has_value());
  EXPECT_STREQ(exec::to_string(exec::BackendKind::Seq), "seq");
  EXPECT_STREQ(exec::to_string(exec::BackendKind::Thread), "thread");
  EXPECT_STREQ(exec::to_string(exec::BackendKind::Proc), "proc");
}

TEST(Backend, FactoryReportsKindRanksWorkers) {
  const auto seq = exec::make_backend(exec::BackendKind::Seq, 5);
  EXPECT_EQ(seq->kind(), exec::BackendKind::Seq);
  EXPECT_EQ(seq->ranks(), 5);
  EXPECT_EQ(seq->workers(), 1);

  const auto pooled =
      exec::make_backend(exec::BackendKind::Thread, 5, {}, /*threads=*/2);
  EXPECT_EQ(pooled->kind(), exec::BackendKind::Thread);
  EXPECT_EQ(pooled->ranks(), 5);
  EXPECT_EQ(pooled->workers(), 2);

  // Oversubscription clamps: never more workers than ranks.
  const auto clamped =
      exec::make_backend(exec::BackendKind::Thread, 3, {}, /*threads=*/64);
  EXPECT_EQ(clamped->workers(), 3);

  // Proc: compute stays in the controlling process, spread over a step
  // pool sized like the thread backend's; one process forked per rank.
  const auto proc = exec::make_backend(exec::BackendKind::Proc, 3);
  EXPECT_EQ(proc->kind(), exec::BackendKind::Proc);
  EXPECT_EQ(proc->ranks(), 3);
  EXPECT_GE(proc->workers(), 1);
  EXPECT_LE(proc->workers(), 3);
  EXPECT_EQ(proc->wire().proc_spawns, 3u);
  // The in-process backends never touch a real socket.
  EXPECT_EQ(seq->wire(), exec::WireStats{});
}

TEST(Backend, BarrierAccountingMatchesAcrossBackends) {
  net::CostModel cost;
  cost.latency = 3e-6;
  const auto seq = exec::make_backend(exec::BackendKind::Seq, 4, cost);
  const auto thr =
      exec::make_backend(exec::BackendKind::Thread, 4, cost, /*threads=*/2);
  for (int i = 0; i < 3; ++i) {
    seq->barrier();
    thr->barrier();
  }
  EXPECT_EQ(seq->stats().supersteps, 3u);
  EXPECT_EQ(seq->stats().sim_time, 3 * cost.latency);
  EXPECT_EQ(seq->stats(), thr->stats());
  seq->reset_stats();
  EXPECT_EQ(seq->stats(), net::NetStats{});
}

TEST(Backend, StepRunsEveryRankExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    const auto backend =
        exec::make_backend(exec::BackendKind::Thread, 7, {}, threads);
    std::vector<int> visits(7, 0);
    for (int repeat = 0; repeat < 50; ++repeat)
      backend->step([&](int r) { ++visits[static_cast<std::size_t>(r)]; });
    for (const int count : visits) EXPECT_EQ(count, 50);
    // Steps are pure computation: no superstep was charged.
    EXPECT_EQ(backend->stats().supersteps, 0u);
  }
}

/// The automatic pool size follows the CPU affinity mask, not the host's
/// core count: a process pinned to one CPU runs its rank work on one
/// thread. Pinning happens in a forked child so the test process keeps
/// its own mask.
TEST(StepPool, AutoSizeFollowsTheAffinityMask) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(::sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  EXPECT_EQ(exec::usable_cpus(), CPU_COUNT(&allowed));

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) ::_exit(2);
    const exec::StepPool pool(4, 0);
    ::_exit(pool.threads() == 1 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "a pool in a one-CPU process did not size itself to one thread";
}

TEST(Backend, StepRethrowsRankFailures) {
  const auto backend =
      exec::make_backend(exec::BackendKind::Thread, 4, {}, /*threads=*/4);
  // RankFn is a non-owning reference; keep the callable alive in a named
  // lambda for the duration of the step.
  const auto boom = [](int r) {
    if (r == 2) HPFC_ASSERT_MSG(false, "rank 2 exploded");
  };
  EXPECT_THROW(backend->step(boom), InternalError);
  // The pool survives a throwing step and keeps working.
  std::vector<int> visits(4, 0);
  backend->step([&](int r) { ++visits[static_cast<std::size_t>(r)]; });
  for (const int count : visits) EXPECT_EQ(count, 1);
}

/// Random messages between random ranks: both backends must deliver
/// identical inboxes in identical order and account identical stats.
TEST(Backend, ExchangeIsDeterministicAcrossBackends) {
  std::mt19937 rng(42);
  for (const int ranks : {1, 2, 5, 8}) {
    for (int round = 0; round < 8; ++round) {
      std::vector<std::vector<net::Message>> outboxes(
          static_cast<std::size_t>(ranks));
      for (int src = 0; src < ranks; ++src) {
        const int count = static_cast<int>(rng() % 5);
        for (int m = 0; m < count; ++m) {
          net::Message msg;
          msg.src = src;
          msg.dst = static_cast<int>(rng() % static_cast<unsigned>(ranks));
          msg.tag = m;
          msg.segments = 1 + static_cast<int>(rng() % 3);
          msg.payload.assign(rng() % 16, static_cast<double>(rng() % 100));
          outboxes[static_cast<std::size_t>(src)].push_back(std::move(msg));
        }
      }

      const auto seq = exec::make_backend(exec::BackendKind::Seq, ranks);
      const auto thr = exec::make_backend(exec::BackendKind::Thread, ranks,
                                          {}, /*threads=*/3);
      const auto proc = exec::make_backend(exec::BackendKind::Proc, ranks);
      const auto seq_in = seq->exchange(outboxes);
      const auto thr_in = thr->exchange(outboxes);
      const auto proc_in = proc->exchange(outboxes);

      ASSERT_EQ(seq_in.size(), thr_in.size());
      ASSERT_EQ(seq_in.size(), proc_in.size());
      for (std::size_t r = 0; r < seq_in.size(); ++r) {
        ASSERT_EQ(seq_in[r].size(), thr_in[r].size()) << "rank " << r;
        ASSERT_EQ(seq_in[r].size(), proc_in[r].size()) << "rank " << r;
        for (std::size_t i = 0; i < seq_in[r].size(); ++i) {
          EXPECT_EQ(seq_in[r][i].src, thr_in[r][i].src);
          EXPECT_EQ(seq_in[r][i].dst, thr_in[r][i].dst);
          EXPECT_EQ(seq_in[r][i].tag, thr_in[r][i].tag);
          EXPECT_EQ(seq_in[r][i].segments, thr_in[r][i].segments);
          EXPECT_EQ(seq_in[r][i].payload, thr_in[r][i].payload);
          EXPECT_EQ(seq_in[r][i].src, proc_in[r][i].src);
          EXPECT_EQ(seq_in[r][i].dst, proc_in[r][i].dst);
          EXPECT_EQ(seq_in[r][i].tag, proc_in[r][i].tag);
          EXPECT_EQ(seq_in[r][i].segments, proc_in[r][i].segments);
          EXPECT_EQ(seq_in[r][i].payload, proc_in[r][i].payload);
        }
      }
      EXPECT_EQ(seq->stats(), thr->stats());
      // NetStats stay byte-identical even though proc's payloads crossed
      // real sockets; the physical traffic shows up in WireStats only.
      EXPECT_EQ(seq->stats(), proc->stats());
      std::size_t total = 0;
      for (const auto& outbox : outboxes) total += outbox.size();
      if (total > 0) {
        EXPECT_GT(proc->wire().wire_bytes, 0u);
        EXPECT_GE(proc->wire().wire_msgs, total);
      }
    }
  }
}

/// The same framed superstep flows over TCP loopback when ProcConfig::tcp
/// is set: identical inboxes, identical NetStats, live wire counters.
TEST(Backend, ProcBackendTcpMatchesUnixSocketpairs) {
  std::mt19937 rng(11);
  const int ranks = 3;
  std::vector<std::vector<net::Message>> outboxes(
      static_cast<std::size_t>(ranks));
  for (int src = 0; src < ranks; ++src) {
    for (int m = 0; m < 3; ++m) {
      net::Message msg;
      msg.src = src;
      msg.dst = static_cast<int>(rng() % static_cast<unsigned>(ranks));
      msg.tag = m;
      msg.segments = 1;
      msg.payload.assign(64 + rng() % 64, static_cast<double>(rng() % 100));
      outboxes[static_cast<std::size_t>(src)].push_back(std::move(msg));
    }
  }
  exec::ProcBackend unix_mesh(ranks, {}, exec::ProcConfig{});
  exec::ProcBackend tcp_mesh(ranks, {},
                             exec::ProcConfig{.tcp = true});
  const auto unix_in = unix_mesh.exchange(outboxes);
  const auto tcp_in = tcp_mesh.exchange(outboxes);
  ASSERT_EQ(unix_in.size(), tcp_in.size());
  for (std::size_t r = 0; r < unix_in.size(); ++r) {
    ASSERT_EQ(unix_in[r].size(), tcp_in[r].size());
    for (std::size_t i = 0; i < unix_in[r].size(); ++i)
      EXPECT_EQ(unix_in[r][i].payload, tcp_in[r][i].payload);
  }
  EXPECT_EQ(unix_mesh.stats(), tcp_mesh.stats());
  EXPECT_EQ(unix_mesh.wire().wire_bytes, tcp_mesh.wire().wire_bytes);
  EXPECT_EQ(unix_mesh.wire().wire_msgs, tcp_mesh.wire().wire_msgs);
}

/// Robustness contract: a worker killed mid-flight surfaces as a
/// ProcError naming the wire failure within the configured deadline —
/// never a hang — and the backend refuses further supersteps.
TEST(Backend, ProcBackendKilledWorkerFailsFastWithDiagnostic) {
  exec::ProcBackend backend(4, {},
                            exec::ProcConfig{.timeout_ms = 2000});
  // One healthy superstep first, so the kill hits an established wire.
  std::vector<std::vector<net::Message>> outboxes(4);
  net::Message msg;
  msg.src = 0;
  msg.dst = 2;
  msg.segments = 1;
  msg.payload.assign(8, 1.0);
  outboxes[0].push_back(msg);
  (void)backend.exchange(outboxes);

  backend.kill_worker(2);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)backend.exchange(outboxes), exec::ProcError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // Bounded by the deadline (with slack for scheduling), not a hang.
  EXPECT_LT(elapsed, 8.0);
  // The wire is down for good: later supersteps fail instantly.
  EXPECT_THROW((void)backend.exchange(outboxes), exec::ProcError);
}

/// Ping round-trips echo the payload and feed the calibration fit.
TEST(Backend, ProcBackendPingAndCalibration) {
  exec::ProcBackend backend(2, {}, exec::ProcConfig{});
  const double rtt = backend.ping(1, 256);
  EXPECT_GT(rtt, 0.0);
  EXPECT_GT(backend.wire().wire_bytes, 256 * sizeof(double));

  const exec::Calibration fit =
      exec::calibrate_wire(2, exec::ProcConfig{}, /*rounds=*/3);
  EXPECT_GT(fit.latency, 0.0);
  EXPECT_GT(fit.inv_bandwidth, 0.0);
  EXPECT_EQ(fit.samples, 6);
  const net::CostModel cost = fit.cost_model();
  EXPECT_EQ(cost.latency, fit.latency);
  EXPECT_EQ(cost.inv_bandwidth, fit.inv_bandwidth);
}

namespace wire = net::wire;

std::vector<net::Message> wire_test_messages(unsigned seed, int count) {
  std::mt19937 rng(seed);
  std::vector<net::Message> messages;
  for (int m = 0; m < count; ++m) {
    net::Message msg;
    msg.src = 1;
    msg.dst = 2;
    msg.tag = m;
    msg.segments = 1 + m;
    // Include zero-length payloads: they are legal on the wire and are
    // the decoder's trickiest state transition.
    msg.payload.assign(m == 0 ? 0 : rng() % 64,
                       static_cast<double>(rng() % 1000));
    messages.push_back(std::move(msg));
  }
  return messages;
}

/// The zero-copy gather encoder must put byte-for-byte the same frame on
/// the wire as the staging encoder — stitching its iovec chunks together
/// reproduces encode_frame's buffer exactly (same body, same checksum).
TEST(Wire, GatherEncodeMatchesEncodeFrameByteForByte) {
  for (int count : {0, 1, 2, 5}) {
    const auto messages = wire_test_messages(17u + count, count);
    wire::Tally reported;
    reported.bytes = 12345;
    reported.msgs = 7;
    const auto flat =
        wire::encode_frame(wire::FrameKind::Inbox, 3, messages, reported);
    const auto gather = wire::encode_frame_gather(wire::FrameKind::Inbox, 3,
                                                  messages, reported);
    std::vector<std::uint8_t> stitched;
    for (const auto& iov : gather.iov) {
      const auto* base = static_cast<const std::uint8_t*>(iov.iov_base);
      stitched.insert(stitched.end(), base, base + iov.iov_len);
    }
    EXPECT_EQ(stitched, flat) << "count=" << count;
    EXPECT_EQ(gather.bytes, flat.size());
    EXPECT_EQ(gather.msgs, static_cast<std::uint64_t>(count));
  }
}

/// recv_all / recv_frame_scatter must reassemble a frame that dribbles in
/// one byte at a time (worst-case short reads on a byte stream), landing
/// every payload straight in its destination buffer and still verifying
/// the checksum.
TEST(Wire, ScatterReceiveReassemblesOneByteChunks) {
  auto [ours, theirs] = wire::make_stream_pair(false);
  const auto messages = wire_test_messages(23, 4);
  const auto encoded =
      wire::encode_frame(wire::FrameKind::Peer, 1, messages);

  std::thread sender([&, fd = ours.fd()] {
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      // One byte per send; sockets are non-blocking, so spin on EAGAIN.
      for (;;) {
        const ssize_t n = ::send(fd, encoded.data() + i, 1, MSG_NOSIGNAL);
        if (n == 1) break;
        ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                              errno == EINTR));
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  });
  const wire::Frame frame =
      wire::recv_frame_scatter(theirs.fd(), 10000, "chunk test");
  sender.join();

  EXPECT_EQ(frame.kind, wire::FrameKind::Peer);
  EXPECT_EQ(frame.src, 1);
  EXPECT_EQ(frame.frame_bytes, encoded.size());
  ASSERT_EQ(frame.messages.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(frame.messages[i].tag, messages[i].tag);
    EXPECT_EQ(frame.messages[i].segments, messages[i].segments);
    EXPECT_EQ(frame.messages[i].payload, messages[i].payload);
  }
}

/// A truncated frame (the sender stops mid-body) must surface as a
/// WireError within the deadline — never a hang.
TEST(Wire, ScatterReceiveTimesOutOnTruncatedFrame) {
  auto [ours, theirs] = wire::make_stream_pair(false);
  const auto messages = wire_test_messages(29, 3);
  const auto encoded =
      wire::encode_frame(wire::FrameKind::Peer, 0, messages);
  // Header plus half the body, then silence.
  const std::size_t half = wire::kHeaderBytes + (encoded.size() / 2);
  wire::send_all(ours.fd(), encoded.data(), half, 1000, "partial send");

  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)wire::recv_frame_scatter(theirs.fd(), 300, "truncated test"),
      wire::WireError);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(elapsed, 5.0) << "deadline did not bound the short read";
}

/// A corrupted payload byte must fail the streaming checksum exactly as
/// it fails the staging decoder's.
TEST(Wire, ScatterReceiveRejectsCorruptedBody) {
  auto [ours, theirs] = wire::make_stream_pair(false);
  const auto messages = wire_test_messages(31, 3);
  auto encoded = wire::encode_frame(wire::FrameKind::Peer, 0, messages);
  encoded.back() ^= 0x40;  // flip one payload bit past the header
  wire::send_all(ours.fd(), encoded.data(), encoded.size(), 1000, "send");
  EXPECT_THROW(
      (void)wire::recv_frame_scatter(theirs.fd(), 1000, "corrupt test"),
      wire::WireError);
}

/// The gather send path must survive a socket whose send buffer is far
/// smaller than the frame (many partial sendmsg calls) and deliver the
/// same bytes; the tally must account the whole frame exactly once.
TEST(Wire, GatherSendDrainsThroughTinySendBuffer) {
  auto [ours, theirs] = wire::make_stream_pair(false);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(ours.fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  std::vector<net::Message> messages = wire_test_messages(37, 3);
  messages[1].payload.assign(1 << 16, 2.5);  // ~512 KiB payload
  const auto gather =
      wire::encode_frame_gather(wire::FrameKind::Peer, 2, messages);

  wire::Tally tally;
  std::thread sender([&, fd = ours.fd()] {
    wire::send_gather_frame(fd, gather, 10000, "tiny sndbuf", &tally);
  });
  const wire::Frame frame =
      wire::recv_frame_scatter(theirs.fd(), 10000, "tiny sndbuf recv");
  sender.join();

  EXPECT_EQ(tally.bytes, gather.bytes);
  EXPECT_EQ(tally.msgs, gather.msgs);
  ASSERT_EQ(frame.messages.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i)
    EXPECT_EQ(frame.messages[i].payload, messages[i].payload);
}

/// One full redistribution between testing::random_layout placements,
/// executed as the runtime executes it (pack in rank context, exchange,
/// unpack in rank context) on both backends: destination memories and
/// stats must be identical.
TEST(Backend, RandomLayoutRedistributionMatchesAcrossBackends) {
  std::mt19937 rng(7);
  for (int round = 0; round < 20; ++round) {
    const Shape shape = (round % 2 == 0) ? Shape{48} : Shape{12, 10};
    const ConcreteLayout from = testing::random_layout(rng, shape);
    const ConcreteLayout to = testing::random_layout(rng, shape);
    const int ranks = std::max(from.ranks(), to.ranks());

    // Compile the transfers once (shared, immutable).
    redist::RedistPlanV2 plan = redist::build_runs(from, to);
    std::vector<redist::SegmentProgram> programs;
    for (const auto& transfer : plan.transfers) {
      programs.push_back(redist::compile_transfer(
          transfer, from.owned_index_runs(transfer.src),
          to.owned_index_runs(transfer.dst)));
    }

    std::vector<std::vector<double>> src_locals(
        static_cast<std::size_t>(from.ranks()));
    for (int r = 0; r < from.ranks(); ++r) {
      auto& local = src_locals[static_cast<std::size_t>(r)];
      local.assign(static_cast<std::size_t>(from.local_count(r)), 0.0);
      from.for_each_owned(r, [&](std::span<const Index> global, Index pos) {
        local[static_cast<std::size_t>(pos)] =
            static_cast<double>(shape.linearize(global) + 1);
      });
    }

    const auto run = [&](exec::Backend& backend) {
      std::vector<std::vector<double>> dst_locals(
          static_cast<std::size_t>(to.ranks()));
      for (int r = 0; r < to.ranks(); ++r)
        dst_locals[static_cast<std::size_t>(r)].assign(
            static_cast<std::size_t>(to.local_count(r)), 0.0);
      std::vector<std::vector<net::Message>> outboxes(
          static_cast<std::size_t>(ranks));
      backend.step([&](int r) {
        for (std::size_t t = 0; t < programs.size(); ++t) {
          if (programs[t].src != r) continue;
          net::Message msg;
          msg.src = r;
          msg.dst = programs[t].dst;
          msg.tag = static_cast<int>(t);
          msg.segments = static_cast<int>(programs[t].segments.size());
          redist::pack(programs[t], src_locals[static_cast<std::size_t>(r)],
                       msg.payload);
          outboxes[static_cast<std::size_t>(r)].push_back(std::move(msg));
        }
      });
      const auto inboxes = backend.exchange(std::move(outboxes));
      backend.step([&](int r) {
        for (const auto& msg : inboxes[static_cast<std::size_t>(r)])
          redist::unpack(programs[static_cast<std::size_t>(msg.tag)],
                         msg.payload,
                         dst_locals[static_cast<std::size_t>(r)]);
      });
      return dst_locals;
    };

    const auto seq = exec::make_backend(exec::BackendKind::Seq, ranks);
    const auto thr =
        exec::make_backend(exec::BackendKind::Thread, ranks, {},
                           /*threads=*/1 + static_cast<int>(rng() % 8));
    const auto proc = exec::make_backend(exec::BackendKind::Proc, ranks);
    const auto expected = run(*seq);
    EXPECT_EQ(expected, run(*thr)) << "round " << round;
    EXPECT_EQ(seq->stats(), thr->stats()) << "round " << round;
    EXPECT_EQ(expected, run(*proc)) << "round " << round;
    EXPECT_EQ(seq->stats(), proc->stats()) << "round " << round;
  }
}

TEST(Backend, AccountLocalMatchesSelfMessageAccounting) {
  // account_local must produce the exact NetStats a routed self-message
  // would: same local_copies/local_bytes/segments, no clock contribution.
  const auto via_hook = exec::make_backend(exec::BackendKind::Seq, 4);
  const auto via_message = exec::make_backend(exec::BackendKind::Seq, 4);

  net::Message self;
  self.src = 2;
  self.dst = 2;
  self.segments = 3;
  self.payload.assign(17, 1.0);
  std::vector<std::vector<net::Message>> outboxes(4);
  outboxes[2].push_back(self);
  (void)via_message->exchange(std::move(outboxes));

  via_hook->account_local(1, 17 * sizeof(double), 3);
  (void)via_hook->exchange(std::vector<std::vector<net::Message>>(4));

  EXPECT_EQ(via_hook->stats(), via_message->stats());
}

/// The src == dst local-copy fast path on every backend, over randomized
/// programs whose redistributions mix local and remote transfers: results
/// match the oracle, every local transfer is booked as a self-message
/// would be (AccountLocalMatchesSelfMessageAccounting pins that unit),
/// and only remote transfers are materialized into message buffers.
class FastPathPrograms : public ::testing::TestWithParam<unsigned> {};

TEST_P(FastPathPrograms, LocalFastPathMatchesTheOracle) {
  testing::GenConfig config;
  config.seed = 100 + GetParam();
  auto accepted = testing::generate_compilable(config);
  ASSERT_TRUE(accepted.has_value()) << "no compilable program found";

  testing::GenConfig regen = config;
  regen.seed = accepted->second;
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O2;
  Compiled compiled =
      driver::compile(testing::generate(regen), options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();

  runtime::RunOptions run_options;
  run_options.seed = 2000 + GetParam();
  const auto oracle = driver::run_oracle(compiled, run_options);

  for (const auto backend :
       {exec::BackendKind::Seq, exec::BackendKind::Thread,
        exec::BackendKind::Proc}) {
    run_options.backend = backend;
    run_options.threads = 3;
    const auto fast = driver::run(compiled, run_options);

    EXPECT_EQ(fast.signature, oracle.signature);
    EXPECT_TRUE(fast.exported_values_ok);
    // Every rank-local delivery is a fast-path copy, and only the remote
    // transfers are packed into message buffers.
    EXPECT_EQ(fast.local_fastpath_copies, fast.net.local_copies);
    EXPECT_EQ(fast.packed_bytes, fast.net.bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathPrograms,
                         ::testing::Range(1u, 9u, 1u));

class BackendPrograms : public ::testing::TestWithParam<unsigned> {};

/// Whole-machine equivalence on randomized compilable programs: for every
/// optimization level, machine size, and worker count, the thread and
/// proc backends reproduce the seq backend's checksums, counters, and
/// NetStats, and all match the sequential oracle.
TEST_P(BackendPrograms, WorkerBackendsMatchSeqBackend) {
  testing::GenConfig config;
  config.seed = GetParam();
  auto accepted = testing::generate_compilable(config);
  ASSERT_TRUE(accepted.has_value()) << "no compilable program found";

  for (const OptLevel level : {OptLevel::O0, OptLevel::O2}) {
    testing::GenConfig regen = config;
    regen.seed = accepted->second;
    DiagnosticEngine diags;
    CompileOptions options;
    options.level = level;
    Compiled compiled =
        driver::compile(testing::generate(regen), options, diags);
    ASSERT_TRUE(compiled.ok) << diags.to_string();

    // ranks=0 resolves to the largest arrangement; 16 oversizes the
    // machine past every random arrangement (layouts own a prefix of it).
    for (const int ranks : {0, 16}) {
      runtime::RunOptions run_options;
      run_options.seed = 1000 + GetParam();
      run_options.ranks = ranks;
      const auto oracle = driver::run_oracle(compiled, run_options);
      EXPECT_EQ(oracle.backend, "seq");  // the oracle never threads

      run_options.backend = exec::BackendKind::Seq;
      const auto seq = driver::run(compiled, run_options);
      ASSERT_EQ(seq.signature, oracle.signature);

      for (const int threads : {0, 1, 2, 7}) {
        run_options.backend = exec::BackendKind::Thread;
        run_options.threads = threads;
        const auto thr = driver::run(compiled, run_options);
        EXPECT_EQ(thr.backend, "thread");
        EXPECT_EQ(thr.ranks, seq.ranks);
        EXPECT_EQ(thr.signature, seq.signature)
            << "threads=" << threads << " ranks=" << ranks;
        EXPECT_TRUE(thr.exported_values_ok);
        EXPECT_EQ(thr.copies_performed, seq.copies_performed);
        EXPECT_EQ(thr.elements_copied, seq.elements_copied);
        EXPECT_EQ(thr.skipped_already_mapped, seq.skipped_already_mapped);
        EXPECT_EQ(thr.skipped_live_copy, seq.skipped_live_copy);
        EXPECT_EQ(thr.peak_bytes, seq.peak_bytes);
        EXPECT_EQ(thr.net, seq.net) << "NetStats diverged at threads="
                                    << threads << " ranks=" << ranks;
      }

      run_options.backend = exec::BackendKind::Proc;
      const auto proc = driver::run(compiled, run_options);
      EXPECT_EQ(proc.backend, "proc");
      EXPECT_EQ(proc.ranks, seq.ranks);
      EXPECT_EQ(proc.signature, seq.signature) << "ranks=" << ranks;
      EXPECT_TRUE(proc.exported_values_ok);
      EXPECT_EQ(proc.net, seq.net)
          << "NetStats diverged on the proc backend at ranks=" << ranks;
      // The wire counters prove payloads physically crossed sockets
      // (whenever the program communicated at all) and stay zero for
      // the in-process backends.
      EXPECT_EQ(proc.proc_spawns, static_cast<std::uint64_t>(proc.ranks));
      if (seq.net.messages > 0) {
        EXPECT_GT(proc.wire_bytes, 0u);
      }
      EXPECT_EQ(seq.wire_bytes, 0u);
      EXPECT_EQ(seq.wire_msgs, 0u);
      EXPECT_EQ(seq.proc_spawns, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendPrograms,
                         ::testing::Range(1u, 13u, 1u));

class PipelinePrograms : public ::testing::TestWithParam<unsigned> {};

/// The pipelined superstep on whole randomized programs: for every backend
/// and worker count, rank-parallel pack/unpack (and, on proc, the
/// scatter-gather wire path) reproduces the sequential run's checksums,
/// inbox-order-dependent signatures and NetStats exactly, with phase
/// timers inside the run's wall clock. Runs at O2, so the fused
/// copy-group exchange path is exercised wherever the generator produced
/// a fusable remap vertex.
TEST_P(PipelinePrograms, CountersAndPhaseTimersMatchAcrossBackends) {
  testing::GenConfig config;
  config.seed = GetParam();
  auto accepted = testing::generate_compilable(config);
  ASSERT_TRUE(accepted.has_value()) << "no compilable program found";

  testing::GenConfig regen = config;
  regen.seed = accepted->second;
  DiagnosticEngine diags;
  CompileOptions options;
  options.level = OptLevel::O2;
  Compiled compiled =
      driver::compile(testing::generate(regen), options, diags);
  ASSERT_TRUE(compiled.ok) << diags.to_string();

  runtime::RunOptions run_options;
  run_options.seed = 4000 + GetParam();
  const auto oracle = driver::run_oracle(compiled, run_options);

  // The baseline everything must match: the sequential backend.
  run_options.backend = exec::BackendKind::Seq;
  const auto base = driver::run(compiled, run_options);
  ASSERT_EQ(base.signature, oracle.signature);

  for (const auto backend :
       {exec::BackendKind::Seq, exec::BackendKind::Thread,
        exec::BackendKind::Proc}) {
    for (const int threads : {1, 3}) {
      if (backend == exec::BackendKind::Seq && threads != 1) continue;
      run_options.backend = backend;
      run_options.threads = threads;
      const auto report = driver::run(compiled, run_options);
      const std::string where = std::string(exec::to_string(backend)) +
                                " x" + std::to_string(threads);
      EXPECT_EQ(report.signature, base.signature) << where;
      EXPECT_TRUE(report.exported_values_ok) << where;
      EXPECT_EQ(report.net, base.net) << "NetStats diverged: " << where;
      EXPECT_EQ(report.copies_performed, base.copies_performed) << where;
      EXPECT_EQ(report.elements_copied, base.elements_copied) << where;
      EXPECT_EQ(report.peak_bytes, base.peak_bytes) << where;
      EXPECT_EQ(report.packed_bytes, base.packed_bytes) << where;
      // Phase timers are filled on every leg and stay inside the run's
      // wall-clock window.
      EXPECT_GE(report.pack_ms, 0.0) << where;
      EXPECT_GE(report.exchange_ms, 0.0) << where;
      EXPECT_GE(report.unpack_ms, 0.0) << where;
      EXPECT_LE(report.pack_ms + report.exchange_ms + report.unpack_ms,
                report.exec_ms * 1.01 + 0.5)
          << where;
      if (base.net.messages > 0 && backend == exec::BackendKind::Proc) {
        EXPECT_GT(report.exchange_ms, 0.0) << where;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePrograms,
                         ::testing::Range(1u, 6u, 1u));

}  // namespace
}  // namespace hpfc
