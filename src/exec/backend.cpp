#include "exec/backend.hpp"

#include <sched.h>

#include <string>

#include "support/check.hpp"

namespace hpfc::exec {

const char* to_string(BackendKind kind) {
  switch (kind) {
    case BackendKind::Seq:
      return "seq";
    case BackendKind::Thread:
      return "thread";
    case BackendKind::Proc:
      return "proc";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) {
  if (name == "seq") return BackendKind::Seq;
  if (name == "thread") return BackendKind::Thread;
  if (name == "proc") return BackendKind::Proc;
  return std::nullopt;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  const int hardware = static_cast<int>(std::thread::hardware_concurrency());
  return hardware > 0 ? hardware : 1;
}

StepPool::StepPool(int ranks, int threads) : ranks_(ranks) {
  HPFC_ASSERT_MSG(ranks > 0, "a pool needs at least one rank");
  if (threads <= 0) threads = usable_cpus();
  threads_ = std::min(std::max(threads, 1), ranks);
  errors_.resize(static_cast<std::size_t>(threads_));
  workers_.reserve(static_cast<std::size_t>(threads_));
  for (int w = 0; w < threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

StepPool::~StepPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void StepPool::run(const RankFn& fn) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    pending_ = threads_;
    ++generation_;
  }
  work_ready_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    step_done_.wait(lock, [this] { return pending_ == 0; });
    fn_ = nullptr;
  }
  // Rank work may throw (HPFC_ASSERT throws InternalError): rethrow the
  // lowest-indexed worker's failure on the controlling thread.
  for (auto& error : errors_) {
    if (error == nullptr) continue;
    const std::exception_ptr first = error;
    for (auto& e : errors_) e = nullptr;
    std::rethrow_exception(first);
  }
}

void StepPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  while (true) {
    const RankFn* fn = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      fn = fn_;
    }
    try {
      for (int r = worker; r < ranks_; r += threads_) (*fn)(r);
    } catch (...) {
      // Slot is worker-owned during a run; the barrier publishes it.
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (--pending_ == 0) step_done_.notify_one();
    }
  }
}

Backend::Backend(int ranks, net::CostModel cost) : ranks_(ranks), cost_(cost) {
  HPFC_ASSERT_MSG(ranks > 0, "a machine needs at least one rank");
}

Backend::~Backend() = default;

void Backend::barrier() {
  stats_.supersteps += 1;
  stats_.sim_time += cost_.latency;
}

namespace {

/// The original sequential BSP engine: ranks execute one after another on
/// the calling thread; routing and accounting happen inline.
class SeqBackend final : public Backend {
 public:
  using Backend::Backend;

  [[nodiscard]] BackendKind kind() const override { return BackendKind::Seq; }
  [[nodiscard]] int workers() const override { return 1; }

  void step(const RankFn& fn) override {
    for (int r = 0; r < ranks_; ++r) fn(r);
  }

  std::vector<std::vector<net::Message>> exchange(
      std::vector<std::vector<net::Message>> outboxes) override {
    auto inboxes = net::route_superstep(std::move(outboxes), ranks_);
    net::account_superstep(stats_, cost_, inboxes);
    return inboxes;
  }
};

}  // namespace

std::unique_ptr<Backend> make_thread_backend(int ranks, net::CostModel cost,
                                             int threads);
std::unique_ptr<Backend> make_proc_backend(int ranks, net::CostModel cost,
                                           ProcConfig config);

std::unique_ptr<Backend> make_backend(BackendKind kind, int ranks,
                                      net::CostModel cost, int threads,
                                      ProcConfig proc) {
  switch (kind) {
    case BackendKind::Seq:
      return std::make_unique<SeqBackend>(ranks, cost);
    case BackendKind::Thread:
      return make_thread_backend(ranks, cost, threads);
    case BackendKind::Proc:
      return make_proc_backend(ranks, cost, proc);
  }
  HPFC_ASSERT_MSG(false, "unknown backend kind");
  return nullptr;
}

}  // namespace hpfc::exec
