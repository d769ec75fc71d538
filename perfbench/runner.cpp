// perfbench runner: one workload, one process, both clocks.
//
//   perfbench_runner --workload halo|storm|dataenv --seed N --seconds S
//                    --trace 0|1 [--smoke] [--inject KIND]
//
// --trace 0 (timed run) launches the workload repeatedly, untraced, for
// S seconds after one warm-up launch and reports the end-to-end metrics:
// median host wall-clock per launch, median virtual makespan, median
// set-up time (launch() call until every task body has started) and the
// process's peak resident set. Launches during which the virtual
// machine's host stole CPU time (/proc/stat) are checked but not timed.
//
// --trace 1 (traced run) reports per-layer metrics measured from outside
// the runtime: wall time of the calls the task bodies below make into
// impacc::mpi and impacc::acc, plus the counters the runtime exports
// through LaunchResult (metrics snapshot with metrics_path "-", critical
// path attribution with critpath on, stray-message count).
//
// Every launch is checked: each posted receive completes with its
// expected source, tag and element count, no message is left stray, the
// task count is the cluster's, and on dataenv the final checksum equals a
// host replay of the same seeded schedule bit for bit. Virtual time is
// never checked against a constant or across launches.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --inject KIND breaks one output on purpose (tests of the checks).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "impacc.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace impacc;
using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Compensated sum; the task bodies and the host replay use the same one
/// so their checksums agree bit for bit.
struct Kahan {
  double sum = 0;
  double c = 0;
  void add(double v) {
    const double y = v - c;
    const double t = sum + y;
    c = (t - sum) - y;
    sum = t;
  }
};

// --- Call timing (traced run only) -------------------------------------------

enum Probe : int {
  kMpiPost = 0,   // isend / irecv / send
  kMpiWait,       // wait (includes time blocked)
  kMpiSendrecv,   // sendrecv (host buffers, see dataenv)
  kMpiRing,       // one device-buffer ring exchange (see dataenv)
  kMpiColl,       // barrier / gather
  kAccLookup,     // deviceptr / is_present / hostptr
  kAccMap,        // copyin / copyout / create / del
  kAccUpdate,     // update_self / update_device
  kAccKernel,     // kernel
  kAccWait,       // acc wait
  kProbeCount
};

const char* const kProbeNames[kProbeCount] = {
    "mpi.post_us",   "mpi.wait_us",    "mpi.sendrecv_us",
    "mpi.ring_us",   "mpi.coll_us",    "acc.lookup_us",
    "acc.map_us",    "acc.update_us",  "acc.kernel_us",
    "acc.wait_us"};

struct ProbeTotal {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};

ProbeTotal g_probe[kProbeCount];
// Set only between launches; scheduler workers are created per launch,
// after the write.
bool g_timing = false;

/// Run `f`, adding its wall time to probe `p` when timing is on. Fibers
/// can resume on another worker thread, so the totals are global atomics
/// rather than thread-locals.
template <class F>
decltype(auto) timed(Probe p, F&& f) {
  struct Record {
    Probe p;
    std::int64_t t0;
    ~Record() {
      if (t0 < 0) return;
      g_probe[p].calls.fetch_add(1, std::memory_order_relaxed);
      g_probe[p].ns.fetch_add(static_cast<std::uint64_t>(now_ns() - t0),
                              std::memory_order_relaxed);
    }
  } rec{p, g_timing ? now_ns() : -1};
  return f();
}

// --- Per-launch output checks ------------------------------------------------

enum class Inject {
  kNone,
  kCorruptChecksum,  // dataenv: flip the checksum's lowest bit
  kDropRecv,         // storm: rank 0 never posts one receive
  kStrayMsg,         // storm: one sender sends a message nobody receives
  kShortMsg,         // storm: one message carries 0 elements instead of 1
  kWrongTasks,       // any: launch on a cluster one device short
};

/// State shared by the task bodies of one launch.
struct LaunchCheck {
  std::atomic<int> failures{0};
  std::mutex mu;
  std::string first_failure;  // guarded by mu
  std::atomic<std::int64_t> last_start{0};
  std::atomic<std::int64_t> last_end{0};
  std::atomic<std::uint64_t> recvs_done{0};
  double checksum = 0;  // written by rank 0 only, read after launch()

  void fail(const std::string& what) {
    if (failures.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(mu);
      first_failure = what;
    }
  }
};

void atomic_max(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Check the status of a completed receive.
void check_recv(LaunchCheck& c, const mpi::MpiStatus& st, int src, int tag,
                int count, mpi::Datatype dt) {
  if (st.source != src || st.tag != tag || mpi::get_count(st, dt) != count) {
    c.fail("receive (src " + std::to_string(src) + ", tag " +
           std::to_string(tag) + ", count " + std::to_string(count) +
           ") completed as (src " + std::to_string(st.source) + ", tag " +
           std::to_string(st.tag) + ", count " +
           std::to_string(mpi::get_count(st, dt)) + ")");
  }
  c.recvs_done.fetch_add(1, std::memory_order_relaxed);
}

/// Wait for a receive and check what arrived.
void wait_recv(LaunchCheck& c, mpi::Request& req, int src, int tag,
               int count, mpi::Datatype dt) {
  mpi::MpiStatus st;
  timed(kMpiWait, [&] { mpi::wait(req, &st); });
  check_recv(c, st, src, tag, count, dt);
}

long chunk_begin(long n, int parts, int i) {
  return n * static_cast<long>(i) / parts;
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  core::LaunchOptions options;
  int expected_tasks = 0;
  std::uint64_t expected_recvs = 0;
  std::optional<double> expected_checksum;  // dataenv's host replay
  std::function<void(LaunchCheck&)> task;
};

/// halo: Fig. 13(e) shape. Beacon, 32 nodes x 4 Xeon Phi = 128 tasks,
/// model-only; an 8K x 8K mesh in 1-D row blocks; 64 KiB device-buffer
/// halos on activity queue 1 (#pragma acc mpi) and the sweep kernel on the
/// same queue; no global synchronisation between sweeps. The host waits
/// for each receive a few sweeps after posting it, so it never runs far
/// ahead of its queue and every receive's status is checked.
Workload make_halo(bool smoke) {
  const int nodes = smoke ? 2 : 32;
  const long n = smoke ? 512 : 8192;
  const int sweeps = smoke ? 20 : 1000;

  Workload w;
  w.name = "halo";
  w.options.cluster = sim::make_beacon(nodes);
  w.options.mode = core::ExecMode::kModelOnly;
  w.expected_tasks = nodes * 4;
  const int tasks = w.expected_tasks;
  w.expected_recvs = static_cast<std::uint64_t>(sweeps) * 2 * (tasks - 1);
  w.task = [n, sweeps](LaunchCheck& c) {
    constexpr int kTagUp = 21;    // toward lower ranks
    constexpr int kTagDown = 22;  // toward higher ranks
    constexpr int kQueue = 1;
    constexpr std::size_t kLagSweeps = 4;
    auto comm = mpi::world();
    const int rank = mpi::comm_rank(comm);
    const int size = mpi::comm_size(comm);
    const long row0 = chunk_begin(n, size, rank);
    const long rows = chunk_begin(n, size, rank + 1) - row0;
    const int up = rank > 0 ? rank - 1 : -1;
    const int down = rank < size - 1 ? rank + 1 : -1;
    const int halo = static_cast<int>(n);
    const std::uint64_t block = static_cast<std::uint64_t>(rows + 2) * n * 8;
    auto* u = static_cast<double*>(node_malloc(block));
    auto* unew = static_cast<double*>(node_malloc(block));
    timed(kAccMap, [&] { return acc::copyin(u, block); });
    timed(kAccMap, [&] { return acc::copyin(unew, block); });
    const sim::WorkEstimate est{5.0 * static_cast<double>(rows) * n,
                                static_cast<double>(block) * 2};

    struct Pending {
      mpi::Request req;
      int src;
      int tag;
    };
    std::deque<Pending> pending;
    const std::size_t per_sweep = (up >= 0) + (down >= 0);
    for (int it = 0; it < sweeps; ++it) {
      if (up >= 0) {
        acc::mpi({.recv_device = true, .async = kQueue});
        pending.push_back({timed(kMpiPost,
                                 [&] {
                                   return mpi::irecv(u, halo,
                                                     mpi::Datatype::kDouble,
                                                     up, kTagDown, comm);
                                 }),
                           up, kTagDown});
        acc::mpi({.send_device = true, .async = kQueue});
        timed(kMpiPost, [&] {
          return mpi::isend(u + n, halo, mpi::Datatype::kDouble, up, kTagUp,
                            comm);
        });
      }
      if (down >= 0) {
        acc::mpi({.recv_device = true, .async = kQueue});
        pending.push_back({timed(kMpiPost,
                                 [&] {
                                   return mpi::irecv(u + (rows + 1) * n, halo,
                                                     mpi::Datatype::kDouble,
                                                     down, kTagUp, comm);
                                 }),
                           down, kTagUp});
        acc::mpi({.send_device = true, .async = kQueue});
        timed(kMpiPost, [&] {
          return mpi::isend(u + rows * n, halo, mpi::Datatype::kDouble, down,
                            kTagDown, comm);
        });
      }
      timed(kAccLookup, [&] { return acc::deviceptr(u); });
      timed(kAccLookup, [&] { return acc::deviceptr(unew); });
      // Model-only: the kernel body never runs, only `est` is priced.
      timed(kAccKernel,
            [&] { acc::kernel("halo-sweep", [] {}, est, kQueue); });
      std::swap(u, unew);
      while (pending.size() > kLagSweeps * per_sweep) {
        Pending& p = pending.front();
        wait_recv(c, p.req, p.src, p.tag, halo, mpi::Datatype::kDouble);
        pending.pop_front();
      }
    }
    timed(kAccWait, [&] { acc::wait(kQueue); });
    for (Pending& p : pending) {
      wait_recv(c, p.req, p.src, p.tag, halo, mpi::Datatype::kDouble);
    }
    timed(kAccMap, [&] { acc::del(u); });
    timed(kAccMap, [&] { acc::del(unew); });
    timed(kMpiColl, [&] { mpi::barrier(comm); });
    node_free(u);
    node_free(unew);
  };
  return w;
}

/// storm: PSG, 1 node x 8 tasks, model-only. Each round, rank 0 posts
/// every receive (per source, ascending tags) before a barrier; after it,
/// the 7 senders each send their eager 8-byte messages in a seeded tag
/// order, so every message meets a posted receive. The handler, MPSC queue
/// and matcher do nearly all the work.
Workload make_storm(std::uint64_t seed, bool smoke, Inject inject) {
  std::uint64_t s = seed;
  const int rounds = smoke ? 2 : 4;
  const int msgs = smoke ? 64 : 4096;
  constexpr int kTasks = 8;

  // order[round][sender]: a seeded permutation of the tags 0..msgs-1.
  auto order = std::make_shared<std::vector<std::vector<int>>>(
      static_cast<std::size_t>(rounds * kTasks));
  for (int r = 0; r < rounds; ++r) {
    for (int src = 1; src < kTasks; ++src) {
      std::vector<int>& o =
          (*order)[static_cast<std::size_t>(r * kTasks + src)];
      o.resize(static_cast<std::size_t>(msgs));
      for (int m = 0; m < msgs; ++m) o[static_cast<std::size_t>(m)] = m;
      for (int m = msgs - 1; m > 0; --m) {
        const auto j = static_cast<int>(splitmix64(s) %
                                        static_cast<std::uint64_t>(m + 1));
        std::swap(o[static_cast<std::size_t>(m)],
                  o[static_cast<std::size_t>(j)]);
      }
    }
  }

  Workload w;
  w.name = "storm";
  w.options.cluster = sim::make_psg(1);
  w.options.mode = core::ExecMode::kModelOnly;
  w.expected_tasks = kTasks;
  w.expected_recvs =
      static_cast<std::uint64_t>(rounds) * (kTasks - 1) * msgs;
  w.task = [rounds, msgs, order, inject](LaunchCheck& c) {
    auto comm = mpi::world();
    const int rank = mpi::comm_rank(comm);
    const int size = mpi::comm_size(comm);
    const auto dt = mpi::Datatype::kLong;
    for (int r = 0; r < rounds; ++r) {
      if (rank == 0) {
        struct Posted {
          mpi::Request req;
          int src;
          int tag;
        };
        std::vector<Posted> posted;
        posted.reserve(static_cast<std::size_t>((size - 1) * msgs));
        for (int src = 1; src < size; ++src) {
          for (int tag = 0; tag < msgs; ++tag) {
            if (inject == Inject::kDropRecv && r == 0 && src == 1 &&
                tag == 0) {
              continue;
            }
            posted.push_back(
                {timed(kMpiPost,
                       [&] {
                         return mpi::irecv(nullptr, 1, dt, src, tag, comm);
                       }),
                 src, tag});
          }
        }
        timed(kMpiColl, [&] { mpi::barrier(comm); });
        for (Posted& p : posted) wait_recv(c, p.req, p.src, p.tag, 1, dt);
      } else {
        timed(kMpiColl, [&] { mpi::barrier(comm); });
        const std::vector<int>& o =
            (*order)[static_cast<std::size_t>(r * kTasks + rank)];
        for (const int tag : o) {
          const int count =
              (inject == Inject::kShortMsg && r == 0 && rank == 1 && tag == 0)
                  ? 0
                  : 1;
          timed(kMpiPost,
                [&] { mpi::send(nullptr, count, dt, 0, tag, comm); });
        }
        if (inject == Inject::kStrayMsg && r == 0 && rank == 1) {
          timed(kMpiPost, [&] { mpi::send(nullptr, 1, dt, 0, msgs, comm); });
        }
      }
    }
  };
  return w;
}

/// One step of the dataenv schedule; the same for every rank.
struct DataStep {
  std::uint8_t kernel_buf;
  std::uint8_t send_buf;
  std::uint8_t recv_buf;  // != send_buf
  std::int16_t churn_buf;  // -1: no churn this step
};

constexpr int kDataBufs = 64;
constexpr int kDataElems = 1024;  // 8 KiB of doubles per buffer
constexpr int kDataLookups = 16;  // present-table lookups per step
constexpr int kDataTasks = 8;

double data_init(std::uint64_t salt, int rank, int buf, int i) {
  const std::uint64_t v = (salt + static_cast<std::uint64_t>(rank) * 131 +
                           static_cast<std::uint64_t>(buf) * 17 +
                           static_cast<std::uint64_t>(i) * 7) %
                          1000;
  return static_cast<double>(v) / 1000.0;
}

double data_shift(int step, int rank) {
  return static_cast<double>((step * 31 + rank * 7) % 97) / 97.0;
}

/// Host replay of the dataenv schedule: the rank-ordered Kahan checksum
/// the launch must reproduce bit for bit.
double replay_dataenv(std::uint64_t salt, const std::vector<DataStep>& steps) {
  const std::size_t per_rank = static_cast<std::size_t>(kDataBufs) * kDataElems;
  std::vector<double> h(per_rank * kDataTasks);
  auto at = [&](int rank, int buf) {
    return h.data() + static_cast<std::size_t>(rank) * per_rank +
           static_cast<std::size_t>(buf) * kDataElems;
  };
  for (int r = 0; r < kDataTasks; ++r) {
    for (int b = 0; b < kDataBufs; ++b) {
      for (int i = 0; i < kDataElems; ++i) {
        at(r, b)[i] = data_init(salt, r, b, i);
      }
    }
  }
  for (std::size_t st = 0; st < steps.size(); ++st) {
    const DataStep& ds = steps[st];
    for (int r = 0; r < kDataTasks; ++r) {
      double* d = at(r, ds.kernel_buf);
      const double f = data_shift(static_cast<int>(st), r);
      for (int i = 0; i < kDataElems; ++i) d[i] = d[i] * 0.5 + f;
    }
    // Ring: rank r's send buffer lands in rank r+1's receive buffer. The
    // two indices differ, so no rank's send buffer is overwritten here.
    for (int r = 0; r < kDataTasks; ++r) {
      std::memcpy(at((r + 1) % kDataTasks, ds.recv_buf), at(r, ds.send_buf),
                  kDataElems * sizeof(double));
    }
  }
  Kahan total;
  for (int r = 0; r < kDataTasks; ++r) {
    Kahan local;
    for (std::size_t i = 0; i < per_rank; ++i) local.add(at(r, 0)[i]);
    total.add(local.sum);
  }
  return total.sum;
}

/// dataenv: PSG, 1 node x 8 tasks, functional. Each task maps 64 x 8 KiB
/// buffers; each step does 16 seeded present-table lookups, one small
/// kernel, and a device-buffer ring exchange (fused DtoD); on a seeded
/// quarter of the steps it passes the step number round the ring with a
/// host-buffer sendrecv, then exits and re-enters one seeded mapping
/// (update self, delete, copyin), so the present table sees writes beside
/// its reads.
Workload make_dataenv(std::uint64_t seed, bool smoke, Inject inject) {
  std::uint64_t s = seed;
  const int nsteps = smoke ? 50 : 2000;
  const std::uint64_t salt = splitmix64(s) % 1000;
  auto steps = std::make_shared<std::vector<DataStep>>();
  steps->reserve(static_cast<std::size_t>(nsteps));
  for (int i = 0; i < nsteps; ++i) {
    DataStep ds{};
    ds.kernel_buf = static_cast<std::uint8_t>(splitmix64(s) % kDataBufs);
    ds.send_buf = static_cast<std::uint8_t>(splitmix64(s) % kDataBufs);
    ds.recv_buf = static_cast<std::uint8_t>(
        (ds.send_buf + 1 + splitmix64(s) % (kDataBufs - 1)) % kDataBufs);
    ds.churn_buf = splitmix64(s) % 4 == 0
                       ? static_cast<std::int16_t>(splitmix64(s) % kDataBufs)
                       : -1;
    steps->push_back(ds);
  }
  // lookups[rank][step * kDataLookups + l]: buffer index to look up.
  auto lookups = std::make_shared<std::vector<std::vector<std::uint8_t>>>(
      kDataTasks);
  for (auto& l : *lookups) {
    l.resize(static_cast<std::size_t>(nsteps) * kDataLookups);
    for (auto& v : l) v = static_cast<std::uint8_t>(splitmix64(s) % kDataBufs);
  }

  Workload w;
  w.name = "dataenv";
  w.options.cluster = sim::make_psg(1);
  w.options.mode = core::ExecMode::kFunctional;
  w.expected_tasks = kDataTasks;
  const auto churns = static_cast<std::uint64_t>(
      std::count_if(steps->begin(), steps->end(),
                    [](const DataStep& ds) { return ds.churn_buf >= 0; }));
  w.expected_recvs =
      (static_cast<std::uint64_t>(nsteps) + churns) * kDataTasks;
  w.expected_checksum = replay_dataenv(salt, *steps);
  w.task = [salt, steps, lookups, inject](LaunchCheck& c) {
    constexpr int kTag = 7;
    constexpr int kChurnTag = 8;
    constexpr std::uint64_t kBytes = kDataElems * sizeof(double);
    auto comm = mpi::world();
    const int rank = mpi::comm_rank(comm);
    const int size = mpi::comm_size(comm);
    const int dst = (rank + 1) % size;
    const int src = (rank + size - 1) % size;
    std::vector<double*> buf(kDataBufs);
    std::vector<void*> dev(kDataBufs);
    for (int b = 0; b < kDataBufs; ++b) {
      buf[b] = static_cast<double*>(node_malloc(kBytes));
      for (int i = 0; i < kDataElems; ++i) {
        buf[b][i] = data_init(salt, rank, b, i);
      }
      dev[b] = timed(kAccMap, [&] { return acc::copyin(buf[b], kBytes); });
    }
    const std::vector<std::uint8_t>& look =
        (*lookups)[static_cast<std::size_t>(rank) % lookups->size()];
    const sim::WorkEstimate est{2.0 * kDataElems, 2.0 * kBytes};
    for (std::size_t st = 0; st < steps->size(); ++st) {
      const DataStep& ds = (*steps)[st];
      for (int l = 0; l < kDataLookups; ++l) {
        const int b = look[st * kDataLookups + static_cast<std::size_t>(l)];
        bool ok = true;
        switch (l % 3) {
          case 0:
            ok = timed(kAccLookup, [&] { return acc::deviceptr(buf[b]); }) ==
                 dev[b];
            break;
          case 1:
            ok = timed(kAccLookup, [&] { return acc::is_present(buf[b]); });
            break;
          default:
            ok = timed(kAccLookup, [&] { return acc::hostptr(dev[b]); }) ==
                 buf[b];
            break;
        }
        if (!ok) c.fail("present-table lookup of buffer " + std::to_string(b));
      }

      auto* d = static_cast<double*>(dev[ds.kernel_buf]);
      const double f = data_shift(static_cast<int>(st), rank);
      timed(kAccKernel, [&] {
        acc::kernel(
            "dataenv-step",
            [d, f] {
              for (int i = 0; i < kDataElems; ++i) d[i] = d[i] * 0.5 + f;
            },
            est);
      });

      // The ring exchange is an irecv + isend pair, each under its own
      // directive, rather than mpi::sendrecv: sendrecv hands the
      // directive to its receive half only, so its send half would read
      // the stale host copy.
      timed(kMpiRing, [&] {
        acc::mpi({.recv_device = true});
        mpi::Request rr = timed(kMpiPost, [&] {
          return mpi::irecv(buf[ds.recv_buf], kDataElems,
                            mpi::Datatype::kDouble, src, kTag, comm);
        });
        acc::mpi({.send_device = true});
        mpi::Request sr = timed(kMpiPost, [&] {
          return mpi::isend(buf[ds.send_buf], kDataElems,
                            mpi::Datatype::kDouble, dst, kTag, comm);
        });
        timed(kMpiWait, [&] { mpi::wait(sr); });
        wait_recv(c, rr, src, kTag, kDataElems, mpi::Datatype::kDouble);
      });

      if (ds.churn_buf >= 0) {
        // Host-buffer sendrecv around the ring: pass on the step number.
        const long sent = static_cast<long>(st);
        long got = -1;
        mpi::MpiStatus rs;
        timed(kMpiSendrecv, [&] {
          mpi::sendrecv(&sent, 1, mpi::Datatype::kLong, dst, kChurnTag, &got,
                        1, mpi::Datatype::kLong, src, kChurnTag, comm, &rs);
        });
        check_recv(c, rs, src, kChurnTag, 1, mpi::Datatype::kLong);
        if (got != sent) {
          c.fail("sendrecv delivered step " + std::to_string(got) +
                 " at step " + std::to_string(sent));
        }
        const int b = ds.churn_buf;
        timed(kAccUpdate, [&] { acc::update_self(buf[b]); });
        timed(kAccMap, [&] { acc::del(buf[b]); });
        dev[b] = timed(kAccMap, [&] { return acc::copyin(buf[b], kBytes); });
      }
    }

    Kahan local;
    for (int b = 0; b < kDataBufs; ++b) {
      timed(kAccMap, [&] { acc::copyout(buf[b]); });
      for (int i = 0; i < kDataElems; ++i) local.add(buf[b][i]);
    }
    std::vector<double> partials(rank == 0 ? static_cast<std::size_t>(size)
                                           : 0);
    timed(kMpiColl, [&] {
      mpi::gather(&local.sum, 1, mpi::Datatype::kDouble, partials.data(), 1,
                  mpi::Datatype::kDouble, 0, comm);
    });
    if (rank == 0) {
      Kahan total;
      for (const double p : partials) total.add(p);
      double sum = total.sum;
      if (inject == Inject::kCorruptChecksum) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &sum, sizeof bits);
        bits ^= 1;
        std::memcpy(&sum, &bits, sizeof bits);
      }
      c.checksum = sum;
    }
    timed(kMpiColl, [&] { mpi::barrier(comm); });
    for (double* p : buf) node_free(p);
  };
  return w;
}

// --- Launching ---------------------------------------------------------------

struct LaunchSample {
  double wall_s = 0;
  double vtime_ms = 0;
  double setup_s = 0;
  double teardown_s = 0;
  double steal = 0;  // share of the machine's CPU time its host took
  bool ok = true;
  LaunchResult result;
};

/// CPU time the host took from this virtual machine, in clock ticks summed
/// over its CPUs: the `steal` field of the `cpu` line of /proc/stat. 0
/// where the field is missing.
long long steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  long long v[8] = {};
  const int got = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  return got == 8 ? v[7] : 0;
}

LaunchSample run_launch(const Workload& w, const core::LaunchOptions& opts) {
  LaunchCheck c;
  const long long steal0 = steal_ticks();
  const std::int64_t t0 = now_ns();
  LaunchResult r = launch(opts, [&w, &c] {
    atomic_max(c.last_start, now_ns());
    // Tasks outnumber workers: without this barrier the last tasks would
    // start only when earlier ones first block, and setup_s would measure
    // that wait instead of the runtime's set-up.
    mpi::barrier(mpi::world());
    w.task(c);
    atomic_max(c.last_end, now_ns());
  });
  const std::int64_t t1 = now_ns();
  const long long stolen = steal_ticks() - steal0;

  if (r.num_tasks != w.expected_tasks) {
    c.fail("launch ran " + std::to_string(r.num_tasks) + " tasks, expected " +
           std::to_string(w.expected_tasks));
  } else if (c.recvs_done.load() != w.expected_recvs) {
    c.fail(std::to_string(c.recvs_done.load()) + " receives completed, " +
           std::to_string(w.expected_recvs) + " expected");
  }
  if (r.stray_messages != 0) {
    c.fail(std::to_string(r.stray_messages) + " stray message(s)");
  }
  if (w.expected_checksum && c.checksum != *w.expected_checksum) {
    char msg[128];
    std::snprintf(msg, sizeof msg, "checksum %.17g, host replay %.17g",
                  c.checksum, *w.expected_checksum);
    c.fail(msg);
  }
  if (opts.critpath) {
    // The runtime's own invariant: the critical-path categories account
    // for every instant of the makespan.
    double sum = 0;
    for (const auto& e : r.metrics.entries) {
      const std::string& n = e.name;
      if (n.rfind("critpath.", 0) == 0 && n.size() > 8 &&
          n.compare(n.size() - 8, 8, ".seconds") == 0) {
        sum += e.value;
      }
    }
    if (std::fabs(sum - r.makespan) > 1e-12 + 1e-9 * std::fabs(r.makespan)) {
      char msg[128];
      std::snprintf(msg, sizeof msg,
                    "critpath seconds sum %.17g != makespan %.17g", sum,
                    r.makespan);
      c.fail(msg);
    }
  }

  LaunchSample s;
  s.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  s.vtime_ms = r.makespan * 1e3;
  s.setup_s = static_cast<double>(c.last_start.load() - t0) * 1e-9;
  s.teardown_s = static_cast<double>(t1 - c.last_end.load()) * 1e-9;
  static const double cpu_ticks_per_s =
      static_cast<double>(sysconf(_SC_CLK_TCK)) *
      static_cast<double>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  s.steal = static_cast<double>(stolen) / (s.wall_s * cpu_ticks_per_s);
  s.ok = c.failures.load() == 0;
  if (!s.ok) {
    std::lock_guard<std::mutex> lock(c.mu);
    std::fprintf(stderr, "perfbench: %s launch failed %d check(s): %s\n",
                 w.name.c_str(), c.failures.load(), c.first_failure.c_str());
  }
  s.result = std::move(r);
  // Hand freed heap pages back between launches, so peak_rss_mb is the
  // largest single launch's footprint rather than whatever the per-thread
  // malloc arenas happened to keep from earlier launches. Leaked memory is
  // not free and still counts.
  malloc_trim(0);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is no use here: Linux carries it across execve, so it never
/// reads below the resident set of the process that started the runner.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Tally {
  int attempted = 0;
  int failed = 0;
  void add(const LaunchSample& s) {
    ++attempted;
    if (!s.ok) ++failed;
  }
};

/// Repeat launches until `seconds` have passed and at least `min_launches`
/// ran.
std::vector<LaunchSample> run_for(const Workload& w,
                                  const core::LaunchOptions& opts,
                                  double seconds, int min_launches,
                                  Tally& tally) {
  std::vector<LaunchSample> out;
  const std::int64_t t0 = now_ns();
  while (static_cast<int>(out.size()) < min_launches ||
         seconds_since(t0) < seconds) {
    out.push_back(run_launch(w, opts));
    tally.add(out.back());
    out.back().result = LaunchResult{};  // keep memory flat across launches
  }
  return out;
}

std::vector<double> field(const std::vector<LaunchSample>& v,
                          double LaunchSample::*f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const auto& s : v) out.push_back(s.*f);
  return out;
}

/// A launch during which the host took more than this share of the
/// machine's CPU time is checked but not timed: its wall clock measures
/// the host's other tenants as much as this program.
constexpr double kMaxSteal = 0.03;

std::vector<Metric> timed_run(const Workload& w, double seconds, Tally& tally,
                              int* launches) {
  tally.add(run_launch(w, w.options));  // warm-up: checked, not timed
  // Launch for `seconds`, and on for up to as long again until 3 launches
  // met no steal. If fewer did, time the half of the launches that met
  // the least.
  constexpr std::size_t kMin = 3;
  std::vector<LaunchSample> all;
  const std::int64_t t0 = now_ns();
  std::size_t clean = 0;
  for (;;) {
    const double elapsed = seconds_since(t0);
    if (all.size() >= kMin && elapsed >= seconds &&
        (clean >= kMin || elapsed >= 2 * seconds)) {
      break;
    }
    LaunchSample s = run_launch(w, w.options);
    tally.add(s);
    s.result = LaunchResult{};
    if (s.steal <= kMaxSteal) ++clean;
    all.push_back(std::move(s));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const LaunchSample& a, const LaunchSample& b) {
                     return a.steal < b.steal;
                   });
  const std::size_t kept =
      clean >= kMin ? clean : std::max(kMin, all.size() / 2);
  std::printf("perfbench %s: %zu of %zu launches met host steal above %g "
              "(max %.3f); timing the %zu that met the least\n",
              w.name.c_str(), all.size() - clean, all.size(), kMaxSteal,
              all.back().steal, kept);
  all.resize(kept);
  *launches = static_cast<int>(kept);
  return {
      {"wall_s", median(field(all, &LaunchSample::wall_s)), "s"},
      {"vtime_ms", median(field(all, &LaunchSample::vtime_ms)), "ms"},
      {"setup_s", median(field(all, &LaunchSample::setup_s)), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<Metric> traced_run(const Workload& w, double seconds, Tally& tally,
                               int* launches) {
  // Untraced: the cold first launch, warm launches for a third of the
  // time, and one single-worker launch for the virtual-time skew.
  const LaunchSample cold = run_launch(w, w.options);
  tally.add(cold);
  const std::vector<LaunchSample> warm =
      run_for(w, w.options, seconds / 3, 2, tally);
  core::LaunchOptions one = w.options;
  one.scheduler_workers = 1;
  const LaunchSample single = run_launch(w, one);
  tally.add(single);

  // Traced: runtime metrics and critical path on, call timing on.
  core::LaunchOptions traced = w.options;
  traced.metrics_path = "-";
  traced.critpath = true;
  g_timing = true;
  std::vector<LaunchSample> tv;
  std::map<std::string, double> snap;  // summed over traced launches
  double mpi_wait_model = 0;
  const std::int64_t t0 = now_ns();
  while (tv.empty() || seconds_since(t0) < seconds * 2 / 3) {
    tv.push_back(run_launch(w, traced));
    LaunchSample& s = tv.back();
    tally.add(s);
    for (const auto& e : s.result.metrics.entries) {
      if (e.kind == obs::MetricKind::kHistogram) {
        snap[e.name + ".p50"] += e.hist.p50;
      } else {
        snap[e.name] += e.value;
      }
    }
    mpi_wait_model += s.result.total.mpi_wait;
    s.result = LaunchResult{};
  }
  g_timing = false;
  *launches = static_cast<int>(warm.size() + tv.size()) + 2;

  const double n = static_cast<double>(tv.size());
  auto mean = [&](const std::string& name) {
    auto it = snap.find(name);
    return it == snap.end() ? 0.0 : it->second / n;
  };
  const double warm_wall = median(field(warm, &LaunchSample::wall_s));
  const double warm_vtime = median(field(warm, &LaunchSample::vtime_ms));

  std::vector<Metric> m;
  for (int p = 0; p < kProbeCount; ++p) {
    const double calls = static_cast<double>(g_probe[p].calls.load());
    m.push_back({kProbeNames[p],
                 ratio(static_cast<double>(g_probe[p].ns.load()) * 1e-3, calls),
                 "us"});
  }
  const double matched = mean("mpi.matcher.matched");
  m.push_back({"mpi.msgs", mean("mpi.msgs_sent"), "count"});
  m.push_back({"mpi.msgs.internode", mean("mpi.msgs.internode"), "count"});
  m.push_back({"mpi.msgs.intranode", mean("mpi.msgs.intranode"), "count"});
  m.push_back({"mpi.matcher.fastpath_ratio",
               ratio(mean("mpi.matcher.fastpath_hits"), matched), "ratio"});
  m.push_back({"mpi.matcher.unexpected_ratio",
               ratio(mean("mpi.matcher.unexpected_queued"), matched), "ratio"});
  m.push_back({"mpi.wait.model_s", mpi_wait_model / n, "s"});
  const double hits = mean("acc.present_table.host_hits") +
                      mean("acc.present_table.dev_hits");
  const double misses = mean("acc.present_table.host_misses") +
                        mean("acc.present_table.dev_misses");
  m.push_back({"acc.present.hit_ratio", ratio(hits, hits + misses), "ratio"});
  m.push_back({"acc.present.invalidations",
               mean("acc.present_table.invalidations"), "count"});
  for (const char* path : {"htod", "dtoh", "dtod_peer", "dtod_staged"}) {
    const std::string base = std::string("dev.copy.") + path;
    m.push_back({base + ".count", mean(base + ".model_count"), "count"});
    m.push_back({base + ".model_s", mean(base + ".model_seconds"), "s"});
  }
  m.push_back({"core.handler.batch.p50", mean("handler.batch.size.p50"),
               "count"});
  m.push_back({"core.teardown_s",
               median(field(warm, &LaunchSample::teardown_s)),
               "s"});
  m.push_back({"core.vtime_skew", ratio(warm_vtime, single.vtime_ms), "ratio"});
  m.push_back({"core.cold_ratio", ratio(cold.wall_s, warm_wall), "ratio"});
  m.push_back({"core.pinned_pool.hit_ratio",
               ratio(mean("core.pinned_pool.hits"),
                     mean("core.pinned_pool.acquires")),
               "ratio"});
  m.push_back({"ult.workers", mean("ult.sched.workers"), "count"});
  m.push_back({"ult.fibers_spawned", mean("ult.sched.fibers_spawned"),
               "count"});
  m.push_back({"ult.ready_fibers.p50", mean("ult.sched.ready_fibers.p50"),
               "count"});
  double copy = 0;
  for (const auto& [name, v] : snap) {
    if (name.rfind("critpath.copy.", 0) == 0 &&
        name.size() > 9 && name.compare(name.size() - 9, 9, ".fraction") == 0) {
      copy += v / n;
    }
  }
  for (const char* cat :
       {"compute", "kernel", "copy", "wire", "match_wait", "handler",
        "sched_stall"}) {
    const std::string name = std::string("critpath.") + cat + ".fraction";
    m.push_back({name, std::strcmp(cat, "copy") == 0 ? copy : mean(name),
                 "ratio"});
  }
  m.push_back({"obs.trace_overhead",
               ratio(median(field(tv, &LaunchSample::wall_s)), warm_wall),
               "ratio"});
  return m;
}

// --- Command line ------------------------------------------------------------

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\n"
               "usage: perfbench_runner --workload halo|storm|dataenv "
               "--seed N --seconds S --trace 0|1 [--smoke] [--inject "
               "corrupt_checksum|drop_recv|stray_msg|short_msg|wrong_tasks]\n",
               why);
  std::exit(2);
}

Inject parse_inject(const std::string& s) {
  if (s == "corrupt_checksum") return Inject::kCorruptChecksum;
  if (s == "drop_recv") return Inject::kDropRecv;
  if (s == "stray_msg") return Inject::kStrayMsg;
  if (s == "short_msg") return Inject::kShortMsg;
  if (s == "wrong_tasks") return Inject::kWrongTasks;
  usage("unknown --inject kind");
}

int run(int argc, char** argv) {
  // Each IMPACC_* variable changes the program being measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "IMPACC_", 7) == 0) {
      std::fprintf(stderr,
                   "perfbench_runner: refusing to run with %s set; unset "
                   "every IMPACC_* variable\n",
                   *e);
      return 2;
    }
  }
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  Inject inject = Inject::kNone;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      workload = value();
    } else if (a == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(value().c_str());
    } else if (a == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (a == "--smoke") {
      smoke = true;
    } else if (a == "--inject") {
      inject = parse_inject(value());
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (seconds < 0 || (trace != 0 && trace != 1)) usage("bad --seconds/--trace");

  Workload w;
  if (workload == "halo") {
    w = make_halo(smoke);
  } else if (workload == "storm") {
    w = make_storm(seed, smoke, inject);
  } else if (workload == "dataenv") {
    w = make_dataenv(seed, smoke, inject);
  } else {
    usage("unknown --workload");
  }
  if (inject == Inject::kWrongTasks) {
    w.options.cluster.nodes[0].devices.pop_back();
  }

  Tally tally;
  int launches = 0;
  const std::vector<Metric> metrics =
      trace == 0 ? timed_run(w, seconds, tally, &launches)
                 : traced_run(w, seconds, tally, &launches);

  std::printf("perfbench %s seed=%llu %s: %d launches measured, %d/%d "
              "checked launches failed\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              trace == 0 ? "timed" : "traced", launches, tally.failed,
              tally.attempted);
  for (const Metric& m : metrics) {
    std::printf("  %-30s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-30s %.6g ratio\n", "error_rate",
              ratio(tally.failed, tally.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
