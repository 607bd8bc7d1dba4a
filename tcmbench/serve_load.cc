// serve_small_jobs: a live tcm_serve child (2 pool threads) under an
// open-loop generator in this process. Jobs arrive as a seeded Poisson
// stream and alternate between the protocols: half go over two NDJSON
// connections, half over two HTTP keep-alive connections. A job is sent
// when it is due, or as soon as one of its protocol's connections frees
// up, and its latency runs from its due time to its terminal report. Each
// job is a seeded in-memory synthetic job of 250..1000 rows (tclose_first
// or merge_projection, threads=1, verify on).
//
// Phases: warm-up (untimed), a fixed-rate phase of --seconds, then a
// ladder of rising fixed rates; max_jobs_per_s is the highest rung whose
// p99 meets kLatencyLimitMs with no backlog, interpolated toward the
// first failing rung. The traced run plays the fixed phase twice and
// splits its latencies into the serve.* layer metrics.
//
// rows_per_s is the median HTTP job's rows over its latency. The latency
// percentiles (serve.job_p50_ms, serve.job_p99_ms) are per layer, not
// bounded end-to-end metrics: on a shared 4-vCPU VM the p50 of these
// ~1 ms jobs varied 1.5-2.7 ms across ten runs, most of it thread
// hand-off time. They use the HTTP jobs only: the daemon writes each
// NDJSON event with its own send and never sets TCP_NODELAY, so under
// load the "running" and terminal events wait out the client's delayed
// ACK (~40 ms) and a mixed p99 flips between modes. That stall shows in
// serve.ndjson_p50_ms and serve.ndjson_p90_ms, and it sets
// max_jobs_per_s: the NDJSON half of the load saturates its two
// connections first.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "tcm/api.h"
#include "workloads.h"

extern char** environ;

namespace tcmbench {
namespace {

constexpr size_t kConnections = 4;  // 0-1 NDJSON, 2-3 HTTP
constexpr size_t kServeThreads = 2;
constexpr double kFixedRate = 50.0;      // jobs/s offered in the fixed phase
constexpr size_t kP99Windows = 3;  // serve.job_p99_ms: median of window p99s
constexpr double kWarmupSeconds = 1.0;
// Set-ups timed at each of several points spread over the run (start,
// after the warm-up, after the fixed phase, after every ladder rung).
// One set-up is ~6 ms of single-threaded work, and on a shared 4-vCPU VM
// its time moved by up to 1.6x between points 20 s apart while the set-ups
// at one point agreed; setup_s is the median of all of them.
constexpr size_t kSetupsPerPoint = 2;
constexpr double kLadderStart = 40.0;    // jobs/s of the first rung
constexpr double kLadderRatio = 1.15;    // rung i offers start * ratio^i
constexpr size_t kLadderRungs = 30;      // up to ~2300 jobs/s
constexpr double kRungSeconds = 2.5;
constexpr double kLatencyLimitMs = 250.0; // p99 limit of a passing rung
// Generator lag p99 beyond which the run is invalid. On a 4-vCPU VM an
// idle sleep loop already oversleeps ~4 ms at p99 (host preemption).
constexpr double kLagLimitMs = 20.0;
constexpr double kGiveUpLatenessS = 1.0; // a rung this far behind is failed
constexpr size_t kReplayJobs = 128;      // traced run: in-process replays

// ----- seeded job mix -------------------------------------------------

struct PlannedJob {
  double due_s = 0.0;  // offset from the phase start
  bool http = false;   // which pair of connections carries it
  std::string spec_json;
};

// The job mix is stratified: every block of kMixSize consecutive jobs
// holds each (size band, generator, algorithm) combination once, in a
// seeded order, with the row count drawn log-uniformly inside its band.
// Seeds change the data, the sizes within bands and the arrival times,
// but not the mix.
constexpr size_t kSizeBands = 8;  // 250..1000 rows, log-spaced
constexpr size_t kMixSize = 4 * kSizeBands;

tcm::JobSpec SmallJob(size_t combo, tcm::Rng* rng) {
  tcm::JobSpec spec;
  spec.input.kind = tcm::InputKind::kSynthetic;
  spec.input.generator = combo % 2 == 0 ? "uniform" : "clustered";
  const double band =
      (static_cast<double>(combo / 4) + rng->NextDouble()) / kSizeBands;
  spec.input.rows = static_cast<size_t>(250.0 * std::pow(4.0, band));
  spec.input.quasi_identifiers = 3;
  spec.input.modes = 4;
  spec.input.seed = rng->Next() >> 12;
  spec.algorithm.name =
      combo / 2 % 2 == 0 ? "tclose_first" : "merge_projection";
  spec.algorithm.k = 5;
  spec.algorithm.t = 0.2;
  spec.algorithm.seed = 1;
  spec.execution.threads = 1;
  spec.verify = true;
  return spec;
}

// Arrivals at `rate` for `seconds`: a Poisson stream, or evenly paced;
// the stream id keeps every phase's schedule a pure function of (seed,
// phase).
enum Arrivals { kPoisson, kPaced };

std::vector<PlannedJob> PlanPhase(uint64_t seed, uint64_t stream, double rate,
                                  double seconds, Arrivals arrivals) {
  tcm::Rng rng(seed * 0x100000001b3ull + stream * 0x9e3779b97f4a7c15ull);
  std::vector<PlannedJob> jobs;
  std::vector<size_t> block;
  double at = 0.0;
  while (true) {
    at = arrivals == kPoisson
             ? at - std::log(1.0 - rng.NextDouble()) / rate
             : (static_cast<double>(jobs.size()) + 0.5) / rate;
    if (at >= seconds) break;
    if (block.empty()) {
      for (size_t c = 0; c < kMixSize; ++c) block.push_back(c);
      rng.Shuffle(block);
    }
    const size_t combo = block.back();
    block.pop_back();
    // Jobs alternate between the protocols: an even split.
    const bool http = jobs.size() % 2 == 1;
    tcm::JobSpec spec = SmallJob(combo, &rng);
    jobs.push_back({at, http, spec.ToJson().Write(-1)});
  }
  return jobs;
}

// ----- the daemon -------------------------------------------------------

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { Stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const std::string& binary, const std::string& dir) {
    const std::string port_file = dir + "/ndjson.port";
    const std::string http_file = dir + "/http.port";
    const std::string log_file = dir + "/daemon.log";
    std::remove(port_file.c_str());
    std::remove(http_file.c_str());
    std::vector<std::string> args = {binary,
                                     "--host", "127.0.0.1",
                                     "--port", "0",
                                     "--port-file", port_file,
                                     "--http-port", "0",
                                     "--http-port-file", http_file,
                                     "--threads", std::to_string(kServeThreads),
                                     "--log-level", "warn"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log_file.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int spawned = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (spawned != 0) {
      pid_ = -1;
      std::fprintf(stderr, "tcmbench: cannot start %s\n", binary.c_str());
      return false;
    }
    const Clock::time_point start = Clock::now();
    while (SecondsSince(start) < 20.0) {
      ndjson_port_ = ReadPort(port_file);
      http_port_ = ReadPort(http_file);
      if (ndjson_port_ != 0 && http_port_ != 0) return true;
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        std::fprintf(stderr, "tcmbench: tcm_serve exited at start-up\n");
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::fprintf(stderr, "tcmbench: tcm_serve wrote no port files\n");
    return false;
  }

  // Graceful drain (SIGTERM), escalating to SIGKILL; always reaps.
  void Stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const Clock::time_point start = Clock::now();
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (SecondsSince(start) > 10.0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t ndjson_port() const { return ndjson_port_; }
  uint16_t http_port() const { return http_port_; }

 private:
  static uint16_t ReadPort(const std::string& path) {
    std::ifstream in(path);
    unsigned port = 0;
    if (!(in >> port) || port > 65535) return 0;
    return static_cast<uint16_t>(port);
  }

  pid_t pid_ = -1;
  uint16_t ndjson_port_ = 0;
  uint16_t http_port_ = 0;
};

// ----- the connections --------------------------------------------------

// What a connection learned about one job.
struct Outcome {
  bool terminal = false;   // a terminal state event arrived
  bool rejected = false;   // the daemon refused the submission
  bool succeeded = false;  // terminal state "succeeded" with a verified report
  double admit_s = -1.0;   // NDJSON: send -> accepted
  double service_s = 0.0;  // the report's run time
  double sse = 0.0;
  size_t rows = 0;
};

void ReadTerminal(const tcm::JsonValue& event, Outcome* out) {
  const tcm::JsonValue* state = event.Find("state");
  if (state == nullptr || !state->is_string()) return;
  const std::string& name = state->string_value();
  if (name != "succeeded" && name != "failed" && name != "cancelled") return;
  out->terminal = true;
  const tcm::JsonValue* report = event.Find("report");
  if (name != "succeeded" || report == nullptr) return;
  auto flag = [](const tcm::JsonValue* obj, const char* key) {
    const tcm::JsonValue* v = obj == nullptr ? nullptr : obj->Find(key);
    return v != nullptr && v->is_bool() && v->bool_value();
  };
  auto number = [](const tcm::JsonValue* obj, const char* key) {
    const tcm::JsonValue* v = obj == nullptr ? nullptr : obj->Find(key);
    return v != nullptr && v->is_number() ? v->number_value() : 0.0;
  };
  const tcm::JsonValue* verification = report->Find("verification");
  out->succeeded = flag(verification, "requested") &&
                   flag(verification, "k_anonymous") &&
                   flag(verification, "t_close");
  out->service_s = number(report->Find("timings"), "total_seconds");
  out->sse = number(report, "normalized_sse");
  out->rows = static_cast<size_t>(number(report, "rows"));
}

class Connection {
 public:
  virtual ~Connection() = default;
  // Submits one waited job; false on a transport failure.
  virtual bool Submit(const std::string& spec_json, uint64_t id,
                      Outcome* out) = 0;
  virtual bool http() const = 0;
};

class NdjsonConnection : public Connection {
 public:
  explicit NdjsonConnection(tcm::ServeClient client)
      : client_(std::move(client)) {}
  bool http() const override { return false; }
  bool Submit(const std::string& spec_json, uint64_t id,
              Outcome* out) override {
    const Clock::time_point sent = Clock::now();
    if (!client_
             .SendText("{\"verb\":\"submit\",\"id\":" + std::to_string(id) +
                       ",\"wait\":true,\"spec\":" + spec_json + "}")
             .ok()) {
      return false;
    }
    while (true) {
      auto event = client_.ReadEvent();
      if (!event.ok()) return false;
      const tcm::JsonValue* kind = event->Find("event");
      if (kind == nullptr || !kind->is_string()) return false;
      if (kind->string_value() == "error") {
        out->rejected = true;
        return true;
      }
      if (kind->string_value() == "accepted") {
        out->admit_s = SecondsSince(sent);
        continue;
      }
      ReadTerminal(*event, out);
      if (out->terminal) return true;
    }
  }
  tcm::Result<tcm::JsonValue> Stats() { return client_.Stats(); }

 private:
  tcm::ServeClient client_;
};

class HttpConnection : public Connection {
 public:
  static std::unique_ptr<HttpConnection> Connect(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return nullptr;
    tcm::LineChannel channel(fd);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                  sizeof(address)) != 0) {
      return nullptr;
    }
    return std::unique_ptr<HttpConnection>(
        new HttpConnection(std::move(channel)));
  }

  bool http() const override { return true; }

  bool Submit(const std::string& spec_json, uint64_t /*id*/,
              Outcome* out) override {
    std::string request =
        "POST /jobs?wait=1 HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        "Content-Type: application/json\r\nContent-Length: " +
        std::to_string(spec_json.size()) + "\r\n\r\n" + spec_json;
    if (!channel_.WriteAll(request).ok()) return false;
    auto status_line = channel_.ReadLine();
    if (!status_line.ok()) return false;
    int status = 0;
    if (std::sscanf(status_line->c_str(), "HTTP/1.1 %d", &status) != 1) {
      return false;
    }
    size_t length = 0;
    while (true) {
      auto line = channel_.ReadLine();
      if (!line.ok()) return false;
      std::string header = *line;
      if (!header.empty() && header.back() == '\r') header.pop_back();
      if (header.empty()) break;
      for (char& c : header) c = static_cast<char>(std::tolower(c));
      if (header.rfind("content-length:", 0) == 0) {
        length = std::strtoull(header.c_str() + 15, nullptr, 10);
      }
    }
    std::string body(length, '\0');
    size_t have = 0;
    while (have < length) {
      auto got = channel_.ReadRaw(body.data() + have, length - have);
      if (!got.ok() || *got == 0) return false;
      have += *got;
    }
    if (status != 200) {
      out->rejected = true;
      return true;
    }
    auto event = tcm::ParseJson(body);
    if (!event.ok()) return false;
    ReadTerminal(*event, out);
    return out->terminal;
  }

 private:
  explicit HttpConnection(tcm::LineChannel channel)
      : channel_(std::move(channel)) {}
  tcm::LineChannel channel_;
};

struct Pool {
  std::vector<std::unique_ptr<Connection>> connections;
  NdjsonConnection* control = nullptr;  // also serves the stats verb
};

bool ConnectPool(const Daemon& daemon, Pool* pool) {
  pool->connections.clear();
  for (size_t c = 0; c < kConnections; ++c) {
    if (c < kConnections / 2) {
      auto client = tcm::ServeClient::Connect("127.0.0.1",
                                              daemon.ndjson_port());
      if (!client.ok()) return false;
      pool->connections.push_back(
          std::make_unique<NdjsonConnection>(std::move(client).value()));
    } else {
      auto conn = HttpConnection::Connect(daemon.http_port());
      if (conn == nullptr) return false;
      pool->connections.push_back(std::move(conn));
    }
  }
  pool->control = static_cast<NdjsonConnection*>(pool->connections[0].get());
  return true;
}

// One set-up: the warm-up and fixed-phase schedules, daemon start-up and
// connections. Returns its seconds, or a negative value on failure.
double SetUp(const Options& options, Daemon* daemon, Pool* pool,
             std::vector<PlannedJob>* warm_plan,
             std::vector<PlannedJob>* fixed_plan) {
  const Clock::time_point start = Clock::now();
  *warm_plan =
      PlanPhase(options.seed, 1, kFixedRate, kWarmupSeconds, kPoisson);
  // The traced run plays the fixed phase twice, at half length.
  *fixed_plan = PlanPhase(options.seed, 2, kFixedRate,
                          options.trace ? options.seconds / 2
                                        : options.seconds,
                          kPoisson);
  if (!daemon->Start(options.serve_binary, options.work_dir) ||
      !ConnectPool(*daemon, pool)) {
    return -1.0;
  }
  return SecondsSince(start);
}

// kSetupsPerPoint more set-ups on a spare daemon, each torn down again.
bool SampleSetUps(const Options& options, std::vector<double>* setups) {
  for (size_t i = 0; i < kSetupsPerPoint; ++i) {
    Daemon spare;
    Pool pool;  // closed before the spare stops
    std::vector<PlannedJob> warm_plan, fixed_plan;
    const double seconds =
        SetUp(options, &spare, &pool, &warm_plan, &fixed_plan);
    if (seconds < 0) return false;
    setups->push_back(seconds);
  }
  return true;
}

// ----- phases -----------------------------------------------------------

struct JobRecord {
  bool sent = false;
  bool transport_error = false;
  bool http = false;
  double latency_s = 0.0;  // due -> terminal report
  double lag_s = 0.0;      // how late the generator sent it
  Outcome outcome;
};

enum Protocol { kAny, kNdjson, kHttp };

struct Phase {
  std::vector<JobRecord> jobs;
  double wall_s = 0.0;
  bool gave_up = false;

  size_t Sent() const {
    size_t n = 0;
    for (const JobRecord& job : jobs) n += job.sent;
    return n;
  }
  size_t Succeeded() const {
    size_t n = 0;
    for (const JobRecord& job : jobs) n += job.outcome.succeeded;
    return n;
  }
  std::vector<double> Latencies(Protocol protocol = kAny) const {
    std::vector<double> out;
    for (const JobRecord& job : jobs) {
      if (!job.sent) continue;
      if (protocol != kAny && job.http != (protocol == kHttp)) continue;
      // A failed or refused job misses every limit.
      out.push_back(job.outcome.succeeded ? job.latency_s * 1e3 : 1e9);
    }
    return out;
  }
};

// Each protocol's jobs go, in due order, to whichever of its two
// connections frees up first.
Phase RunPhase(Pool* pool, const std::vector<PlannedJob>& plan,
               uint64_t first_id) {
  Phase phase;
  phase.jobs.resize(plan.size());
  std::vector<size_t> queues[2];
  for (size_t i = 0; i < plan.size(); ++i) {
    queues[plan[i].http ? 1 : 0].push_back(i);
  }
  std::atomic<size_t> next[2] = {0, 0};
  std::atomic<bool> give_up{false};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto worker = [&](Connection* conn) {
    const std::vector<size_t>& queue = queues[conn->http() ? 1 : 0];
    std::atomic<size_t>& cursor = next[conn->http() ? 1 : 0];
    while (true) {
      const size_t slot = cursor.fetch_add(1);
      if (slot >= queue.size()) return;
      const size_t i = queue[slot];
      JobRecord& job = phase.jobs[i];
      const Clock::time_point grabbed = Clock::now();
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan[i].due_s));
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      if (give_up.load() ||
          std::chrono::duration<double>(sent - due).count() >
              kGiveUpLatenessS) {
        give_up.store(true);
        continue;
      }
      job.sent = true;
      job.http = conn->http();
      job.lag_s =
          std::chrono::duration<double>(sent - std::max(due, grabbed)).count();
      if (!conn->Submit(plan[i].spec_json, first_id + i, &job.outcome)) {
        job.transport_error = true;
        give_up.store(true);
        return;
      }
      job.latency_s = std::chrono::duration<double>(Clock::now() - due).count();
    }
  };
  std::vector<std::thread> threads;
  for (auto& conn : pool->connections) {
    threads.emplace_back(worker, conn.get());
  }
  for (std::thread& thread : threads) thread.join();
  phase.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  phase.gave_up = give_up.load();
  return phase;
}

// Ledger of every job sent over the daemon's lifetime, for the gate.
struct Ledger {
  size_t sent = 0;
  size_t succeeded = 0;
  size_t rejected = 0;
  size_t unverified = 0;  // terminal but failed, or not verified
  size_t transport = 0;

  void Add(const Phase& phase) {
    for (const JobRecord& job : phase.jobs) {
      if (!job.sent) continue;
      ++sent;
      if (job.transport_error) {
        ++transport;
      } else if (job.outcome.rejected) {
        ++rejected;
      } else if (job.outcome.succeeded) {
        ++succeeded;
      } else {
        ++unverified;
      }
    }
  }
};

bool PassesLimit(const Phase& phase) {
  if (phase.gave_up || phase.Sent() != phase.jobs.size()) return false;
  if (phase.Succeeded() != phase.jobs.size()) return false;
  return Percentile(phase.Latencies(), 99) <= kLatencyLimitMs;
}

// The stats verb's lifetime counts must equal what the client confirmed.
void GateStats(Pool* pool, const Ledger& ledger, Sheet* sheet) {
  auto stats = pool->control->Stats();
  if (!sheet->Check(stats.ok(), "stats verb: " + stats.status().ToString())) {
    return;
  }
  const tcm::JsonValue* jobs = stats->Find("jobs");
  auto count = [&](const char* key) -> double {
    const tcm::JsonValue* v = jobs == nullptr ? nullptr : jobs->Find(key);
    return v != nullptr && v->is_number() ? v->number_value() : -1.0;
  };
  sheet->Check(count("succeeded") == static_cast<double>(ledger.succeeded) &&
                   count("failed") == 0 && count("queued") == 0 &&
                   count("running") == 0,
               "stats lifetime counts disagree with the client: succeeded " +
                   std::to_string(count("succeeded")) + " vs confirmed " +
                   std::to_string(ledger.succeeded));
}

void GateLedger(const Ledger& ledger, Sheet* sheet) {
  sheet->Attempt(ledger.sent);
  const size_t bad = ledger.rejected + ledger.unverified + ledger.transport;
  for (size_t i = 0; i < bad; ++i) sheet->Fail("job not served and verified");
  sheet->Note("serve_jobs", std::to_string(ledger.sent) + " sent, " +
                                std::to_string(ledger.succeeded) +
                                " verified, " +
                                std::to_string(ledger.rejected) + " rejected");
  sheet->Note("error_rate",
              std::to_string(ledger.sent > 0 ? static_cast<double>(bad) /
                                                   static_cast<double>(
                                                       ledger.sent)
                                             : 0.0));
}

// Per-job latency split of one phase into the serve.* layer metrics.
void SetLatencySplit(const Phase& phase, Sheet* sheet) {
  std::vector<double> admit, service, wait;
  for (const JobRecord& job : phase.jobs) {
    if (!job.sent || !job.outcome.succeeded) continue;
    if (job.outcome.admit_s >= 0) admit.push_back(job.outcome.admit_s * 1e3);
    service.push_back(job.outcome.service_s * 1e3);
    wait.push_back((job.latency_s - job.outcome.service_s) * 1e3);
  }
  sheet->Set("serve.admit_ms_p50", Median(admit));
  sheet->Set("serve.service_ms_p50", Median(service));
  sheet->Set("serve.service_ms_p99", Percentile(service, 99));
  sheet->Set("serve.wait_ms_p50", Median(wait));
  sheet->Set("serve.wait_ms_p99", Percentile(wait, 99));
  sheet->Set("serve.ndjson_p50_ms", Median(phase.Latencies(kNdjson)));
  sheet->Set("serve.ndjson_p90_ms", Percentile(phase.Latencies(kNdjson), 90));
  sheet->Set("serve.job_p50_ms", Median(phase.Latencies(kHttp)));
}

// The phase's HTTP jobs split into kP99Windows consecutive windows by
// due time; the median of the windows' p99s. A host stall of a few
// hundred milliseconds lands in one window instead of setting the whole
// run's p99.
double WindowedP99(const Phase& phase) {
  const std::vector<double> latencies = phase.Latencies(kHttp);
  std::vector<double> p99s;
  const size_t n = latencies.size();
  for (size_t w = 0; w < kP99Windows; ++w) {
    p99s.push_back(Percentile(
        std::vector<double>(latencies.begin() + w * n / kP99Windows,
                            latencies.begin() + (w + 1) * n / kP99Windows),
        99));
  }
  return Median(p99s);
}

double LagP99Ms(const Phase& phase) {
  std::vector<double> lags;
  for (const JobRecord& job : phase.jobs) {
    if (job.sent) lags.push_back(job.lag_s * 1e3);
  }
  return Percentile(lags, 99);
}

double LadderRate(size_t rung) {
  return kLadderStart * std::pow(kLadderRatio, static_cast<double>(rung));
}

// The highest passing rung, interpolated toward the first failing one by
// where the limit falls between their p99s. A rung's schedule is made
// just before it runs, outside its clock; `after_rung` runs between
// rungs, and a false return ends the ladder with 0.
double LadderMax(Pool* pool, uint64_t seed, Ledger* ledger, uint64_t* id,
                 const std::function<bool()>& after_rung) {
  double pass_rate = 0.0, pass_p99 = 0.0;
  for (size_t rung = 0; rung < kLadderRungs; ++rung) {
    if (rung > 0 && !after_rung()) return 0.0;
    const double rate = LadderRate(rung);
    const std::vector<PlannedJob> plan =
        PlanPhase(seed, 100 + rung, rate, kRungSeconds, kPaced);
    const Phase phase = RunPhase(pool, plan, *id);
    *id += plan.size();
    ledger->Add(phase);
    const double p99 = Percentile(phase.Latencies(), 99);
    if (PassesLimit(phase)) {
      pass_rate = rate;
      pass_p99 = p99;
      continue;
    }
    if (pass_rate == 0.0) {
      // Not even the first rung meets the limit: scale it down.
      return rate * kLatencyLimitMs / std::max(p99, kLatencyLimitMs);
    }
    const double fail_p99 = std::max(p99, kLatencyLimitMs * 1.0001);
    const double share = (kLatencyLimitMs - pass_p99) / (fail_p99 - pass_p99);
    return pass_rate + (rate - pass_rate) * std::clamp(share, 0.0, 1.0);
  }
  return pass_rate;
}

// Traced run: the fixed phase's jobs replayed in-process through RunJob,
// for the API overhead and the engine's stage ledger on small jobs.
void ReplayInProcess(const std::vector<PlannedJob>& plan, Sheet* sheet) {
  std::vector<double> overhead;
  double shard = 0, fanout = 0, merge = 0, metrics = 0, verify = 0;
  size_t shards = 0, merges = 0, candidates = 0, pruned = 0, windows = 0;
  for (size_t i = 0; i < plan.size() && i < kReplayJobs; ++i) {
    auto spec = tcm::JobSpec::FromJsonText(plan[i].spec_json);
    if (!sheet->Check(spec.ok(),
                      "replay spec: " + spec.status().ToString())) {
      return;
    }
    const Clock::time_point start = Clock::now();
    auto report = tcm::RunJob(*spec);
    const double wall = SecondsSince(start);
    if (!sheet->Check(report.ok() && report->k_verified &&
                          report->t_verified,
                      "replayed job failed or did not verify")) {
      return;
    }
    overhead.push_back(wall - report->total_seconds);
    for (const auto& [name, seconds] : report->stage_seconds) {
      if (name == "shard_seconds") shard += seconds;
      if (name == "shard_anonymize_seconds") fanout += seconds;
      if (name == "merge_seconds") merge += seconds;
      if (name == "metrics_seconds") metrics += seconds;
    }
    verify += report->verify_seconds;
    shards += report->num_shards;
    merges += report->final_merges;
    candidates += report->candidate_checks;
    pruned += report->pruned_checks;
    windows += std::max<size_t>(report->num_windows, 1);
  }
  sheet->Set("engine.windows", static_cast<double>(windows));
  sheet->Set("engine.shards", static_cast<double>(shards));
  sheet->Set("engine.shard_copy_s", shard);
  sheet->Set("engine.fanout_wall_s", fanout);
  sheet->Set("tclose.merge_s", merge);
  sheet->Set("tclose.merges", static_cast<double>(merges));
  sheet->Set("tclose.candidate_checks", static_cast<double>(candidates));
  sheet->Set("tclose.pruned_ratio",
             candidates > 0 ? static_cast<double>(pruned) /
                                  static_cast<double>(candidates)
                            : 0.0);
  sheet->Set("utility.metrics_s", metrics);
  sheet->Set("privacy.verify_s", verify);
  sheet->Set("api.overhead_s", Median(overhead));
}

}  // namespace

int RunServeWorkload(const Options& options, Sheet* sheet) {
  sheet->Note("threads", "daemon pool " + std::to_string(kServeThreads) +
                             ", jobs 1, connections " +
                             std::to_string(kConnections));
  sheet->Note("serve_limits",
              "p99 limit " + std::to_string(kLatencyLimitMs) +
                  " ms, generator lag limit " + std::to_string(kLagLimitMs) +
                  " ms, fixed rate " + std::to_string(kFixedRate) + " jobs/s");

  // Set-up, kSetupsPerPoint times at the start (all but the last daemon
  // are stopped again), then on spare daemons later in the run.
  Daemon daemon;
  Pool pool;
  std::vector<PlannedJob> warm_plan, fixed_plan;
  std::vector<double> setups;
  for (size_t i = 0; i < (options.trace ? 1 : kSetupsPerPoint); ++i) {
    pool.connections.clear();
    daemon.Stop();
    const double seconds =
        SetUp(options, &daemon, &pool, &warm_plan, &fixed_plan);
    if (seconds < 0) return 1;
    setups.push_back(seconds);
  }

  Ledger ledger;
  uint64_t id = 1;
  const Phase warm = RunPhase(&pool, warm_plan, id);
  id += warm_plan.size();
  ledger.Add(warm);
  if (!options.trace && !SampleSetUps(options, &setups)) return 1;

  const Phase fixed = RunPhase(&pool, fixed_plan, id);
  id += fixed_plan.size();
  ledger.Add(fixed);
  sheet->Check(!fixed.gave_up, "fixed-rate phase fell behind its schedule");

  const double lag_p99 = LagP99Ms(fixed);
  // A late generator, not a slow daemon: the run is invalid.
  sheet->Check(lag_p99 <= kLagLimitMs,
               "invalid run: generator lag p99 " + std::to_string(lag_p99) +
                   " ms exceeds " + std::to_string(kLagLimitMs) + " ms");

  if (!options.trace) {
    auto sample_setups = [&] { return SampleSetUps(options, &setups); };
    if (!sample_setups()) return 1;
    const double max_rate =
        LadderMax(&pool, options.seed, &ledger, &id, sample_setups);
    if (max_rate <= 0.0 || !sample_setups()) return 1;
    std::vector<double> rates;
    double sse = 0;
    size_t succeeded = 0;
    for (const JobRecord& job : fixed.jobs) {
      if (!job.outcome.succeeded) continue;
      ++succeeded;
      sse += job.outcome.sse;
      // Per HTTP job, input rows over its latency on this process's
      // clock (due -> terminal report): framing, queueing and set-up
      // count, not only the daemon's own run time.
      if (job.http && job.latency_s > 0) {
        rates.push_back(static_cast<double>(job.outcome.rows) /
                        job.latency_s);
      }
    }
    sheet->Note("samples", std::to_string(fixed.jobs.size()) +
                               " fixed-rate jobs, " +
                               std::to_string(rates.size()) + " over HTTP");
    std::string list;
    for (double seconds : setups) list += " " + std::to_string(seconds);
    sheet->Note("setup_samples", "s:" + list);
    sheet->Set("setup_s", Median(setups));
    sheet->Set("rows_per_s", Median(rates));
    sheet->Set("norm_sse",
               succeeded == 0 ? 0.0 : sse / static_cast<double>(succeeded));
    sheet->Set("max_jobs_per_s", max_rate);
  } else {
    // The same fixed phase again, split per job into the serve.* layer
    // metrics. The benchmark's spans are the latency measurement itself,
    // so the ratio of this phase's p50 to the first one's is the whole
    // tracing overhead (and run-to-run noise).
    const Phase traced = RunPhase(&pool, fixed_plan, id);
    id += fixed_plan.size();
    ledger.Add(traced);
    SetLatencySplit(traced, sheet);
    sheet->Set("serve.job_p99_ms", WindowedP99(traced));
    size_t rejected = 0;
    for (const JobRecord& job : traced.jobs) rejected += job.outcome.rejected;
    sheet->Set("serve.rejected", static_cast<double>(rejected));
    sheet->Set("loadgen.lag_p99_ms", LagP99Ms(traced));
    sheet->Set("loadgen.achieved_jobs_per_s",
               traced.wall_s > 0
                   ? static_cast<double>(traced.Succeeded()) / traced.wall_s
                   : 0.0);
    const double plain_p50 = Median(fixed.Latencies(kHttp));
    sheet->Set("obs.trace_overhead_ratio",
               plain_p50 > 0 ? Median(traced.Latencies(kHttp)) / plain_p50
                             : 0.0);
    ReplayInProcess(fixed_plan, sheet);
  }

  GateStats(&pool, ledger, sheet);
  GateLedger(ledger, sheet);
  sheet->Set("peak_rss_mib", PeakRssMib(daemon.pid()));
  pool.connections.clear();
  daemon.Stop();
  return 0;
}

}  // namespace tcmbench
