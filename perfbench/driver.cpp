// perfbench_driver: one guest program through every path a DejaVu user
// pays for, timed from outside by the calls into each layer.
//
//   perfbench_driver --workload compute|mixer|churn --seed N --seconds T
//                    --trace 0|1 --tmp DIR [--small] [--rounds N]
//
// A run is: a cold set-up (process start -> first Vm booted), a set-up
// phase that records the reference trace and the farm fleet, then whole
// rounds of the stages below until T seconds have passed. Round 0 is a
// warm-up whose timings are discarded; every metric is a median over the
// remaining rounds.
//
//   bare      Vm construct + boot + run, no hooks
//   record    replay::record_run_to a v4 trace file
//   replay    replay::replay_file of that trace
//   analyze   replay_file with all six built-in analyzers
//   flight    flight::record_flight into the ring, tail sealed at exit
//   tail      flight::replay_tail_file of that tail
//   travel    debugger::TimeTravelDebugger forward to the midpoint, then
//             step_back(1), then run to the end and verify
//   farm      farm::run_farm over the fleet, outcome cache off
//
// Every stage is one operation with its own checks; a failed check or an
// exception counts the operation failed and the run goes on. Analyzer
// artifacts are written under DIR for run.py to check with its own JSON
// parser. With --trace 1 the driver also records a span around each layer
// call, runs the per-layer probes (in-memory record, trace write and CRC
// walk, each analyzer alone, heap construction, farm jobs=1 and cached
// re-run), alternates traced and untraced rounds to measure the tracing
// overhead, and writes the spans as Chrome trace_event JSON.
//
// The result is one JSON document on stdout; run.py turns it into the
// benchmark's result line.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/debugger/time_travel.hpp"
#include "src/farm/report.hpp"
#include "src/farm/scheduler.hpp"
#include "src/farm/trace_store.hpp"
#include "src/flight/session.hpp"
#include "src/heap/heap.hpp"
#include "src/replay/session.hpp"
#include "src/replay/trace_io.hpp"
#include "src/threads/timer.hpp"
#include "src/vm/env.hpp"
#include "src/vm/vm.hpp"
#include "src/workloads/workloads.hpp"

namespace fs = std::filesystem;
using namespace dejavu;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------------ spans

// Spans live in memory until exit. Times are ns since process start.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int round = 0;
};

class Tracer {
 public:
  bool enabled = false;
  int round = 0;

  int begin(const char* name) {
    if (!enabled) return -1;
    Span s;
    s.name = name;
    s.start_ns = now_ns();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.round = round;
    spans_.push_back(std::move(s));
    stack_.push_back(int(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[size_t(id)].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kProcessStart)
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

// Times one layer call; records a span when tracing is on. The wall time
// is always measured, so untraced rounds time the same boundaries.
class Timed {
 public:
  explicit Timed(const char* name)
      : id_(g_tracer.begin(name)), t0_(Clock::now()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  double stop() {
    if (!done_) {
      secs_ = seconds_between(t0_, Clock::now());
      g_tracer.end(id_);
      done_ = true;
    }
    return secs_;
  }

 private:
  int id_;
  Clock::time_point t0_;
  bool done_ = false;
  double secs_ = 0;
};

// ---------------------------------------------------------------- workloads

// Calls of each stage per round. A stage much shorter than the round is
// repeated so that every metric gets a comparable share of the run's time,
// and so enough samples for a steady median.
struct Reps {
  int bare = 1, record = 1, replay = 1, flight = 1, tail = 1, travel = 1,
      farm = 1;
};

struct Workload {
  std::string name;
  int64_t threads = 1;
  int64_t size = 0;        // iterations per thread (compute, mixer) or n
  int64_t fleet_size = 0;  // the same parameter for the farm's fleet
  Reps reps;
  bytecode::Program program(int64_t sz) const {
    if (name == "compute") return workloads::compute(threads, sz);
    if (name == "mixer") return workloads::clock_mixer(threads, sz);
    return workloads::alloc_churn(sz, kChurnLen, kChurnWindow);
  }
  // The printed result, computed here from the workload's definition.
  int64_t expected(int64_t sz) const {
    if (name == "compute") {
      int64_t l = 0;
      for (int64_t i = 0; i < sz; ++i) l = (l + 7 * i) % 1000003;
      return l * threads;
    }
    if (name == "mixer") return (6 * threads * sz) % 1000003;
    return sz * (sz - 1) / 2;
  }
  static constexpr int64_t kChurnLen = 128;
  static constexpr int64_t kChurnWindow = 64;
};

Workload make_workload(const std::string& name, bool small) {
  Workload w;
  w.name = name;
  if (name == "compute") {
    w.threads = 2;
    w.size = small ? 20000 : 300000;
    w.fleet_size = small ? 5000 : 80000;
    w.reps = {2, 2, 2, 2, 6, 1, 1};
  } else if (name == "mixer") {
    w.threads = 4;
    w.size = small ? 2000 : 48000;
    w.fleet_size = small ? 500 : 12000;
    w.reps = {2, 2, 2, 2, 4, 1, 1};
  } else if (name == "churn") {
    w.threads = 1;
    w.size = small ? 5000 : 50000;
    w.fleet_size = small ? 1000 : 25000;
    w.reps = {4, 2, 2, 1, 2, 2, 1};
  } else {
    throw std::runtime_error("unknown workload '" + name + "'");
  }
  return w;
}

// The seed picks the scripted clock's base (kept = 6 mod 7, which
// clock_mixer's closed form relies on), the environment's random stream
// and the virtual timer's preemption points.
struct Inputs {
  uint64_t seed = 0;
  vm::ScriptedEnvironment env() const {
    return vm::ScriptedEnvironment(1000 + 7 * int64_t(seed % 100000), 7, {},
                                   seed);
  }
  threads::VirtualTimer timer() const {
    return threads::VirtualTimer(seed * 0x9E3779B97F4A7C15ull + 1, 40, 400);
  }
};

// -------------------------------------------------------------- placement

// On a shared host the CPUs differ in speed from moment to moment (a busy
// sibling hyperthread slows the interpreter by up to 1.5x), and the kernel
// keeps a single-threaded process on one CPU for seconds at a time. Each
// single-threaded operation is therefore pinned to the next CPU of the
// process's own affinity mask in turn, so every run samples all of them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
      }
    }
  }
  void pin(size_t turn) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() const {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// ------------------------------------------------------------------ checks

struct Ops {
  uint64_t attempted = 0;
  std::vector<std::pair<std::string, int>> failed;  // (operation, round)
  std::vector<std::string> failures;  // first few messages
  int round = 0;
  size_t in_round = 0;  // operations begun in this round
  CpuRotation cpus;

  // Runs one operation; `body` returns an empty string on success or the
  // failed check's description. Single-threaded operations run pinned;
  // the farm's worker threads inherit the full mask.
  void run(const std::string& what, const std::function<std::string()>& body,
           bool single_threaded = true) {
    if (single_threaded) {
      cpus.pin(size_t(round) + in_round);
    } else {
      cpus.release();
    }
    ++in_round;
    ++attempted;
    Timed span(("stage." + what).c_str());
    std::string err;
    try {
      err = body();
    } catch (const std::exception& e) {
      err = std::string("threw: ") + e.what();
    }
    if (!err.empty()) {
      failed.emplace_back(what, round);
      if (failures.size() < 16) failures.push_back(what + ": " + err);
    }
  }
};

std::string expect(bool ok, const std::string& what) {
  return ok ? std::string() : what;
}

std::string first_error(std::initializer_list<std::string> errs) {
  for (const std::string& e : errs) {
    if (!e.empty()) return e;
  }
  return {};
}

std::string output_value_error(const std::string& out, int64_t want) {
  std::string trimmed = out;
  while (!trimmed.empty() && (trimmed.back() == '\n' || trimmed.back() == ' '))
    trimmed.pop_back();
  if (trimmed != std::to_string(want)) {
    return "output '" + trimmed + "' != expected " + std::to_string(want);
  }
  return {};
}

std::vector<uint8_t> file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(f), {});
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f.good()) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------------ output

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (uint8_t(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(uint8_t(c)));
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Per-round samples of each metric, keyed by metric name.
using Samples = std::map<std::string, std::vector<double>>;

// ------------------------------------------------------------------ driver

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int rounds = 0;  // fixed round count (self-check); 0 = run for `seconds`
  bool trace = false;
  bool small = false;
  std::string tmp;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() == "1";
    else if (k == "--tmp") a.tmp = val();
    else if (k == "--rounds") a.rounds = std::stoi(val());
    else if (k == "--small") a.small = true;
    else throw std::runtime_error("unknown argument " + k);
  }
  if (a.workload.empty() || a.tmp.empty()) {
    throw std::runtime_error("--workload and --tmp are required");
  }
  return a;
}

class Bench {
 public:
  Bench(Args args, Workload w)
      : a_(std::move(args)),
        w_(std::move(w)),
        prog_(w_.program(w_.size)),
        expect_(w_.expected(w_.size)) {
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    jobs_ = std::min(4u, hw);
    in_.seed = a_.seed;
    cfg_.warmup_path = a_.tmp + "/warmup.probe";
    rec_path_ = a_.tmp + "/record.djv";
    tail_path_ = a_.tmp + "/tail.djv";
    store_root_ = a_.tmp + "/store";
  }

  // Cold set-up: the first Vm of the process, constructed and booted.
  void cold_setup() {
    vm::ScriptedEnvironment env = in_.env();
    threads::VirtualTimer timer = in_.timer();
    vm::Vm v(prog_, {}, env, timer);
    v.boot();
    setup_s_ = seconds_between(kProcessStart, Clock::now());
  }

  // Untimed preparation: the reference recording and the farm fleet.
  void prepare() {
    {
      vm::ScriptedEnvironment env = in_.env();
      threads::VirtualTimer timer = in_.timer();
      ref_summary_ = replay::record_run_to(rec_path_, prog_, {}, env, timer,
                                           nullptr, cfg_)
                         .summary;
      ref_trace_ = file_bytes(rec_path_);
      instrs_ = ref_summary_.instr_count;
    }
    fleet_prog_ = w_.program(w_.fleet_size);
    fs::create_directories(a_.tmp + "/fleet");
    for (unsigned k = 0; k < kFleetTraces; ++k) {
      std::string p = a_.tmp + "/fleet/" + std::to_string(k) + ".djv";
      Inputs fi{a_.seed * 64 + k + 1};
      vm::ScriptedEnvironment env = fi.env();
      threads::VirtualTimer timer = fi.timer();
      replay::record_run_to(p, fleet_prog_, {}, env, timer, nullptr, cfg_);
      fleet_.push_back({p, fi.seed});
    }
    ingest_fleet();
    farm_ref_report_ = run_farm_once(1, false);
  }

  void run_rounds() {
    auto t0 = Clock::now();
    // Round 0 is the warm-up. With tracing, odd rounds after it are traced
    // and even ones untraced, so both see the same process age.
    for (int r = 0;; ++r) {
      bool traced = a_.trace && (r == 0 || r % 2 == 1);
      g_tracer.enabled = traced;
      g_tracer.round = r;
      ops_.round = r;
      ops_.in_round = 0;
      Samples s;
      {
        Timed span("round");
        round(r, s);
        s["round_s"].push_back(span.stop());
      }
      if (a_.trace && traced) {
        Timed span("probes");
        probes(s);
      }
      g_tracer.enabled = false;
      if (r > 0) {
        for (auto& [k, v] : s) {
          auto& dst = traced || !a_.trace ? samples_ : untraced_;
          dst[k].insert(dst[k].end(), v.begin(), v.end());
        }
      }
      ++rounds_;
      if (a_.rounds > 0) {
        if (rounds_ >= a_.rounds) break;
        continue;
      }
      double el = seconds_between(t0, Clock::now());
      int measured = a_.trace ? (r + 1) / 2 : r;
      if (el >= a_.seconds && measured >= kMinRounds) break;
    }
  }

  void print() const {
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    std::ostringstream o;
    o << "{\"workload\":" << json_str(w_.name) << ",\"seed\":" << a_.seed
      << ",\"threads\":" << w_.threads << ",\"size\":" << w_.size
      << ",\"instrs\":" << instrs_ << ",\"rounds\":" << rounds_
      << ",\"jobs\":" << jobs_ << ",\"fleet\":" << fleet_.size()
      << ",\"setup_s\":" << json_num(setup_s_)
      << ",\"peak_rss_mb\":" << json_num(double(ru.ru_maxrss) / 1024.0)
      << ",\"attempted\":" << ops_.attempted << ",\"failed_ops\":[";
    for (size_t i = 0; i < ops_.failed.size(); ++i) {
      o << (i ? "," : "") << "[" << json_str(ops_.failed[i].first) << ","
        << ops_.failed[i].second << "]";
    }
    o << "],\"failures\":[";
    for (size_t i = 0; i < ops_.failures.size(); ++i) {
      o << (i ? "," : "") << json_str(ops_.failures[i]);
    }
    o << "],\"artifact_dirs\":[";
    for (size_t i = 0; i < art_dirs_.size(); ++i) {
      o << (i ? "," : "") << json_str(art_dirs_[i]);
    }
    o << "],\"samples\":" << samples_json(samples_)
      << ",\"untraced\":" << samples_json(untraced_) << "}";
    std::printf("%s\n", o.str().c_str());
  }

 private:
  static constexpr int kMinRounds = 3;
  static constexpr unsigned kFleetTraces = 8;

  static std::string samples_json(const Samples& s) {
    std::ostringstream o;
    o << "{";
    bool first = true;
    for (const auto& [k, v] : s) {
      o << (first ? "" : ",") << json_str(k) << ":[";
      for (size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << json_num(v[i]);
      o << "]";
      first = false;
    }
    return o.str() + "}";
  }

  double per_instr_ns(double secs) const { return secs * 1e9 / double(instrs_); }

  // One round of the user-visible stages. Every round attempts the same
  // operations: each stage Reps times (the analyzed replay once).
  void round(int r, Samples& s) {
    const Reps& n = w_.reps;
    for (int k = 0; k < n.bare; ++k) ops_.run("bare", [&] {
      vm::ScriptedEnvironment env = in_.env();
      threads::VirtualTimer timer = in_.timer();
      Timed tc("vm.construct");
      vm::Vm v(prog_, {}, env, timer);
      s["vm.construct_ms"].push_back(tc.stop() * 1e3);
      Timed tb("vm.boot");
      v.boot();
      s["vm.boot_ms"].push_back(tb.stop() * 1e3);
      Timed tr("vm.run");
      v.run();
      double run_s = tr.stop();
      vm::BehaviorSummary sum = v.summary();
      s["vm.run_ns_per_instr"].push_back(run_s * 1e9 / double(sum.instr_count));
      s["vm.instrs"].push_back(double(sum.instr_count));
      s["vm.preempts"].push_back(double(sum.preempt_count));
      s["heap.alloc_count"].push_back(double(sum.alloc_count));
      s["heap.gc_count"].push_back(double(sum.gc_count));
      return first_error({output_value_error(v.output(), expect_),
                          expect(sum.instr_count == instrs_,
                                 "bare instruction count differs from record")});
    });

    // record
    for (int k = 0; k < n.record; ++k) ops_.run("record", [&] {
      vm::ScriptedEnvironment env = in_.env();
      threads::VirtualTimer timer = in_.timer();
      fs::remove(rec_path_);
      Timed t("replay.record_run_to");
      replay::RecordFileResult rr = replay::record_run_to(
          rec_path_, prog_, {}, env, timer, nullptr, cfg_);
      s["record_ns_per_instr"].push_back(per_instr_ns(t.stop()));
      uint64_t bytes = fs::file_size(rec_path_);
      s["trace_bytes_per_minstr"].push_back(double(bytes) * 1e6 /
                                            double(instrs_));
      s["replay.nd_events"].push_back(double(rr.stats.nd_events()));
      s["replay.preempt_switches"].push_back(double(rr.stats.preempt_switches));
      return first_error(
          {output_value_error(rr.output, expect_),
           expect(rr.summary == ref_summary_, "record summary differs"),
           expect(file_bytes(rec_path_) == ref_trace_,
                  "trace bytes differ from the same seed's first recording")});
    });

    // replay
    for (int k = 0; k < n.replay; ++k) ops_.run("replay", [&] {
      Timed t("replay.replay_file");
      replay::ReplayResult rr = replay::replay_file(prog_, rec_path_, {}, cfg_);
      s["replay_ns_per_instr"].push_back(per_instr_ns(t.stop()));
      return first_error(
          {expect(rr.verified, "replay not verified"),
           expect(rr.summary == ref_summary_, "replay summary differs"),
           output_value_error(rr.output, expect_)});
    });

    // analyzed replay
    ops_.run("analyze", [&] {
      replay::SymmetryConfig c = cfg_;
      c.obs.analyze_profile = c.obs.analyze_locks = c.obs.analyze_heap =
          c.obs.analyze_races = c.obs.analyze_critpath =
              c.obs.analyze_cachesim = true;
      Timed t("analysis.replay_all");
      replay::ReplayResult rr = replay::replay_file(prog_, rec_path_, {}, c);
      s["analyze_ns_per_instr"].push_back(per_instr_ns(t.stop()));
      const obs::AnalysisResults& an = rr.analysis;
      s["analysis.artifact_bytes"].push_back(
          double(an.profile_json.size() + an.locks_json.size() +
                 an.heap_json.size() + an.races_json.size() +
                 an.critpath_json.size() + an.cachesim_json.size()));
      std::string dir = a_.tmp + "/artifacts/r" + std::to_string(r);
      fs::create_directories(dir);
      write_text(dir + "/profile.json", an.profile_json);
      write_text(dir + "/locks.json", an.locks_json);
      write_text(dir + "/heap.json", an.heap_json);
      write_text(dir + "/races.json", an.races_json);
      write_text(dir + "/critpath.json", an.critpath_json);
      write_text(dir + "/cachesim.json", an.cachesim_json);
      art_dirs_.push_back(dir);
      return first_error(
          {expect(rr.verified, "analyzed replay not verified"),
           expect(rr.summary == ref_summary_, "analyzed replay summary differs"),
           output_value_error(rr.output, expect_)});
    });

    // flight record
    for (int k = 0; k < n.flight; ++k) ops_.run("flight", [&] {
      vm::ScriptedEnvironment env = in_.env();
      threads::VirtualTimer timer = in_.timer();
      fs::remove(tail_path_);
      Timed t("flight.record_flight");
      flight::FlightRecordResult fr = flight::record_flight(
          tail_path_, prog_, {}, env, timer, flight::FlightConfig{4, 64},
          nullptr, cfg_);
      s["flight_ns_per_instr"].push_back(per_instr_ns(t.stop()));
      s["tail_bytes"].push_back(double(fs::file_size(tail_path_)));
      s["flight.checkpoints"].push_back(double(fr.flight.checkpoints));
      s["flight.ring_bytes_retained"].push_back(double(fr.flight.bytes_retained));
      s["flight.ring_bytes_retired"].push_back(double(fr.flight.bytes_retired));
      return first_error(
          {expect(!fr.crashed, "flight run crashed: " + fr.error),
           expect(fr.summary == ref_summary_, "flight summary differs"),
           output_value_error(fr.output, expect_)});
    });

    // tail replay
    for (int k = 0; k < n.tail; ++k) ops_.run("tail", [&] {
      Timed t("flight.replay_tail_file");
      flight::TailReplayResult tr =
          flight::replay_tail_file(prog_, tail_path_, {}, cfg_);
      s["tail_replay_s"].push_back(t.stop());
      return first_error(
          {expect(tr.is_tail && tr.from_checkpoint,
                  "tail did not resume from a checkpoint"),
           expect(!tr.crashed, "tail replay crashed: " + tr.error),
           expect(tr.replay.verified, "tail replay not verified"),
           expect(tr.replay.summary == ref_summary_, "tail summary differs")});
    });

    // time travel
    for (int k = 0; k < n.travel; ++k) ops_.run("step_back", [&] {
      replay::TraceFile trace = replay::TraceFile::load(rec_path_);
      uint64_t mid = instrs_ / 2;
      debugger::TimeTravelDebugger tt(prog_, std::move(trace), {}, cfg_);
      {
        Timed tg("debugger.goto_mid");
        tt.goto_instruction(mid);
        s["debugger.goto_mid_s"].push_back(tg.stop());
      }
      if (tt.position() != mid) return std::string("goto did not reach midpoint");
      Timed t("debugger.step_back");
      tt.step_back(1);
      s["step_back_s"].push_back(t.stop());
      uint64_t pos = tt.position();
      replay::ReplayResult rr = tt.run_to_end_and_verify();
      return first_error(
          {expect(pos == mid - 1, "step_back landed at " + std::to_string(pos) +
                                      ", expected " + std::to_string(mid - 1)),
           expect(rr.verified, "replay from the step-back point not verified")});
    });

    // farm
    for (int k = 0; k < n.farm; ++k) ops_.run(
        "farm",
        [&] {
          Timed t("farm.run");
          std::string report = run_farm_once(jobs_, false);
          s["farm_traces_per_s"].push_back(double(fleet_.size()) / t.stop());
          return first_error(
              {expect(report == farm_ref_report_,
                      "farm report differs from the jobs=1 report"),
               last_farm_error_});
        },
        false);
  }

  // Per-layer probes, only in traced rounds: each times one layer call
  // that no user-visible stage isolates.
  void probes(Samples& s) {
    ops_.cpus.release();
    {
      heap::TypeRegistry types;
      Timed t("heap.construct");
      heap::Heap h(types, heap::HeapConfig{});
      s["heap.construct_ms"].push_back(t.stop() * 1e3);
    }
    replay::RecordResult mem;
    {
      vm::ScriptedEnvironment env = in_.env();
      threads::VirtualTimer timer = in_.timer();
      Timed t("replay.record_run");
      mem = replay::record_run(prog_, {}, env, timer, nullptr, cfg_);
      s["replay.record_mem_ns_per_instr"].push_back(per_instr_ns(t.stop()));
    }
    std::string mem_path = a_.tmp + "/mem.djv";
    {
      Timed t("trace_io.write");
      mem.trace.save(mem_path);
      s["trace_io.write_ms"].push_back(t.stop() * 1e3);
    }
    {
      Timed t("trace_io.read_verify");
      replay::TraceVerifyReport rep = replay::verify_trace_file(mem_path);
      s["trace_io.read_verify_ms"].push_back(t.stop() * 1e3);
      s["trace_io.chunks"].push_back(double(rep.valid_chunks));
    }
    fs::remove(mem_path);

    static const char* kAnalyzers[] = {"profile", "locks", "heap",
                                       "races", "critpath", "cachesim"};
    for (const char* name : kAnalyzers) {
      replay::SymmetryConfig c = cfg_;
      std::string n = name;
      c.obs.analyze_profile = n == "profile";
      c.obs.analyze_locks = n == "locks";
      c.obs.analyze_heap = n == "heap";
      c.obs.analyze_races = n == "races";
      c.obs.analyze_critpath = n == "critpath";
      c.obs.analyze_cachesim = n == "cachesim";
      std::string span = "analysis." + n;
      Timed t(span.c_str());
      replay::replay_file(prog_, rec_path_, {}, c);
      s["analysis." + n + "_ns_per_instr"].push_back(per_instr_ns(t.stop()));
    }

    {
      Timed t("farm.run_jobs1");
      run_farm_once(1, false);
      s["farm.run_jobs1_s"].push_back(t.stop());
    }
    fs::remove_all(store_root_ + "/cache");
    run_farm_once(jobs_, true);  // fills the outcome cache
    {
      Timed t("farm.cached_rerun");
      run_farm_once(jobs_, true);
      s["farm.cached_rerun_ms"].push_back(t.stop() * 1e3);
    }
    fs::remove_all(store_root_);
    ingest_fleet(&s);
  }

  void ingest_fleet(Samples* s = nullptr) {
    Timed t("farm.ingest");
    farm::TraceStore store(store_root_);
    for (const auto& [path, seed] : fleet_) store.ingest(path, w_.name, seed);
    double secs = t.stop();
    if (s != nullptr) (*s)["farm.ingest_ms"].push_back(secs * 1e3);
  }

  // Runs the farm over the store and returns its report; a non-clean
  // verdict is left in last_farm_error_.
  std::string run_farm_once(unsigned jobs, bool cache) {
    farm::TraceStore store(store_root_);
    farm::FarmOptions fo;
    fo.jobs = jobs;
    fo.cache = cache;
    const bytecode::Program& fp = fleet_prog_;
    const std::string label = w_.name;
    fo.resolve = [&fp, label](const std::string& wl)
        -> std::optional<bytecode::Program> {
      if (wl != label) return std::nullopt;
      return fp;
    };
    farm::FarmRunResult res = farm::run_farm(store, fo);
    last_farm_error_.clear();
    if (res.outcomes.size() != fleet_.size()) {
      last_farm_error_ = "farm replayed " + std::to_string(res.outcomes.size()) +
                         " of " + std::to_string(fleet_.size()) + " traces";
    }
    for (const farm::TraceOutcome& o : res.outcomes) {
      if (o.verdict != "clean" && last_farm_error_.empty()) {
        last_farm_error_ = "farm verdict '" + o.verdict + "' " + o.error;
      }
    }
    return farm::farm_report_json(res, fo.top_n);
  }

  Args a_;
  Workload w_;
  bytecode::Program prog_;
  bytecode::Program fleet_prog_;
  int64_t expect_ = 0;
  unsigned jobs_ = 1;
  Inputs in_;
  replay::SymmetryConfig cfg_;
  std::string rec_path_, tail_path_, store_root_;
  std::vector<uint8_t> ref_trace_;
  vm::BehaviorSummary ref_summary_;
  uint64_t instrs_ = 1;
  std::vector<std::pair<std::string, uint64_t>> fleet_;
  std::string farm_ref_report_;
  std::string last_farm_error_;
  double setup_s_ = 0;
  int rounds_ = 0;
  Ops ops_;
  Samples samples_, untraced_;
  std::vector<std::string> art_dirs_;
};

// Chrome trace_event JSON of every span, with per-name self times (span
// duration minus the part its children cover) under otherData.
void write_chrome_trace(const std::string& path) {
  const std::vector<Span>& sp = g_tracer.spans();
  std::vector<int64_t> child_ns(sp.size(), 0);
  for (const Span& s : sp) {
    if (s.parent >= 0) child_ns[size_t(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, std::vector<double>> self_ms;
  std::ostringstream o;
  o << "{\"traceEvents\":[";
  for (size_t i = 0; i < sp.size(); ++i) {
    const Span& s = sp[i];
    o << (i ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
      << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
      << json_num(double(s.start_ns) / 1e3)
      << ",\"dur\":" << json_num(double(s.end_ns - s.start_ns) / 1e3)
      << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
      << ",\"round\":" << s.round << "}}";
    if (s.round > 0) {
      self_ms[s.name].push_back(double(s.end_ns - s.start_ns - child_ns[i]) /
                                1e6);
    }
  }
  o << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"self_ms_median\":{";
  bool first = true;
  for (const auto& [k, v] : self_ms) {
    o << (first ? "" : ",") << json_str(k) << ":" << json_num(median(v));
    first = false;
  }
  o << "}}}\n";
  write_text(path, o.str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args a = parse_args(argc, argv);
    Workload w = make_workload(a.workload, a.small);
    fs::create_directories(a.tmp);
    Bench b(a, w);
    b.cold_setup();
    b.prepare();
    b.run_rounds();
    if (a.trace) write_chrome_trace(a.tmp + "/spans.json");
    b.print();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
