// perfbench — end-to-end benchmark driver (see ../README.md).
//
//   perfbench --workload <yolo416|vgg16_batch4|serve_cascade> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir>
//
// Untraced runs time the named workload and print its end-to-end metrics;
// traced runs measure the per-layer suite (every model's plan steps, the
// serving plane, isolated kernels) plus the named workload's tracing
// overhead, and write the spans to <out-dir>/trace-<workload>-<seed>.json.
// The last line of standard output is the result object.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

using namespace phonebit;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double trace_us(Clock::time_point t) {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

namespace {

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("# metric %-48s %14.6f %s\n", name.c_str(), value,
              unit.c_str());
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  if (!ok) correct_ = false;
  std::printf("# check %-20s %s  %s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.c_str());
  std::fflush(stdout);
}

void Report::note(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct_ ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? ", " : "") << quoted(metrics_[i].name) << ": {\"value\": "
       << number(metrics_[i].value) << ", \"unit\": "
       << quoted(metrics_[i].unit) << "}";
  }
  os << "}}";
  return os.str();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void describe(const Report& report, const std::string& name,
              std::vector<double> samples, const std::string& unit) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  std::ostringstream os;
  os << name << ": n=" << n << " median=" << number(median(samples)) << ' '
     << unit;
  if (n >= 40) {
    // Highest listed percentile that still leaves >= 10 samples above it.
    for (const double q : {99.0, 95.0, 90.0}) {
      if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q / 100.0 * static_cast<double>(n))) - 1;
        os << " p" << q << '=' << number(samples[rank]) << ' ' << unit;
        break;
      }
    }
  }
  os << " min=" << number(n ? samples.front() : 0.0)
     << " max=" << number(n ? samples.back() : 0.0);
  report.note(os.str());
}

bool corrupt(const char* check) {
  const char* env = std::getenv("PERFBENCH_CORRUPT");
  return env != nullptr && std::strcmp(env, check) == 0;
}

bool bit_identical(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<float> copy_output(const core::ForwardResult& r) {
  const FloatTensor& t = r.float_output();
  return std::vector<float>(t.data(), t.data() + t.elems());
}

void Trace::span(const std::string& name, const std::string& cat, int pid,
                 int tid, double ts_us, double dur_us,
                 const std::string& args) {
  std::ostringstream os;
  os << "{\"name\": " << quoted(name) << ", \"cat\": " << quoted(cat)
     << ", \"ph\": \"X\", \"pid\": " << pid << ", \"tid\": " << tid
     << ", \"ts\": " << number(ts_us) << ", \"dur\": " << number(dur_us)
     << ", \"args\": {" << args << "}}";
  events_.push_back(os.str());
}

void Trace::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    f << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  f << "]}\n";
  PB_CHECK(f.good(), "could not write trace " << path);
}

core::ForwardResult run_steps(const core::ExecutionPlan& plan,
                              core::ExecSession& session,
                              const core::Blob& input,
                              std::vector<StepTiming>& steps, Trace* trace,
                              int tid) {
  core::ExecContext ctx = session.context();
  const core::ScratchNeed& peak = plan.scratch_peak();
  ctx.arena.reserve(peak.i32, peak.f32, peak.u8, peak.words,
                    plan.slab_bytes());
  std::uint64_t* slab = ctx.arena.slab(plan.slab_bytes());
  core::ExecContext exec{ctx.queue, plan.options(), ctx.arena, ctx.stats};

  steps.assign(plan.steps().size(), StepTiming{});
  core::ForwardResult result;
  core::Blob produced;
  const core::Blob* cur = &input;
  for (std::size_t i = 0; i < plan.steps().size(); ++i) {
    const core::PlanStep& step = plan.steps()[i];
    exec.out = {};
    if (step.slot >= 0) {
      const core::ActivationSlot& s =
          plan.slots()[static_cast<std::size_t>(step.slot)];
      exec.out = core::OutputBinding{slab + s.offset / 8, s.bytes};
    }
    const std::size_t mark = exec.queue.event_mark();
    const Clock::time_point t0 = Clock::now();
    produced = step.layer->run(exec, *cur, step);
    const Clock::time_point t1 = Clock::now();
    cur = &produced;
    const oclsim::EventSlice slice = exec.queue.slice_events(mark);
    StepTiming& st = steps[i];
    st.bench_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    st.report_ms = slice.host_ms;
    st.modeled_ms = slice.modeled_ms;
    st.launches = slice.launches;
    result.host_ms += slice.host_ms;
    result.modeled_ms += slice.modeled_ms;
    if (trace != nullptr) {
      trace->span(step.name(), "step", 1, tid, trace_us(t0),
                  trace_us(t1) - trace_us(t0),
                  "\"modeled_ms\": " + number(slice.modeled_ms) +
                      ", \"kernel_host_ms\": " + number(slice.host_ms) +
                      ", \"launches\": " + std::to_string(slice.launches));
    }
  }
  result.output = std::move(produced);
  return result;
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <yolo416|vgg16_batch4|serve_cascade> "
               "--seed <n> --seconds <s> --trace <0|1> --out-dir <dir>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args.trace = val == "1";
    } else if (key == "--out-dir") {
      args.out_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.out_dir.empty() || !(args.seconds > 0) ||
      (args.workload != "yolo416" && args.workload != "vgg16_batch4" &&
       args.workload != "serve_cascade")) {
    return usage(argv[0]);
  }

  (void)trace_us(Clock::now());  // trace timestamps count from here
  Report report;
  try {
    if (!args.trace) {
      if (args.workload == "yolo416") yolo416(args, report, nullptr);
      if (args.workload == "vgg16_batch4") vgg16_batch4(args, report, nullptr);
      if (args.workload == "serve_cascade") {
        serve_cascade(args, report, nullptr);
      }
    } else {
      Trace trace;
      yolo416(args, report, &trace);
      vgg16_batch4(args, report, &trace);
      serve_cascade(args, report, &trace);
      kernel_suite(report);
      const std::string name = "trace-" + args.workload + "-" +
                               std::to_string(args.seed) + ".json";
      trace.write(args.out_dir + "/" + name);
      report.note("trace: " + std::to_string(trace.size()) + " spans in " +
                  name);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", report.json().c_str());
  return 0;
}
