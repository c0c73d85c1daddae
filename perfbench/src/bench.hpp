// perfbench — shared pieces of the end-to-end benchmark: run arguments, the
// result report (metrics, output checks, operation counts), sample
// statistics, the in-memory span trace and the step-by-step plan executor
// the traced run uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/phonebit.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since `t0`.
double ms_since(Clock::time_point t0);

/// Microseconds of `t` since the process's trace epoch (the first call).
double trace_us(Clock::time_point t);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch for .pba files and the trace JSON
};

/// Everything one run reports. Metrics keep insertion order; checks print
/// one `check` line each and any failure makes the run incorrect.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check. `detail` says what was compared.
  void check(const std::string& name, bool ok, const std::string& detail);
  /// An informational line (prefixed so it never parses as the result).
  void note(const std::string& line) const;

  bool correct() const noexcept { return correct_; }
  /// The result object printed as the last line of standard output.
  std::string json() const;

  std::int64_t attempted = 0;
  std::int64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

/// Median of a sample (mean of the middle pair for even sizes).
double median(std::vector<double> v);

/// Prints `name`'s sample count, median and the highest of p90/p95/p99 that
/// still has at least ten samples beyond it (median alone under 40 samples).
void describe(const Report& report, const std::string& name,
              std::vector<double> samples, const std::string& unit);

/// True when PERFBENCH_CORRUPT names `check`: the caller then perturbs the
/// output it is about to compare, to show that the check rejects it.
bool corrupt(const char* check);

/// Float outputs compared bit for bit.
bool bit_identical(const std::vector<float>& a, const std::vector<float>& b);

/// Copies the float output of a forward (borrowed views included).
std::vector<float> copy_output(const phonebit::core::ForwardResult& r);

/// Spans kept in memory and written as Chrome trace-event JSON at the end.
class Trace {
 public:
  /// A complete ("X") event. `args` is a JSON object body without braces.
  void span(const std::string& name, const std::string& cat, int pid,
            int tid, double ts_us, double dur_us, const std::string& args);
  void write(const std::string& path) const;
  std::size_t size() const noexcept { return events_.size(); }

 private:
  std::vector<std::string> events_;
};

/// Per-step timing of one step-by-step forward.
struct StepTiming {
  double bench_ms = 0.0;   ///< steady_clock around step.layer->run
  double report_ms = 0.0;  ///< the step's kernel host time (LayerReport)
  double modeled_ms = 0.0;
  int launches = 0;
};

/// Runs `plan` one PlanStep at a time through `step.layer->run`, binding
/// each step's output to its activation slot exactly as ExecutionPlan::run
/// does, and times every step. Appends one span per step to `trace` when it
/// is non-null. Returns the network output (an owning tensor).
phonebit::core::ForwardResult run_steps(
    const phonebit::core::ExecutionPlan& plan,
    phonebit::core::ExecSession& session, const phonebit::core::Blob& input,
    std::vector<StepTiming>& steps, Trace* trace, int tid);

// Workloads. `trace` runs measure the per-layer suite instead.
void yolo416(const Args& args, Report& report, Trace* trace);
void vgg16_batch4(const Args& args, Report& report, Trace* trace);
void serve_cascade(const Args& args, Report& report, Trace* trace);
/// Isolated kernel timings (bitpack primitives, one oclsim launch).
void kernel_suite(Report& report);

}  // namespace perfbench
