// perfbench — the full-size model workloads: YOLOv2-Tiny at 416x416 batch 1
// and VGG16 at 224x224 batch 4 with compressed weights. Each makes a
// servable model (convert, compile, save .pba, load .pba, first forward),
// then runs a closed loop on the loaded plan. The traced run instead times
// every compiled plan step on its own.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>

#include "baselines/bnn_reference.hpp"
#include "bench.hpp"
#include "common/alloc_count.hpp"
#include "common/rng.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"

namespace perfbench {

using namespace phonebit;

namespace {

/// Largest |engine - oracle| accepted. The engine and the float-domain
/// oracle differ only in float summation order in the full-precision head
/// (observed at most 7.2e-6 on the full-size models).
constexpr double kOracleTolerance = 1e-4;

struct ModelCase {
  std::string tag;       ///< metric namespace
  std::string workload;  ///< the workload that times this case
  core::NetworkSpec spec;
  std::int64_t batch = 1;
  bool redundant = false;
  core::WeightCompress compress = core::WeightCompress::kOff;
  int inputs = 4;       ///< distinct input batches the loop cycles through
  int trace_reps = 10;  ///< traced/untraced forward pairs in a traced run
};

/// A servable model plus what making it cost.
struct Prepared {
  core::FloatModel fm;
  std::vector<U8Tensor> images;     ///< single images, batch * inputs
  std::vector<core::Blob> batches;  ///< `inputs` blobs of `batch` images
  std::unique_ptr<core::Network> net;
  std::unique_ptr<core::Engine> engine;
  std::optional<core::ExecutionPlan> plan;  ///< in-memory compile
  std::optional<artifact::LoadedArtifact> loaded;
  std::optional<core::ExecSession> session;
  double convert_ms = 0, compile_ms = 0, save_ms = 0, load_ms = 0,
         first_ms = 0, setup_s = 0;
  std::int64_t artifact_bytes = 0;
  std::int64_t device_mem_bytes = 0;
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng();
}

/// Stacks single NHWC images into one batch (images are contiguous).
U8Tensor stack(const std::vector<U8Tensor>& images, std::size_t first,
               std::int64_t n) {
  Shape s = images[first].shape();
  s.n = n;
  U8Tensor out(s, Layout::kNHWC);
  const std::int64_t per = images[first].elems();
  for (std::int64_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * per,
                images[first + static_cast<std::size_t>(i)].data(),
                static_cast<std::size_t>(per));
  }
  return out;
}

Prepared prepare(const ModelCase& c, const Args& args) {
  Prepared p;
  // Inputs first: the float model stands in for a trained checkpoint and
  // is not part of set-up.
  p.fm = c.redundant
             ? core::FloatModel::random_redundant(c.spec, derive(args.seed, 1))
             : core::FloatModel::random(c.spec, derive(args.seed, 1));
  Shape one = c.spec.input;
  one.n = 1;
  for (std::int64_t i = 0; i < c.batch * c.inputs; ++i) {
    p.images.push_back(datasets::random_image(
        one, derive(args.seed, 100 + static_cast<std::uint64_t>(i))));
  }
  for (int b = 0; b < c.inputs; ++b) {
    p.batches.emplace_back(
        stack(p.images, static_cast<std::size_t>(b * c.batch), c.batch));
  }
  Shape batched = c.spec.input;
  batched.n = c.batch;
  const core::BlobDesc desc{core::BlobKind::kU8, batched};
  const std::string path = args.out_dir + "/" + c.tag + ".pba";

  const Clock::time_point t0 = Clock::now();
  p.net = core::convert_to_phonebit(p.fm);
  const Clock::time_point t1 = Clock::now();
  p.engine = std::make_unique<core::Engine>(std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855()));
  p.engine->options().weight_compress = c.compress;
  p.plan.emplace(p.net->compile(*p.engine, desc));
  const Clock::time_point t2 = Clock::now();
  artifact::save(*p.net, *p.plan, path);
  const Clock::time_point t3 = Clock::now();
  p.loaded.emplace(p.engine->load_artifact(path));
  const Clock::time_point t4 = Clock::now();
  p.session.emplace(p.engine->create_session());
  (void)p.loaded->plan.run(*p.session, p.batches[0]);
  const Clock::time_point t5 = Clock::now();

  using ms = std::chrono::duration<double, std::milli>;
  p.convert_ms = ms(t1 - t0).count();
  p.compile_ms = ms(t2 - t1).count();
  p.save_ms = ms(t3 - t2).count();
  p.load_ms = ms(t4 - t3).count();
  p.first_ms = ms(t5 - t4).count();
  p.setup_s = std::chrono::duration<double>(t5 - t0).count();
  p.artifact_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  std::filesystem::remove(path);
  p.device_mem_bytes = p.loaded->network->param_bytes() +
                       p.loaded->plan.slab_bytes() +
                       p.loaded->plan.peak_scratch_bytes();
  return p;
}

/// Closed loop on the loaded plan for `seconds`, in whole rounds over the
/// distinct inputs. Returns per-forward host ms; `sampled` receives the
/// first round's outputs.
std::vector<double> closed_loop(Prepared& p, const ModelCase& c,
                                const Args& args, Report& report,
                                std::vector<std::vector<float>>& sampled) {
  std::vector<double> samples;
  sampled.assign(p.batches.size(), {});
  const std::size_t k = p.batches.size();
  const Clock::time_point start = Clock::now();
  for (std::size_t it = 0;
       ms_since(start) < args.seconds * 1000.0 || it % k != 0; ++it) {
    const core::Blob& in = p.batches[it % k];
    p.session->reset_profile();
    ++report.attempted;
    try {
      const Clock::time_point t = Clock::now();
      const core::ForwardResult r =
          p.loaded->plan.run(*p.session, in, {.borrow_output = true});
      samples.push_back(ms_since(t));
      if (it < k) sampled[it] = copy_output(r);
    } catch (const std::exception& e) {
      ++report.failed;
      report.note(c.tag + " forward failed: " + e.what());
    }
  }
  return samples;
}

/// The timed outputs checked against paths apart from the timed one.
void check_outputs(Prepared& p, const ModelCase& c, Report& report,
                   const std::vector<std::vector<float>>& sampled) {
  core::ExecSession session = p.engine->create_session();
  bool same = true;
  for (std::size_t i = 0; i < p.batches.size(); ++i) {
    std::vector<float> got = sampled[i];
    if (i == 0 && corrupt("loaded_vs_compiled")) got[0] += 1.0f;
    same = same && bit_identical(
                       copy_output(p.plan->run(session, p.batches[i])), got);
  }
  report.check("loaded_vs_compiled", same,
               c.tag + ": " + std::to_string(p.batches.size()) +
                   " timed outputs of the .pba-loaded plan vs the in-memory "
                   "compiled plan, bit for bit");

  const std::size_t per = sampled[0].size() / static_cast<std::size_t>(c.batch);
  auto slice = [&](std::size_t img) {
    return std::vector<float>(sampled[0].begin() + img * per,
                              sampled[0].begin() + (img + 1) * per);
  };
  if (c.batch > 1) {
    Shape one = c.spec.input;
    one.n = 1;
    const core::ExecutionPlan single =
        p.net->compile(*p.engine, core::BlobDesc{core::BlobKind::kU8, one});
    bool batch_ok = true;
    for (std::int64_t j = 0; j < c.batch; ++j) {
      const std::size_t img = static_cast<std::size_t>(j);
      std::vector<float> got = slice(img);
      if (j == 1 && corrupt("batch_vs_single")) got[0] += 1.0f;
      batch_ok = batch_ok &&
                 bit_identical(copy_output(single.run(
                                   session, core::Blob{p.images[img]})),
                               got);
    }
    report.check("batch_vs_single", batch_ok,
                 c.tag + ": each image of a timed N=" +
                     std::to_string(c.batch) +
                     " output vs an N=1 forward, bit for bit");
  }

  const Clock::time_point t0 = Clock::now();
  const baselines::BnnReferenceResult ref =
      baselines::bnn_reference_forward(p.fm, p.images[0]);
  const double oracle_s = ms_since(t0) / 1000.0;
  std::vector<float> got = slice(0);
  if (corrupt("oracle")) got[got.size() / 2] += 0.01f;
  double diff = got.size() == static_cast<std::size_t>(ref.output.elems())
                    ? 0.0
                    : INFINITY;
  double scale = 0.0;
  for (std::size_t i = 0; std::isfinite(diff) && i < got.size(); ++i) {
    diff = std::max(diff, std::abs(static_cast<double>(got[i]) -
                                   ref.output.data()[i]));
    scale = std::max(scale, std::abs(static_cast<double>(got[i])));
  }
  std::ostringstream os;
  os << c.tag << ": timed output vs baselines::bnn_reference_forward, max "
     << "|diff| " << diff << " (tolerance " << kOracleTolerance
     << ", max |output| " << scale << ", oracle " << oracle_s << " s)";
  report.check("oracle", diff <= kOracleTolerance, os.str());
}

/// Step groups summed into per-layer metrics; "dense" is the dense layers
/// plus the full-precision head (YOLO's float 1x1 conv).
constexpr const char* kGroups[] = {"input_conv", "bconv", "pool", "dense"};
constexpr std::size_t kNumGroups = std::size(kGroups);

std::size_t step_group(const core::Layer* layer) {
  if (dynamic_cast<const core::InputConv2d*>(layer)) return 0;
  if (dynamic_cast<const core::BinaryConv2d*>(layer)) return 1;
  if (dynamic_cast<const core::MaxPool2d*>(layer)) return 2;
  return 3;
}

std::string metric_step_name(std::string s) {
  std::replace(s.begin(), s.end(), '+', '-');
  return s;
}

/// The traced run: per-step host/modeled time, set-up and memory
/// components, the two cross-checks and (for the named workload) the
/// tracing overhead.
void traced(const ModelCase& c, const Args& args, Report& report,
            Trace& trace) {
  Prepared p = prepare(c, args);
  const std::string ns = "core." + c.tag;
  report.metric(ns + ".convert_ms", p.convert_ms, "ms");
  report.metric(ns + ".compile_ms", p.compile_ms, "ms");
  report.metric(ns + ".artifact.save_ms", p.save_ms, "ms");
  report.metric(ns + ".artifact.load_ms", p.load_ms, "ms");
  report.metric(ns + ".first_forward_ms", p.first_ms, "ms");
  report.metric(ns + ".plan.slab_bytes",
                static_cast<double>(p.loaded->plan.slab_bytes()), "bytes");
  report.metric(ns + ".plan.scratch_bytes",
                static_cast<double>(p.loaded->plan.peak_scratch_bytes()),
                "bytes");
  report.metric(ns + ".net.param_bytes",
                static_cast<double>(p.loaded->network->param_bytes()),
                "bytes");
  const std::int64_t allocs0 = buffer_alloc_count();
  (void)p.loaded->plan.run(*p.session, p.batches[0], {.borrow_output = true});
  report.metric(ns + ".warm_forward_allocs",
                static_cast<double>(buffer_alloc_count() - allocs0), "count");

  const core::ExecutionPlan& plan = p.loaded->plan;
  const std::size_t nsteps = plan.steps().size();
  std::vector<std::vector<double>> step_ms(nsteps);
  std::vector<double> modeled(nsteps, 0.0), untraced_ms, traced_ms, sums,
      gaps, worst_gap;
  std::vector<std::vector<double>> group_ms(kNumGroups);
  int launches = 0;
  bool same_output = true;
  std::vector<StepTiming> steps;
  const int tid = c.workload == "yolo416" ? 1 : 2;
  for (int rep = 0; rep < c.trace_reps; ++rep) {
    const core::Blob& in = p.batches[static_cast<std::size_t>(rep) %
                                     p.batches.size()];
    p.session->reset_profile();
    Clock::time_point t = Clock::now();
    const std::vector<float> plain = copy_output(
        plan.run(*p.session, in, {.borrow_output = true}));
    untraced_ms.push_back(ms_since(t));

    p.session->reset_profile();
    t = Clock::now();
    core::ForwardResult r = run_steps(plan, *p.session, in, steps, &trace,
                                      tid);
    trace.span(c.tag + " forward", "forward", 1, tid, trace_us(t),
               trace_us(Clock::now()) - trace_us(t),
               "\"rep\": " + std::to_string(rep));
    traced_ms.push_back(ms_since(t));
    report.attempted += 2;
    std::vector<float> stepped = copy_output(r);
    if (rep == 0 && corrupt("trace_output")) stepped[0] += 1.0f;
    same_output = same_output && bit_identical(stepped, plain);

    double sum = 0.0, gap = 0.0, worst = 0.0;
    std::vector<double> gsum(kNumGroups, 0.0);
    launches = 0;
    for (std::size_t i = 0; i < nsteps; ++i) {
      step_ms[i].push_back(steps[i].bench_ms);
      modeled[i] = steps[i].modeled_ms;
      launches += steps[i].launches;
      sum += steps[i].bench_ms;
      gap += steps[i].bench_ms - steps[i].report_ms;
      worst = std::max(worst, std::abs(steps[i].bench_ms - steps[i].report_ms));
      gsum[step_group(plan.steps()[i].layer)] += steps[i].bench_ms;
    }
    sums.push_back(sum);
    gaps.push_back(gap);
    worst_gap.push_back(worst);
    for (std::size_t k = 0; k < kNumGroups; ++k) {
      group_ms[k].push_back(gsum[k]);
    }
  }
  report.check("trace_output", same_output,
               c.tag + ": step-by-step forward vs ExecutionPlan::run, bit "
                       "for bit, " + std::to_string(c.trace_reps) +
                   " forwards");

  for (std::size_t i = 0; i < nsteps; ++i) {
    const std::string sn =
        ns + ".step." + metric_step_name(plan.steps()[i].name());
    report.metric(sn + ".host_ms", median(step_ms[i]), "ms");
    report.metric(sn + ".modeled_ms", modeled[i], "ms");
  }
  for (std::size_t k = 0; k < kNumGroups; ++k) {
    report.metric(ns + "." + kGroups[k] + ".host_ms", median(group_ms[k]),
                  "ms");
  }
  const double forward = median(untraced_ms);
  const double overhead = forward - median(sums);
  report.metric(ns + ".forward.host_ms", forward, "ms");
  report.metric(ns + ".forward.overhead_ms", overhead, "ms");
  report.metric(ns + ".forward.launches", launches, "count");
  report.metric(ns + ".step_report_gap_ms", median(gaps), "ms");

  // Cross-checks on timing, reported rather than gated: host time on a
  // shared machine can always stall one step.
  std::ostringstream os;
  os << c.tag << " cross-check: plan.run wall " << forward
     << " ms vs step sum " << median(sums) << " ms, overhead " << overhead
     << " ms (stated allowance 2 ms + 5%: "
     << (std::abs(overhead) <= 2.0 + 0.05 * forward ? "within" : "OUTSIDE")
     << ")";
  report.note(os.str());
  os.str("");
  os << c.tag << " cross-check: step time vs LayerReport::host_ms, summed "
     << "gap " << median(gaps) << " ms, largest per-step gap "
     << median(worst_gap) << " ms (stated allowance 0.5 ms per step: "
     << (median(worst_gap) <= 0.5 ? "within" : "OUTSIDE") << ")";
  report.note(os.str());

  if (args.workload == c.workload) {
    const double cost = median(traced_ms) - forward;
    report.metric("trace.overhead_ms", cost, "ms");
    std::ostringstream o;
    o << "tracing overhead on " << c.workload << ": traced forward "
      << median(traced_ms) << " ms vs untraced " << forward << " ms ("
      << 100.0 * cost / forward << "%)";
    report.note(o.str());
  }
}

void untraced(const ModelCase& c, const Args& args, Report& report) {
  Prepared p = prepare(c, args);
  std::vector<std::vector<float>> sampled;
  const std::vector<double> samples =
      closed_loop(p, c, args, report, sampled);
  describe(report, c.tag + " forward", samples, "ms");
  const double latency = median(samples);
  report.metric("latency_ms", latency, "ms");
  report.metric("images_per_s",
                static_cast<double>(c.batch) * 1000.0 / latency, "images/s");
  report.metric("setup_s", p.setup_s, "s");
  report.metric("artifact_bytes", static_cast<double>(p.artifact_bytes),
                "bytes");
  report.metric("device_mem_bytes", static_cast<double>(p.device_mem_bytes),
                "bytes");
  std::ostringstream os;
  os << c.tag << " set-up: convert " << p.convert_ms << " ms, compile "
     << p.compile_ms << " ms, save " << p.save_ms << " ms, load "
     << p.load_ms << " ms, first forward " << p.first_ms << " ms";
  report.note(os.str());
  check_outputs(p, c, report, sampled);
}

ModelCase yolo_case() {
  ModelCase c;
  c.tag = "yolo416";
  c.workload = "yolo416";
  c.spec = models::yolov2_tiny();
  c.batch = 1;
  c.inputs = 4;
  c.trace_reps = 16;
  return c;
}

ModelCase vgg_case() {
  ModelCase c;
  c.tag = "vgg16";
  c.workload = "vgg16_batch4";
  c.spec = models::vgg16();
  c.batch = 4;
  c.redundant = true;
  c.compress = core::WeightCompress::kAuto;
  c.inputs = 2;
  c.trace_reps = 8;
  return c;
}

}  // namespace

void yolo416(const Args& args, Report& report, Trace* trace) {
  if (trace != nullptr) {
    traced(yolo_case(), args, report, *trace);
  } else {
    untraced(yolo_case(), args, report);
  }
}

void vgg16_batch4(const Args& args, Report& report, Trace* trace) {
  if (trace != nullptr) {
    traced(vgg_case(), args, report, *trace);
  } else {
    untraced(vgg_case(), args, report);
  }
}

}  // namespace perfbench
