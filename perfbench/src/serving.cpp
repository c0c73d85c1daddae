// perfbench — the serving-plane workload: a seeded virtual-time arrival
// trace of quicknet requests, replayed through ModelServer::run (plain
// requests) and FleetServer::run_cascade (detector -> classifier with a
// max-logit gate over two shard profiles). The trace stays under the
// modeled capacity with no injected faults, so nothing is shed and no
// deadline is missed; forwards are short, so scheduling and dispatch costs
// show in the host time.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "datasets/synthetic.hpp"
#include "models/zoo.hpp"
#include "serve/fleet.hpp"
#include "serve/model_server.hpp"
#include "serve/virtual_time.hpp"

namespace perfbench {

using namespace phonebit;

namespace {

constexpr int kRequests = 48;
/// Mean virtual gap between arrivals: about a third of the capacity of the
/// plain server (2 lanes of ~0.6 ms forwards) and of the fleet.
constexpr double kMeanGapMs = 1.0;
/// Per-request deadline. Far above the worst latency the trace can reach,
/// so a missed deadline means a scheduling fault, not load.
constexpr double kDeadlineMs = 60.0;
constexpr int kTraceReplays = 6;

const char* const kModels[2] = {"det", "cls"};
const char* const kProfiles[2] = {"sd855", "sd660"};
const char* const kShardNames[2] = {"flagship", "mid"};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0xd1b54a32d192ed03ull + stream);
  return rng();
}

float max_logit(const std::vector<float>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// What a direct plan.run of one served artifact gives: the output per
/// trace input and the modeled cost with and without packed-input reuse.
struct Direct {
  std::vector<std::vector<float>> outputs;
  double plain_ms = 0.0;
  double reuse_ms = 0.0;
};

struct Serving {
  std::vector<serve::Request> workload;
  std::unique_ptr<core::Network> nets[2];
  std::unique_ptr<core::Engine> server_engine;
  std::unique_ptr<serve::ModelServer> server;
  std::unique_ptr<serve::FleetServer> fleet;
  serve::CascadeSpec cascade;
  Direct direct[2][2];  ///< [model][profile]
  float threshold = 0.0f;
  double convert_ms = 0, compile_ms = 0, save_ms = 0, load_ms = 0,
         first_ms = 0, setup_s = 0;
  std::int64_t artifact_bytes = 0;
  std::int64_t device_mem_bytes = 0;
};

void prepare(Serving& s, const Args& args) {
  const core::NetworkSpec spec = models::quicknet(10);
  const core::FloatModel fms[2] = {
      core::FloatModel::random(spec, derive(args.seed, 1)),
      core::FloatModel::random(spec, derive(args.seed, 2))};
  Rng rng(derive(args.seed, 3));
  double at = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request r;
    r.model = "det";  // the plain phase serves the detector
    r.input = core::Blob{datasets::random_image(
        spec.input, derive(args.seed, 100 + static_cast<std::uint64_t>(i)))};
    r.arrival_ms = at;
    r.deadline_ms = kDeadlineMs;
    s.workload.push_back(std::move(r));
    at += -kMeanGapMs * std::log(1.0 - static_cast<double>(rng.uniform()));
  }
  const core::BlobDesc desc{core::BlobKind::kU8, spec.input};
  std::string paths[2][2];
  for (int m = 0; m < 2; ++m) {
    for (int p = 0; p < 2; ++p) {
      paths[m][p] = args.out_dir + "/serve." + kModels[m] + "." +
                    kProfiles[p] + ".pba";
    }
  }

  // Set-up: convert, compile per profile, save, load into the server and
  // the fleet, first cold request through the server.
  const Clock::time_point t0 = Clock::now();
  for (int m = 0; m < 2; ++m) s.nets[m] = core::convert_to_phonebit(fms[m]);
  const Clock::time_point t1 = Clock::now();
  // One pool thread per device, so kernels run inline on the exec worker
  // that forwards the request, and four exec workers: at most four busy
  // threads. Pooled devices (2 threads x 2 workers) were 37% slower per
  // request here and their run-to-run spread was three times wider.
  s.server_engine = std::make_unique<core::Engine>(
      std::make_shared<oclsim::Device>(oclsim::DeviceProfile::snapdragon855(),
                                       1));
  serve::ServerConfig scfg;
  scfg.exec_workers = 4;
  scfg.lanes = 2;
  scfg.queue_limit = kRequests;
  s.server = std::make_unique<serve::ModelServer>(*s.server_engine, scfg,
                                                  serve::FaultPlan{}, "plain");
  serve::FleetConfig fcfg;
  for (int p = 0; p < 2; ++p) {
    fcfg.shards.push_back(serve::ShardSpec{kShardNames[p], kProfiles[p], 1});
  }
  fcfg.exec_workers = 4;
  fcfg.lanes_per_shard = 2;
  fcfg.queue_limit = kRequests;
  s.fleet = std::make_unique<serve::FleetServer>(fcfg, serve::FaultPlan{},
                                                 "cascade");
  std::vector<core::ExecutionPlan> plans;
  for (int m = 0; m < 2; ++m) {
    for (int p = 0; p < 2; ++p) {
      plans.push_back(
          s.nets[m]->compile(s.fleet->engine(p).options(), desc));
    }
  }
  const Clock::time_point t2 = Clock::now();
  for (int m = 0; m < 2; ++m) {
    for (int p = 0; p < 2; ++p) {
      const core::ExecutionPlan& plan = plans[static_cast<std::size_t>(m * 2 + p)];
      artifact::check_profile_fit(*s.nets[m], plan,
                                  oclsim::profile_by_name(kProfiles[p]),
                                  paths[m][p]);
      artifact::save(*s.nets[m], plan, paths[m][p], kProfiles[p]);
    }
  }
  const Clock::time_point t3 = Clock::now();
  s.server->load_model("det", paths[0][0]);
  for (int m = 0; m < 2; ++m) {
    s.fleet->load_model(kModels[m], {paths[m][0], paths[m][1]});
  }
  const Clock::time_point t4 = Clock::now();
  (void)s.server->run({s.workload[0]});
  const Clock::time_point t5 = Clock::now();

  using ms = std::chrono::duration<double, std::milli>;
  s.convert_ms = ms(t1 - t0).count();
  s.compile_ms = ms(t2 - t1).count();
  s.save_ms = ms(t3 - t2).count();
  s.load_ms = ms(t4 - t3).count();
  s.first_ms = ms(t5 - t4).count();
  s.setup_s = std::chrono::duration<double>(t5 - t0).count();
  // Direct reference outputs and modeled stage costs, per served artifact.
  std::unique_ptr<core::Engine> direct_engines[2];
  std::shared_ptr<const artifact::LoadedArtifact> arts[2][2];
  for (int p = 0; p < 2; ++p) {
    direct_engines[p] = std::make_unique<core::Engine>(
        std::make_shared<oclsim::Device>(
            oclsim::profile_by_name(kProfiles[p]), 1));
    for (int m = 0; m < 2; ++m) {
      arts[m][p] = direct_engines[p]->load_artifact_shared(paths[m][p]);
    }
  }
  for (int p = 0; p < 2; ++p) {
    core::ExecSession session = direct_engines[p]->create_session();
    for (int m = 0; m < 2; ++m) {
      Direct& d = s.direct[m][p];
      for (const serve::Request& r : s.workload) {
        d.outputs.push_back(copy_output(arts[m][p]->plan.run(session, r.input)));
      }
      core::InputPlaneCache cache;
      d.plain_ms = arts[m][p]->plan.run(session, s.workload[0].input,
                                        {.planes = &cache})
                       .modeled_ms;
      d.reuse_ms = arts[m][p]->plan.run(session, s.workload[0].input,
                                        {.planes = &cache})
                       .modeled_ms;
    }
  }
  for (int m = 0; m < 2; ++m) {
    for (int p = 0; p < 2; ++p) {
      s.artifact_bytes += static_cast<std::int64_t>(
          std::filesystem::file_size(paths[m][p]));
    }
    s.device_mem_bytes += arts[m][0]->network->param_bytes() +
                          arts[m][0]->plan.slab_bytes() +
                          arts[m][0]->plan.peak_scratch_bytes();
  }
  for (int m = 0; m < 2; ++m) {
    for (int p = 0; p < 2; ++p) std::filesystem::remove(paths[m][p]);
  }

  // Gate at the median detector max-logit: about half the requests stop at
  // the detector, half pay for the classifier.
  std::vector<float> peaks;
  for (const std::vector<float>& o : s.direct[0][0].outputs) {
    peaks.push_back(max_logit(o));
  }
  std::nth_element(peaks.begin(), peaks.begin() + peaks.size() / 2,
                   peaks.end());
  s.threshold = peaks[peaks.size() / 2];
  s.cascade.name = "det-cls";
  serve::StageGate gate;
  gate.kind = serve::StageGate::Kind::kMaxAtLeast;
  gate.threshold = s.threshold;
  s.cascade.stages.push_back(serve::CascadeStageSpec{"det", gate});
  s.cascade.stages.push_back(serve::CascadeStageSpec{"cls", {}});
}

/// Output checks accumulated over replays.
struct ServeChecks {
  bool outputs = true;
  bool gates = true;
  bool latency = true;
  std::int64_t failed = 0;  ///< requests that did not come back Ok
  std::string first_error;

  void fail(const serve::RequestStatus& status) {
    if (failed++ == 0) {
      first_error = std::string(serve::status_name(status.code)) + " " +
                    status.error;
    }
  }
};

void check_plain(const Serving& s, serve::ServerSummary& sum,
                 ServeChecks& c) {
  if (corrupt("serve_output")) {
    std::get<FloatTensor>(sum.results[0].result.output).data()[0] += 1.0f;
  }
  if (corrupt("serve_latency")) sum.results[0].latency_ms = 0.0;
  const Direct& d = s.direct[0][0];
  for (std::size_t i = 0; i < sum.results.size(); ++i) {
    const serve::RequestResult& rr = sum.results[i];
    if (!rr.status.ok()) {
      c.fail(rr.status);
      continue;
    }
    c.outputs = c.outputs &&
                bit_identical(copy_output(rr.result), d.outputs[i]);
    c.latency = c.latency && rr.latency_ms >= d.plain_ms - 1e-9 &&
                rr.latency_ms <= kDeadlineMs;
  }
}

void check_cascade(const Serving& s, serve::CascadeSummary& sum,
                   ServeChecks& c) {
  if (corrupt("serve_gate")) {
    sum.results[0].gated_out = !sum.results[0].gated_out;
  }
  for (std::size_t i = 0; i < sum.results.size(); ++i) {
    const serve::CascadeRequestResult& rr = sum.results[i];
    if (!rr.status.ok()) {
      c.fail(rr.status);
      continue;
    }
    const bool pass = max_logit(s.direct[0][0].outputs[i]) >= s.threshold;
    c.gates = c.gates && rr.stages[0].gate_passed == pass &&
              rr.gated_out == !pass && rr.stages.size() == (pass ? 2u : 1u);
    double floor_ms = 0.0;
    for (std::size_t k = 0; k < rr.stages.size(); ++k) {
      const serve::StageOutcome& so = rr.stages[k];
      const Direct& d = s.direct[k][so.shard];
      floor_ms += so.reused_planes ? d.reuse_ms : d.plain_ms;
    }
    c.latency = c.latency && rr.latency_ms >= floor_ms - 1e-9 &&
                rr.latency_ms <= kDeadlineMs;
    const std::size_t last = rr.stages.size() - 1;
    c.outputs = c.outputs &&
                bit_identical(copy_output(rr.result),
                              s.direct[last][rr.stages[last].shard].outputs[i]);
  }
}

void report_checks(const Serving& s, const ServeChecks& c,
                   const std::string& what, Report& report) {
  report.failed += c.failed;
  if (c.failed > 0) {
    report.note(what + ": " + std::to_string(c.failed) +
                " requests failed, first: " + c.first_error);
  }
  report.check("serve_output", c.outputs,
               what + ": every Ok output bit-identical to a direct plan.run "
                      "of its served artifact on the same input");
  report.check("serve_gate", c.gates,
               what + ": every gate outcome equals the max-logit test "
                      "(threshold " + std::to_string(s.threshold) +
                   ") on the direct detector output");
  report.check("serve_latency", c.latency,
               what + ": every virtual latency between its stages' modeled "
                      "time and the deadline");
}

/// Virtual-time spans of one cascade replay (pid 2, one row per shard).
void record_virtual(const Serving& s, const serve::CascadeSummary& sum,
                    Trace& trace) {
  for (std::size_t i = 0; i < sum.results.size(); ++i) {
    double at = s.workload[i].arrival_ms;
    for (std::size_t k = 0; k < sum.results[i].stages.size(); ++k) {
      const serve::StageOutcome& so = sum.results[i].stages[k];
      trace.span(kModels[k], "virtual", 2, so.shard,
                 (at + so.queue_ms) * 1000.0,
                 (so.latency_ms - so.queue_ms) * 1000.0,
                 "\"request\": " + std::to_string(i) +
                     ", \"queue_ms\": " + std::to_string(so.queue_ms) +
                     ", \"reused_planes\": " +
                     (so.reused_planes ? "true" : "false"));
      at += so.latency_ms;
    }
  }
}

void traced(Serving& s, const Args& args, Report& report, Trace& trace) {
  report.metric("core.quicknet.convert_ms", s.convert_ms, "ms");
  report.metric("core.quicknet.compile_ms", s.compile_ms, "ms");
  report.metric("core.quicknet.artifact.save_ms", s.save_ms, "ms");
  report.metric("core.quicknet.artifact.load_ms", s.load_ms, "ms");
  report.metric("core.quicknet.first_forward_ms", s.first_ms, "ms");

  std::vector<double> untraced_ms, traced_ms;
  serve::CascadeSummary last;
  ServeChecks checks;
  for (int rep = 0; rep < kTraceReplays; ++rep) {
    for (const bool tracing : {false, true}) {
      std::vector<serve::Request> w = s.workload;
      const Clock::time_point t = Clock::now();
      serve::CascadeSummary sum = s.fleet->run_cascade(s.cascade, std::move(w));
      if (tracing) {
        record_virtual(s, sum, trace);
        trace.span("run_cascade", "serve", 1, 3, trace_us(t),
                   trace_us(Clock::now()) - trace_us(t),
                   "\"requests\": " + std::to_string(kRequests));
      }
      (tracing ? traced_ms : untraced_ms).push_back(ms_since(t));
      report.attempted += kRequests;
      check_cascade(s, sum, checks);
      last = std::move(sum);
    }
  }
  report_checks(s, checks,
                std::to_string(2 * kTraceReplays) + " cascade replays",
                report);

  // One direct forward of the detector on a device like a shard's: the
  // cost the serving plane adds its scheduling and dispatch to.
  core::Engine engine(std::make_shared<oclsim::Device>(
      oclsim::DeviceProfile::snapdragon855(), 1));
  const core::ExecutionPlan plan = s.nets[0]->compile(
      engine, core::BlobDesc{core::BlobKind::kU8, models::quicknet(10).input});
  core::ExecSession session = engine.create_session();
  std::vector<double> direct_ms;
  for (const serve::Request& r : s.workload) {
    session.reset_profile();
    const Clock::time_point t = Clock::now();
    (void)plan.run(session, r.input, {.borrow_output = true});
    direct_ms.push_back(ms_since(t));
  }

  std::vector<double> latency, queue;
  int stage_runs = 0, reuse = 0, spill = 0;
  for (const serve::CascadeRequestResult& rr : last.results) {
    latency.push_back(rr.latency_ms);
    queue.push_back(rr.queue_ms);
    for (const serve::StageOutcome& so : rr.stages) {
      stage_runs += so.status.ok() ? 1 : 0;
      reuse += so.reused_planes ? 1 : 0;
      spill += so.spillovers;
    }
  }
  std::sort(latency.begin(), latency.end());
  std::sort(queue.begin(), queue.end());
  report.metric("serve.wall_ms", median(untraced_ms), "ms");
  report.metric("serve.stage_runs", stage_runs, "count");
  report.metric("serve.direct_forward_ms", median(direct_ms), "ms");
  report.metric("serve.virtual_p50_ms", serve::percentile(latency, 50), "ms");
  report.metric("serve.virtual_p99_ms", serve::percentile(latency, 99), "ms");
  report.metric("serve.queue_p99_ms", serve::percentile(queue, 99), "ms");
  report.metric("serve.plane_reuse", reuse, "count");
  report.metric("serve.gated_out", last.gated_out, "count");
  report.metric("serve.spillovers", spill, "count");
  for (int p = 0; p < 2; ++p) {
    int placed = 0;
    for (const std::vector<int>& per_stage : last.stage_assignment) {
      placed += per_stage[static_cast<std::size_t>(p)];
    }
    report.metric(std::string("serve.shard.") + kShardNames[p] + ".placed",
                  placed, "count");
  }
  if (args.workload == "serve_cascade") {
    const double cost = median(traced_ms) - median(untraced_ms);
    report.metric("trace.overhead_ms", cost, "ms");
    std::ostringstream os;
    os << "tracing overhead on serve_cascade: traced replay "
       << median(traced_ms) << " ms vs untraced " << median(untraced_ms)
       << " ms (" << 100.0 * cost / median(untraced_ms) << "%)";
    report.note(os.str());
  }
}

void untraced(Serving& s, const Args& args, Report& report) {
  std::vector<double> plain_rps, cascade_ms;
  ServeChecks checks;
  const Clock::time_point start = Clock::now();
  while (ms_since(start) < args.seconds * 1000.0) {
    std::vector<serve::Request> w = s.workload;
    Clock::time_point t = Clock::now();
    serve::ServerSummary plain = s.server->run(std::move(w));
    plain_rps.push_back(kRequests * 1000.0 / ms_since(t));
    w = s.workload;
    t = Clock::now();
    serve::CascadeSummary cascade = s.fleet->run_cascade(s.cascade,
                                                         std::move(w));
    cascade_ms.push_back(ms_since(t) / kRequests);
    report.attempted += 2 * kRequests;
    check_plain(s, plain, checks);
    check_cascade(s, cascade, checks);
  }
  report_checks(s, checks,
                std::to_string(plain_rps.size()) +
                    " rounds of a plain and a cascade replay",
                report);
  describe(report, "plain replay", plain_rps, "requests/s");
  describe(report, "cascade replay", cascade_ms, "ms/request");
  report.metric("latency_ms", median(cascade_ms), "ms");
  report.metric("images_per_s", median(plain_rps), "images/s");
  report.metric("setup_s", s.setup_s, "s");
  report.metric("artifact_bytes", static_cast<double>(s.artifact_bytes),
                "bytes");
  report.metric("device_mem_bytes", static_cast<double>(s.device_mem_bytes),
                "bytes");
}

}  // namespace

void serve_cascade(const Args& args, Report& report, Trace* trace) {
  Serving s;
  prepare(s, args);
  if (trace != nullptr) {
    traced(s, args, report, *trace);
  } else {
    untraced(s, args, report);
  }
}

}  // namespace perfbench
