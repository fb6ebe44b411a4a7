// The DeepBurning command-line front-end: the "one-click" flow of Fig. 3.
//
//   deepburning --model model.prototxt --constraint constraint.prototxt
//     --out out_dir [--report] [--simulate]
//
// Reads the Caffe-compatible model script and the designer constraint,
// runs NN-Gen, and writes the hardware/software bundle (Verilog, design
// report, coordinator schedule, memory map, AGU program) into the output
// directory.  --simulate additionally runs the performance/energy
// simulation and prints the summary.
// The `serve` subcommand runs the concurrent batched inference server
// against a generated accelerator and prints its simulated-time serving
// report:
//
//   deepburning serve --zoo MNIST --requests 64 --replicas 2 --batch 4
//     [--design-cache <dir>] [--linger <cycles>]
//     [--arrival-gap <cycles>] [--constraint file]
//
// The `verify` subcommand generates the design for a model/constraint
// pair, runs the static design verifier over it, and prints the
// diagnostics report (byte-stable across runs).  Exit code 0 when the
// design is clean, 2 when any error-severity diagnostic is reported:
//
//   deepburning verify (--zoo MNIST | --model m.prototxt)
//     [--constraint file] [--json]
//
// The `profile` subcommand simulates one forward propagation and prints
// the per-layer bottleneck-attribution report (DRAM-transfer vs
// datapath-MAC vs control/stall cycles, PE/buffer utilisation, sorted
// hottest-first; byte-stable across runs):
//
//   deepburning profile (<zoo-name> | --zoo NAME | --model m.prototxt)
//     [--constraint file] [--json] [--out <file>]
//
// The `tune` subcommand runs the design-space exploration engine: it
// enumerates the sweep grid, prunes each candidate (construction ->
// budget -> static verifier), scores survivors analytically and prints
// the Pareto frontier over (latency, energy, BRAM) plus the winner for
// the requested objective (byte-identical for any --jobs value and
// across reruns):
//
//   deepburning tune (<zoo-name> | --zoo NAME | --model m.prototxt)
//     [--constraint file] [--budget low|medium|high]
//     [--objective latency|energy|balanced] [--sweep SPEC] [--jobs N]
//     [--json] [--out <file>] [--design-cache <dir>]
//
// --design-cache points the commands at a content-addressed on-disk
// cache of generator output: a warm entry for the same canonical
// (network, constraint) pair is rebuilt from its cached sizing instead
// of generated (zero toolchain spans in --trace-out; cluster.cache.*
// counters record the reuse).
// `tune` keys its winner (and a sidecar copy of the report) on the
// (network, constraint, sweep, objective) digest, so a warm tune run
// replays the report without re-exploring.
//
// The bundle flow, `serve` and `tune` accept --trace-out=<file> (Chrome
// Trace Event JSON: toolchain phases, per-layer simulator intervals,
// per-request serving spans — open in Perfetto) and --metrics-out=<file>
// (counters, gauges and histograms as JSON).  Both artifacts are pure
// functions of the simulated workload, byte-identical across runs.
//
// Every command reads its flags through one table-driven reader: each
// value flag takes `--flag value` or `--flag=value`, and each integer
// flag goes through db::ParseInt with the range its --help states.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "analysis/rtl_mutations.h"
#include "analysis/rtl_verifier.h"
#include "analysis/testing_mutations.h"
#include "analysis/verifier.h"
#include "cluster/design_cache.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/generator.h"
#include "core/design_json.h"
#include "dse/explorer.h"
#include "fault/fault_plan.h"
#include "models/zoo.h"
#include "obs/chrome_trace.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/timeseries.h"
#include "obs/tracer.h"
#include "rtl/testbench.h"
#include "serve/inference_server.h"
#include "sim/trace.h"
#include "sim/perf_model.h"
#include "sim/power_model.h"

namespace {

using db::Error;

constexpr std::int64_t kMaxInt = std::numeric_limits<int>::max();
/// Bytes `serve` may hold for its requests at once (1 GiB), charging
/// each request its input tensor plus 1 KiB of queue and record state.
constexpr std::int64_t kMaxServeRequestBytes = std::int64_t{1} << 30;
constexpr std::int64_t kServeRequestOverheadBytes = 1024;
constexpr std::int64_t kMaxInt64 = std::numeric_limits<std::int64_t>::max();
/// One executor thread runs per serving replica and per tune job.
constexpr std::int64_t kMaxThreads = 64;

constexpr char kUsage[] =
    R"(DeepBurning NN-Gen: automatic generation of FPGA-based learning
accelerators

usage: deepburning --model <model.prototxt>
                   [--constraint <constraint.prototxt>]
                   [--out <dir>] [--report] [--simulate]
                   [--trace-out <file>] [--metrics-out <file>]
                   [--profile-out <file>] [--design-cache <dir>]
       deepburning serve ...   (batched inference server; --help)
       deepburning verify ...  (static design verifier; --help)
       deepburning profile ... (per-layer bottleneck report; --help)
       deepburning tune ...    (design-space exploration; --help)

Every value flag takes `--flag value` or `--flag=value`.

  --model       Caffe-compatible network descriptive script (required)
  --constraint  designer resource constraint script (default: medium
                Zynq-7045 budget)
  --out         output directory for the generated bundle
  --report      print the full design report to stdout
  --simulate    run the performance/energy simulation
  --trace-out   write a Chrome-trace JSON (toolchain phases; with --simulate
                also per-layer DRAM/datapath intervals) for Perfetto
  --metrics-out write the metrics registry as JSON
  --profile-out write the per-layer bottleneck-attribution report as JSON
  --design-cache  content-addressed cache directory for generator
                output; a warm entry is rebuilt from its cached sizing
  --help        this message
)";

constexpr char kServeUsage[] =
    R"(usage: deepburning serve (--zoo <name> | --model <model.prototxt>)
                         [--constraint <constraint.prototxt>]
                         [--requests N] [--replicas N] [--batch N]
                         [--design-cache <dir>]
                         [--linger CYCLES] [--arrival-gap CYCLES]
                         [--queue-capacity N] [--admission POLICY]
                         [--deadline-cycles CYCLES] [--faults <spec>]
                         [--hedge-after-cycles CYCLES] [--breaker <spec>]
                         [--trace-out <file>] [--metrics-out <file>]
                         [--profile-out <file>] [--timeseries-out <file>]

Every value flag takes `--flag value` or `--flag=value`; integers are
decimal, and 2^31-1 and 2^63-1 mean 2147483647 and 9223372036854775807.

  --zoo          benchmark model name (ANN-0, ANN-1, ANN-2, Hopfield,
                 CMAC, MNIST, Alexnet, NiN, Cifar)
  --model        Caffe-compatible network script instead of --zoo
  --constraint   designer resource constraint script
  --requests     number of requests to submit, in [1, 2^31-1] with
                 requests x (input bytes + 1 KiB) <= 1 GiB (default 64)
  --replicas     accelerator replicas, each with a private DRAM image and
                 one executor thread, in [1, 64] (default 2); a closed
                 batch goes to the earliest-free replica
  --design-cache content-addressed cache directory for generator
                 output; a warm entry is rebuilt from its cached sizing
  --batch        max requests per batch, in [1, 2^63-1] (default 4)
  --linger       cycles a partial batch waits to fill, in [0, 2^63-1]
                 (default 0)
  --arrival-gap  cycles between request arrivals, in [0, 2^63-1] with
                 (requests - 1) x gap <= 2^63-1 (default 0: all at once)
  --queue-capacity  waiting requests at which --admission acts, in
                 [1, 2^63-1] (default 64; no effect under block)
  --admission    full-queue policy, evaluated in simulated time:
                 block (admit everything, default), reject (kRejected),
                 shed-oldest (evict the oldest queued request)
  --deadline-cycles  relative deadline: service must start within
                 this many cycles of arrival, in [0, 2^63-1]
                 (default 0: none)
  --faults       seeded deterministic fault campaign, e.g.
                 'seed=7,flips=100,transients=8,stalls=4' or a
                 cluster chaos campaign
                 'seed=7,crashes=2,hangs=2,slow-replicas=1,route-fails=3'
                 (keys: seed, flips, blob-flips, transients, stalls,
                 stall-cycles, span, crashes, crash-down-cycles,
                 hangs, hang-cycles, slow-replicas, slow-factor,
                 slow-services, route-fails; counts in [0, 2^20],
                 cycles, slow-services and span in [1, 2^63-1],
                 slow-factor in [2, 1024], seed in [0, 2^63-1];
                 see DESIGN.md)
  --hedge-after-cycles  when a batch's planned completion exceeds its
                 ready cycle by this many cycles, in [0, 2^63-1], hedge
                 it onto the replica that finishes it first,
                 if that copy beats the primary; the primary is
                 cancelled (default 0: disabled)
  --breaker      per-replica circuit breaker spec, e.g.
                 'failures=3,cooldown=16384': that many consecutive
                 dispatch failures (route failures or crashes; in
                 [1, 2^31-1]) open it, and the replica takes no work
                 for that many cycles (in [1, 2^40], 2^40 being
                 1099511627776), then one half-open trial; without
                 it a route failure only re-routes its batch
  --trace-out    write the toolchain + per-request serving spans as
                 Chrome-trace JSON (open in Perfetto)
  --metrics-out  write the serve.*/sim.* metrics registry as JSON
  --profile-out  write the steady-state per-layer bottleneck report as JSON
  --timeseries-out  write the load.* time-series (queue depth,
                 in-flight, sheds, per-replica busy fraction,
                 sampled on simulated-cycle boundaries) as JSON
)";

constexpr char kVerifyUsage[] =
    R"(usage: deepburning verify (--zoo <name> | --model <model.prototxt>)
                          [--constraint <constraint.prototxt>] [--rtl]
                          [--json]

Generates the accelerator design for the model/constraint pair and
runs the static design verifier (AGU bounds, memory-map layout,
schedule hazards, fold coverage, buffer capacity, connection ports,
Approx-LUT domains, resource accounting) over the design IR, then
the rtl.* netlist passes (drive conflicts, width inference,
combinational loops, clock discipline, dead logic) over the emitted
RTL.  Prints one merged diagnostics report, byte-stable across runs.
Every value flag takes `--flag value` or `--flag=value`.

  --zoo         benchmark model name (ANN-0, ANN-1, ANN-2, Hopfield,
                CMAC, MNIST, Alexnet, NiN, Cifar)
  --model       Caffe-compatible network script instead of --zoo
  --constraint  designer resource constraint script (default: medium
                Zynq-7045 budget)
  --rtl         run only the rtl.* passes over the elaborated netlist
  --json        print the report as canonical JSON instead of text

exit codes: 0 = clean design, 2 = error-severity violations
)";

constexpr char kProfileUsage[] =
    R"(usage: deepburning profile (<zoo-name> | --zoo <name> |
                            --model <model.prototxt>)
                           [--constraint <constraint.prototxt>] [--json]
                           [--out <file>]

Generates the accelerator, simulates one forward propagation and
prints the per-layer bottleneck-attribution report: each layer's
total cycles split exactly into DRAM-transfer (exposed memory
time), datapath-MAC and control/stall buckets, plus PE and data-
buffer utilisation, sorted hottest-first.  Byte-stable across
runs.  Every value flag takes `--flag value` or `--flag=value`.

  --zoo         benchmark model name (ANN-0, ANN-1, ANN-2, Hopfield,
                CMAC, MNIST, Alexnet, NiN, Cifar); a bare first
                argument is shorthand for --zoo
  --model       Caffe-compatible network script instead of --zoo
  --constraint  designer resource constraint script (default: medium
                Zynq-7045 budget)
  --json        print the report as canonical JSON instead of text
  --out         also write the report to a file
)";

constexpr char kTuneUsage[] =
    R"(usage: deepburning tune (<zoo-name> | --zoo <name> |
                         --model <model.prototxt>)
                        [--constraint <constraint.prototxt>] [--budget <level>]
                        [--objective <goal>] [--sweep <spec>] [--jobs <n>]
                        [--json] [--out <file>] [--design-cache <dir>]
                        [--trace-out <file>] [--metrics-out <file>]

Design-space exploration: enumerates candidate configurations
(MAC lane scaling, memory port width, BRAM buffer split, DSP vs
fabric multipliers), prunes each one in a fixed order
(construction infeasible -> over budget -> static verifier
rejected), scores survivors with the analytic performance /
energy / resource models, and prints the Pareto frontier over
(latency, energy, BRAM) plus the winner for the requested
objective.  The report is byte-identical for any --jobs value
and across reruns.  Every value flag takes `--flag value` or
`--flag=value`.

  --zoo         benchmark model name (ANN-0, ANN-1, ANN-2, Hopfield,
                CMAC, MNIST, Alexnet, NiN, Cifar); a bare first
                argument is shorthand for --zoo
  --model       Caffe-compatible network script instead of --zoo
  --constraint  designer resource constraint script (default: medium
                Zynq-7045 budget)
  --budget      override the constraint's budget level: low, medium
                or high
  --objective   winner selection goal: latency (default), energy or
                balanced (latency x energy product)
  --sweep       sweep grid as semicolon-separated axis=v1,v2,... clauses;
                axes: lanes (% of sized MAC lanes, in [1, 1600]), port
                (elements, power of two in [2, 256]), split (% of BRAM
                for the data buffer, in [5, 90]), dsp (on/off), e.g.
                'lanes=50,100;port=16,32;dsp=on'
  --jobs        worker threads for candidate evaluation, in [1, 64]
                (default 1; changes wall-clock time only, never the
                report)
  --json        print the report as canonical JSON instead of text
  --out         also write the report to a file
  --design-cache  cache directory; stores the winning design under the
                (network, constraint, sweep, objective) digest plus a
                report sidecar, so a warm run skips exploration
  --trace-out   write the "dse" phase spans as Chrome-trace JSON
  --metrics-out write the dse.* metrics registry as JSON
)";

/// The model every command reads: a zoo name or a model file, plus the
/// constraint file (empty: the default budget) and --help.
struct ModelArgs {
  std::string zoo;
  std::string model;
  std::string constraint;
  bool help = false;
};

/// One row of a command's flag table.  A `bool` target is a switch; a
/// string target takes the value as is; an integer target takes a value
/// in [lo, hi].
struct Flag {
  const char* name;
  std::variant<bool*, std::string*, int*, std::int64_t*, std::size_t*>
      target;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

/// Read the arguments after `command` (after argv[0] for the bundle flow)
/// against `flags` plus the model flags (--zoo only for a subcommand);
/// every value flag takes `--flag value` or `--flag=value`.  With
/// `zoo_word`, a bare word names the zoo model (`deepburning tune
/// MNIST`).  Returns false, after printing `usage`, when the command
/// should not run: on --help or without a model.
bool ReadFlags(int argc, char** argv, const std::string& command,
               const char* usage, ModelArgs* model, std::vector<Flag> flags,
               bool zoo_word = false) {
  flags.insert(flags.end(), {{"--model", &model->model},
                             {"--constraint", &model->constraint},
                             {"--help", &model->help},
                             {"-h", &model->help}});
  if (!command.empty()) flags.push_back({"--zoo", &model->zoo});
  for (int i = command.empty() ? 1 : 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return arg.compare(0, eq, f.name) == 0;
        });
    if (flag == flags.end()) {
      if (zoo_word && model->zoo.empty() && model->model.empty() &&
          !arg.empty() && arg[0] != '-') {
        model->zoo = arg;
        continue;
      }
      throw Error("unknown " + command + (command.empty() ? "" : " ") +
                  "argument '" + arg + "' (see --help)");
    }
    if (bool* const* on = std::get_if<bool*>(&flag->target)) {
      if (eq != std::string::npos)
        throw Error(std::string(flag->name) + " takes no value");
      **on = true;
      continue;
    }
    std::string value;
    if (eq != std::string::npos)
      value = arg.substr(eq + 1);
    else if (i + 1 < argc)
      value = argv[++i];
    else
      throw Error("missing value after " + arg);
    std::visit(
        [&](auto* out) {
          using T = std::remove_pointer_t<decltype(out)>;
          if constexpr (std::is_same_v<T, std::string>)
            *out = value;
          else
            *out = static_cast<T>(
                db::ParseInt(value, flag->lo, flag->hi, flag->name));
        },
        flag->target);
  }
  if (!model->help && (!model->zoo.empty() || !model->model.empty()))
    return true;
  std::fputs(usage, stdout);
  return false;
}

db::serve::AdmissionPolicy ParseAdmissionPolicy(const std::string& name) {
  using db::serve::AdmissionPolicy;
  if (name == "block") return AdmissionPolicy::kBlock;
  if (name == "reject") return AdmissionPolicy::kReject;
  if (name == "shed-oldest") return AdmissionPolicy::kShedOldest;
  throw Error("unknown admission policy '" + name +
              "' (expected block, reject or shed-oldest)");
}

db::ZooModel ZooModelByName(const std::string& name) {
  for (db::ZooModel model : db::AllZooModels())
    if (db::ToLower(db::ZooModelName(model)) == db::ToLower(name))
      return model;
  throw Error("unknown zoo model '" + name + "' (see --help)");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void WriteFile(const std::filesystem::path& path,
               const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path.string());
  out << text;
  std::printf("  %s (%zu bytes)\n", path.string().c_str(), text.size());
}

/// A parsed model script, its network and the designer constraint.
struct LoadedModel {
  db::NetworkDef def;
  db::Network net;
  db::DesignConstraint constraint;
};

/// Load the zoo model or model file and the constraint.  With a tracer,
/// the two parses are recorded as toolchain spans.
LoadedModel LoadModel(const ModelArgs& args,
                      db::obs::Tracer* tracer = nullptr) {
  using namespace db;
  obs::TickClock clock;
  NetworkDef def;
  {
    obs::ScopedSpan span(tracer, clock, "toolchain", "parse model",
                         "toolchain");
    def = ParseNetworkDef(args.zoo.empty()
                              ? ReadFile(args.model)
                              : ZooModelPrototxt(ZooModelByName(args.zoo)));
    clock.Advance(1);
  }
  Network net = Network::Build(def);
  DesignConstraint constraint;
  {
    obs::ScopedSpan span(tracer, clock, "toolchain", "parse constraint",
                         "toolchain");
    constraint = ParseConstraint(
        args.constraint.empty() ? std::string() : ReadFile(args.constraint));
    clock.Advance(1);
  }
  return {std::move(def), std::move(net), std::move(constraint)};
}

int RunVerify(int argc, char** argv) {
  using namespace db;
  ModelArgs args;
  std::string break_rule;
  std::string break_rtl;
  bool rtl_only = false;
  bool json = false;
  // --self-test-break* are undocumented: they corrupt the generated
  // design so the CLI test suite can assert the violation exit code and
  // report rendering against each rule id without shipping broken
  // fixture files.
  if (!ReadFlags(argc, argv, "verify", kVerifyUsage, &args,
                 {{"--self-test-break", &break_rule},
                  {"--self-test-break-rtl", &break_rtl},
                  {"--rtl", &rtl_only},
                  {"--json", &json}}))
    return args.help ? 0 : 2;
  const LoadedModel m = LoadModel(args);

  // The generator's own gate would refuse an illegal design, so reaching
  // the explicit verification below with a violation requires the
  // self-test corruption (or a future generator bug surfacing here).
  AcceleratorDesign design = GenerateAccelerator(m.net, m.constraint);
  if (!break_rule.empty()) analysis::BreakRule(design, break_rule);
  if (!break_rtl.empty()) analysis::BreakRtlRule(design.rtl, break_rtl);

  analysis::AnalysisReport report;
  if (!rtl_only) report = analysis::VerifyDesign(m.net, design);
  report.Merge(analysis::VerifyRtl(design.rtl));
  if (json)
    std::printf("%s\n", report.ToJson().c_str());
  else
    std::printf("%s", report.ToText().c_str());
  return report.ok() ? 0 : 2;
}

int RunServe(int argc, char** argv) {
  using namespace db;
  ModelArgs args;
  serve::ServeOptions server_opts;
  std::int64_t requests = 64;
  std::int64_t arrival_gap = 0;
  std::string faults;          // fault-campaign spec, e.g. "seed=7,flips=100"
  std::string admission;       // block | reject | shed-oldest
  std::string breaker;         // circuit-breaker spec, "failures=N,cooldown=M"
  std::string design_cache;    // content-addressed generator cache dir
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;     // steady-state bottleneck report (JSON)
  std::string timeseries_out;  // load time-series export (JSON)
  if (!ReadFlags(
          argc, argv, "serve", kServeUsage, &args,
          {{"--requests", &requests, 1, kMaxInt},
           {"--replicas", &server_opts.replicas, 1, kMaxThreads},
           {"--batch", &server_opts.max_batch_size, 1, kMaxInt64},
           {"--linger", &server_opts.linger_cycles, 0, kMaxInt64},
           {"--arrival-gap", &arrival_gap, 0, kMaxInt64},
           {"--queue-capacity", &server_opts.queue_capacity, 1, kMaxInt64},
           {"--deadline-cycles", &server_opts.deadline_cycles, 0, kMaxInt64},
           {"--hedge-after-cycles", &server_opts.hedge_after_cycles, 0,
            kMaxInt64},
           {"--faults", &faults},
           {"--admission", &admission},
           {"--breaker", &breaker},
           {"--design-cache", &design_cache},
           {"--trace-out", &trace_out},
           {"--metrics-out", &metrics_out},
           {"--profile-out", &profile_out},
           {"--timeseries-out", &timeseries_out}}))
    return args.help ? 0 : 2;
  // Request i arrives at cycle i * gap, so the last arrival must fit.
  if (requests > 1 && arrival_gap > kMaxInt64 / (requests - 1))
    throw Error(StrFormat("--arrival-gap: %lld requests %lld cycles apart "
                          "arrive past cycle 2^63-1",
                          static_cast<long long>(requests),
                          static_cast<long long>(arrival_gap)));
  // Validate the robustness flags before the (expensive) generation so
  // a typo fails fast.
  if (!admission.empty())
    server_opts.admission = ParseAdmissionPolicy(admission);
  if (!breaker.empty())
    server_opts.breaker = cluster::ParseBreakerSpec(breaker);
  fault::FaultCampaignSpec campaign;
  if (!faults.empty()) campaign = fault::ParseFaultCampaign(faults);
  campaign.workers = server_opts.replicas;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const LoadedModel m = LoadModel(args);
  const Network& net = m.net;
  // Every request's input tensor and record are held until the drain,
  // so all of them must fit kMaxServeRequestBytes before the first
  // input is built.
  const BlobShape& in_shape =
      net.layer(net.input_ids().front()).output_shape;
  const std::int64_t request_bytes =
      in_shape.NumElements() * static_cast<std::int64_t>(sizeof(float)) +
      kServeRequestOverheadBytes;
  if (requests > kMaxServeRequestBytes / request_bytes)
    throw Error(StrFormat("--requests: %lld requests of %lld bytes each "
                          "(input + 1 KiB) exceed the 1 GiB cap",
                          static_cast<long long>(requests),
                          static_cast<long long>(request_bytes)));

  // Content-addressed memoization of NN-Gen: a warm --design-cache
  // entry (same canonical network + constraint) is served without
  // generation — no toolchain spans in the trace, a
  // cluster.cache.disk_hit in the metrics.
  cluster::DesignCache::Options cache_opts;
  cache_opts.directory = design_cache;
  cache_opts.tracer = &tracer;
  cache_opts.metrics = &metrics;
  cluster::DesignCache cache(cache_opts);
  const cluster::DesignKey key = cluster::MakeDesignKey(m.def, m.constraint);
  const AcceleratorDesign design =
      cache.GetOrGenerate(key, net, m.constraint, &tracer);

  Rng rng(2016);
  WeightStore weights = WeightStore::CreateRandom(net, rng);

  obs::TimeSeriesRecorder timeseries;
  if (!timeseries_out.empty()) server_opts.timeseries = &timeseries;
  server_opts.device_name = m.constraint.device;
  server_opts.tracer = &tracer;
  server_opts.metrics = &metrics;
  server_opts.sim_metrics = &metrics;
  if (!faults.empty())
    server_opts.faults =
        fault::FaultPlan::Generate(campaign, design.memory_map);
  serve::InferenceServer server(net, design, weights, server_opts);

  std::printf(
      "serving '%s': %lld requests, %d replicas, batch <= %lld, "
      "linger %lld cycles, arrivals every %lld cycles\n",
      net.name().c_str(), static_cast<long long>(requests),
      server_opts.replicas,
      static_cast<long long>(server_opts.max_batch_size),
      static_cast<long long>(server_opts.linger_cycles),
      static_cast<long long>(arrival_gap));
  if (cache.stats().disk_hits > 0)
    std::printf("design cache: reused %s (no generation)\n",
                cluster::DesignKeyHex(key).c_str());
  if (!server_opts.faults.empty())
    std::printf("fault campaign: %s\n",
                server_opts.faults.ToString().c_str());

  for (std::int64_t i = 0; i < requests; ++i) {
    Tensor input(
        Shape{in_shape.channels, in_shape.height, in_shape.width});
    Rng input_rng(1000 + static_cast<std::uint64_t>(i));
    input.FillUniform(input_rng, 0.0f, 1.0f);
    server.Submit(std::move(input), i * arrival_gap);
  }
  server.Drain();
  std::printf("%s", server.Stats().ToString().c_str());
  if (!trace_out.empty())
    WriteFile(trace_out,
              obs::WriteChromeTrace(tracer, design.config.frequency_mhz));
  if (!metrics_out.empty()) WriteFile(metrics_out, metrics.ToJson());
  if (!profile_out.empty()) {
    // The steady-state invocation is what every warm request pays, so
    // its attribution is the serving-relevant bottleneck picture.
    PerfOptions steady;
    steady.weights_resident = true;
    const PerfResult perf = SimulatePerformance(net, design, steady);
    WriteFile(profile_out, BuildProfileReport(net, design, perf).ToJson());
  }
  if (!timeseries_out.empty()) WriteFile(timeseries_out, timeseries.ToJson());
  return 0;
}

int RunProfile(int argc, char** argv) {
  using namespace db;
  ModelArgs args;
  std::string out_path;
  bool json = false;
  if (!ReadFlags(argc, argv, "profile", kProfileUsage, &args,
                 {{"--out", &out_path}, {"--json", &json}},
                 /*zoo_word=*/true))
    return args.help ? 0 : 2;
  const LoadedModel m = LoadModel(args);
  const AcceleratorDesign design = GenerateAccelerator(m.net, m.constraint);
  const PerfResult perf = SimulatePerformance(m.net, design);
  const obs::ProfileReport report = BuildProfileReport(m.net, design, perf);
  const std::string text = json ? report.ToJson() : report.ToText();
  std::printf("%s", text.c_str());
  if (!out_path.empty()) WriteFile(out_path, text);
  return 0;
}

int RunTune(int argc, char** argv) {
  using namespace db;
  ModelArgs args;
  dse::TuneOptions tune;
  std::string budget_name;
  std::string objective_name = "latency";
  std::string sweep_text;
  std::string out_path;
  std::string design_cache;
  std::string trace_out;
  std::string metrics_out;
  bool json = false;
  if (!ReadFlags(argc, argv, "tune", kTuneUsage, &args,
                 {{"--budget", &budget_name},
                  {"--objective", &objective_name},
                  {"--sweep", &sweep_text},
                  {"--jobs", &tune.jobs, 1, kMaxThreads},
                  {"--out", &out_path},
                  {"--design-cache", &design_cache},
                  {"--trace-out", &trace_out},
                  {"--metrics-out", &metrics_out},
                  {"--json", &json}},
                 /*zoo_word=*/true))
    return args.help ? 0 : 2;

  // Validate every tuning flag before any generator work, so a typo
  // fails fast with exit code 2 and a stable one-line diagnostic.
  tune.objective = dse::ParseObjective(objective_name);
  tune.sweep = dse::ParseSweepSpec(sweep_text);

  LoadedModel m = LoadModel(args);
  DesignConstraint& constraint = m.constraint;
  if (!budget_name.empty()) {
    if (budget_name == "low")
      constraint.budget = BudgetLevel::kLow;
    else if (budget_name == "medium")
      constraint.budget = BudgetLevel::kMedium;
    else if (budget_name == "high")
      constraint.budget = BudgetLevel::kHigh;
    else
      throw Error("unknown budget '" + budget_name +
                  "' (expected low, medium or high)");
  }

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  tune.tracer = &tracer;
  tune.metrics = &metrics;

  auto emit = [&](const std::string& report) {
    std::printf("%s", report.c_str());
    if (!out_path.empty()) WriteFile(out_path, report);
    if (!trace_out.empty())
      WriteFile(trace_out,
                obs::WriteChromeTrace(tracer, constraint.frequency_mhz));
    if (!metrics_out.empty()) WriteFile(metrics_out, metrics.ToJson());
  };

  // Winners flow through the design cache keyed on the (network,
  // constraint, sweep, objective) digest; the rendered report rides
  // along as a sidecar so a warm run replays byte-identically without
  // evaluating a single candidate.
  cluster::DesignCache::Options cache_opts;
  cache_opts.directory = design_cache;
  cache_opts.tracer = &tracer;
  cache_opts.metrics = &metrics;
  cluster::DesignCache cache(cache_opts);
  const cluster::DesignKey key =
      dse::MakeTuneKey(m.def, constraint, tune.sweep, tune.objective);
  if (!design_cache.empty()) {
    const std::string sidecar =
        cache.SidecarPath(key, json ? "tune.json" : "tune.txt");
    std::ifstream in(sidecar);
    if (in && cache.Lookup(key)) {
      std::ostringstream os;
      os << in.rdbuf();
      dse::RecordTuneCacheHit(metrics);
      std::printf("tune cache: reused %s (no exploration)\n",
                  cluster::DesignKeyHex(key).c_str());
      emit(os.str());
      return 0;
    }
  }

  const dse::TuneResult result = dse::Explore(m.net, constraint, tune);
  if (!design_cache.empty()) {
    // Compile the winner into a deployable design (RTL + the rtl.* and
    // design verifier gates) and persist it with both report renderings.
    const AcceleratorConfig base = SizeDatapath(m.net, constraint);
    cache.Insert(key,
                 dse::CompileWinner(m.net, constraint, base,
                                    result.candidates[result.winner].spec));
    std::ofstream(cache.SidecarPath(key, "tune.txt")) << result.ToText();
    std::ofstream(cache.SidecarPath(key, "tune.json")) << result.ToJson();
  }
  emit(json ? result.ToJson() : result.ToText());
  return 0;
}

/// The bundle flow: model script and constraint in, bundle out.
int RunGenerate(int argc, char** argv) {
  using namespace db;
  ModelArgs args;
  std::string out_dir = "deepburning_out";
  std::string trace_out;
  std::string metrics_out;
  std::string profile_out;   // per-layer bottleneck report (JSON)
  std::string design_cache;  // content-addressed generator cache dir
  bool report = false;
  bool simulate = false;
  if (!ReadFlags(argc, argv, "", kUsage, &args,
                 {{"--out", &out_dir},
                  {"--trace-out", &trace_out},
                  {"--metrics-out", &metrics_out},
                  {"--profile-out", &profile_out},
                  {"--design-cache", &design_cache},
                  {"--report", &report},
                  {"--simulate", &simulate}}))
    return args.help ? 0 : 2;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const LoadedModel m = LoadModel(args, &tracer);
  const Network& net = m.net;
  // With --design-cache, generation is memoized on the canonical
  // (network, constraint) content hash; a warm entry is rebuilt from
  // its cached sizing.
  cluster::DesignCache::Options cache_opts;
  cache_opts.directory = design_cache;
  cache_opts.tracer = &tracer;
  cache_opts.metrics = &metrics;
  cluster::DesignCache cache(cache_opts);
  const cluster::DesignKey key = cluster::MakeDesignKey(m.def, m.constraint);
  const AcceleratorDesign design =
      cache.GetOrGenerate(key, net, m.constraint, &tracer);
  if (cache.stats().disk_hits > 0)
    std::printf("design cache: reused %s (no generation)\n",
                cluster::DesignKeyHex(key).c_str());

  std::printf("generated accelerator for '%s': %d MAC lanes, %lld fold "
              "steps, %lld LUTs / %lld DSPs\n",
              net.name().c_str(), design.config.TotalLanes(),
              static_cast<long long>(design.fold_plan.TotalSegments()),
              static_cast<long long>(design.resources.total.lut),
              static_cast<long long>(design.resources.total.dsp));

  std::filesystem::create_directories(out_dir);
  const std::filesystem::path out = out_dir;
  std::printf("writing bundle:\n");
  WriteFile(out / "accelerator.v", EmitVerilog(design.rtl));
  WriteFile(out / "tb_accelerator.v", EmitTestbench(design.rtl));
  WriteFile(out / "design_report.txt", design.Report());
  WriteFile(out / "schedule.txt",
            design.schedule.ToString(design.fold_plan));
  WriteFile(out / "memory_map.txt", design.memory_map.ToString());
  WriteFile(out / "agu_program.txt", design.agu_program.ToString());
  WriteFile(out / "design.json", DesignToJson(design));

  if (report) std::printf("\n%s\n", design.Report().c_str());

  if (simulate) {
    PerfTrace trace;
    PerfOptions perf_opts;
    perf_opts.trace = &trace;
    perf_opts.metrics = &metrics;
    const PerfResult perf = SimulatePerformance(net, design, perf_opts);
    WriteFile(out / "trace.vcd", WriteVcd(trace));
    ExportPerfTrace(trace, tracer);
    const EnergyResult energy =
        EstimateEnergy(design.resources.total, perf,
                       DeviceCatalog(m.constraint.device));
    std::printf("\nsimulated forward propagation: %.4f ms, %.4f J\n",
                perf.TotalMs(), energy.total_joules);
    std::printf("%s\n", perf.ToString().c_str());
  }
  if (!profile_out.empty()) {
    const PerfResult perf = SimulatePerformance(net, design);
    WriteFile(profile_out, BuildProfileReport(net, design, perf).ToJson());
  }
  if (!trace_out.empty())
    WriteFile(trace_out,
              obs::WriteChromeTrace(tracer, design.config.frequency_mhz));
  if (!metrics_out.empty()) WriteFile(metrics_out, metrics.ToJson());
  return 0;
}

}  // namespace

// Exit codes: 0 success, 1 unexpected failure (any other std::exception),
// 2 user-facing error (db::Error: bad flags, unreadable files, invalid
// specs), 3 internal invariant violation (a DB_CHECK fired —
// std::logic_error; always a bug worth reporting).
int main(int argc, char** argv) {
  try {
    // Undocumented: trip a DB_CHECK on demand so the CLI test suite can
    // assert the internal-error exit code without a real bug.
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--self-test-internal-error")
        DB_CHECK_MSG(false, "self-test internal error");
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "serve") return RunServe(argc, argv);
    if (command == "verify") return RunVerify(argc, argv);
    if (command == "profile") return RunProfile(argc, argv);
    if (command == "tune") return RunTune(argc, argv);
    return RunGenerate(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "deepburning: %s\n", e.what());
    return 2;
  } catch (const std::logic_error& e) {
    std::fprintf(stderr, "deepburning: internal error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepburning: %s\n", e.what());
    return 1;
  }
}
