// Perf-trajectory harness: a pinned workload set whose numbers are
// tracked PR over PR (scripts/bench.sh writes BENCH_sim.json and
// BENCH_serve.json at the repo root; scripts/bench_diff.py gates
// regressions).
//
// Two surfaces are measured:
//
//   * BENCH_sim.json   — the simulator hot path itself: wall-clock time
//     per FunctionalSimulator::Run over the zoo's MNIST and Alexnet
//     entries, reported as simulated cycles per wall second (the cycle
//     count per run comes from the performance model and is
//     deterministic; only the wall time varies with the host).
//   * BENCH_serve.json — the serving stack: requests/sec and p50/p99
//     latency from the batched inference server.  These are SIMULATED
//     time, so every field is deterministic and the file is byte-stable
//     across runs and hosts.
//
// The JSON is emitted with a fixed key order, fixed float formatting and
// no environment-dependent fields (timestamps, hostnames), so diffs are
// always meaningful.
//
// Usage: trajectory [--smoke] [--out DIR]
//   --smoke  one timed run per model and the MNIST-only serve sweep —
//            just enough for tier1's bench-smoke stage to prove the
//            harness and the diff tool work.
//   --out    output directory for the two BENCH files (default ".").
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/generator.h"
#include "models/zoo.h"
#include "obs/metrics.h"
#include "serve/inference_server.h"
#include "sim/functional_sim.h"
#include "sim/kernels.h"
#include "sim/perf_model.h"

namespace {

using namespace db;

Tensor MakeInput(const Network& net, std::uint64_t seed) {
  const BlobShape& s = net.layer(net.input_ids().front()).output_shape;
  Tensor t(Shape{s.channels, s.height, s.width});
  Rng rng(seed);
  t.FillUniform(rng, 0.0f, 1.0f);
  return t;
}

/// Fixed-format double for byte-stable JSON: %.10g is locale-independent
/// round-trippable formatting with no trailing-zero jitter.
std::string JsonDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

struct SimRow {
  std::string model;
  std::string backend;
  std::int64_t timed_runs = 0;
  std::int64_t sim_cycles_per_run = 0;
  double wall_ms_per_run = 0.0;
  double sim_cycles_per_sec = 0.0;
};

struct ServeRow {
  std::string model;
  int workers = 0;
  std::int64_t max_batch_size = 0;
  std::int64_t requests = 0;
  std::int64_t batches = 0;
  double requests_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

SimRow BenchSim(ZooModel model, std::int64_t timed_runs) {
  const Network net = BuildZooModel(model);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);
  const Tensor input = MakeInput(net, 100);
  const PerfResult perf = SimulatePerformance(net, design);

  FunctionalSimulator sim(net, design, weights);
  (void)sim.Run(input);  // warm-up: arena growth, LUT builds, page-in

  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < timed_runs; ++i) (void)sim.Run(input);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    start)
          .count();

  SimRow row;
  row.model = ZooModelName(model);
  row.backend = sim::KernelBackendName(sim::ActiveKernelBackend());
  row.timed_runs = timed_runs;
  row.sim_cycles_per_run = perf.total_cycles;
  row.wall_ms_per_run =
      elapsed_s * 1e3 / static_cast<double>(timed_runs);
  row.sim_cycles_per_sec =
      static_cast<double>(perf.total_cycles * timed_runs) / elapsed_s;
  return row;
}

ServeRow BenchServe(ZooModel model) {
  constexpr int kRequests = 16;
  const Network net = BuildZooModel(model);
  const AcceleratorDesign design = GenerateAccelerator(net, DbConstraint());
  Rng rng(2016);
  const WeightStore weights = WeightStore::CreateRandom(net, rng);

  obs::MetricsRegistry metrics;
  serve::ServeOptions options;
  options.replicas = 2;
  options.max_batch_size = 4;
  options.metrics = &metrics;
  serve::InferenceServer server(net, design, weights, options);
  for (int i = 0; i < kRequests; ++i)
    server.Submit(MakeInput(net, 100 + static_cast<std::uint64_t>(i)), 0);
  server.Drain();
  const serve::ServerStats stats = server.Stats();

  // Percentiles come straight from the server's published
  // serve.latency_cycles histogram — the same shared quantile histogram
  // ServerStats aggregates — so this file and the metrics export can
  // never disagree.
  const obs::HistogramStats latency =
      metrics.HistogramOf("serve.latency_cycles");
  const double cycles_to_ms = 1.0 / (design.config.frequency_mhz * 1e3);

  ServeRow row;
  row.model = ZooModelName(model);
  row.workers = options.replicas;
  row.max_batch_size = options.max_batch_size;
  row.requests = kRequests;
  row.batches = stats.batches;
  row.requests_per_sec = stats.throughput_rps;
  row.p50_ms = latency.P50() * cycles_to_ms;
  row.p99_ms = latency.P99() * cycles_to_ms;
  return row;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "trajectory: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: trajectory [--smoke] [--out DIR]\n");
      return 2;
    }
  }

  // --- simulator hot path ---
  std::vector<SimRow> sim_rows;
  sim_rows.push_back(
      BenchSim(ZooModel::kMnist, smoke ? 1 : 200));
  sim_rows.push_back(BenchSim(ZooModel::kAlexnet, smoke ? 1 : 4));

  std::string sim_json = "{\n  \"schema\": \"db.bench.sim.v1\",\n"
                         "  \"workloads\": [\n";
  for (std::size_t i = 0; i < sim_rows.size(); ++i) {
    const SimRow& r = sim_rows[i];
    sim_json += "    {\"model\": \"" + r.model + "\", \"kernel_backend\": \"" +
                r.backend + "\", \"timed_runs\": " +
                std::to_string(r.timed_runs) + ", \"sim_cycles_per_run\": " +
                std::to_string(r.sim_cycles_per_run) +
                ", \"wall_ms_per_run\": " + JsonDouble(r.wall_ms_per_run) +
                ", \"sim_cycles_per_sec\": " +
                JsonDouble(r.sim_cycles_per_sec) + "}";
    sim_json += (i + 1 < sim_rows.size()) ? ",\n" : "\n";
  }
  sim_json += "  ]\n}\n";

  // --- serving stack (simulated time: deterministic, byte-stable) ---
  std::vector<ServeRow> serve_rows;
  serve_rows.push_back(BenchServe(ZooModel::kMnist));
  if (!smoke) serve_rows.push_back(BenchServe(ZooModel::kAlexnet));

  std::string serve_json = "{\n  \"schema\": \"db.bench.serve.v1\",\n"
                           "  \"workloads\": [\n";
  for (std::size_t i = 0; i < serve_rows.size(); ++i) {
    const ServeRow& r = serve_rows[i];
    serve_json +=
        "    {\"model\": \"" + r.model + "\", \"workers\": " +
        std::to_string(r.workers) + ", \"max_batch_size\": " +
        std::to_string(r.max_batch_size) + ", \"requests\": " +
        std::to_string(r.requests) + ", \"batches\": " +
        std::to_string(r.batches) + ", \"requests_per_sec\": " +
        JsonDouble(r.requests_per_sec) + ", \"p50_ms\": " +
        JsonDouble(r.p50_ms) + ", \"p99_ms\": " + JsonDouble(r.p99_ms) +
        "}";
    serve_json += (i + 1 < serve_rows.size()) ? ",\n" : "\n";
  }
  serve_json += "  ]\n}\n";

  if (!WriteFile(out_dir + "/BENCH_sim.json", sim_json)) return 1;
  if (!WriteFile(out_dir + "/BENCH_serve.json", serve_json)) return 1;
  std::printf("%s%s", sim_json.c_str(), serve_json.c_str());
  return 0;
}
