#include "dse/explorer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <sstream>
#include <thread>

#include "analysis/rtl_verifier.h"
#include "analysis/verifier.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/strings.h"
#include "core/rtl_builder.h"
#include "graph/layer_stats.h"
#include "hwlib/device.h"
#include "sim/perf_model.h"
#include "sim/power_model.h"

namespace db::dse {
namespace {

/// Largest per-layer input / weight working sets, the inputs of the
/// buffer-split knob (same derivation SizeDatapath uses).
struct BufferNeeds {
  std::int64_t max_input_bytes = 0;
  std::int64_t max_weight_bytes = 0;
};

BufferNeeds AnalyzeBufferNeeds(const Network& net, std::int64_t elem_bytes) {
  BufferNeeds needs;
  for (const IrLayer* layer : net.ComputeLayers()) {
    const LayerStats stats = ComputeLayerStats(*layer);
    needs.max_input_bytes =
        std::max(needs.max_input_bytes, stats.input_elems * elem_bytes);
    needs.max_weight_bytes =
        std::max(needs.max_weight_bytes, stats.weight_count * elem_bytes);
  }
  return needs;
}

Objectives ScoreDesign(const Network& net, const DesignConstraint& constraint,
                       const AcceleratorDesign& design) {
  const PerfResult perf = SimulatePerformance(net, design);
  const EnergyResult energy = EstimateEnergy(
      design.resources.total, perf, DeviceCatalog(constraint.device));
  Objectives obj;
  obj.latency_cycles = perf.total_cycles;
  obj.energy_joules = energy.total_joules;
  obj.bram_bytes = design.resources.total.bram_bytes;
  return obj;
}

/// Winner sort key on the frontier: strictly lexicographic, index last,
/// so ties cannot depend on evaluation order.
std::array<double, 4> WinnerKey(Objective objective, const Objectives& obj,
                                std::size_t index) {
  const double latency = static_cast<double>(obj.latency_cycles);
  const double bram = static_cast<double>(obj.bram_bytes);
  switch (objective) {
    case Objective::kLatency:
      return {latency, obj.energy_joules, bram,
              static_cast<double>(index)};
    case Objective::kEnergy:
      return {obj.energy_joules, latency, bram,
              static_cast<double>(index)};
    case Objective::kBalanced:
      // Energy-delay-style product; BRAM then index break ties.
      return {latency * obj.energy_joules, bram,
              static_cast<double>(index), 0.0};
  }
  DB_THROW("unknown objective");
}

double Ratio(double value, double reference) {
  return reference > 0.0 ? value / reference : 0.0;
}

std::string ObjectivesJson(const Objectives& obj) {
  return StrFormat(
      "{\"latency_cycles\": %lld, \"energy_joules\": %.9e, "
      "\"bram_bytes\": %lld}",
      static_cast<long long>(obj.latency_cycles), obj.energy_joules,
      static_cast<long long>(obj.bram_bytes));
}

}  // namespace

const char* ObjectiveName(Objective objective) {
  switch (objective) {
    case Objective::kLatency:
      return "latency";
    case Objective::kEnergy:
      return "energy";
    case Objective::kBalanced:
      return "balanced";
  }
  return "?";
}

Objective ParseObjective(const std::string& text) {
  if (text == "latency") return Objective::kLatency;
  if (text == "energy") return Objective::kEnergy;
  if (text == "balanced") return Objective::kBalanced;
  throw Error("unknown objective '" + text +
              "' (expected latency, energy or balanced)");
}

const char* CandidateStatusName(CandidateResult::Status status) {
  switch (status) {
    case CandidateResult::Status::kInfeasible:
      return "infeasible";
    case CandidateResult::Status::kOverBudget:
      return "over-budget";
    case CandidateResult::Status::kVerifyRejected:
      return "verify-rejected";
    case CandidateResult::Status::kScored:
      return "scored";
  }
  return "?";
}

std::vector<double> Objectives::AsVector() const {
  return {static_cast<double>(latency_cycles), energy_joules,
          static_cast<double>(bram_bytes)};
}

std::size_t TuneResult::CountWithStatus(
    CandidateResult::Status status) const {
  std::size_t n = 0;
  for (const CandidateResult& c : candidates)
    if (c.status == status) ++n;
  return n;
}

AcceleratorConfig CandidateConfig(const Network& net,
                                  const AcceleratorConfig& base,
                                  const CandidateSpec& spec) {
  AcceleratorConfig config = base;
  config.memory_port_elems = spec.port_elems;

  // ---- MAC lane rescale (the fold-factor knob) ----
  if (base.TotalLanes() > 0) {
    const std::int64_t target = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(base.TotalLanes()) * spec.lanes_pct /
               100);
    const std::int64_t dsp =
        spec.allow_dsp
            ? std::min<std::int64_t>(target, base.dsp_lanes)
            : 0;
    config.dsp_lanes = static_cast<int>(dsp);
    config.lut_lanes = static_cast<int>(target - dsp);
    config.accumulator_lanes = static_cast<int>(target);
  }

  // ---- secondary pools follow the port width, as in SizeDatapath ----
  if (base.pooling_lanes > 0)
    config.pooling_lanes = static_cast<int>(
        std::min<std::int64_t>(spec.port_elems, 16));
  if (base.activation_lanes > 0)
    config.activation_lanes = static_cast<int>(
        std::min<std::int64_t>(spec.port_elems, 16));
  if (base.has_connection_box)
    config.connection_box_ports = static_cast<int>(
        std::clamp<std::int64_t>(spec.port_elems, 2, 32));

  // ---- buffer split ----
  // The splittable pool reserves 1/32 of the BRAM budget for the
  // non-buffer consumers the tally charges (AGU pattern tables, the
  // coordinator's schedule store) plus the Approx-LUT tables, so a
  // candidate whose working sets fill the pool still fits the budget —
  // unlike SizeDatapath, whose over-packing the generator's refit loop
  // repairs, a swept candidate gets no refit and must fit as built.
  const BufferNeeds needs = AnalyzeBufferNeeds(net, config.ElementBytes());
  const std::int64_t bram = base.budget.bram_bytes;
  const std::int64_t pool = std::max<std::int64_t>(
      bram - bram / 32 - config.approx_lut_entries * 4, 0);
  const std::int64_t min_buf =
      spec.port_elems * config.ElementBytes() * 16;
  const std::int64_t data_cap =
      std::max(min_buf, pool * spec.data_split_pct / 100);
  config.data_buffer_bytes =
      std::clamp(needs.max_input_bytes, min_buf, data_cap);
  config.weight_buffer_bytes = std::clamp(
      needs.max_weight_bytes, min_buf,
      std::max<std::int64_t>(pool - config.data_buffer_bytes, min_buf));
  return config;
}

CandidateResult EvaluateCandidate(const Network& net,
                                  const DesignConstraint& constraint,
                                  const AcceleratorConfig& base,
                                  const CandidateSpec& spec) {
  CandidateResult result;
  result.spec = spec;
  AcceleratorDesign design;
  try {
    design = CompileForConfig(net, CandidateConfig(net, base, spec));
  } catch (const Error&) {
    result.status = CandidateResult::Status::kInfeasible;
    return result;
  }
  // Pruning order (pinned by DESIGN.md and the dse test suite):
  // construction -> budget -> verifier -> score.
  if (!design.config.budget.Fits(design.resources.total)) {
    result.status = CandidateResult::Status::kOverBudget;
    return result;
  }
  if (!analysis::VerifyDesign(net, design).ok()) {
    result.status = CandidateResult::Status::kVerifyRejected;
    return result;
  }
  result.status = CandidateResult::Status::kScored;
  result.obj = ScoreDesign(net, constraint, design);
  return result;
}

TuneResult Explore(const Network& net, const DesignConstraint& constraint,
                   const TuneOptions& options) {
  TuneResult result;
  result.network_name = net.name();
  result.objective = options.objective;
  result.sweep = options.sweep;

  obs::TickClock clock(options.tracer ? options.tracer->TrackEnd("dse")
                                      : 0);
  auto phase = [&](const char* name, auto&& body) {
    obs::ScopedSpan span(options.tracer, clock, "dse", name, "dse");
    body();
    clock.Advance(1);
  };

  AcceleratorConfig base;
  phase("size baseline", [&] { base = SizeDatapath(net, constraint); });

  phase("score default", [&] {
    // The stock design (with its refit loop) is the comparison point
    // every report carries; its own verify gate already ran.
    const AcceleratorDesign stock = GenerateAccelerator(net, constraint);
    result.default_obj = ScoreDesign(net, constraint, stock);
  });

  const std::vector<CandidateSpec> specs = options.sweep.Enumerate();
  result.candidates.resize(specs.size());
  phase("evaluate sweep", [&] {
    // Workers pull candidate indices off a shared counter and write into
    // index-addressed slots.  EvaluateCandidate is pure, so scheduling
    // decides only wall-clock time — never a byte of the result.
    const int jobs = std::max(1, options.jobs);
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(jobs));
    auto worker = [&](int w) {
      try {
        for (std::size_t i = next.fetch_add(1); i < specs.size();
             i = next.fetch_add(1))
          result.candidates[i] =
              EvaluateCandidate(net, constraint, base, specs[i]);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    };
    if (jobs == 1 || specs.size() <= 1) {
      worker(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(jobs));
      for (int w = 0; w < jobs; ++w) threads.emplace_back(worker, w);
      for (std::thread& t : threads) t.join();
    }
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
  });

  phase("reduce frontier", [&] {
    std::vector<std::size_t> scored;
    std::vector<std::vector<double>> points;
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
      if (result.candidates[i].status !=
          CandidateResult::Status::kScored)
        continue;
      scored.push_back(i);
      points.push_back(result.candidates[i].obj.AsVector());
    }
    // `scored` is ascending, so the frontier contract's index-based
    // rules (duplicate keeps lowest, ties break on index) survive the
    // mapping back to candidate indices unchanged.
    for (std::size_t p : ParetoFrontier(points))
      result.frontier.push_back(scored[p]);
  });

  if (result.frontier.empty())
    DB_THROW("tune: no candidate in sweep '"
             << options.sweep.ToString() << "' survives pruning for "
             << "network '" << net.name() << "'");

  phase("pick winner", [&] {
    result.winner = result.frontier.front();
    std::array<double, 4> best = WinnerKey(
        options.objective, result.candidates[result.winner].obj,
        result.winner);
    for (std::size_t idx : result.frontier) {
      const std::array<double, 4> key =
          WinnerKey(options.objective, result.candidates[idx].obj, idx);
      if (key < best) {
        best = key;
        result.winner = idx;
      }
    }
  });

  if (options.metrics) {
    options.metrics->AddCounter("dse.candidates",
        static_cast<std::int64_t>(result.candidates.size()));
    options.metrics->AddCounter("dse.pruned_infeasible",
        static_cast<std::int64_t>(result.CountWithStatus(
            CandidateResult::Status::kInfeasible)));
    options.metrics->AddCounter("dse.pruned_budget",
        static_cast<std::int64_t>(result.CountWithStatus(
            CandidateResult::Status::kOverBudget)));
    options.metrics->AddCounter("dse.pruned_verify",
        static_cast<std::int64_t>(result.CountWithStatus(
            CandidateResult::Status::kVerifyRejected)));
    options.metrics->AddCounter("dse.scored",
        static_cast<std::int64_t>(result.CountWithStatus(
            CandidateResult::Status::kScored)));
    options.metrics->AddCounter("dse.frontier_points",
        static_cast<std::int64_t>(result.frontier.size()));
  }
  return result;
}

void RecordTuneCacheHit(obs::MetricsRegistry& metrics) {
  metrics.AddCounter("dse.cache_hits");
}

AcceleratorDesign CompileWinner(const Network& net,
                                const DesignConstraint& constraint,
                                const AcceleratorConfig& base,
                                const CandidateSpec& spec) {
  (void)constraint;
  AcceleratorDesign design =
      CompileForConfig(net, CandidateConfig(net, base, spec));
  design.rtl = BuildRtl(design.config, design.blocks);
  analysis::VerifyRtlOrThrow(design.rtl);
  analysis::VerifyDesignOrThrow(net, design);
  return design;
}

cluster::DesignKey MakeTuneKey(const NetworkDef& def,
                               const DesignConstraint& constraint,
                               const SweepSpec& sweep,
                               Objective objective) {
  cluster::DesignKey key = cluster::MakeDesignKey(def, constraint);
  key.canonical += cluster::kTuneSeparator;
  key.canonical += "sweep: " + sweep.ToString() + "\nobjective: " +
                   std::string(ObjectiveName(objective)) + "\n";
  key.hash = Fnv1a64(key.canonical);
  return key;
}

std::string TuneResult::ToText() const {
  std::ostringstream os;
  os << "== tune report ==\n";
  os << "network:    " << network_name << "\n";
  os << "objective:  " << ObjectiveName(objective) << "\n";
  os << "sweep:      " << sweep.ToString() << "\n";
  os << StrFormat(
      "candidates: %zu = scored %zu + infeasible %zu + over-budget %zu "
      "+ verify-rejected %zu\n",
      candidates.size(),
      CountWithStatus(CandidateResult::Status::kScored),
      CountWithStatus(CandidateResult::Status::kInfeasible),
      CountWithStatus(CandidateResult::Status::kOverBudget),
      CountWithStatus(CandidateResult::Status::kVerifyRejected));
  os << "\n";
  os << StrFormat(
      "default design:  latency=%lld cycles  energy=%.9e J  bram=%lld B\n",
      static_cast<long long>(default_obj.latency_cycles),
      default_obj.energy_joules,
      static_cast<long long>(default_obj.bram_bytes));
  os << "\n";
  os << StrFormat("pareto frontier (%zu points):\n", frontier.size());
  for (std::size_t idx : frontier) {
    const CandidateResult& c = candidates[idx];
    os << StrFormat(
        "  [%3zu] %-40s latency=%lld  energy=%.9e  bram=%lld%s\n", idx,
        c.spec.ToString().c_str(),
        static_cast<long long>(c.obj.latency_cycles),
        c.obj.energy_joules, static_cast<long long>(c.obj.bram_bytes),
        idx == winner ? "  <- winner" : "");
  }
  os << "\n";
  const CandidateResult& w = candidates[winner];
  os << StrFormat("winner [%zu] %s:\n", winner,
                  w.spec.ToString().c_str());
  os << StrFormat(
      "  latency: %lld cycles  (%.3fx of default)\n",
      static_cast<long long>(w.obj.latency_cycles),
      Ratio(static_cast<double>(w.obj.latency_cycles),
            static_cast<double>(default_obj.latency_cycles)));
  os << StrFormat("  energy:  %.9e J  (%.3fx of default)\n",
                  w.obj.energy_joules,
                  Ratio(w.obj.energy_joules, default_obj.energy_joules));
  os << StrFormat(
      "  bram:    %lld B  (%.3fx of default)\n",
      static_cast<long long>(w.obj.bram_bytes),
      Ratio(static_cast<double>(w.obj.bram_bytes),
            static_cast<double>(default_obj.bram_bytes)));
  return os.str();
}

std::string TuneResult::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"network\": \"" << EscapeJson(network_name) << "\",\n";
  os << "  \"objective\": \"" << ObjectiveName(objective) << "\",\n";
  os << "  \"sweep\": \"" << EscapeJson(sweep.ToString()) << "\",\n";
  os << StrFormat(
      "  \"counts\": {\"candidates\": %zu, \"scored\": %zu, "
      "\"infeasible\": %zu, \"over_budget\": %zu, "
      "\"verify_rejected\": %zu},\n",
      candidates.size(),
      CountWithStatus(CandidateResult::Status::kScored),
      CountWithStatus(CandidateResult::Status::kInfeasible),
      CountWithStatus(CandidateResult::Status::kOverBudget),
      CountWithStatus(CandidateResult::Status::kVerifyRejected));
  os << "  \"default\": " << ObjectivesJson(default_obj) << ",\n";
  os << "  \"candidates\": [\n";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const CandidateResult& c = candidates[i];
    os << StrFormat("    {\"index\": %zu, \"spec\": \"%s\", "
                    "\"status\": \"%s\"",
                    i, EscapeJson(c.spec.ToString()).c_str(),
                    CandidateStatusName(c.status));
    if (c.status == CandidateResult::Status::kScored)
      os << ", \"objectives\": " << ObjectivesJson(c.obj);
    os << (i + 1 < candidates.size() ? "},\n" : "}\n");
  }
  os << "  ],\n";
  os << "  \"frontier\": [";
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    if (i > 0) os << ", ";
    os << frontier[i];
  }
  os << "],\n";
  const CandidateResult& w = candidates[winner];
  os << StrFormat(
      "  \"winner\": {\"index\": %zu, \"spec\": \"%s\", "
      "\"objectives\": %s}\n",
      winner, EscapeJson(w.spec.ToString()).c_str(),
      ObjectivesJson(w.obj).c_str());
  os << "}\n";
  return os.str();
}

}  // namespace db::dse
