// Emit the generated hardware/software bundle to disk: the artifact a
// user would hand to Vivado (RTL) and to the host runtime (memory map,
// AGU program, schedule).
//
// Usage: ./example_rtl_emit [model] [out_dir]
//   model: ann0|ann1|ann2|hopfield|cmac|mnist|alexnet|nin|cifar
//          (default mnist)
//   out_dir: output directory (default ./deepburning_out)
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "core/generator.h"
#include "rtl/testbench.h"
#include "models/zoo.h"

namespace {

db::ZooModel ParseModelArg(const std::string& arg) {
  using db::ZooModel;
  if (arg == "ann0") return ZooModel::kAnn0Fft;
  if (arg == "ann1") return ZooModel::kAnn1Jpeg;
  if (arg == "ann2") return ZooModel::kAnn2Kmeans;
  if (arg == "hopfield") return ZooModel::kHopfield;
  if (arg == "cmac") return ZooModel::kCmac;
  if (arg == "mnist") return ZooModel::kMnist;
  if (arg == "alexnet") return ZooModel::kAlexnet;
  if (arg == "nin") return ZooModel::kNin;
  if (arg == "cifar") return ZooModel::kCifar;
  throw db::Error("unknown model '" + arg + "'");
}

void WriteFile(const std::filesystem::path& path,
               const std::string& text) {
  std::ofstream out(path);
  if (!out) throw db::Error("cannot write " + path.string());
  out << text;
  std::printf("  wrote %s (%zu bytes)\n", path.string().c_str(),
              text.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace db;

  const std::string model_arg = argc > 1 ? argv[1] : "mnist";
  const std::filesystem::path out_dir =
      argc > 2 ? argv[2] : "deepburning_out";
  const ZooModel model = ParseModelArg(model_arg);

  const Network net = BuildZooModel(model);
  const AcceleratorDesign design =
      GenerateAccelerator(net, DbConstraint());

  std::filesystem::create_directories(out_dir);
  std::printf("emitting DeepBurning bundle for %s:\n",
              ZooModelName(model).c_str());
  WriteFile(out_dir / "model.prototxt", ZooModelPrototxt(model));
  WriteFile(out_dir / "constraint.prototxt",
            ConstraintToPrototxt(DbConstraint()));
  WriteFile(out_dir / "accelerator.v", EmitVerilog(design.rtl));
  WriteFile(out_dir / "tb_accelerator.v", EmitTestbench(design.rtl));
  WriteFile(out_dir / "design_report.txt", design.Report());
  WriteFile(out_dir / "schedule.txt",
            design.schedule.ToString(design.fold_plan));
  WriteFile(out_dir / "memory_map.txt", design.memory_map.ToString());
  WriteFile(out_dir / "agu_program.txt", design.agu_program.ToString());
  std::printf("done. Top module: %s\n", design.rtl.top.c_str());
  return 0;
}
