// servebench: closed-loop serving benchmark of the SaPHyRa library.
//
//   servebench selftest
//   servebench gen --workload W --seed S --dir DIR
//   servebench serve --workload W --seed S --seconds T --trace 0|1
//              --inputs DIR --work DIR --results FILE --spans FILE
//
// servebench/run.py drives these; see servebench/README.md.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "serve.h"
#include "workloads.h"

namespace {

bool ParseFlags(int argc, char** argv,
                std::map<std::string, std::string>* out) {
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    (*out)[key.substr(2)] = argv[i + 1];
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench selftest\n"
               "       servebench gen --workload W --seed S --dir DIR\n"
               "       servebench serve --workload W --seed S --seconds T "
               "--trace 0|1 --inputs DIR --work DIR --results FILE "
               "--spans FILE\n");
  return 2;
}

/// Generate inputs unless `dir` already holds them for this seed and
/// generator parameters.
int Gen(const servebench::WorkloadSpec& spec, uint64_t seed,
        const std::string& dir) {
  std::ostringstream want;
  want << servebench::GeneratorParams(spec) << " seed=" << seed;
  {
    std::ifstream in(dir + "/params.txt");
    std::string have;
    if (in && std::getline(in, have) && have == want.str()) return 0;
  }
  std::remove((dir + "/params.txt").c_str());
  if (!servebench::GenerateInputs(spec, seed, dir)) {
    std::fprintf(stderr, "servebench: generating %s failed\n", dir.c_str());
    return 1;
  }
  std::ofstream(dir + "/params.txt") << want.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "selftest") return servebench::RunSelfTest();
  std::map<std::string, std::string> f;
  if (!ParseFlags(argc, argv, &f) || !f.count("workload") || !f.count("seed")) {
    return Usage();
  }
  const servebench::WorkloadSpec* spec =
      servebench::FindWorkload(f["workload"]);
  if (spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload %s\n",
                 f["workload"].c_str());
    return 2;
  }
  const uint64_t seed = std::stoull(f["seed"]);
  if (cmd == "gen" && f.count("dir")) return Gen(*spec, seed, f["dir"]);
  if (cmd == "serve") {
    servebench::ServeOptions o;
    o.workload = f["workload"];
    o.seed = seed;
    o.seconds = std::stod(f["seconds"]);
    o.trace = f["trace"] == "1";
    o.input_dir = f["inputs"];
    o.work_dir = f["work"];
    o.results_path = f["results"];
    o.spans_path = f["spans"];
    return servebench::RunServe(o);
  }
  return Usage();
}
