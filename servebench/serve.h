#ifndef SAPHYRA_SERVEBENCH_SERVE_H_
#define SAPHYRA_SERVEBENCH_SERVE_H_

#include <cstdint>
#include <string>

namespace servebench {

struct ServeOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string input_dir;     ///< graph.txt + script.tsv (GenerateInputs)
  std::string work_dir;      ///< scratch files of this run (.sgr caches)
  std::string results_path;  ///< full results JSON
  std::string spans_path;    ///< span dump (traced runs)
};

/// \brief Serve the workload's script and print the summary and the
/// result line. Returns the process exit code.
int RunServe(const ServeOptions& opt);

/// \brief Self-tests of the aggregation (aggregate.h); 0 when all pass.
int RunSelfTest();

}  // namespace servebench

#endif  // SAPHYRA_SERVEBENCH_SERVE_H_
