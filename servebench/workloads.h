#ifndef SAPHYRA_SERVEBENCH_WORKLOADS_H_
#define SAPHYRA_SERVEBENCH_WORKLOADS_H_

/// \file
/// The three workloads: the graph each one serves, its traffic shape, and
/// the request script generated from the workload seed. Generation runs in
/// its own process (`servebench gen`) so that neither its time nor its
/// memory is charged to the serving process; the serving process receives
/// only the edge-list file and the request lines.

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

enum class GraphKind { kSocial, kRoad };

/// \brief How clients issue requests.
enum class Traffic {
  /// Independent closed-loop clients, each sending its next request when
  /// the previous one is answered (social-subset).
  kClients,
  /// Rounds: every reader sends its reads of the round, then the writer
  /// applies one fixed batch of updates while no read is in flight
  /// (road-mutate).
  kReadWriteRounds,
  /// One client sending a fixed per-round mix, round after round
  /// (social-mixed).
  kRounds,
};

struct WorkloadSpec {
  const char* name;
  GraphKind graph;
  Traffic traffic;
  uint32_t clients;         ///< concurrent query clients (readers)
  uint32_t max_concurrent;  ///< scheduler execution slots
  uint32_t round_queries;   ///< per-round queries of each client (rounds)
  /// Updates per round (kReadWriteRounds): local insert, far insert, far
  /// delete, local delete. The social workloads apply the same batch plus
  /// three more local inserts after their timed phase, so update latency
  /// is measured everywhere without touching the query phase.
  uint32_t write_batch;
};

inline const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"social-subset", GraphKind::kSocial, Traffic::kClients, 4, 4, 0, 0},
      {"road-mutate", GraphKind::kRoad, Traffic::kReadWriteRounds, 3, 3, 2, 4},
      {"social-mixed", GraphKind::kSocial, Traffic::kRounds, 1, 1, 5, 0},
  };
  return specs;
}

inline const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// \brief One generated request line and where it belongs.
struct ScriptLine {
  /// "warmup", "timed", "write" (road writer batches, in order),
  /// "update" (post-phase updates) or "check" (final-epoch check queries).
  std::string section;
  uint32_t client = 0;
  std::string json;
};

/// \brief Generate the workload's edge list and request script into
/// `dir` (graph.txt, script.tsv), replacing whatever is there.
bool GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                    const std::string& dir);

/// \brief Read `dir`/script.tsv.
bool ReadScript(const std::string& dir, std::vector<ScriptLine>* out);

/// \brief Parameters that determine the generated inputs; generated
/// inputs are reused only when seed and this string match.
std::string GeneratorParams(const WorkloadSpec& spec);

}  // namespace servebench

#endif  // SAPHYRA_SERVEBENCH_WORKLOADS_H_
