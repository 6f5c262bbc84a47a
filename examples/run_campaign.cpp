// run_campaign: executes the adversarial scenario campaign (src/campaign)
// from the command line.
//
//   run_campaign                         # full manifest, loopback backend
//   run_campaign --backend=tcp           # same scenarios over real sockets
//   run_campaign --smoke                 # the small ctest subset
//   run_campaign --filter=byz            # scenarios whose name contains "byz"
//   run_campaign --threads=8             # override worker threads everywhere
//   run_campaign --verbose               # full canonical dump per scenario
//
// Every run executes the manifest twice and fails if the two canonical dumps
// differ — the campaign's own determinism is part of what it checks; each
// diverging scenario is printed with both of its dumps. Exits nonzero on any
// invariant violation.
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "campaign/campaign.h"

namespace {

bool FlagValue(const char* arg, const char* name, std::string* value) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using tcells::net::TransportKind;
  using tcells::sim::CampaignResult;
  using tcells::sim::RunCampaign;
  using tcells::sim::ScenarioOutcome;
  using tcells::sim::ScenarioSpec;

  TransportKind backend = TransportKind::kLoopback;
  bool smoke = false;
  bool verbose = false;
  std::string filter;
  long threads = -1;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--backend", &value)) {
      if (value == "tcp") {
        backend = TransportKind::kTcp;
      } else if (value == "loopback") {
        backend = TransportKind::kLoopback;
      } else {
        std::cerr << "unknown backend: " << value << "\n";
        return 2;
      }
    } else if (FlagValue(argv[i], "--filter", &value)) {
      filter = value;
    } else if (FlagValue(argv[i], "--threads", &value)) {
      threads = std::stol(value);
    } else if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else if (std::string(argv[i]) == "--verbose") {
      verbose = true;
    } else {
      std::cerr << "unknown argument: " << argv[i] << "\n";
      return 2;
    }
  }

  std::vector<ScenarioSpec> manifest =
      smoke ? tcells::sim::SmokeManifest() : tcells::sim::DefaultManifest();
  if (!filter.empty()) {
    std::vector<ScenarioSpec> kept;
    for (ScenarioSpec& spec : manifest) {
      if (spec.name.find(filter) != std::string::npos) {
        kept.push_back(std::move(spec));
      }
    }
    manifest = std::move(kept);
  }
  if (threads >= 0) {
    for (ScenarioSpec& spec : manifest) {
      spec.num_threads = static_cast<size_t>(threads);
    }
  }
  std::cout << "campaign: " << manifest.size() << " scenarios, backend="
            << (backend == TransportKind::kTcp ? "tcp" : "loopback") << "\n";

  auto first = RunCampaign(manifest, backend);
  if (!first.ok()) {
    std::cerr << "campaign harness failure: " << first.status().ToString()
              << "\n";
    return 2;
  }
  for (const ScenarioOutcome& outcome : first->outcomes) {
    if (verbose) {
      std::cout << outcome.Canonical();
      continue;
    }
    std::cout << (outcome.violations.empty() ? "  ok   " : "  FAIL ")
              << outcome.name << " — "
              << (outcome.completed ? "completed" : "aborted") << ", lost="
              << outcome.partitions_lost << " tampered="
              << outcome.partitions_tampered << " faults="
              << outcome.faults_injected << " tampers=" << outcome.tampers
              << "\n";
    for (const std::string& v : outcome.violations) {
      std::cout << "         violation: " << v << "\n";
    }
  }

  // Determinism self-check: the same manifest again must reproduce the
  // byte-identical canonical dump.
  auto second = RunCampaign(manifest, backend);
  if (!second.ok()) {
    std::cerr << "campaign harness failure (2nd pass): "
              << second.status().ToString() << "\n";
    return 2;
  }
  if (first->Canonical() != second->Canonical()) {
    std::cerr << "NONDETERMINISM: two identical campaign runs diverged\n";
    for (size_t i = 0; i < first->outcomes.size(); ++i) {
      const std::string a = first->outcomes[i].Canonical();
      const std::string b = second->outcomes[i].Canonical();
      if (a == b) continue;
      std::cerr << "scenario " << first->outcomes[i].name
                << " diverged\n--- first run\n"
                << a << "--- second run\n"
                << b;
    }
    return 1;
  }

  if (first->total_violations > 0) {
    std::cerr << first->total_violations << " invariant violation(s)\n";
    return 1;
  }
  std::cout << "all scenarios passed; campaign is deterministic\n";
  return 0;
}
