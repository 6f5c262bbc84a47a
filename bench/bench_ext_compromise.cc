// Threat-model extension experiment (the paper's future-work item 2):
// "(a small number of) compromised TDSs". A compromised TDS runs the
// protocol but leaks every plaintext it decrypts — the attacker extracted k2
// from the device. This bench sweeps the number of compromised devices and
// measures, per protocol, how many distinct raw tuples and group aggregates
// leak. Not a figure from the paper: an extension experiment.
#include <cstdio>
#include <memory>

#include "analysis/compromise.h"
#include "protocol/discovery.h"
#include "protocol/protocols.h"
#include "tcells/engine.h"
#include "tds/access_control.h"
#include "workload/generic.h"

using namespace tcells;

int main() {
  const size_t kTds = 400;
  const size_t kGroups = 8;

  std::printf("=== extension: compromised-TDS leakage (N_t=%zu, G=%zu) ===\n",
              kTds, kGroups);
  std::printf("A compromised TDS leaks everything it decrypts while "
              "following the protocol.\n\n");
  std::printf("%-12s %-10s %16s %16s %14s %14s\n", "compromised", "protocol",
              "raw tuples leaked", "groups leaked", "model raw%", "model grp%");

  for (size_t compromised : {1u, 4u, 16u, 64u}) {
    workload::GenericOptions gopts;
    gopts.num_tds = kTds;
    gopts.num_groups = kGroups;
    gopts.seed = 17;

    for (int which = 0; which < 3; ++which) {
      auto keys = crypto::KeyStore::CreateForTest(50 + which);
      auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x66));
      auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                               tds::AccessPolicy::AllowAll())
                       .ValueOrDie();
      protocol::Querier querier("bench", authority->Issue("bench"), keys);

      // Compromise the first `compromised` TDSs (ids are random relative to
      // the data, so this is an unbiased sample).
      auto log = std::make_shared<tds::LeakLog>();
      for (size_t i = 0; i < compromised; ++i) {
        fleet->at(i)->set_leak_log(log);
      }

      protocol::RunOptions opts;
      opts.compute_availability = 0.25;
      opts.expected_groups = kGroups;
      const std::string sql =
          "SELECT grp, AVG(val) FROM T GROUP BY grp";

      std::unique_ptr<protocol::Protocol> protocol;
      const char* name;
      auto domain = std::make_shared<std::vector<storage::Tuple>>();
      for (size_t g = 0; g < kGroups; ++g) {
        domain->push_back(
            storage::Tuple({storage::Value::String(workload::GroupName(g))}));
      }
      Engine::Config cfg;
      cfg.options = opts;
      auto engine = Engine::Create(std::move(fleet), cfg).ValueOrDie();

      if (which == 0) {
        name = "S_Agg";
        protocol = std::make_unique<protocol::SAggProtocol>();
      } else if (which == 1) {
        name = "R2_Noise";
        protocol = std::make_unique<protocol::NoiseProtocol>(false, domain);
      } else {
        name = "ED_Hist";
        auto discovered = engine->DiscoverInputs(querier, 1, sql).ValueOrDie();
        log->Clear();  // discovery leakage is not the object of study
        protocol = protocol::EdHistProtocol::FromDistribution(
            discovered.distribution, kGroups / 4);
      }

      auto outcome = engine->Run(*protocol, querier, 2, sql);
      if (!outcome.ok()) {
        std::printf("%-12zu %-10s ERROR %s\n", compromised, name,
                    outcome.status().ToString().c_str());
        continue;
      }
      analysis::CompromiseParams cp;
      cp.nt = kTds;
      cp.groups = kGroups;
      cp.available_fraction = opts.compute_availability;
      cp.compromised = static_cast<double>(compromised) *
                       opts.compute_availability;  // expected in-pool count
      auto model = analysis::CompromiseFor(name, cp).ValueOrDie();
      std::printf("%-12zu %-10s %10zu /%zu %12zu /%zu %13.1f%% %13.1f%%\n",
                  compromised, name, log->NumLeakedRawTuples(), kTds,
                  log->NumLeakedGroups(), kGroups,
                  100 * model.raw_tuple_fraction,
                  100 * model.group_aggregate_fraction);
    }
    std::printf("\n");
  }
  std::printf("Reading: leakage grows with the compromised fraction for all "
              "protocols — confirming the paper's assessment that extending "
              "the threat model to compromised TDSs needs new mechanisms, "
              "not parameter tuning.\n");
  return 0;
}
