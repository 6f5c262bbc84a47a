// Quickstart: run one privacy-preserving GROUP BY query over a small fleet
// of simulated Trusted Data Servers and check it against the plaintext
// oracle.
//
//   $ ./quickstart
//
// Walks through the full pipeline: key provisioning, fleet construction,
// distribution discovery, the ED_Hist protocol, and result decryption.
#include <cstdio>

#include "protocol/discovery.h"
#include "protocol/reference.h"
#include "tcells/tcells.h"

using namespace tcells;

int main() {
  // 1. Provision the deployment: symmetric keys k1 (querier<->TDS) and k2
  //    (TDS<->TDS), and the authority that signs querier credentials.
  auto keys = crypto::KeyStore::CreateForTest(/*seed=*/1);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x5a));

  // 2. Build a fleet of 200 smart-meter TDSs over 8 districts. Each TDS
  //    holds its own Consumer row and Power readings; nothing is shared.
  workload::SmartMeterOptions opts;
  opts.num_tds = 200;
  opts.num_districts = 8;
  opts.readings_per_tds = 3;
  auto fleet_or = workload::BuildSmartMeterFleet(
      opts, keys, authority, tds::AccessPolicy::AllowAll());
  if (!fleet_or.ok()) {
    std::fprintf(stderr, "fleet: %s\n", fleet_or.status().ToString().c_str());
    return 1;
  }
  auto fleet = std::move(fleet_or).ValueOrDie();

  // 3. The energy company is a credentialed querier sharing k1.
  protocol::Querier querier("energy-co", authority->Issue("energy-co"), keys);

  const std::string sql =
      "SELECT C.district, AVG(P.cons), COUNT(*) "
      "FROM Power P, Consumer C "
      "WHERE C.cid = P.cid GROUP BY C.district";

  // 4. The Engine owns the fleet, the simulated device profile and the SSI
  //    stack; every query below goes through it.
  Engine::Config config;
  config.options.compute_availability = 0.1;  // 10% of meters online
  auto engine_or = Engine::Create(std::move(fleet), config);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "engine: %s\n",
                 engine_or.status().ToString().c_str());
    return 1;
  }
  auto engine = std::move(engine_or).ValueOrDie();

  // 5. ED_Hist needs the district distribution: discover it with a secure
  //    S_Agg COUNT(*) round (no plaintext ever reaches the server).
  auto discovered = engine->DiscoverInputs(querier, /*query_id=*/1, sql);
  if (!discovered.ok()) {
    std::fprintf(stderr, "discovery: %s\n",
                 discovered.status().ToString().c_str());
    return 1;
  }
  std::printf("discovered %zu district groups via secure COUNT(*)\n",
              discovered->distribution.size());

  // 6. Run the query with the equi-depth histogram protocol.
  auto protocol =
      protocol::EdHistProtocol::FromDistribution(discovered->distribution, 4);
  auto outcome = engine->Run(*protocol, querier, /*query_id=*/2, sql);
  if (!outcome.ok()) {
    std::fprintf(stderr, "run: %s\n", outcome.status().ToString().c_str());
    return 1;
  }

  std::printf("\nquery : %s\nresult:\n%s", sql.c_str(),
              outcome->result.ToString().c_str());

  // 7. Cross-check against a trusted centralized evaluation.
  auto oracle = protocol::ExecuteReference(engine->fleet(), sql);
  bool match = oracle.ok() && outcome->result.SameRows(*oracle);
  std::printf("\nmatches plaintext oracle: %s\n", match ? "yes" : "NO");

  // 8. What did it cost, and what did the untrusted server learn?
  const auto& m = outcome->metrics;
  std::printf("\nP_TDS=%zu  Load_Q=%llu B  T_Q=%.4f s  T_local=%.6f s\n",
              m.Ptds(), static_cast<unsigned long long>(m.LoadBytes()),
              m.Tq(), m.Tlocal(engine->device()));
  std::printf("SSI observed %llu ciphertext items and %zu distinct bucket "
              "hashes (never a plaintext district).\n",
              static_cast<unsigned long long>(
                  outcome->adversary.collection_items),
              outcome->adversary.collection_tag_histogram.size());
  return match ? 0 : 1;
}
