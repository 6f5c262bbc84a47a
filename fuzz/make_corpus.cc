// Regenerates the committed seed corpus under fuzz/corpus/ from one e2e run
// of each of the 5 protocols over a small generic fleet.
//
// Every stage of a real run is captured in the exact shape the matching
// harness consumes (selector byte + encoding, see the fuzz_*.cc headers):
// query posts, partitions, item streams, decrypted payloads and the SSI's
// adversary view for fuzz_ssi;
// k1/k2 ciphertext blobs for fuzz_crypto; collection/result tuples,
// GroupedAggregation bodies (tagged with their fuzz_specs.h query index) for
// fuzz_storage; frame streams, request frames and reply
// envelopes for fuzz_net; and the query texts plus edge-case statements for
// fuzz_sql.
//
// Everything is deterministic — fixed seeds, content-hash file names — so
// re-running the tool over an unchanged protocol stack reproduces the corpus
// bit-for-bit, and wire-format changes show up as a corpus diff.
//
// Usage: make_corpus [OUT_DIR]   (default: fuzz/corpus)
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/hex.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "frame_builders.h"
#include "fuzz_specs.h"
#include "net/loopback.h"
#include "net/ssi_client.h"
#include "net/ssi_node.h"
#include "net/ssi_wire.h"
#include "protocol/factory.h"
#include "protocol/protocols.h"
#include "sim/device_model.h"
#include "ssi/ssi.h"
#include "tds/access_control.h"
#include "workload/generic.h"

namespace tcells::fuzz {
namespace {

using protocol::ProtocolKind;
using ssi::EncryptedItem;
using ssi::Partition;
using storage::Tuple;
using storage::Value;

// Must match the keystore seed in fuzz_crypto.cc so the captured blobs are
// valid ciphertexts under the harness's keys.
constexpr uint64_t kKeySeed = 7;

class CorpusWriter {
 public:
  explicit CorpusWriter(std::filesystem::path root) : root_(std::move(root)) {}

  /// Writes `body` (prefixed with `selector` if >= 0) under
  /// `<root>/<harness>/<sha256 prefix>`. Content-addressed names make the
  /// corpus order-independent and deduplicate identical captures.
  void Add(const std::string& harness, int selector, const Bytes& body) {
    Bytes content;
    content.reserve(body.size() + 1);
    if (selector >= 0) content.push_back(static_cast<uint8_t>(selector));
    for (uint8_t b : body) content.push_back(b);
    auto digest = crypto::Sha256::Hash(content);
    std::string name = ToHex(digest.data(), 8);
    std::filesystem::path dir = root_ / harness;
    std::filesystem::create_directories(dir);
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char*>(content.data()),
              static_cast<std::streamsize>(content.size()));
    ++written_;
  }

  void AddText(const std::string& harness, const std::string& text) {
    Add(harness, -1, Bytes(text.begin(), text.end()));
  }

  size_t written() const { return written_; }

 private:
  std::filesystem::path root_;
  size_t written_ = 0;
};

const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

#define CHECK_OK(expr)                                                \
  do {                                                                \
    auto _status_like = (expr);                                       \
    if (!_status_like.ok()) {                                         \
      std::fprintf(stderr, "make_corpus: %s failed: %s\n", #expr,     \
                   StatusOf(_status_like).ToString().c_str());        \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

// Payloads a TDS decrypts with k2 during aggregation/filtering; payloads the
// querier decrypts with k1 at the end.
void CaptureItems(CorpusWriter* w, const crypto::KeyStore& keys,
                  const std::vector<EncryptedItem>& items, bool under_k1,
                  int storage_selector, size_t max_items) {
  size_t captured = 0;
  for (const EncryptedItem& item : items) {
    if (captured++ >= max_items) break;
    const Bytes blob(item.blob().begin(), item.blob().end());
    w->Add("crypto", under_k1 ? 2 : 0, blob);
    if (const auto tag = item.routing_tag()) {
      w->Add("crypto", 1, Bytes(tag->begin(), tag->end()));
    }
    const crypto::NDetEnc& enc = under_k1 ? keys.k1_ndet() : keys.k2_ndet();
    Result<Bytes> plain = enc.Decrypt(blob);
    if (!plain.ok()) continue;  // Det-tagged histogram blobs etc.
    w->Add("ssi", 3, *plain);
    Result<ssi::PayloadView> view =
        ssi::DecodePayloadView(plain->data(), plain->size());
    if (!view.ok()) continue;
    Bytes body(view->body, view->body + view->body_size);
    if (view->kind == ssi::PayloadKind::kPartialAgg) {
      if (storage_selector > 0) w->Add("storage", storage_selector, body);
    } else {
      w->Add("storage", 0, body);
    }
  }
}

int Run(const std::filesystem::path& out_dir) {
  CorpusWriter writer(out_dir);

  workload::GenericOptions gopts;
  gopts.num_tds = 6;
  gopts.num_groups = 3;
  gopts.rows_per_tds = 2;
  gopts.seed = kKeySeed;
  auto keys = crypto::KeyStore::CreateForTest(kKeySeed);
  auto authority = std::make_shared<tds::Authority>(Bytes(16, 0x55));
  auto fleet = workload::BuildGenericFleet(gopts, keys, authority,
                                           tds::AccessPolicy::AllowAll())
                   .ValueOrDie();
  protocol::Querier querier("fz", authority->Issue("fz"), keys);
  const auto& catalog = fleet->at(0)->db().catalog();

  // Prior knowledge for the Noise/ED_Hist protocols, as in the test suites.
  auto domain = std::make_shared<std::vector<Tuple>>();
  std::map<Tuple, uint64_t> freq;
  for (size_t g = 0; g < gopts.num_groups; ++g) {
    domain->push_back(Tuple({Value::String(workload::GroupName(g))}));
  }
  auto count_q =
      sql::AnalyzeSql("SELECT grp, COUNT(*) FROM T GROUP BY grp", catalog)
          .ValueOrDie();
  for (size_t i = 0; i < fleet->size(); ++i) {
    auto rows =
        sql::CollectionTuples(fleet->at(i)->db(), count_q).ValueOrDie();
    for (const auto& r : rows) freq[Tuple({r.at(0)})] += 1;
  }

  const std::vector<std::string> queries = SpecQueries();
  struct Case {
    ProtocolKind kind;
    /// Index into SpecQueries(), or -1 for the plain SFW query.
    int query_idx;
  };
  const std::vector<Case> cases = {
      {ProtocolKind::kBasicSfw, -1}, {ProtocolKind::kSAgg, 1},
      {ProtocolKind::kRnfNoise, 2},  {ProtocolKind::kCNoise, 0},
      {ProtocolKind::kEdHist, 1},
  };

  uint64_t query_id = 100;
  for (const Case& c : cases) {
    const std::string sql =
        c.query_idx < 0 ? "SELECT grp, val FROM T WHERE cat < 5"
                        : queries[static_cast<size_t>(c.query_idx)];
    writer.AddText("sql", sql);

    std::unique_ptr<protocol::Protocol> proto;
    switch (c.kind) {
      case ProtocolKind::kBasicSfw:
        proto = std::make_unique<protocol::BasicSfwProtocol>();
        break;
      case ProtocolKind::kSAgg:
        proto = std::make_unique<protocol::SAggProtocol>();
        break;
      case ProtocolKind::kRnfNoise:
        proto = std::make_unique<protocol::NoiseProtocol>(false, domain);
        break;
      case ProtocolKind::kCNoise:
        proto = std::make_unique<protocol::NoiseProtocol>(true, domain);
        break;
      case ProtocolKind::kEdHist:
        proto = protocol::EdHistProtocol::FromDistribution(freq, 2);
        break;
    }

    auto analyzed = sql::AnalyzeSql(sql, catalog);
    CHECK_OK(analyzed);

    protocol::RunOptions opts;
    opts.compute_availability = 1.0;
    opts.expected_groups = gopts.num_groups;
    opts.seed = 1000 + query_id;
    opts.num_threads = 1;

    net::SsiNode node;
    net::LoopbackTransport transport(node.handler());
    net::SsiClient client(&transport);
    protocol::ParallelExecutor executor(opts.num_threads);
    protocol::RunContext ctx(fleet.get(), &client, &executor, query_id,
                             sim::DeviceModel(), opts);

    Rng post_rng(Rng::Keyed(opts.seed, RngDomain::kPost));
    auto post = querier.MakePost(query_id, sql, &post_rng);
    CHECK_OK(post);
    CHECK_OK(client.PostGlobal(*post));
    writer.Add("ssi", 0, post->Encode());

    auto config = proto->MakeCollectionConfig(ctx, *analyzed);
    CHECK_OK(config);

    Rng collect_rng(opts.seed ^ 0xc011ec7);
    std::vector<EncryptedItem> items;
    for (size_t i = 0; i < fleet->size(); ++i) {
      auto contribution =
          fleet->at(i)->ProcessCollection(*post, *config, &collect_rng);
      CHECK_OK(contribution);
      CHECK_OK(client.UploadCollection(query_id, fleet->at(i)->id(),
                                       *contribution));
      items.insert(items.end(), contribution->begin(), contribution->end());
    }

    Partition collected;
    collected.items = items;
    writer.Add("ssi", 1, collected.Encode());
    // A short item vector for the adopt-then-free decoder mode.
    Bytes head;
    const size_t head_items = std::min<size_t>(3, items.size());
    ssi::EncodeItemsTo(std::span(items).first(head_items), &head);
    writer.Add("ssi", 2, head);
    CaptureItems(&writer, *keys, items, /*under_k1=*/false,
                 /*storage_selector=*/-1, /*max_items=*/4);

    auto aggregated =
        proto->RunAggregation(ctx, *analyzed, *config, std::move(items));
    CHECK_OK(aggregated);
    CaptureItems(&writer, *keys, *aggregated, /*under_k1=*/false,
                 1 + c.query_idx, /*max_items=*/4);

    Partition covering;
    covering.items = *aggregated;
    Rng filter_rng(opts.seed ^ 0xf117e4);
    auto result_items =
        fleet->at(0)->ProcessFiltering(*analyzed, covering, *config,
                                       &filter_rng);
    CHECK_OK(result_items);
    CaptureItems(&writer, *keys, *result_items, /*under_k1=*/true,
                 /*storage_selector=*/-1, /*max_items=*/4);

    // The run's adversary view, as the node reports it.
    CHECK_OK(client.ObserveAggregation(query_id, covering.items));
    CHECK_OK(client.DeliverResult(query_id, *result_items));
    auto view = client.GetAdversaryView(query_id);
    CHECK_OK(view);
    Bytes view_bytes;
    view->EncodeTo(&view_bytes);
    writer.Add("ssi", 4, view_bytes);

    ++query_id;
  }

  // SQL-only seeds: the WHERE-feature set exercised by the property suite
  // plus statements that pin lexer/parser edge cases.
  const std::vector<std::string> extra_sql = {
      "SELECT grp, COUNT(*) FROM T WHERE cat < 5 GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE cat BETWEEN 2 AND 7 GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE cat IN (0, 3, 9) GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE cat NOT IN (1, 2) GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE grp LIKE 'G0_' GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE grp NOT LIKE '%2' GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE grp IS NOT NULL AND val > 10.0 "
      "GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE NOT (cat = 0 OR cat = 1) GROUP BY "
      "grp",
      "SELECT grp, COUNT(*) FROM T WHERE val / 2 + 1 > cat * 3 GROUP BY grp",
      "SELECT grp, COUNT(*) FROM T WHERE cat % 3 = 0 OR FALSE GROUP BY grp",
      "SELECT DISTINCT grp FROM T ORDER BY grp DESC LIMIT 2",
      "SELECT t.grp AS g, -val FROM T t WHERE t.grp = 'it''s' SIZE 10",
      "SELECT ((((val))))+1.5e2 FROM T HAVING COUNT(*) > 0",
  };
  for (const std::string& s : extra_sql) writer.AddText("sql", s);

  // ---- fuzz_net seeds: frame streams, request frames, reply envelopes ----
  {
    const ssi::EncryptedItem tagged(Bytes(12, 0xA1), Bytes(4, 0x5C));
    const ssi::EncryptedItem plain(Bytes(8, 0xB2));
    Partition partition;
    partition.items = {tagged, plain};
    Bytes partition_bytes = partition.Encode();

    // Selector 0: receive-buffer streams. Two complete frames plus a
    // truncated third (needs-more-bytes path), and a hostile length prefix
    // (the pre-allocation rejection path).
    Bytes stream;
    net::AppendFrame(&stream, partition_bytes);
    net::AppendFrame(&stream, Bytes());
    Bytes truncated;
    net::AppendFrame(&truncated, partition_bytes);
    truncated.resize(truncated.size() - 3);
    for (uint8_t b : truncated) stream.push_back(b);
    writer.Add("net", 0, stream);
    writer.Add("net", 0, Bytes{0xff, 0xff, 0xff, 0xff, 0x00});

    // Selector 1: request frames in the exact shape SsiClient emits — a
    // batch of one call (u8 message type + fields) — plus an unknown-type
    // call.
    uint64_t correlation_id = 1;
    auto call = [](net::MsgType type, const Bytes& body) {
      Bytes req;
      ByteWriter w(&req);
      w.PutU8(static_cast<uint8_t>(type));
      w.PutRaw(body.data(), body.size());
      return req;
    };
    auto request = [&](net::MsgType type, const Bytes& body) {
      const Bytes payload = call(type, body);
      writer.Add("net", 1,
                 net::EncodeBatchFrame({{correlation_id++, payload}}));
    };
    Rng post_rng(kKeySeed);
    auto net_post = querier.MakePost(900, "SELECT grp, val FROM T", &post_rng);
    CHECK_OK(net_post);
    request(net::MsgType::kPostGlobal, net_post->Encode());
    Bytes stage_body;
    {
      ByteWriter w(&stage_body);
      w.PutU64(900);
      w.PutU64(0);
      w.PutRaw(partition_bytes.data(), partition_bytes.size());
    }
    request(net::MsgType::kStagePartition, stage_body);
    Bytes qid_body;
    ByteWriter(&qid_body).PutU64(900);
    request(net::MsgType::kFetchPosts, qid_body);
    request(net::MsgType::kRetire, qid_body);
    const Bytes unknown_type = {0xEE, 0x01, 0x02, 0x03};
    writer.Add("net", 1,
               net::EncodeBatchFrame({{correlation_id++, unknown_type}}));
    // One query's whole life in one frame: the post, a round on token 0,
    // the result, and the retire. Every per-query call finds the record.
    Bytes token_body;
    {
      ByteWriter w(&token_body);
      w.PutU64(900);
      w.PutU64(0);
    }
    Bytes deliver_body = qid_body;
    deliver_body.insert(deliver_body.end(), partition_bytes.begin(),
                        partition_bytes.end());
    const std::vector<Bytes> life_calls = {
        call(net::MsgType::kPostGlobal, net_post->Encode()),
        call(net::MsgType::kStagePartition, stage_body),
        call(net::MsgType::kFetchPartition, token_body),
        call(net::MsgType::kUploadRoundOutput, stage_body),
        call(net::MsgType::kTakeRoundOutput, token_body),
        call(net::MsgType::kDeliverResult, deliver_body),
        call(net::MsgType::kFetchResult, qid_body),
        call(net::MsgType::kRetire, qid_body)};
    // The calls are views into life_calls, which outlives the encode.
    std::vector<net::BatchCall> life;
    for (const Bytes& payload : life_calls) {
      life.push_back({correlation_id++, payload});
    }
    writer.Add("net", 1, net::EncodeBatchFrame(life));
    // A key refresh in one frame: an epoch block is posted, then fetched
    // holding its tag (the empty "current" reply) and holding none (the
    // whole block).
    const Bytes epoch_block = {0xE0, 0xE1, 0xE2};
    Bytes held_body;
    Bytes fresh_body;
    {
      ByteWriter held(&held_body);
      held.PutU64(3);  // tds_id
      held.PutU64(ssi::EpochBlockTag(epoch_block));
      ByteWriter fresh(&fresh_body);
      fresh.PutU64(3);
      fresh.PutU64(0);
    }
    const std::vector<Bytes> refresh_calls = {
        call(net::MsgType::kPostEpochBlock, epoch_block),
        call(net::MsgType::kFetchEpochBlock, held_body),
        call(net::MsgType::kFetchEpochBlock, fresh_body)};
    std::vector<net::BatchCall> refresh;
    for (const Bytes& payload : refresh_calls) {
      refresh.push_back({correlation_id++, payload});
    }
    writer.Add("net", 1, net::EncodeBatchFrame(refresh));

    // Selector 2: reply envelopes — OK wrapping a partition, an encoded
    // application error, and a garbage status code.
    writer.Add("net", 2, net::EncodeReplyOk(partition_bytes));
    writer.Add("net", 2,
               net::EncodeReplyError(Status::NotFound("no such query")));
    writer.Add("net", 2, Bytes{99, 0x41, 0x42});

    // Selector 3: multi-call batch envelopes (and the two-call frame as
    // selector-1 node input too). A real two-call batch in the exact shape
    // the batched client emits, a single-call batch, and a hostile call
    // count that must be rejected before any allocation.
    Bytes ack_body;
    {
      ByteWriter w(&ack_body);
      w.PutU64(3);    // tds_id
      w.PutU64(900);  // query_id
    }
    Bytes ack_frame;
    {
      ByteWriter w(&ack_frame);
      w.PutU8(static_cast<uint8_t>(net::MsgType::kAcknowledge));
      w.PutRaw(ack_body.data(), ack_body.size());
    }
    Bytes fetch_frame;
    {
      ByteWriter w(&fetch_frame);
      w.PutU8(static_cast<uint8_t>(net::MsgType::kFetchPosts));
      w.PutRaw(qid_body.data(), qid_body.size());
    }
    std::vector<net::BatchCall> batch;
    batch.push_back({/*correlation_id=*/41, ack_frame});
    batch.push_back({/*correlation_id=*/42, fetch_frame});
    Bytes batch_frame = net::EncodeBatchFrame(batch);
    writer.Add("net", 3, batch_frame);
    writer.Add("net", 1, batch_frame);
    writer.Add("net", 3,
               net::EncodeBatchFrame({{/*correlation_id=*/1, fetch_frame}}));
    // Header claiming 2^32-1 calls with no room for even one.
    Bytes hostile;
    {
      ByteWriter w(&hostile);
      w.PutU8(net::kBatchMagic);
      w.PutU8(net::kBatchVersion);
      w.PutU32(0xffffffff);
    }
    writer.Add("net", 3, hostile);
  }

  std::printf("make_corpus: wrote %zu files under %s\n", writer.written(),
              out_dir.string().c_str());
  return 0;
}

}  // namespace
}  // namespace tcells::fuzz

int main(int argc, char** argv) {
  std::filesystem::path out = argc > 1 ? argv[1] : "fuzz/corpus";
  return tcells::fuzz::Run(out);
}
