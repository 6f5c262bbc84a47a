#include "protocol/querier.h"

#include "sql/parser.h"

namespace tcells::protocol {

Result<ssi::QueryPost> Querier::MakePost(uint64_t query_id,
                                         const std::string& sql,
                                         Rng* rng) const {
  TCELLS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(sql));
  ssi::QueryPost post;
  post.query_id = query_id;
  Bytes sql_bytes(sql.begin(), sql.end());
  post.encrypted_query = keys_->k1_ndet().Encrypt(sql_bytes, rng);
  post.querier_id = id_;
  post.credential_mac = credential_;
  if (stmt.size) {
    post.size_max_tuples = stmt.size->max_tuples;
    post.size_max_duration_ticks = stmt.size->max_duration_ticks;
  }
  return post;
}

Result<sql::AnalyzedQuery> Querier::AnalyzeAgainst(
    const std::string& sql, const storage::Catalog& catalog) const {
  return sql::AnalyzeSql(sql, catalog);
}

Result<sql::QueryResult> Querier::DecryptResult(
    const sql::AnalyzedQuery& query,
    const std::vector<ssi::EncryptedItem>& items) const {
  sql::QueryResult result;
  result.schema = query.result_schema;
  for (const auto& item : items) {
    const std::span<const uint8_t> blob = item.blob();
    Bytes plain;
    TCELLS_RETURN_IF_ERROR(
        keys_->k1_ndet().Decrypt(blob.data(), blob.size(), &plain));
    TCELLS_ASSIGN_OR_RETURN(ssi::DecodedPayload payload,
                            ssi::DecodePayload(plain));
    if (payload.kind != ssi::PayloadKind::kResultRow) {
      return Status::Corruption("expected a result row");
    }
    TCELLS_ASSIGN_OR_RETURN(storage::Tuple row,
                            storage::Tuple::Decode(payload.body));
    result.rows.push_back(std::move(row));
  }
  // ORDER BY / LIMIT are querier-side: result order must not transit the SSI.
  TCELLS_RETURN_IF_ERROR(sql::ApplyOrderAndLimit(query, &result));
  return result;
}

}  // namespace tcells::protocol
