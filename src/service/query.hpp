// Query-service request/response schema, framed with the shard wire codec.
//
// lpt_service sits above lpt_core / lpt_shard: clients submit LP-type
// queries (a point set for smallest enclosing disk, a half-plane set for 2D
// LP) and receive the canonical solution plus serving metadata (which
// engine ran, distributed rounds, solve compute time).  Requests and
// responses are plain structs with wire_put / wire_get overloads, so they
// ride the same ADL customization point as the shard runtime's frames: a
// sequence of them is one shard::put_seq, and every payload round-trips
// exactly — the service's bit-identity guarantee (a served solution equals
// the corresponding engine run bit-for-bit) extends across the wire.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/vec2.hpp"
#include "lp/halfplane.hpp"
#include "problems/linear_program2d.hpp"
#include "problems/min_disk.hpp"
#include "shard/wire.hpp"
#include "util/assert.hpp"

namespace lpt::service {

/// Problem kind of a query.  kMinDisk and kLp2d are served; the remaining
/// kinds are schema placeholders for problems the repository models but the
/// service does not yet route (they answer QueryStatus::kUnsupported rather
/// than failing the wire decode, so old clients stay compatible).
enum class QueryKind : std::uint8_t {
  kMinDisk = 1,
  kLp2d = 2,
  kMinBall = 3,
  kHittingSet = 4,
};

enum class QueryStatus : std::uint8_t {
  kOk = 1,
  kUnsupported = 2,
  kTransientFailure = 3,  // a distributed solve lost workers beyond its
                          // recovery budget (shard::ShardError); the
                          // service keeps serving — resubmit the query
};

/// Which backend produced the response's solution.
enum class EngineUsed : std::uint8_t {
  kNone = 0,         // unsupported kind: no solve ran
  kDirect = 1,       // sequential oracle (Welzl / Seidel) short-circuit
  kDistributed = 2,  // low-load Clarkson engine over gossip nodes
};

struct QueryRequest {
  std::uint64_t id = 0;    // client-chosen; echoed in the response
  QueryKind kind = QueryKind::kMinDisk;
  std::uint64_t seed = 0;  // distributed-engine seed material (see
                           // LptService::engine_config_for)
  std::vector<geom::Vec2> points;     // kMinDisk / kMinBall payload
  std::vector<lp::Halfplane> planes;  // kLp2d payload
  geom::Vec2 objective{0.0, -1.0};    // kLp2d: the c of "minimize c.x"

  friend bool operator==(const QueryRequest&, const QueryRequest&) = default;
};

struct QueryResponse {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kMinDisk;
  QueryStatus status = QueryStatus::kOk;
  EngineUsed engine = EngineUsed::kNone;
  problems::MinDiskSolution disk;  // kMinDisk solution (else empty)
  problems::Lp2dSolution lp;       // kLp2d solution (else default)
  std::uint32_t rounds = 0;        // distributed rounds to the optimum
  std::uint64_t solve_nanos = 0;   // compute time spent on this query: the
                                   // direct solve, or a distributed run's
                                   // set-up plus its rounds summed (not the
                                   // wall time since admission, which also
                                   // covers other queries' epochs)

  friend bool operator==(const QueryResponse&, const QueryResponse&) = default;
};

// --- Wire codecs (ADL: shard::put_seq / get_seq find these). -------------

inline void wire_put(gossip::Encoder& e, const QueryRequest& q) {
  e.put_u64(q.id);
  e.put_u8(static_cast<std::uint8_t>(q.kind));
  e.put_u64(q.seed);
  shard::put_seq(e, std::span<const geom::Vec2>(q.points));
  shard::put_seq(e, std::span<const lp::Halfplane>(q.planes));
  e.put(q.objective);
}

inline void wire_get(gossip::Decoder& d, QueryRequest& q) {
  q.id = d.get_u64();
  const std::uint8_t kind = d.get_u8();
  LPT_CHECK_MSG(kind >= 1 && kind <= 4, "service wire: unknown query kind");
  q.kind = static_cast<QueryKind>(kind);
  q.seed = d.get_u64();
  shard::get_seq(d, q.points);
  shard::get_seq(d, q.planes);
  q.objective = d.get_vec2();
}

inline void wire_put(gossip::Encoder& e, const QueryResponse& r) {
  e.put_u64(r.id);
  e.put_u8(static_cast<std::uint8_t>(r.kind));
  e.put_u8(static_cast<std::uint8_t>(r.status));
  e.put_u8(static_cast<std::uint8_t>(r.engine));
  wire_put(e, r.disk);  // problems:: codecs, found by ADL
  wire_put(e, r.lp);
  e.put_u32(r.rounds);
  e.put_u64(r.solve_nanos);
}

inline void wire_get(gossip::Decoder& d, QueryResponse& r) {
  r.id = d.get_u64();
  const std::uint8_t kind = d.get_u8();
  LPT_CHECK_MSG(kind >= 1 && kind <= 4, "service wire: unknown query kind");
  r.kind = static_cast<QueryKind>(kind);
  const std::uint8_t status = d.get_u8();
  LPT_CHECK_MSG(status >= 1 && status <= 3,
                "service wire: unknown query status");
  r.status = static_cast<QueryStatus>(status);
  const std::uint8_t engine = d.get_u8();
  LPT_CHECK_MSG(engine <= 2, "service wire: unknown engine tag");
  r.engine = static_cast<EngineUsed>(engine);
  wire_get(d, r.disk);
  wire_get(d, r.lp);
  r.rounds = d.get_u32();
  r.solve_nanos = d.get_u64();
}

}  // namespace lpt::service
