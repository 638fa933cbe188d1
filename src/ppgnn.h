// Umbrella header for the PPGNN library.
//
// Reproduction of "Privacy Preserving Group Nearest Neighbor Search"
// (Wu, Wang, Zhang, Lin, Chen — EDBT 2018). See README.md for a
// quickstart and DESIGN.md for the system map.

#ifndef PPGNN_PPGNN_H_
#define PPGNN_PPGNN_H_

#include "baselines/apnn.h"     // IWYU pragma: export
#include "baselines/geoind.h"   // IWYU pragma: export
#include "baselines/glp.h"      // IWYU pragma: export
#include "baselines/ippf.h"     // IWYU pragma: export
#include "bigint/bigint.h"      // IWYU pragma: export
#include "bigint/modular.h"     // IWYU pragma: export
#include "bigint/montgomery.h"  // IWYU pragma: export
#include "bigint/prime.h"       // IWYU pragma: export
#include "common/failpoint.h"   // IWYU pragma: export
#include "common/random.h"      // IWYU pragma: export
#include "common/status.h"      // IWYU pragma: export
#include "core/attack.h"        // IWYU pragma: export
#include "core/candidate.h"     // IWYU pragma: export
#include "core/dummy.h"         // IWYU pragma: export
#include "core/indicator.h"     // IWYU pragma: export
#include "core/params.h"        // IWYU pragma: export
#include "core/partition.h"     // IWYU pragma: export
#include "core/protocol.h"      // IWYU pragma: export
#include "core/sanitize.h"      // IWYU pragma: export
#include "core/selection.h"     // IWYU pragma: export
#include "core/wire.h"          // IWYU pragma: export
#include "crypto/key_io.h"      // IWYU pragma: export
#include "crypto/paillier.h"    // IWYU pragma: export
#include "crypto/poi_codec.h"   // IWYU pragma: export
#include "geo/aggregate.h"      // IWYU pragma: export
#include "geo/distance_oracle.h"  // IWYU pragma: export
#include "geo/point.h"          // IWYU pragma: export
#include "geo/rect.h"           // IWYU pragma: export
#include "net/latency.h"        // IWYU pragma: export
#include "net/transport/chaos_proxy.h"  // IWYU pragma: export
#include "net/transport/fleet.h"  // IWYU pragma: export
#include "net/transport/frame.h"  // IWYU pragma: export
#include "net/transport/socket.h"  // IWYU pragma: export
#include "net/transport/tcp_link.h"  // IWYU pragma: export
#include "net/transport/tcp_server.h"  // IWYU pragma: export
#include "roadnet/dijkstra.h"   // IWYU pragma: export
#include "roadnet/graph.h"      // IWYU pragma: export
#include "roadnet/road_gnn.h"   // IWYU pragma: export
#include "service/cost_model.h" // IWYU pragma: export
#include "service/lsp_service.h"  // IWYU pragma: export
#include "service/reply_cache.h"  // IWYU pragma: export
#include "service/resilient_client.h"  // IWYU pragma: export
#include "service/shard_coordinator.h"  // IWYU pragma: export
#include "service/workload.h"   // IWYU pragma: export
#include "spatial/dataset.h"    // IWYU pragma: export
#include "spatial/gnn.h"        // IWYU pragma: export
#include "spatial/knn.h"        // IWYU pragma: export
#include "spatial/rtree.h"      // IWYU pragma: export
#include "stats/hypothesis.h"   // IWYU pragma: export
#include "stats/normal.h"       // IWYU pragma: export

#endif  // PPGNN_PPGNN_H_
