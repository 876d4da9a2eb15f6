// Umbrella header: the full public API of the DA-SC library.
//
// Include this for quick starts; production code should include the specific
// module headers it uses (they are all self-contained).
#ifndef DASC_DASC_H_
#define DASC_DASC_H_

#include "algo/baselines.h"      // IWYU pragma: export
#include "algo/exact.h"          // IWYU pragma: export
#include "algo/game.h"           // IWYU pragma: export
#include "algo/greedy.h"         // IWYU pragma: export
#include "algo/heuristics.h"     // IWYU pragma: export
#include "algo/local_search.h"   // IWYU pragma: export
#include "algo/registry.h"       // IWYU pragma: export
#include "core/assignment.h"     // IWYU pragma: export
#include "core/batch.h"          // IWYU pragma: export
#include "core/feasibility.h"    // IWYU pragma: export
#include "core/instance.h"       // IWYU pragma: export
#include "core/workload_stats.h" // IWYU pragma: export
#include "gen/meetup.h"          // IWYU pragma: export
#include "gen/perturb.h"         // IWYU pragma: export
#include "gen/synthetic.h"       // IWYU pragma: export
#include "geo/road_network.h"    // IWYU pragma: export
#include "graph/dag_stats.h"     // IWYU pragma: export
#include "io/instance_io.h"      // IWYU pragma: export
#include "io/svg_render.h"       // IWYU pragma: export
#include "sim/metrics.h"         // IWYU pragma: export
#include "sim/platform.h"        // IWYU pragma: export
#include "sim/simulator.h"       // IWYU pragma: export

#endif  // DASC_DASC_H_
