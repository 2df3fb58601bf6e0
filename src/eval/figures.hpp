// Figure reproduction sweeps.  Each function regenerates one plot of the
// paper's evaluation (§IV-B) as a printed table (x value + one column per
// algorithm) and, optionally, a CSV next to it.
//
//   Fig. 4    served users vs K (number of UAVs)
//   Fig. 5    served users vs n (number of users)
//   Fig. 6(a) served users vs s   }  one sweep produces
//   Fig. 6(b) running time vs s   }  both tables
#pragma once

#include <string>

#include "common/table.hpp"
#include "eval/experiment.hpp"

namespace uavcov::eval {

/// Common scale knobs for the figure sweeps.  Defaults reproduce the
/// paper's *shape* at laptop scale; EXPERIMENTS.md documents the mapping
/// to the paper's exact parameters (reachable via the bench flags).
struct FigureScale {
  std::int32_t users = 1500;       ///< paper: 3000.
  std::int32_t uavs = 20;          ///< paper: 20 (fig 5/6 fixed K).
  std::int32_t s = 2;              ///< paper: 3 (fig 4/5 fixed s).
  double cell_side_m = 300.0;      ///< paper: 50 (see DESIGN.md §3).
  std::int32_t candidate_cap = 40; ///< 0 = no cap.
  std::int32_t repetitions = 1;
  std::uint64_t seed = 7;
  std::int32_t threads = 1;        ///< approAlg workers (0 = hardware).
  std::string csv_path;            ///< empty = no CSV output.
};

/// Each sweep throws std::invalid_argument before any solve when its range
/// cannot run: min > max, a step below 1, or scale.repetitions below 1.

/// Fig. 4: K sweeps k_min..k_max (step k_step), fixed n and s.
Table fig4_served_vs_k(const FigureScale& scale, std::int32_t k_min = 2,
                       std::int32_t k_max = 20, std::int32_t k_step = 2);

/// Fig. 5: n sweeps n_min..n_max (step n_step), fixed K and s.
Table fig5_served_vs_n(const FigureScale& scale, std::int32_t n_min = 500,
                       std::int32_t n_max = 1500, std::int32_t n_step = 250);

/// Fig. 6: s sweeps s_min..s_max; returns served-users table and fills
/// `runtime_table` (Fig. 6(b)).
Table fig6_s_tradeoff(const FigureScale& scale, Table& runtime_table,
                      std::int32_t s_min = 1, std::int32_t s_max = 3);

}  // namespace uavcov::eval
