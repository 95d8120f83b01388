#pragma once
/// \file adaptive.hpp
/// \brief A posteriori accuracy probes for sampled interpolative bases.
///
/// The guarded HSS construction builds each node's row-ID from a column
/// sample and then checks it on fresh probe columns; these functions measure
/// that probe residual. An under-sampled basis therefore no longer fails
/// silently — the builder grows the sample until the probe passes or
/// reports the node as under-resolved.

#include <vector>

#include "lowrank/lowrank.hpp"

namespace hatrix::lr {

/// Largest per-column 2-norm of the interpolation error P - X·P(sel, :) of
/// a row interpolation (row-ID) evaluated on probe columns P, where `x` is
/// the interpolation factor (P.rows x k) and `sel` the k skeleton row
/// indices (absolute, not normalized; 0 for an empty probe). A localized miss — one near-field column the
/// sample never saw — cannot hide in this statistic the way it averages
/// away in a Frobenius ratio, which is why the guarded HSS builder checks
/// it against the operator's diagonal scale.
double interp_residual_maxcol(la::ConstMatrixView p, la::ConstMatrixView x,
                              const std::vector<index_t>& sel);

}  // namespace hatrix::lr
