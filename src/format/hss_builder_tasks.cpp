#include "format/hss_builder_tasks.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "lowrank/adaptive.hpp"
#include "runtime/thread_pool_executor.hpp"

namespace hatrix::fmt {

namespace {

/// Row interpolative decomposition: F ≈ X · F(sel, :) with X(sel, :) = I.
struct RowId {
  std::vector<index_t> sel;  ///< selected (skeleton) row indices into F
  Matrix x;                  ///< interpolation factor, F.rows x rank
  index_t rank = 0;
};

RowId row_id(la::ConstMatrixView f, index_t max_rank, double tol) {
  RowId out;
  Matrix ft = la::transpose(f);
  const double abs_tol = tol > 0.0 ? tol * la::norm_fro(ft.view()) : 0.0;
  auto pq = la::pivoted_qr(ft.view(), max_rank, abs_tol, /*want_q=*/false);
  const index_t k = pq.rank;
  out.rank = k;
  out.x = Matrix(f.rows, k);
  if (k == 0) return out;

  // Fᵀ P = Q R  =>  row perm[j] of F is (R11⁻¹ R(:,j))ᵀ times the skeleton
  // rows (the first k pivots).
  Matrix t = Matrix::from_view(pq.r.view());  // k x f.rows
  la::trsm(la::Side::Left, la::UpLo::Upper, la::Trans::No, la::Diag::NonUnit, 1.0,
           pq.r.block(0, 0, k, k), t.view());
  for (index_t j = 0; j < f.rows; ++j)
    for (index_t i = 0; i < k; ++i)
      out.x(pq.perm[static_cast<std::size_t>(j)], i) = t(i, j);
  out.sel.reserve(static_cast<std::size_t>(k));
  for (index_t i = 0; i < k; ++i)
    out.sel.push_back(pq.perm[static_cast<std::size_t>(i)]);
  return out;
}

/// Per-node deterministic seed (splitmix64 finalizer over seed/level/node):
/// every task owns its sampling stream, so execution order cannot change
/// the result.
std::uint64_t node_seed(std::uint64_t seed, int level, index_t i) {
  std::uint64_t z = seed;
  z ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(level) + 1);
  z ^= 0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(i) + 2);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Incremental sampler over the complement of [begin, end) in [0, n):
/// hands out distinct column indices and remembers what it gave, so probe
/// columns are always fresh and growth never re-evaluates a column.
class ComplementSampler {
 public:
  ComplementSampler(index_t n, index_t begin, index_t end, Rng& rng)
      : n_(n), begin_(begin), end_(end), rng_(&rng) {}

  [[nodiscard]] index_t complement_size() const { return n_ - (end_ - begin_); }
  [[nodiscard]] index_t drawn() const { return static_cast<index_t>(chosen_.size()); }
  [[nodiscard]] bool exhausted() const { return drawn() >= complement_size(); }

  /// Up to `count` new distinct complement columns, uniformly at random
  /// (sorted). Falls back to enumerating the leftovers when the complement
  /// is nearly used up, so it always makes progress.
  std::vector<index_t> draw_random(index_t count) {
    const index_t remaining = complement_size() - drawn();
    count = std::min(count, remaining);
    std::vector<index_t> out;
    if (count <= 0) return out;
    out.reserve(static_cast<std::size_t>(count));
    if (count >= remaining || 4 * drawn() >= 3 * complement_size()) {
      // Dense regime: enumerate what is left, shuffle, take the head.
      std::vector<index_t> left;
      left.reserve(static_cast<std::size_t>(remaining));
      for (index_t j = 0; j < n_; ++j)
        if ((j < begin_ || j >= end_) && !chosen_.count(j)) left.push_back(j);
      std::shuffle(left.begin(), left.end(), rng_->engine());
      left.resize(static_cast<std::size_t>(count));
      for (index_t j : left) chosen_.insert(j);
      out = std::move(left);
    } else {
      while (static_cast<index_t>(out.size()) < count) {
        index_t j = rng_->index(complement_size());
        if (j >= begin_) j += end_ - begin_;  // skip the node's own interval
        if (chosen_.insert(j).second) out.push_back(j);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Up to `count` new columns nearest the interval boundary, walking
  /// outward alternately below `begin` and above `end`. Tree ordering keeps
  /// spatial neighbors index-adjacent, so these columns carry the
  /// near-range interactions a uniform sample is most likely to miss.
  std::vector<index_t> draw_adjacent(index_t count) {
    std::vector<index_t> out;
    index_t lo = begin_ - 1, hi = end_;
    while (static_cast<index_t>(out.size()) < count && (lo >= 0 || hi < n_)) {
      if (lo >= 0) {
        if (chosen_.insert(lo).second) out.push_back(lo);
        --lo;
      }
      if (static_cast<index_t>(out.size()) < count && hi < n_) {
        if (chosen_.insert(hi).second) out.push_back(hi);
        ++hi;
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  index_t n_, begin_, end_;
  Rng* rng_;
  std::unordered_set<index_t> chosen_;
};

/// Outcome of the guarded interpolative compression of one node.
struct Guarded {
  RowId id;
  index_t samples = 0;
  double residual = 0.0;
  index_t growths = 0;
  index_t rank_escapes = 0;
};

/// One-line diagnostic per rank-cap escalation; kept to a single stream
/// write because build tasks run concurrently.
void rank_escape_note(int level, index_t node, index_t new_cap, double residual,
                      double guard_tol) {
  std::cerr << "[hatrix] guard: node (" + std::to_string(level) + "," +
                   std::to_string(node) + ") probe residual " +
                   std::to_string(residual) + " > " + std::to_string(guard_tol) +
                   " is pinned at the rank-truncation floor; raising rank cap to " +
                   std::to_string(new_cap) + "\n";
}

/// Operator diagonal scale max |A(i,i)| over a deterministic subsample. For
/// an SPD matrix |A(i,j)| <= sqrt(A(i,i) A(j,j)), so this bounds every
/// entry and serves as the ||A|| proxy the guard normalizes against.
double diag_scale(const BlockAccessor& acc) {
  const index_t n = acc.size();
  const index_t m = std::min<index_t>(n, 256);
  double s = 0.0;
  for (index_t t = 0; t < m; ++t) {
    const index_t i = t * n / m;
    Matrix e = acc.block(i, i, 1, 1);
    s = std::max(s, std::abs(e(0, 0)));
  }
  return s > 0.0 ? s : 1.0;
}

/// Compress the block row A(rows, complement of [begin, end)) by row-ID,
/// growing the column sample until the accuracy guard's probe passes (see
/// HSSOptions). Exact (full-complement) compressions are always accepted.
Guarded guarded_row_id(const BlockAccessor& acc, const std::vector<index_t>& rows,
                       index_t begin, index_t end, const HSSOptions& opts,
                       double scale, int level, index_t node, Rng& rng) {
  const index_t n = acc.size();
  ComplementSampler sampler(n, begin, end, rng);
  const index_t comp = sampler.complement_size();
  Guarded out;

  if (opts.sample_cols == 0 || opts.sample_cols >= comp) {
    // Exact path: compress against the whole off-diagonal block row.
    Matrix f = acc.gather(rows, sampler.draw_random(comp));
    out.id = row_id(f.view(), opts.max_rank, opts.tol);
    out.samples = comp;
    return out;
  }

  const bool guarded = opts.guard_tol > 0.0;
  const bool escape = guarded && opts.rank_escape;
  const index_t cap =
      opts.max_sample_cols > 0 ? std::min(opts.max_sample_cols, comp) : comp;
  // The rank cap starts at max_rank but may escalate (below) when the probe
  // residual is pinned at the truncation floor; it can never exceed the
  // block row count, which keeps every downstream ULV invariant (k <= m).
  index_t rank_cap = opts.max_rank;
  const index_t rank_limit = static_cast<index_t>(rows.size());
  double prev_residual = std::numeric_limits<double>::infinity();
  Matrix f = acc.gather(rows, sampler.draw_random(std::min(opts.sample_cols, cap)));

  for (;;) {
    out.id = row_id(f.view(), rank_cap, opts.tol);
    out.samples = f.cols();
    if (!guarded) return out;
    if (sampler.exhausted()) {
      // The sample reached the full complement, so coverage is exact and any
      // residual left over is pure rank truncation. If the ID is pinned at
      // the cap while the guard was still failing, raise the cap until the
      // truncation is no longer the binding constraint.
      while (escape && out.id.rank >= rank_cap && rank_cap < rank_limit &&
             prev_residual > opts.guard_tol) {
        rank_cap = std::min(rank_limit, 2 * rank_cap);
        ++out.rank_escapes;
        rank_escape_note(level, node, rank_cap, prev_residual, opts.guard_tol);
        out.id = row_id(f.view(), rank_cap, opts.tol);
      }
      out.residual = 0.0;
      return out;
    }

    // Fresh probe columns: half adjacent to the node's interval (tree order
    // preserves locality, so these expose missed near-range interactions),
    // half uniform over the unseen complement.
    const index_t want = std::max<index_t>(opts.guard_probe_cols, 4);
    std::vector<index_t> probe = sampler.draw_adjacent(want / 2);
    std::vector<index_t> extra =
        sampler.draw_random(want - static_cast<index_t>(probe.size()));
    probe.insert(probe.end(), extra.begin(), extra.end());
    if (probe.empty()) {  // complement fully consumed: exact
      out.residual = 0.0;
      return out;
    }
    Matrix p = acc.gather(rows, probe);
    // Worst per-column interpolation error relative to the operator scale:
    // max_j ||p_j - X p_j(sel)||_2 / max|A(i,i)|. Normalizing by the
    // operator (not the probe norm) keeps the guard from chasing the rank
    // truncation floor of near-boundary columns on strongly diagonally
    // dominant kernels; taking the worst column (not an average) keeps one
    // missed near-field column from hiding among far-field probes — that
    // localized leakage is exactly what pushes eigenvalues below zero.
    out.residual =
        lr::interp_residual_maxcol(p.view(), out.id.x.view(), out.id.sel) / scale;
    if (out.residual <= opts.guard_tol) return out;

    // Probe-floor detection: the ID is pinned at the rank cap and either a
    // growth round barely moved the residual (more columns will not help;
    // more rank will) or the sample cannot grow any further. Escalate the
    // cap and recompress the existing sample before spending more samples.
    if (escape && out.id.rank >= rank_cap && rank_cap < rank_limit &&
        ((out.growths > 0 && out.residual > 0.5 * prev_residual) ||
         out.samples >= cap)) {
      rank_cap = std::min(rank_limit, 2 * rank_cap);
      ++out.rank_escapes;
      rank_escape_note(level, node, rank_cap, out.residual, opts.guard_tol);
      prev_residual = out.residual;
      f = la::hconcat({f.view(), p.view()});  // probe is already evaluated
      continue;
    }
    prev_residual = out.residual;
    if (out.samples >= cap && cap < comp)
      throw BasisUnderResolvedError(level, node, out.samples, out.residual,
                                    opts.guard_tol);

    // Grow: the failed probe joins the sample (its columns are already
    // evaluated), topped up with fresh random columns to the geometric
    // target.
    ++out.growths;
    f = la::hconcat({f.view(), p.view()});
    const auto target = static_cast<index_t>(
        std::llround(opts.sample_growth * static_cast<double>(out.samples)));
    const index_t top_up = std::min(cap, target) - f.cols();
    if (top_up > 0) {
      auto more = sampler.draw_random(top_up);
      if (!more.empty()) f = la::hconcat({f.view(), acc.gather(rows, more).view()});
    }
  }
}

}  // namespace

HSSBuildDag emit_hss_build_dag(const BlockAccessor& acc, const HSSOptions& opts,
                               rt::TaskGraph& graph, rt::ReleaseMode release) {
  const index_t n = acc.size();
  const int L = hss_levels(n, opts.leaf_size);

  HSSBuildDag dag;
  dag.state = std::make_shared<HSSBuildState>();
  auto& st = *dag.state;
  st.acc = &acc;
  st.opts = opts;
  st.scale = opts.guard_tol > 0.0 ? diag_scale(acc) : 1.0;
  st.h = HSSMatrix(n, L);
  assign_hss_intervals(st.h);
  st.st.resize(static_cast<std::size_t>(L) + 1);
  dag.node_data.resize(static_cast<std::size_t>(L) + 1);
  dag.coupling_data.resize(static_cast<std::size_t>(L) + 1);
  for (int l = 0; l <= L; ++l) {
    st.st[static_cast<std::size_t>(l)].resize(
        static_cast<std::size_t>(st.h.num_nodes(l)));
    auto& ndd = dag.node_data[static_cast<std::size_t>(l)];
    for (index_t i = 0; i < st.h.num_nodes(l); ++i) {
      const auto& nd = st.h.node(l, i);
      // Handle bytes are shape estimates (rank is unknown until the task
      // runs); they only feed mapping/communication models, never numerics.
      ndd.push_back(graph.register_data(
          "node(" + std::to_string(l) + "," + std::to_string(i) + ")",
          nd.block_size() * opts.max_rank * 8));
    }
    if (l >= 1) {
      auto& cdd = dag.coupling_data[static_cast<std::size_t>(l)];
      for (index_t t = 0; t < st.h.num_pairs(l); ++t) {
        const rt::DataId cd = graph.register_data(
            "S(" + std::to_string(l) + "," + std::to_string(t) + ")",
            opts.max_rank * opts.max_rank * 8);
        // Couplings are part of the finished matrix: the final MERGE_SAMPLE
        // write is the point of the build, never a dead store, and the
        // block must survive to extraction.
        graph.mark_output(cd);
        cdd.push_back(cd);
      }
    }
  }

  auto stp = dag.state;

  // Early release: a node handle's last use retires the carried-up sampling
  // state (rfac + skeleton indices) — the basis/diag it also guards belong
  // to the finished matrix and are left alone. Couplings are outputs, so
  // the hook never sees them.
  if (release != rt::ReleaseMode::None) {
    std::unordered_map<rt::DataId, std::pair<int, index_t>> node_of;
    for (int l = 0; l <= L; ++l)
      for (index_t i = 0; i < st.h.num_nodes(l); ++i)
        node_of[dag.node_data[static_cast<std::size_t>(l)]
                             [static_cast<std::size_t>(i)]] = {l, i};
    const bool poison = release == rt::ReleaseMode::Poison;
    graph.set_release_hook([stp, node_of, poison](rt::DataId d) {
      const auto it = node_of.find(d);
      if (it == node_of.end()) return;
      auto& s = stp->st[static_cast<std::size_t>(it->second.first)]
                       [static_cast<std::size_t>(it->second.second)];
      if (poison) {
        la::fill(s.rfac.view(), std::numeric_limits<double>::quiet_NaN());
        std::fill(s.skel.begin(), s.skel.end(), index_t{0});
      } else {
        s.rfac = Matrix();
        s.skel.clear();
        s.skel.shrink_to_fit();
      }
    });
  }

  if (L == 0) {
    // The lone leaf IS the finished matrix.
    graph.mark_output(dag.node_data[0][0]);
    graph.insert_task(
        "COMPRESS(0,0)", "compress", {n},
        [stp] {
          auto& nd = stp->h.node(0, 0);
          nd.diag = stp->acc->block(0, 0, nd.block_size(), nd.block_size());
        },
        {{dag.node_data[0][0], rt::Access::ReadWrite}}, /*priority=*/0,
        /*phase=*/0);
    return dag;
  }

  // Cost-model annotation shared by the compress/transfer kinds: the
  // far-field columns a node initially samples (the guard may grow it, but
  // the initial sample prices the common case; 0 sample_cols means exact
  // construction against the full complement).
  auto sample_dim = [&](index_t rows) {
    return opts.sample_cols > 0 ? opts.sample_cols
                                : std::max<index_t>(n - rows, index_t{0});
  };

  // Leaf level: diagonal blocks + guarded shared row bases (Eq. 2).
  for (index_t i = 0; i < st.h.num_nodes(L); ++i) {
    const auto& nd = st.h.node(L, i);
    const std::string tag = "(" + std::to_string(L) + "," + std::to_string(i) + ")";
    const index_t ii = i;
    graph.insert_task(
        "COMPRESS" + tag, "compress",
        {nd.block_size(), opts.max_rank, sample_dim(nd.block_size())},
        [stp, ii] {
          const int lev = stp->h.max_level();
          auto& nd2 = stp->h.node(lev, ii);
          const index_t b = nd2.block_size();
          nd2.diag = stp->acc->block(nd2.begin, nd2.begin, b, b);

          std::vector<index_t> rows(static_cast<std::size_t>(b));
          for (index_t r = 0; r < b; ++r)
            rows[static_cast<std::size_t>(r)] = nd2.begin + r;
          Rng rng(node_seed(stp->opts.seed, lev, ii));
          Guarded g = guarded_row_id(*stp->acc, rows, nd2.begin, nd2.end,
                                     stp->opts, stp->scale, lev, ii, rng);
          auto qf = la::qr(g.id.x.view());
          nd2.basis = std::move(qf.q);
          nd2.rank = g.id.rank;

          auto& s = stp->st[static_cast<std::size_t>(lev)][static_cast<std::size_t>(ii)];
          s.rfac = std::move(qf.r);
          s.skel.reserve(g.id.sel.size());
          for (index_t r : g.id.sel) s.skel.push_back(nd2.begin + r);
          s.samples = g.samples;
          s.residual = g.residual;
          s.growths = g.growths;
          s.rank_escapes = g.rank_escapes;
        },
        {{dag.node_data[static_cast<std::size_t>(L)][static_cast<std::size_t>(i)],
          rt::Access::ReadWrite}},
        /*priority=*/L, /*phase=*/0);
  }

  // Internal levels: transfer bases (children skeletons), then couplings.
  for (int l = L - 1; l >= 1; --l) {
    for (index_t p = 0; p < st.h.num_nodes(l); ++p) {
      const std::string tag = "(" + std::to_string(l) + "," + std::to_string(p) + ")";
      const int li = l;
      const index_t pi = p;
      graph.insert_task(
          "TRANSFER" + tag, "transfer",
          // Rows: the children's stacked skeletons (<= 2 max_rank).
          {2 * opts.max_rank, opts.max_rank, sample_dim(2 * opts.max_rank)},
          [stp, li, pi] {
            auto& nd2 = stp->h.node(li, pi);
            const auto& si =
                stp->st[static_cast<std::size_t>(li) + 1][static_cast<std::size_t>(2 * pi)];
            const auto& sj = stp->st[static_cast<std::size_t>(li) + 1]
                                    [static_cast<std::size_t>(2 * pi + 1)];
            const index_t ki = static_cast<index_t>(si.skel.size());
            const index_t kj = static_cast<index_t>(sj.skel.size());

            std::vector<index_t> usk;
            usk.reserve(static_cast<std::size_t>(ki + kj));
            usk.insert(usk.end(), si.skel.begin(), si.skel.end());
            usk.insert(usk.end(), sj.skel.begin(), sj.skel.end());

            Rng rng(node_seed(stp->opts.seed, li, pi));
            Guarded g = guarded_row_id(*stp->acc, usk, nd2.begin, nd2.end,
                                       stp->opts, stp->scale, li, pi, rng);
            // Raw transfer = blockdiag(R̄_i, R̄_j) · X, then orthonormalize.
            Matrix raw(ki + kj, g.id.rank);
            if (g.id.rank > 0) {
              la::gemm(1.0, si.rfac.view(), la::Trans::No,
                       g.id.x.block(0, 0, ki, g.id.rank), la::Trans::No, 0.0,
                       raw.block(0, 0, ki, g.id.rank));
              la::gemm(1.0, sj.rfac.view(), la::Trans::No,
                       g.id.x.block(ki, 0, kj, g.id.rank), la::Trans::No, 0.0,
                       raw.block(ki, 0, kj, g.id.rank));
            }
            auto qf = la::qr(raw.view());
            nd2.basis = std::move(qf.q);
            nd2.rank = g.id.rank;

            auto& sp =
                stp->st[static_cast<std::size_t>(li)][static_cast<std::size_t>(pi)];
            sp.rfac = std::move(qf.r);
            sp.skel.reserve(static_cast<std::size_t>(g.id.rank));
            for (index_t r : g.id.sel)
              sp.skel.push_back(usk[static_cast<std::size_t>(r)]);
            sp.samples = g.samples;
            sp.residual = g.residual;
            sp.growths = g.growths;
            sp.rank_escapes = g.rank_escapes;
          },
          {{dag.node_data[static_cast<std::size_t>(l) + 1]
                         [static_cast<std::size_t>(2 * p)],
            rt::Access::Read},
           {dag.node_data[static_cast<std::size_t>(l) + 1]
                         [static_cast<std::size_t>(2 * p + 1)],
            rt::Access::Read},
           {dag.node_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(p)],
            rt::Access::ReadWrite}},
          /*priority=*/l, /*phase=*/L - l);
    }
  }

  // Couplings at every level. Leaf pairs: exact U_jᵀ A(I_j, I_i) U_i.
  // Upper pairs: skeleton-compressed R̄_j A(sk_j, sk_i) R̄_iᵀ.
  for (int l = L; l >= 1; --l) {
    for (index_t t = 0; t < st.h.num_pairs(l); ++t) {
      const std::string tag = "(" + std::to_string(l) + "," + std::to_string(t) + ")";
      const int li = l;
      const index_t tt = t;
      const bool leaf = l == L;
      // Leaf couplings are exact U_j^T A U_i products over the dense leaf
      // blocks; upper couplings only touch k x k skeleton gathers — the
      // third dim records the dense block extent so the cost model can tell
      // them apart.
      const std::vector<std::int64_t> ms_dims =
          leaf ? std::vector<std::int64_t>{st.h.node(l, 2 * t).block_size(),
                                           opts.max_rank, opts.max_rank}
               : std::vector<std::int64_t>{opts.max_rank, opts.max_rank};
      graph.insert_task(
          "MERGE_SAMPLE" + tag, "merge_sample", ms_dims,
          leaf ? std::function<void()>([stp, li, tt] {
            const auto& n0 = stp->h.node(li, 2 * tt);
            const auto& n1 = stp->h.node(li, 2 * tt + 1);
            Matrix a10 = stp->acc->block(n1.begin, n0.begin, n1.block_size(),
                                         n0.block_size());
            Matrix tmp = la::matmul(n1.basis.view(), a10.view(), la::Trans::Yes,
                                    la::Trans::No);
            stp->h.coupling(li, tt) = la::matmul(tmp.view(), n0.basis.view());
          })
               : std::function<void()>([stp, li, tt] {
                   const auto& s0 = stp->st[static_cast<std::size_t>(li)]
                                           [static_cast<std::size_t>(2 * tt)];
                   const auto& s1 = stp->st[static_cast<std::size_t>(li)]
                                           [static_cast<std::size_t>(2 * tt + 1)];
                   Matrix a10 = stp->acc->gather(s1.skel, s0.skel);
                   Matrix tmp = la::matmul(s1.rfac.view(), a10.view());
                   stp->h.coupling(li, tt) = la::matmul(
                       tmp.view(), s0.rfac.view(), la::Trans::No, la::Trans::Yes);
                 }),
          {{dag.node_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(2 * t)],
            rt::Access::Read},
           {dag.node_data[static_cast<std::size_t>(l)]
                         [static_cast<std::size_t>(2 * t + 1)],
            rt::Access::Read},
           {dag.coupling_data[static_cast<std::size_t>(l)][static_cast<std::size_t>(t)],
            rt::Access::ReadWrite}},
          /*priority=*/l, /*phase=*/L - l);
    }
  }

  return dag;
}

HSSMatrix extract_built_hss(HSSBuildDag& dag) {
  HATRIX_CHECK(dag.state != nullptr, "build dag has no state");
  return std::move(dag.state->h);
}

HSSBuildReport build_report(const HSSBuildDag& dag) {
  HSSBuildReport rep;
  if (!dag.state) return rep;
  for (const auto& level : dag.state->st) {
    for (const auto& s : level) {
      rep.max_samples = std::max(rep.max_samples, s.samples);
      rep.total_growths += s.growths;
      rep.worst_residual = std::max(rep.worst_residual, s.residual);
      rep.rank_escapes += s.rank_escapes;
    }
  }
  return rep;
}

HSSMatrix build_hss_parallel(const BlockAccessor& acc, const HSSOptions& opts,
                             int workers, HSSBuildReport* report,
                             rt::ReleaseMode release) {
  rt::TaskGraph graph;
  HSSBuildDag dag = emit_hss_build_dag(acc, opts, graph, release);
  rt::ThreadPoolExecutor ex(workers);
  ex.run(graph);
  if (report != nullptr) *report = build_report(dag);
  HSSMatrix h = extract_built_hss(dag);
  // Demote after extraction, exactly as the sequential builder does, so both
  // paths produce bit-identical (demoted) matrices.
  if (opts.precision == PrecisionMode::MixedFP32) h.demote_lowrank();
  return h;
}

}  // namespace hatrix::fmt
