//! Byzantine-robust combine rules: coordinate-wise median and trimmed
//! mean, and Krum.
//!
//! **The lane-block sort.** Median and trimmed mean need every coordinate's
//! column of `n` contributions in sorted order. Sorting one column at a
//! time is a branchy `n log n` sort per coordinate, and on a round of 25
//! int8 uploads it was the largest serial cost of aggregation. Instead,
//! [`coordinate_trimmed`] copies [`SORT_LANES`] adjacent coordinates of
//! every contribution into a block of `n` rows and sorts all the columns at
//! once with a fixed sorting network ([`sorting_network`], Batcher's merge
//! exchange for any `n`): each comparator is a lane-wise conditional swap
//! of two rows, a vector compare and a few bitwise operations, with no
//! branch on the data. The kept rows are then summed in ascending order,
//! lane by lane — the same additions in the same order as the per-column
//! sum.
//!
//! **Why the bits match.** A network sorts any input, and a conditional
//! swap only ever moves values, so each sorted column holds the same
//! values as the stable per-column sort. Whether the *bits* match depends
//! on values that compare equal but are not identical. Among finite and
//! infinite floats that is only `-0.0` against `+0.0`, whose order the
//! stable sort takes from the input; NaN compares with nothing. A block
//! holding either goes column by column through the reference sort
//! instead, so every block gives the bits that sort gives. (The last
//! block's padding lanes hold `+0.0` and are never read back.) Dequantised
//! int8 values are `q · scale` with a positive scale, so their zeros are
//! `+0.0` and such blocks do not occur on that path.

use super::ModuleUpdate;
use nebula_modular::ModularModel;
use std::cmp::Ordering;
use std::fmt;

/// How one round of surviving updates is combined into the cloud model.
///
/// `WeightedMean` is Nebula's §5.2 importance-weighted average and stays
/// bit-identical to [`super::aggregate_module_wise`] (test-pinned). The
/// robust alternatives deliberately ignore importance and data-volume
/// weights — both are attacker-controlled inputs (gate-load gaming
/// inflates importance to capture a module's average), so robust modes
/// treat every contribution as one unweighted vote per coordinate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum RobustAggregator {
    /// Importance-weighted mean (the paper's aggregation; not robust).
    #[default]
    WeightedMean,
    /// Coordinate-wise median over contributing updates. Breakdown point
    /// 1/2: with ≤ f of 2f+1 adversarial contributions each coordinate
    /// stays inside the honest envelope.
    CoordinateMedian,
    /// Coordinate-wise trimmed mean: drop the `ceil(frac·n)` largest and
    /// smallest values per coordinate, average the rest. Falls back to
    /// the median when trimming would consume every value.
    TrimmedMean { frac: f32 },
    /// Multi-Krum selection with `f` suspected Byzantine contributors:
    /// pick the single update whose summed squared distance to its
    /// `n − f − 2` nearest neighbours is smallest. Requires `n ≥ 2f + 3`
    /// for its guarantee; below that it falls back to the coordinate
    /// median.
    Krum { f: usize },
}

impl fmt::Display for RobustAggregator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustAggregator::WeightedMean => write!(f, "weighted_mean"),
            RobustAggregator::CoordinateMedian => write!(f, "coord_median"),
            RobustAggregator::TrimmedMean { frac } => write!(f, "trimmed_mean_{frac}"),
            RobustAggregator::Krum { f: byz } => write!(f, "krum_{byz}"),
        }
    }
}

/// Module-wise aggregation under a selectable combine rule.
///
/// `RobustAggregator::WeightedMean` delegates verbatim to
/// [`super::aggregate_module_wise`], so existing trajectories are
/// unchanged. The robust rules gather, per module, the parameter vectors
/// of every contributing update (same skip conditions as the weighted
/// path: module in spec, params present and non-empty) and combine them
/// coordinate-wise; shared parameters get the same treatment across all
/// participants. Returns the number of modules touched.
pub fn aggregate_module_wise_robust(
    cloud: &mut ModularModel,
    updates: &[&ModuleUpdate],
    aggregator: RobustAggregator,
    use_importance: bool,
) -> usize {
    if aggregator == RobustAggregator::WeightedMean {
        return super::aggregate_module_wise(cloud, updates, use_importance);
    }
    if updates.is_empty() {
        return 0;
    }
    let layers = cloud.num_layers();
    let n = cloud.config().modules_per_layer;
    let mut touched = 0usize;
    let mut combined = Vec::new();

    for l in 0..layers {
        for i in 0..n {
            let mut contribs: Vec<&[f32]> = Vec::new();
            for u in updates {
                if !u.spec.contains(l, i) {
                    continue;
                }
                let Some(params) = u.module_params.get(&(l, i)) else {
                    continue;
                };
                if params.is_empty() {
                    continue; // residual module: nothing to aggregate
                }
                if let Some(first) = contribs.first() {
                    assert_eq!(first.len(), params.len(), "module param size mismatch at ({l},{i})");
                }
                contribs.push(params);
            }
            if contribs.is_empty() {
                continue;
            }
            combine_robust(&contribs, aggregator, &mut combined);
            cloud.load_module_param_vector(l, i, &combined);
            touched += 1;
        }
    }

    let shared: Vec<&[f32]> = updates.iter().map(|u| u.shared_params.as_slice()).collect();
    if !shared.is_empty() && !shared[0].is_empty() {
        let len = shared[0].len();
        for s in &shared {
            assert_eq!(s.len(), len, "shared param size mismatch");
        }
        combine_robust(&shared, aggregator, &mut combined);
        cloud.load_shared_param_vector(&combined);
    }

    touched
}

/// Combine equal-length vectors under a robust rule into `out`.
fn combine_robust(vectors: &[&[f32]], aggregator: RobustAggregator, out: &mut Vec<f32>) {
    match aggregator {
        RobustAggregator::WeightedMean => unreachable!("weighted mean uses the reference path"),
        RobustAggregator::CoordinateMedian => coordinate_trimmed(vectors, usize::MAX, out),
        RobustAggregator::TrimmedMean { frac } => {
            let n = vectors.len();
            let trim = (frac.clamp(0.0, 0.5) * n as f32).ceil() as usize;
            coordinate_trimmed(vectors, trim, out);
        }
        RobustAggregator::Krum { f } => match krum_index(vectors, f) {
            Some(idx) => {
                out.clear();
                out.extend_from_slice(vectors[idx]);
            }
            None => coordinate_trimmed(vectors, usize::MAX, out),
        },
    }
}

/// Adjacent coordinates sorted together: two AVX2 registers per row.
const SORT_LANES: usize = 16;

/// One row of a lane block: the same contribution's values at
/// [`SORT_LANES`] adjacent coordinates.
type Lanes = [f32; SORT_LANES];

/// Coordinate-wise trimmed mean, trimming `trim` values from each end of
/// every sorted coordinate column. When trimming consumes the whole
/// column (including `trim == usize::MAX`, the median request) the
/// median of the column is used instead.
///
/// Blocks of [`SORT_LANES`] coordinates go through the sorting network
/// (module docs); the last block is padded with `+0.0` lanes whose results
/// are dropped. A block holding NaN or `-0.0` goes through
/// [`sorted_column`] one coordinate at a time.
fn coordinate_trimmed(vectors: &[&[f32]], trim: usize, out: &mut Vec<f32>) {
    out.clear();
    out.resize(vectors[0].len(), 0.0);
    let network = sorting_network(vectors.len());
    let mut block: Vec<Lanes> = vec![[0.0; SORT_LANES]; vectors.len()];
    let mut column: Vec<[f32; 1]> = Vec::with_capacity(vectors.len());
    for (start, dst) in (0..).step_by(SORT_LANES).zip(out.chunks_mut(SORT_LANES)) {
        let mut by_value = true;
        for (row, v) in block.iter_mut().zip(vectors) {
            let (head, pad) = row.split_at_mut(dst.len());
            head.copy_from_slice(&v[start..start + dst.len()]);
            pad.fill(0.0);
            by_value &= row.iter().fold(true, |ok, &x| ok & orders_by_value(x));
        }
        if by_value {
            for &(a, b) in &network {
                let (low, high) = block.split_at_mut(b);
                compare_exchange(&mut low[a], &mut high[0]);
            }
            dst.copy_from_slice(&trimmed_of_sorted(&block, trim)[..dst.len()]);
        } else {
            for (lane, d) in dst.iter_mut().enumerate() {
                [*d] = trimmed_of_sorted(sorted_column(vectors, start + lane, &mut column), trim);
            }
        }
    }
}

/// Whether `x` sorts by value alone: not NaN (magnitude bits above
/// infinity's), and not `-0.0` (which compares equal to `+0.0` but differs
/// in bits). Tested on the bits: `is_nan` here keeps the row check scalar.
#[inline(always)]
fn orders_by_value(x: f32) -> bool {
    let bits = x.to_bits();
    (bits & 0x7FFF_FFFF <= 0x7F80_0000) & (bits != 0x8000_0000)
}

/// Coordinate `j` of every vector, in the reference order: a stable sort
/// under `partial_cmp`, incomparable pairs treated as equal.
fn sorted_column<'c>(vectors: &[&[f32]], j: usize, column: &'c mut Vec<[f32; 1]>) -> &'c [[f32; 1]] {
    column.clear();
    column.extend(vectors.iter().map(|v| [v[j]]));
    column.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap_or(Ordering::Equal));
    column
}

/// The trimmed mean (or median, when `trim` consumes the column) of every
/// lane of ascending `rows`: the kept rows summed in order from `-0.0`,
/// exactly as `Iterator::sum` adds them, then divided by their count.
fn trimmed_of_sorted<const L: usize>(rows: &[[f32; L]], trim: usize) -> [f32; L] {
    let n = rows.len();
    if trim >= n.div_ceil(2) {
        // All (or more than all) values would be trimmed: median.
        if n % 2 == 1 {
            rows[n / 2]
        } else {
            std::array::from_fn(|l| 0.5 * (rows[n / 2 - 1][l] + rows[n / 2][l]))
        }
    } else {
        let kept = &rows[trim..n - trim];
        let mut sum = [-0.0f32; L];
        for row in kept {
            for (s, x) in sum.iter_mut().zip(row) {
                *s += x;
            }
        }
        sum.map(|s| s / kept.len() as f32)
    }
}

/// Swaps the lanes of two rows where `high < low`, leaving each lane's
/// minimum in `low` and maximum in `high`.
///
/// Written as a swap of bits, so LLVM emits one vector compare and a few
/// XOR/AND per register. As an in-place loop of selects it keeps the lanes
/// scalar and branches on every compare, and as whole-row selects it turns
/// the `low` write into a masked store (`vmaskmovps`).
#[inline(always)]
fn compare_exchange(low: &mut Lanes, high: &mut Lanes) {
    let (x, y) = (*low, *high);
    // The bits to flip in both lanes: their difference where the pair is
    // out of order, none elsewhere.
    let flip: [u32; SORT_LANES] =
        std::array::from_fn(|l| if y[l] < x[l] { x[l].to_bits() ^ y[l].to_bits() } else { 0 });
    *low = std::array::from_fn(|l| f32::from_bits(x[l].to_bits() ^ flip[l]));
    *high = std::array::from_fn(|l| f32::from_bits(y[l].to_bits() ^ flip[l]));
}

/// A sorting network for `n` inputs as `(i, j)` comparators, `i < j`:
/// Batcher's merge exchange (Knuth, TAOCP vol. 3, §5.2.2, Algorithm M),
/// which sorts any `n` without padding to a power of two, in
/// `O(n log² n)` comparators — 138 for a cohort of 25, against 300 for
/// insertion.
fn sorting_network(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    if n < 2 {
        return pairs;
    }
    let top = 1usize << (usize::BITS - 1 - (n - 1).leading_zeros());
    let mut p = top;
    while p > 0 {
        let (mut q, mut r, mut d) = (top, 0, p);
        loop {
            pairs.extend((0..n - d).filter(|i| i & p == r).map(|i| (i, i + d)));
            if q == p {
                break;
            }
            (d, q, r) = (q - p, q / 2, p);
        }
        p /= 2;
    }
    pairs
}

fn sq_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum()
}

/// Lexicographic order on parameter vectors — the deterministic,
/// permutation-invariant Krum tie-break.
fn lex_less(a: &[f32], b: &[f32]) -> bool {
    for (&x, &y) in a.iter().zip(b) {
        match x.partial_cmp(&y).unwrap_or(Ordering::Equal) {
            Ordering::Less => return true,
            Ordering::Greater => return false,
            Ordering::Equal => {}
        }
    }
    false
}

/// The Krum winner among `vectors` assuming at most `f` Byzantine
/// contributors, or `None` when `n < 2f + 3` (guarantee unavailable).
fn krum_index(vectors: &[&[f32]], f: usize) -> Option<usize> {
    let n = vectors.len();
    if n < 2 * f + 3 {
        return None;
    }
    let neighbours = n - f - 2;
    let mut best: Option<(f64, usize)> = None;
    let mut dists: Vec<f64> = Vec::with_capacity(n - 1);
    for a in 0..n {
        dists.clear();
        dists.extend((0..n).filter(|&b| b != a).map(|b| sq_dist(vectors[a], vectors[b])));
        dists.sort_by(|x, y| x.partial_cmp(y).unwrap_or(Ordering::Equal));
        let score: f64 = dists[..neighbours].iter().sum();
        let better = match best {
            None => true,
            Some((s, i)) => score < s || (score == s && lex_less(vectors[a], vectors[i])),
        };
        if better {
            best = Some((score, a));
        }
    }
    best.map(|(_, i)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// By the 0-1 principle a comparator network sorts every input iff it
    /// sorts every 0-1 input; checked exhaustively up to 16 inputs.
    #[test]
    fn merge_exchange_sorts_every_zero_one_input() {
        for n in 0..=16usize {
            let network = sorting_network(n);
            assert!(network.iter().all(|&(i, j)| i < j && j < n));
            for bits in 0u32..(1 << n) {
                let mut v: Vec<u32> = (0..n).map(|k| (bits >> k) & 1).collect();
                for &(i, j) in &network {
                    if v[j] < v[i] {
                        v.swap(i, j);
                    }
                }
                assert!(v.windows(2).all(|w| w[0] <= w[1]), "n = {n}: {bits:#b} left unsorted");
            }
        }
    }

    #[test]
    fn merge_exchange_sorts_larger_cohorts() {
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for n in 17..=64usize {
            let network = sorting_network(n);
            for _ in 0..50 {
                let mut v: Vec<u64> = (0..n)
                    .map(|_| {
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        s % 7
                    })
                    .collect();
                let mut want = v.clone();
                want.sort_unstable();
                for &(i, j) in &network {
                    if v[j] < v[i] {
                        v.swap(i, j);
                    }
                }
                assert_eq!(v, want, "n = {n}");
            }
        }
        assert_eq!(sorting_network(25).len(), 138);
    }

    /// The serial rule the lane blocks replace, verbatim: one stable sort
    /// and one `Iterator::sum` per coordinate.
    fn reference(vectors: &[&[f32]], trim: usize) -> Vec<f32> {
        let n = vectors.len();
        (0..vectors[0].len())
            .map(|j| {
                let mut col: Vec<f32> = vectors.iter().map(|v| v[j]).collect();
                col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
                if trim >= n.div_ceil(2) {
                    if n % 2 == 1 {
                        col[n / 2]
                    } else {
                        0.5 * (col[n / 2 - 1] + col[n / 2])
                    }
                } else {
                    let kept = &col[trim..n - trim];
                    kept.iter().sum::<f32>() / kept.len() as f32
                }
            })
            .collect()
    }

    #[test]
    fn lane_blocks_match_the_per_coordinate_sort_bit_for_bit() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % m
        };
        // Tied grid values, the odd signed zero, NaN or infinity, at
        // lengths that end in a partial block. NaN only in short columns:
        // on longer ones the std sort may panic on the partial order,
        // block path or not (the sanitize gate keeps NaN out of rounds).
        for n in 1..=27usize {
            let specials: &[f32] = if n <= 12 {
                &[0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            } else {
                &[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY]
            };
            for dim in [1, 15, 16, 17, 48, 61] {
                let vectors: Vec<Vec<f32>> = (0..n)
                    .map(|_| {
                        (0..dim)
                            .map(|_| match next(40) {
                                0 => specials[next(specials.len() as u64) as usize],
                                _ => (next(9) as f32 - 4.0) * 0.125,
                            })
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[f32]> = vectors.iter().map(Vec::as_slice).collect();
                for trim in [0, 1, 2, n / 4, n / 2, usize::MAX] {
                    let mut got = Vec::new();
                    coordinate_trimmed(&refs, trim, &mut got);
                    let want = reference(&refs, trim);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "n = {n}, dim = {dim}, trim = {trim}");
                }
            }
        }
    }
}
