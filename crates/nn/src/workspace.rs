//! Reusable scratch buffers for layer hot paths.
//!
//! Every forward/backward through a MoE layer needs short-lived rank-2
//! temporaries (GEMM products, gathered row batches, gradient scratch).
//! Allocating them per call puts the allocator on the per-sample critical
//! path of the simulated round loop — hundreds of thousands of calls per
//! experiment. A [`Workspace`] is a small free-list of `Vec<f32>` buffers
//! owned by the layer itself: [`Workspace::zeroed`] hands out a tensor
//! backed by a recycled buffer (or a fresh one on first use), and
//! [`Workspace::recycle`] returns the buffer once the temporary dies.
//! After layer warm-up the hot path performs no heap allocation for
//! scratch.
//!
//! The pool is intentionally dumb: layers cycle through a fixed, small
//! set of shapes (batch sizes change only between pretraining and round
//! phases), so best-fit scanning over ≤ `MAX_POOLED` buffers is cheaper
//! than any keyed map.

use nebula_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cap on pooled buffers so a workspace cannot hoard memory if a caller
/// recycles more shapes than it ever reuses. Sized for the largest user:
/// a module layer keeps one output per routed module between forwards
/// (up to 32 modules on the paper presets) next to a few temporaries.
const MAX_POOLED: usize = 40;

static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide workspace pool effectiveness: `(hits, misses)` where a
/// hit is a [`Workspace::zeroed`] served from a pooled buffer of
/// sufficient capacity and a miss required (re)allocation. Counters are
/// monotonic across all workspaces; telemetry consumers diff two
/// readings to attribute a window of work.
pub fn pool_stats() -> (u64, u64) {
    (POOL_HITS.load(Ordering::Relaxed), POOL_MISSES.load(Ordering::Relaxed))
}

/// A free-list buffer pool for layer-internal scratch tensors.
#[derive(Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// An empty workspace; buffers are acquired lazily.
    pub const fn new() -> Self {
        Self { pool: Vec::new() }
    }

    /// Returns an all-zeros tensor of `shape`, reusing a pooled buffer
    /// when one with sufficient capacity exists (best fit).
    pub fn zeroed(&mut self, shape: &[usize]) -> Tensor {
        let mut t = self.scratch(shape);
        t.zero_();
        t
    }

    /// [`Workspace::zeroed`] without the fill: a tensor of `shape` whose
    /// contents are unspecified (whatever the pooled buffer last held),
    /// for a temporary its first user overwrites in full — a mat-mul
    /// output, a gathered row batch.
    pub fn scratch(&mut self, shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        // Best fit: smallest pooled capacity that still avoids a realloc.
        let mut pick: Option<usize> = None;
        for (i, buf) in self.pool.iter().enumerate() {
            if buf.capacity() >= n && pick.is_none_or(|p| buf.capacity() < self.pool[p].capacity()) {
                pick = Some(i);
            }
        }
        let mut buf = match pick {
            Some(i) => {
                POOL_HITS.fetch_add(1, Ordering::Relaxed);
                self.pool.swap_remove(i)
            }
            None => {
                POOL_MISSES.fetch_add(1, Ordering::Relaxed);
                self.pool.pop().unwrap_or_default()
            }
        };
        // Truncates or zero-extends; what was there stays.
        buf.resize(n, 0.0);
        Tensor::from_vec(buf, shape)
    }

    /// Returns a tensor's buffer to the pool for a later [`zeroed`].
    ///
    /// [`zeroed`]: Workspace::zeroed
    pub fn recycle(&mut self, t: Tensor) {
        if self.pool.len() < MAX_POOLED {
            self.pool.push(t.into_vec());
        }
    }

    /// Number of buffers currently pooled (test hook).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

/// Scratch is not layer state: a cloned layer starts with an empty pool.
impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workspace({} pooled)", self.pool.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_buffer_is_reused_and_zeroed() {
        let mut ws = Workspace::new();
        let mut t = ws.zeroed(&[4, 8]);
        t.data_mut().iter_mut().for_each(|v| *v = 7.0);
        let ptr = t.data().as_ptr();
        ws.recycle(t);
        let again = ws.zeroed(&[8, 4]); // same element count, new shape
        assert_eq!(again.data().as_ptr(), ptr, "buffer was not reused");
        assert!(again.data().iter().all(|&v| v == 0.0), "stale data leaked");
        assert_eq!(ws.pooled(), 0);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let mut ws = Workspace::new();
        let big = ws.zeroed(&[100]);
        let small = ws.zeroed(&[10]);
        let small_ptr = small.data().as_ptr();
        ws.recycle(big);
        ws.recycle(small);
        let t = ws.zeroed(&[10]);
        assert_eq!(t.data().as_ptr(), small_ptr, "best fit should pick the 10-cap buffer");
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        let tensors: Vec<Tensor> = (0..2 * MAX_POOLED).map(|_| ws.zeroed(&[3])).collect();
        for t in tensors {
            ws.recycle(t);
        }
        assert_eq!(ws.pooled(), MAX_POOLED);
    }

    #[test]
    fn clone_starts_empty() {
        let mut ws = Workspace::new();
        let t = ws.zeroed(&[5]);
        ws.recycle(t);
        assert_eq!(ws.clone().pooled(), 0);
    }
}
