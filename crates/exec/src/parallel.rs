//! Morsel-driven parallelism capability for the columnar kernels.
//!
//! The vectorized operators in [`crate::columnar`] split their row-index
//! windows into fixed-size **morsels** and hand the per-morsel closures to
//! a [`MorselRunner`]. The runner decides *where* the closures run — the
//! trivial [`SerialRunner`] executes them inline in index order
//! (bit-identical to the pre-morsel code),
//! while `geoqp-runtime` injects the run's one worker pool so a
//! single fragment can saturate every core.
//!
//! Two rules make the parallelism observably invisible:
//!
//! * **Deterministic merge order** — every helper here returns per-morsel
//!   results indexed by morsel sequence number; callers concatenate them
//!   in that order, so output rows are a pure function of the input no
//!   matter which worker ran which morsel.
//! * **First-error-wins** — when morsel tasks can fail, the error from
//!   the lowest morsel index is reported. Rows are scanned in order
//!   within a morsel, so that is exactly the error the sequential
//!   row-at-a-time scan would have hit first. Later morsels may have run
//!   (their work is side-effect free), but their errors are discarded.

use geoqp_common::Result;
use std::mem::MaybeUninit;

/// Executes a batch of independent morsel tasks, identified by index.
///
/// Implementations must run every task index in `0..n_tasks` exactly once
/// before returning; tasks are pure CPU work over disjoint data and may
/// run in any order, on any thread.
pub trait MorselRunner: Sync {
    /// Worker threads participating in a dispatch, including the caller.
    /// `1` means tasks run inline on the calling thread.
    fn workers(&self) -> usize {
        1
    }

    /// Rows per morsel when a kernel splits an index window.
    fn morsel_rows(&self) -> usize {
        MORSEL_ROWS_DEFAULT
    }

    /// Run `task(t)` for every `t in 0..n_tasks`, returning once all have
    /// completed.
    fn dispatch(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync));
}

/// Default rows per morsel: large enough that per-morsel overhead
/// (dispatch, result slot, match vectors) is noise, small enough that
/// a TPC-H-sized batch still splits into tens of morsels.
pub const MORSEL_ROWS_DEFAULT: usize = 2048;

/// The inline runner: tasks execute on the calling thread in index order.
#[derive(Debug, Default)]
pub struct SerialRunner;

impl MorselRunner for SerialRunner {
    fn dispatch(&self, n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        for t in 0..n_tasks {
            task(t);
        }
    }
}

/// The shared inline runner, used wherever no pool was injected.
pub static SERIAL: SerialRunner = SerialRunner;

/// The `[lo, hi)` bounds, in order, of the morsels a kernel on `runner`
/// splits a window of `total` rows into. One worker gets the whole window
/// as one morsel: its tasks run inline, so a split would buy nothing and
/// cost a result vector per morsel and a concatenation.
pub(crate) fn morsels(runner: &dyn MorselRunner, total: usize) -> Vec<(usize, usize)> {
    if runner.workers() <= 1 {
        return vec![(0, total)];
    }
    morsel_bounds(total, runner.morsel_rows())
}

/// `[lo, hi)` bounds of each morsel over a window of `total` rows. Always
/// at least one morsel (possibly empty), so kernels never special-case
/// empty inputs.
fn morsel_bounds(total: usize, morsel_rows: usize) -> Vec<(usize, usize)> {
    let step = morsel_rows.max(1);
    let n = total.div_ceil(step).max(1);
    (0..n)
        .map(|m| ((m * step).min(total), ((m + 1) * step).min(total)))
        .collect()
}

/// A raw pointer to the write-once result slots. Tasks run on foreign
/// threads but each writes only its own index, so the accesses are
/// disjoint; the runner's completion barrier orders the writes before
/// the reads.
struct Slots<T>(*mut MaybeUninit<T>);

// SAFETY: every task writes a distinct slot exactly once, and
// `MorselRunner::dispatch` does not return until all tasks have finished
// (a happens-before edge from each write to the collective read).
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    /// # Safety
    /// Each task index must be in bounds and written at most once, from
    /// at most one thread, with no other access to that slot.
    unsafe fn write(&self, t: usize, value: T) {
        self.0.add(t).write(MaybeUninit::new(value));
    }
}

/// Run `f(t)` for every morsel index in `0..n` on `runner`, collecting
/// the results **in morsel index order** — the deterministic merge order
/// everything downstream relies on.
pub fn parallel_map<T, F>(runner: &dyn MorselRunner, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    if runner.workers() <= 1 || n == 1 {
        return (0..n).map(f).collect();
    }
    let mut storage: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    storage.resize_with(n, MaybeUninit::uninit);
    let slots = Slots(storage.as_mut_ptr());
    let slots_ref = &slots;
    runner.dispatch(n, &move |t| {
        let value = f(t);
        // SAFETY: `t` is unique per task and in bounds (see `Slots`).
        unsafe {
            slots_ref.write(t, value);
        }
    });
    // SAFETY: dispatch returned, so every slot was initialized.
    storage
        .into_iter()
        .map(|s| unsafe { s.assume_init() })
        .collect()
}

/// Collapse per-morsel fallible results, reporting the error of the
/// lowest morsel index — the globally earliest failing row.
pub fn first_error<T>(parts: Vec<Result<T>>) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(parts.len());
    for p in parts {
        out.push(p?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoqp_common::GeoError;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn bounds_cover_the_window_without_overlap() {
        for (total, step) in [(0, 4), (1, 4), (4, 4), (5, 4), (1000, 7)] {
            let bounds = morsel_bounds(total, step);
            assert!(!bounds.is_empty());
            let mut next = 0;
            for (lo, hi) in &bounds {
                assert_eq!(*lo, next);
                assert!(hi - lo <= step);
                next = *hi;
            }
            assert_eq!(next, total);
        }
        // One worker: the window is not split, whatever its size.
        assert_eq!(morsels(&SERIAL, 1000), [(0, 1000)]);
        assert_eq!(morsels(&SERIAL, 0), [(0, 0)]);
    }

    #[test]
    fn serial_map_preserves_index_order() {
        let ran = AtomicUsize::new(0);
        let out = parallel_map(&SERIAL, 10, |t| {
            ran.fetch_add(1, Ordering::Relaxed);
            t * t
        });
        assert_eq!(ran.load(Ordering::Relaxed), 10);
        assert_eq!(out, (0..10).map(|t| t * t).collect::<Vec<_>>());
    }

    #[test]
    fn first_error_reports_the_lowest_morsel() {
        let parts: Vec<Result<u32>> = vec![
            Ok(1),
            Err(GeoError::Execution("second".into())),
            Err(GeoError::Execution("third".into())),
        ];
        let err = first_error(parts).unwrap_err();
        assert!(err.to_string().contains("second"));
        assert_eq!(first_error::<u32>(vec![Ok(7), Ok(8)]).unwrap(), vec![7, 8]);
    }
}
