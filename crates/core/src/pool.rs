//! A dependency-free scoped worker pool.
//!
//! The experiment engine fans independent simulations out across
//! threads without pulling in rayon (this is an offline, zero-dep
//! build): [`scoped_map`] runs a closure over a work list on `jobs`
//! scoped threads and hands the results back **in input order**, so
//! callers can merge them deterministically regardless of which worker
//! finished first.
//!
//! [`scoped_map_isolated`] adds fault isolation on top: a panic in one
//! cell is caught ([`std::panic::catch_unwind`]), retried a bounded
//! number of times (the simulator is deterministic, so retries only
//! help against nondeterministic faults — but they are cheap and make
//! the policy explicit), and finally reported as a per-cell
//! [`SimError::CellPanic`] while every other cell completes normally.

use critmem_common::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many times [`scoped_map_isolated`] attempts a cell before
/// reporting its panic (1 initial run + 1 retry).
pub const MAX_ATTEMPTS: u32 = 2;

/// The default worker count: the machine's available parallelism, or 1
/// if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` using up to `jobs` worker
/// threads, returning the outputs in input order.
///
/// Work is distributed by an atomic claim index (workers pull the next
/// unclaimed item), so an uneven mix of long and short simulations
/// still load-balances. With `jobs <= 1` (or a single item) everything
/// runs on the calling thread — byte-for-byte the serial path.
///
/// # Panics
///
/// Propagates a panic from any worker once all workers have joined
/// (the semantics of [`std::thread::scope`]).
pub fn scoped_map<I, O, F>(jobs: usize, items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let inputs: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let outputs: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("work item claimed twice");
                let out = f(item);
                *outputs[i].lock().unwrap() = Some(out);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker exited without producing a result")
        })
        .collect()
}

/// Renders a panic payload as text (the common `&str` / `String` cases,
/// with a fallback for exotic payloads).
fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one cell under [`catch_unwind`] with bounded deterministic
/// retry.
fn run_isolated<I, O, F>(f: &F, item: &I) -> Result<O, SimError>
where
    F: Fn(&I) -> O,
{
    let mut last_payload = String::new();
    for _ in 0..MAX_ATTEMPTS {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(out) => return Ok(out),
            Err(payload) => last_payload = payload_text(payload.as_ref()),
        }
    }
    Err(SimError::CellPanic {
        payload: last_payload,
        attempts: MAX_ATTEMPTS,
    })
}

/// Fault-isolated variant of [`scoped_map`]: applies `f` to every item
/// on up to `jobs` worker threads, catching panics per cell. A
/// panicking cell is retried up to [`MAX_ATTEMPTS`] times total, then
/// reported as `Err(SimError::CellPanic)` in its input-order slot —
/// the other cells are unaffected.
///
/// `f` takes the item by reference (items must survive a retry), and
/// must be unwind-safe in the practical sense: the simulator
/// constructs all of its state inside the closure, so a panic cannot
/// leave shared state half-mutated.
///
/// The serial path (`jobs <= 1` or a single item) applies the same
/// isolation on the calling thread, so failure semantics do not depend
/// on the job count.
pub fn scoped_map_isolated<I, O, F>(jobs: usize, items: &[I], f: F) -> Vec<Result<O, SimError>>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(|item| run_isolated(&f, item)).collect();
    }
    let outputs: Vec<Mutex<Option<Result<O, SimError>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|s| {
        for _ in 0..jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = run_isolated(f, &items[i]);
                *outputs[i].lock().unwrap() = Some(out);
            });
        }
    });
    outputs
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap()
                .expect("worker exited without producing a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let out = scoped_map(4, (0..100).collect(), |i: u64| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_fallback_matches() {
        let items: Vec<u64> = (0..17).collect();
        let a = scoped_map(1, items.clone(), |i| i + 1);
        let b = scoped_map(8, items, |i| i + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(scoped_map(4, Vec::<u8>::new(), |i| i), Vec::<u8>::new());
        assert_eq!(scoped_map(4, vec![7u8], |i| i), vec![7]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let out = scoped_map(32, vec![1u8, 2, 3], |i| i);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn isolated_panics_are_contained_per_cell() {
        let items: Vec<u64> = (0..16).collect();
        let out = scoped_map_isolated(4, &items, |&i| {
            if i == 7 {
                panic!("cell {i} exploded");
            }
            i * 10
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                let err = r.as_ref().unwrap_err();
                let msg = err.to_string();
                assert!(msg.contains("cell 7 exploded"), "{msg}");
                assert!(
                    matches!(
                        err,
                        SimError::CellPanic {
                            attempts: MAX_ATTEMPTS,
                            ..
                        }
                    ),
                    "{err:?}"
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u64 * 10);
            }
        }
    }

    #[test]
    fn isolated_serial_and_parallel_agree() {
        let items: Vec<u64> = (0..9).collect();
        let run = |jobs| {
            scoped_map_isolated(jobs, &items, |&i| {
                if i % 4 == 2 {
                    panic!("boom {i}");
                }
                i + 1
            })
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn isolated_transient_panic_recovers_on_retry() {
        use std::sync::atomic::AtomicBool;
        let flaky = AtomicBool::new(true);
        let items = vec![0u8];
        let out = scoped_map_isolated(1, &items, |_| {
            if flaky.swap(false, Ordering::SeqCst) {
                panic!("transient fault");
            }
            42
        });
        assert_eq!(*out[0].as_ref().unwrap(), 42);
    }
}
