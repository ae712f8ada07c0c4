//! Parallel parameter sweeps.
//!
//! Every experiment in the reproduction is a sweep over independent
//! configurations (payload size × driver × seed). Each configuration runs
//! its own `Simulation` — there is no shared mutable state between runs —
//! so the sweep is embarrassingly parallel and is spread across OS threads
//! with scoped threads. Results come back **in input order** regardless of
//! completion order, so reports are deterministic.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;

/// A panic payload caught with `catch_unwind`.
type Panic = Box<dyn Any + Send>;

/// Re-raise a caught panic on the calling thread, naming the sweep point
/// `idx` that raised it. A message payload (what `panic!`, `assert!` and
/// `expect` produce) keeps its text after a `"sweep point {idx}
/// panicked: "` prefix; any other payload resumes as is.
fn resume_point(idx: usize, payload: Panic) -> ! {
    let msg = match payload.downcast_ref::<&str>() {
        Some(s) => Some((*s).to_owned()),
        None => payload.downcast_ref::<String>().cloned(),
    };
    match msg {
        Some(m) => panic::resume_unwind(Box::new(format!("sweep point {idx} panicked: {m}"))),
        None => panic::resume_unwind(payload),
    }
}

/// What one sweep worker hands back: the points it finished, and the
/// point it stopped at with that point's panic, if any.
type WorkerOut<O> = (Vec<(usize, O)>, Option<(usize, Panic)>);

/// Run `f` over every item of `inputs` on up to `max_threads` worker
/// threads, returning outputs in input order.
///
/// Work is distributed by atomic work-stealing over an index counter, which
/// balances sweeps whose per-item cost varies by orders of magnitude (a
/// 64 B run finishes long before a 1 KiB run).
///
/// A panic in `f` reaches the caller with its original message prefixed
/// by `"sweep point {i} panicked: "`. Every worker is joined first, and
/// when several points panic the lowest input index wins, so the
/// re-raised panic is the same at any thread count.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, max_threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    assert!(max_threads > 0);
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = max_threads.min(n);
    if threads == 1 {
        return inputs
            .iter()
            .enumerate()
            .map(|(i, x)| {
                panic::catch_unwind(AssertUnwindSafe(|| f(x)))
                    .unwrap_or_else(|p| resume_point(i, p))
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    // Set by the first worker to panic so the others stop claiming
    // points. Every point already claimed still runs, and points are
    // claimed in index order, so the lowest panicking index is always
    // reached.
    let stop = AtomicBool::new(false);
    let results: Vec<thread::Result<WorkerOut<O>>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (next, stop) = (&next, &stop);
                let inputs = &inputs;
                let f = &f;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= n {
                            break;
                        }
                        match panic::catch_unwind(AssertUnwindSafe(|| f(&inputs[idx]))) {
                            Ok(out) => mine.push((idx, out)),
                            Err(p) => {
                                stop.store(true, Ordering::Relaxed);
                                return (mine, Some((idx, p)));
                            }
                        }
                    }
                    (mine, None)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<(usize, Panic)> = None;
    for worker in results {
        // `f` panics are caught above; a panic here is in this function.
        let (done, panicked) = worker.unwrap_or_else(|p| panic::resume_unwind(p));
        for (idx, out) in done {
            debug_assert!(slots[idx].is_none());
            slots[idx] = Some(out);
        }
        if let Some((idx, p)) = panicked {
            if first_panic.as_ref().is_none_or(|(first, _)| idx < *first) {
                first_panic = Some((idx, p));
            }
        }
    }
    if let Some((idx, p)) = first_panic {
        resume_point(idx, p);
    }
    slots
        .into_iter()
        .map(|s| s.expect("sweep slot unfilled"))
        .collect()
}

/// Default thread count for sweeps: the `VF_THREADS` environment
/// variable when set to a positive integer (clamped to [`MAX_THREADS`]),
/// otherwise the machine's parallelism, leaving the result at least 1.
///
/// The override lets CI pin parallelism for reproducible wall-clock
/// smokes and lets laptops throttle a sweep without touching code;
/// an unparsable or zero value falls back to the hardware count.
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("VF_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n > 0 {
                return n.min(MAX_THREADS);
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Upper clamp for the `VF_THREADS` override: far above any real core
/// count, low enough that a typo ("1000000") cannot ask the OS for a
/// million scoped threads.
pub const MAX_THREADS: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let inputs: Vec<u64> = (0..257).collect();
        let outputs = parallel_map(inputs.clone(), 8, |&x| x * x);
        assert_eq!(outputs, inputs.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let outputs = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(outputs, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let outputs: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |&x| x);
        assert!(outputs.is_empty());
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs must all complete.
        let inputs: Vec<u64> = (0..64).collect();
        let outputs = parallel_map(inputs, 4, |&x| {
            let spin = if x % 7 == 0 { 200_000 } else { 10 };
            (0..spin).fold(x, |acc, _| acc.wrapping_mul(6364136223846793005))
        });
        assert_eq!(outputs.len(), 64);
    }

    #[test]
    fn more_threads_than_items() {
        let outputs = parallel_map(vec![5, 6], 32, |&x| x * 10);
        assert_eq!(outputs, vec![50, 60]);
    }

    #[test]
    #[should_panic(expected = "sweep point 1 panicked: assertion `left != right` failed: boom")]
    fn worker_panic_propagates() {
        let _ = parallel_map(vec![0u32, 1, 2], 2, |&x| {
            assert_ne!(x, 1, "boom");
            x
        });
    }

    #[test]
    #[should_panic(expected = "sweep point 3 panicked: point 3 is bad")]
    fn single_thread_panic_names_the_point() {
        let _ = parallel_map((0..8u32).collect(), 1, |&x| {
            assert!(x != 3, "point {x} is bad");
            x
        });
    }

    /// Two points panic on two workers, the later one first: point 5
    /// holds until point 13 has panicked. The lower index is still the
    /// one re-raised, after both workers are joined.
    #[test]
    fn first_panic_in_input_order_wins_on_two_threads() {
        let later_panicked = AtomicBool::new(false);
        let err = std::panic::catch_unwind(|| {
            parallel_map((0..64u32).collect(), 2, |&x| {
                match x {
                    5 => {
                        while !later_panicked.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                    }
                    13 => later_panicked.store(true, Ordering::SeqCst),
                    _ => return x,
                }
                panic!("bad point {x}");
            })
        })
        .expect_err("points panicked");
        let msg = err.downcast_ref::<String>().expect("message payload");
        assert_eq!(msg, "sweep point 5 panicked: bad point 5");
    }

    #[test]
    fn non_message_payload_resumes_unchanged() {
        let err = std::panic::catch_unwind(|| {
            parallel_map(vec![0u32, 1], 2, |&x| {
                if x == 1 {
                    std::panic::panic_any(42u64);
                }
                x
            })
        })
        .expect_err("point 1 panicked");
        assert_eq!(err.downcast_ref::<u64>(), Some(&42));
    }

    /// All `VF_THREADS` scenarios in one test: the test harness runs
    /// `#[test]` functions concurrently, and the environment is process
    /// global, so splitting these into separate tests would race.
    #[test]
    fn vf_threads_override() {
        let hw = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let with_env = |val: Option<&str>, f: &dyn Fn()| {
            match val {
                Some(v) => std::env::set_var("VF_THREADS", v),
                None => std::env::remove_var("VF_THREADS"),
            }
            f();
            std::env::remove_var("VF_THREADS");
        };
        with_env(None, &|| assert_eq!(default_threads(), hw));
        with_env(Some("3"), &|| assert_eq!(default_threads(), 3));
        with_env(Some(" 12 "), &|| assert_eq!(default_threads(), 12));
        // Clamped, not rejected: a huge ask caps at MAX_THREADS.
        with_env(Some("1000000"), &|| {
            assert_eq!(default_threads(), MAX_THREADS)
        });
        // Invalid or zero values fall back to the hardware count.
        with_env(Some("0"), &|| assert_eq!(default_threads(), hw));
        with_env(Some("lots"), &|| assert_eq!(default_threads(), hw));
        with_env(Some(""), &|| assert_eq!(default_threads(), hw));
        with_env(Some("-2"), &|| assert_eq!(default_threads(), hw));
    }
}
