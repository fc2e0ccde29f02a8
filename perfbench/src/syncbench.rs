//! EPCC syncbench-style overheads of the `zomp` runtime primitives.
//!
//! As in the EPCC OpenMP microbenchmarks, each test times `inner`
//! repetitions of a reference delay loop wrapped in the construct, and
//! the overhead is the difference from the same delays run bare, per
//! repetition. Each test is repeated `OUTER` times and the median kept.
//!
//! * fork/join: one `fork_call` per repetition, the delay inside it;
//! * barrier: one region, a delay then `ThreadCtx::barrier` per repetition;
//! * dispatch: one region draining a `schedule::DynamicDispatch` with
//!   chunk 1 through `next`, a delay per chunk; overhead per claim;
//! * reduction: one region, a delay then a `RedCell` combine and the
//!   barrier that publishes it (the reduction clause's implicit barrier)
//!   per repetition. Every combined value is checked.

use std::hint::black_box;
use std::time::Instant;

use zomp::prelude::*;
use zomp::schedule::DynamicDispatch;

use crate::stats::median;
use crate::trace::{SpanId, Tracer};

const OUTER: usize = 9;
/// Target length of one reference delay.
const DELAY_NS: f64 = 500.0;

#[inline(never)]
pub fn delay(n: u64) {
    let mut a = 0.0f64;
    for i in 0..n {
        a += black_box(i as f64);
    }
    black_box(a);
}

/// Delay-loop length that takes about [`DELAY_NS`] on this host.
fn calibrate() -> u64 {
    const PROBE: u64 = 200_000;
    let t = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            delay(PROBE);
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min);
    ((DELAY_NS * PROBE as f64 / t) as u64).max(1)
}

/// Median over `OUTER` samples of `(test - reference) / inner`, in ns.
fn overhead_ns(inner: u64, d: u64, mut test: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..OUTER)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..inner {
                delay(d);
            }
            let reference = t0.elapsed().as_nanos() as f64;
            let t1 = Instant::now();
            test();
            (t1.elapsed().as_nanos() as f64 - reference) / inner as f64
        })
        .collect();
    median(&samples)
}

/// Host speed probe: median nanoseconds of a million-step delay loop.
/// Printed at the start and end of every run, so drift in the host's
/// speed between runs shows next to the metrics it moves.
pub fn probe_ns() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            delay(1_000_000);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Per-primitive overheads at one team size.
pub struct Overheads {
    pub fork_join_us: f64,
    pub barrier_us: f64,
    pub dispatch_chunk_ns: f64,
    pub reduction_us: f64,
}

/// Run the four tests at `nth` threads. Panics if a reduction loses an
/// update, which would be a runtime bug.
pub fn measure(nth: usize, tracer: &Tracer, parent: Option<SpanId>) -> Overheads {
    let d = calibrate();
    let par = || Parallel::new().num_threads(nth);
    let root = |name, f: &mut dyn FnMut() -> f64| tracer.span(name, nth as u64, parent, |_| f());

    let fork_join_us = root("rt.fork_join", &mut || {
        overhead_ns(200, d, || {
            for _ in 0..200 {
                fork_call(par(), |_| delay(d));
            }
        }) / 1e3
    });
    let barrier_us = root("rt.barrier", &mut || {
        overhead_ns(2000, d, || {
            fork_call(par(), |ctx| {
                for _ in 0..2000 {
                    delay(d);
                    ctx.barrier();
                }
            });
        }) / 1e3
    });
    let dispatch_chunk_ns = root("rt.dispatch", &mut || {
        const PER_THREAD: u64 = 2000;
        overhead_ns(PER_THREAD, d, || {
            let disp = DynamicDispatch::new(PER_THREAD * nth as u64, nth, Some(1));
            fork_call(par(), |ctx| {
                while let Some(r) = disp.next(ctx.thread_num()) {
                    for _ in r {
                        delay(d);
                    }
                }
            });
        })
    });
    let reduction_us = root("rt.reduction", &mut || {
        const REPS: usize = 1000;
        overhead_ns(REPS as u64, d, || {
            let cells: Vec<RedCell<f64>> =
                (0..REPS).map(|_| RedCell::new(RedOp::Add, 0.0)).collect();
            fork_call(par(), |ctx| {
                for cell in &cells {
                    delay(d);
                    cell.combine(1.0);
                    ctx.barrier();
                }
            });
            assert!(
                cells.iter().all(|c| c.get() == nth as f64),
                "a reduction lost an update at {nth} threads"
            );
        }) / 1e3
    });
    Overheads {
        fork_join_us,
        barrier_us,
        dispatch_chunk_ns,
        reduction_us,
    }
}
