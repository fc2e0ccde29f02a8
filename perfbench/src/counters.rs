//! Metric names shared by the workloads, and the per-layer metrics read
//! from the runtime's existing counters (`zomp::trace::metrics()`) and
//! from the syncbench overheads.

use zomp::MetricsSnapshot;

use crate::report::Outcome;
use crate::syncbench::Overheads;

/// The `zagd.*` metrics, reported as 0 by the workloads that send no
/// requests.
pub const ZAGD_METRICS: [&str; 6] = [
    "zagd.decode_us",
    "zagd.cache_hit_us",
    "zagd.compile_miss_ms",
    "zagd.exec_ms",
    "zagd.transport_ms",
    "zagd.cache_hit_rate",
];

/// `<kernel>_ns_per_op_<n>t` for kernel 0, 1, 2 (CG, EP, IS).
pub fn ns_per_op(kernel: usize, nth: usize) -> &'static str {
    const NAMES: [[&str; 2]; 3] = [
        ["cg_ns_per_op_1t", "cg_ns_per_op_2t"],
        ["ep_ns_per_op_1t", "ep_ns_per_op_2t"],
        ["is_ns_per_op_1t", "is_ns_per_op_2t"],
    ];
    NAMES[kernel][nth - 1]
}

/// `(ref.<k>_ns_per_op_<n>t, zag_over_ref.<k>_<n>t)` for kernel 0, 1, 2.
pub fn ref_names(kernel: usize, nth: usize) -> (&'static str, &'static str) {
    const NAMES: [[(&str, &str); 2]; 3] = [
        [
            ("ref.cg_ns_per_op_1t", "zag_over_ref.cg_1t"),
            ("ref.cg_ns_per_op_2t", "zag_over_ref.cg_2t"),
        ],
        [
            ("ref.ep_ns_per_op_1t", "zag_over_ref.ep_1t"),
            ("ref.ep_ns_per_op_2t", "zag_over_ref.ep_2t"),
        ],
        [
            ("ref.is_ns_per_op_1t", "zag_over_ref.is_1t"),
            ("ref.is_ns_per_op_2t", "zag_over_ref.is_2t"),
        ],
    ];
    NAMES[kernel][nth - 1]
}

/// Counter deltas over a traced measuring phase.
pub struct Delta {
    regions: u64,
    chunks_owned: u64,
    chunks_stolen: u64,
    iters: u64,
    steal_failures: u64,
    barrier_waits: u64,
    barrier_parks: u64,
    kernel_iters: u64,
    kernel_bails: u64,
    quickens: u64,
    deopts: u64,
}

impl Delta {
    pub fn new(a: &MetricsSnapshot, b: &MetricsSnapshot) -> Delta {
        Delta {
            regions: b.regions - a.regions,
            chunks_owned: b.chunks_owned - a.chunks_owned,
            chunks_stolen: b.chunks_stolen - a.chunks_stolen,
            iters: (b.iters_owned + b.iters_stolen) - (a.iters_owned + a.iters_stolen),
            steal_failures: b.steal_failures - a.steal_failures,
            barrier_waits: b.barrier_waits - a.barrier_waits,
            barrier_parks: b.barrier_parks - a.barrier_parks,
            kernel_iters: b.kernel_iters - a.kernel_iters,
            kernel_bails: b.kernel_bails - a.kernel_bails,
            quickens: b.quickens - a.quickens,
            deopts: b.deopts - a.deopts,
        }
    }

    /// Set the counter metrics, per job (a kernel call or a request).
    pub fn report(&self, jobs: u64, out: &mut Outcome) {
        let per_job = |n: u64| n as f64 / jobs.max(1) as f64;
        let frac = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let rows = [
            ("vm.native_iter_frac", frac(self.kernel_iters, self.iters)),
            ("vm.kernel_bails", per_job(self.kernel_bails)),
            ("vm.quickens", per_job(self.quickens)),
            ("vm.deopts", per_job(self.deopts)),
            ("rt.regions", per_job(self.regions)),
            (
                "rt.chunks_stolen_frac",
                frac(self.chunks_stolen, self.chunks_owned + self.chunks_stolen),
            ),
            ("rt.steal_failures", per_job(self.steal_failures)),
            (
                "rt.barrier_park_frac",
                frac(self.barrier_parks, self.barrier_waits),
            ),
        ];
        println!(
            "-- runtime counters over {jobs} traced jobs: {} kernel iters of {} dispatched iters, \
             {} of {} chunks stolen, {} of {} barrier waits parked",
            self.kernel_iters,
            self.iters,
            self.chunks_stolen,
            self.chunks_owned + self.chunks_stolen,
            self.barrier_parks,
            self.barrier_waits
        );
        for (name, v) in rows {
            println!("   {name:<24} {v:>12.4}");
            out.set(name, v);
        }
    }
}

/// Set and print the `rt.*` syncbench overheads at 1 and 2 threads.
pub fn report_syncbench(rt: &[Overheads; 2], out: &mut Outcome) {
    println!(
        "-- zomp runtime overheads (EPCC syncbench method: construct minus reference delay, \
         median of 9)"
    );
    let rows = [
        (
            "rt.fork_join_us",
            "us",
            rt.each_ref().map(|o| o.fork_join_us),
        ),
        ("rt.barrier_us", "us", rt.each_ref().map(|o| o.barrier_us)),
        (
            "rt.dispatch_chunk_ns",
            "ns",
            rt.each_ref().map(|o| o.dispatch_chunk_ns),
        ),
        (
            "rt.reduction_us",
            "us",
            rt.each_ref().map(|o| o.reduction_us),
        ),
    ];
    const NAMES: [[&str; 2]; 4] = [
        ["rt.fork_join_us.1t", "rt.fork_join_us.2t"],
        ["rt.barrier_us.1t", "rt.barrier_us.2t"],
        ["rt.dispatch_chunk_ns.1t", "rt.dispatch_chunk_ns.2t"],
        ["rt.reduction_us.1t", "rt.reduction_us.2t"],
    ];
    for ((name, unit, [a, b]), [n1, n2]) in rows.into_iter().zip(NAMES) {
        println!(
            "   {name:<22} 1t {a:>10.3} {unit}   2t {b:>10.3} {unit}   2t/1t {:>8.2}",
            b / a
        );
        out.set(n1, a);
        out.set(n2, b);
    }
}
