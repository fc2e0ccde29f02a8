//! End-to-end checks of the tier-observability pipeline over the public
//! VM API: the kernel telemetry probes fold into `MetricsSnapshot`,
//! runtime quickening and deopt rewrites count, and the profiler's
//! event fold attributes a kernel-carried pragma loop to the native
//! tier with its `unit:line` label intact.
//!
//! Tracing mode is process-global, so every test serialises on one
//! mutex and restores the disabled state before releasing it.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use zomp::{profile, trace};
use zomp_vm::value::{ArrF, Value};
use zomp_vm::{Backend, OptLevel, Vm};

fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<Mutex<()>> = OnceLock::new();
    let g = M
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    trace::disable_all();
    trace::reset();
    g
}

/// A constant-fill pragma loop: no fixed kernel shape matches it, so at
/// `--opt=3` it runs on the typed-template tier, which reports through
/// the same kernel telemetry, and every iteration runs native.
const FILL: &str = r#"
fn fill(a: []f64, n: i64, nthreads: i64) void {
    //$omp parallel num_threads(nthreads) shared(a) firstprivate(n)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            a[i] = 3.0;
        }
    }
}
"#;

/// With counters on, a kernel-carried loop reports every trip through
/// the `KernelEnter` telemetry: total native iterations equal the trip
/// count, no bails, and the result array is still correct.
#[test]
fn kernel_counters_fold_into_metrics() {
    let _g = serial();
    const N: usize = 4096;
    const THREADS: u64 = 4;
    let a = Arc::new(ArrF::new(N));
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    trace::enable_counters();
    vm.call_function(
        "fill",
        vec![
            Value::ArrF(a.clone()),
            Value::Int(N as i64),
            Value::Int(THREADS as i64),
        ],
    )
    .expect("run fill");
    trace::disable_all();
    let m = trace::metrics();
    assert!(
        m.kernel_enters >= 1 && m.kernel_enters <= THREADS,
        "static schedule on {THREADS} threads: expected 1..={THREADS} kernel \
         entries, got {}",
        m.kernel_enters
    );
    assert_eq!(
        m.kernel_iters, N as u64,
        "every iteration of the fill loop must run inside the kernel"
    );
    assert_eq!(m.kernel_bails, 0, "the fill loop must not bail");
    for i in 0..N as i64 {
        assert_eq!(a.get(i).unwrap(), 3.0);
    }
    trace::reset();
}

/// A slot reassigned Int -> Float stays `Dynamic` under static typeck,
/// so at `--opt=2` the interpreter quickens its generic ops on first
/// execution and deopts when the type flips — both rewrites must land
/// in the counters.
#[test]
fn quicken_and_deopt_counters_increment() {
    let _g = serial();
    let src = r#"fn main() void {
    var x: any = undefined;
    x = 1;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        x = x + x;
        if (i == 2) { x = 0.5; }
    }
    print(x);
}"#;
    let vm =
        Vm::build(src, Some("flip.zag"), Backend::Bytecode, OptLevel::O2).expect("compile flip");
    trace::enable_counters();
    vm.call_function("main", Vec::new()).expect("run flip");
    trace::disable_all();
    let m = trace::metrics();
    assert!(
        m.quickens >= 1,
        "the generic add must quicken on its first Int execution"
    );
    assert!(
        m.deopts >= 1,
        "the Int->Float flip must deopt the quickened add"
    );
    trace::reset();
}

/// The profiler's event fold sees the same run: one pragma loop,
/// labelled with its compilation unit, with (near-)all iterations
/// attributed to the native tier.
#[test]
fn tier_report_attributes_fill_loop_to_native() {
    let _g = serial();
    const N: usize = 4096;
    let a = Arc::new(ArrF::new(N));
    let vm =
        Vm::build(FILL, Some("fill.zag"), Backend::Native, OptLevel::O3).expect("compile fill");
    profile::reset();
    profile::enable();
    vm.call_function(
        "fill",
        vec![Value::ArrF(a), Value::Int(N as i64), Value::Int(4)],
    )
    .expect("run fill");
    profile::disable();
    let tiers = profile::tier_report();
    trace::reset();
    let t = tiers
        .iter()
        .find(|t| t.total_iters > 0)
        .expect("the fill pragma loop must appear in the tier report");
    assert!(
        t.label.starts_with("fill.zag:"),
        "loop label must carry the compilation unit: {}",
        t.label
    );
    assert_eq!(t.total_iters, N as u64);
    assert!(
        t.native_frac() > 0.99,
        "fill loop must be fully native, got {:.3} ({}/{} iters)",
        t.native_frac(),
        t.native_iters,
        t.total_iters
    );
    assert_eq!(t.bails, 0);
    assert_eq!(t.deopts, 0);
}
