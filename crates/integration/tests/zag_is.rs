//! IS's `rank` function ported to Zag — the third kernel of the paper's
//! evaluation re-enacted in the mini-language (§V-C ported the C `rank` to
//! Zig). The bucketed algorithm needs per-thread histograms, a `single` for
//! the bucket prefix sum, cross-thread offset computation, a scatter phase,
//! and the paper's `static,1` schedule for the per-bucket ranking.
//! Validated bitwise against `npb::is::rank_serial`. The port itself is
//! [`zomp_bench::ports::ZAG_RANK`], the same source the benchmarks run.

use std::sync::Arc;

use npb::is::{custom_params, rank_serial};
use zomp_bench::ports::ZAG_RANK;
use zomp_vm::value::{ArrI, Value};
use zomp_vm::Vm;

fn to_arr(v: &[i64]) -> Arc<ArrI> {
    let a = Arc::new(ArrI::new(v.len()));
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).unwrap();
    }
    a
}

#[test]
fn zag_rank_matches_rust_serial() {
    let maxlog = 9u32;
    let nblog = 4u32;
    let params = custom_params(11, maxlog, nblog);
    let keys: Vec<u32> = npb::is::create_seq(&params);
    let keys_i: Vec<i64> = keys.iter().map(|&k| k as i64).collect();
    let want = rank_serial(&keys, &params);

    for (backend, opt) in [
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O0),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O1),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O2),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O3),
        (zomp_vm::Backend::Native, zomp_vm::OptLevel::O2),
        (zomp_vm::Backend::Native, zomp_vm::OptLevel::O3),
        (zomp_vm::Backend::Ast, zomp_vm::OptLevel::O0),
    ] {
        let vm = Vm::build(ZAG_RANK, None, backend, opt).expect("compile Zag rank");
        for threads in [1i64, 2, 4] {
            let nb = 1usize << nblog;
            let counts = Arc::new(ArrI::new(threads as usize * nb));
            let starts = Arc::new(ArrI::new(nb + 1));
            let buff2 = Arc::new(ArrI::new(keys.len()));
            let ranks = Arc::new(ArrI::new(1 << maxlog));
            vm.call_function(
                "rank",
                vec![
                    Value::ArrI(to_arr(&keys_i)),
                    Value::Int(keys.len() as i64),
                    Value::Int(maxlog as i64),
                    Value::Int(nblog as i64),
                    Value::ArrI(Arc::clone(&counts)),
                    Value::ArrI(Arc::clone(&starts)),
                    Value::ArrI(Arc::clone(&buff2)),
                    Value::ArrI(Arc::clone(&ranks)),
                    Value::Int(threads),
                ],
            )
            .expect("run Zag rank");

            let got: Vec<u32> = ranks.to_vec().iter().map(|&v| v as u32).collect();
            assert_eq!(
                got, want,
                "rank mismatch at {threads} threads ({backend:?})"
            );
            // buff2 holds a bucket-sorted permutation of the keys.
            let mut sorted_input = keys_i.clone();
            sorted_input.sort_unstable();
            let mut buff = buff2.to_vec();
            // Within buckets order varies by thread interleaving; sorting
            // recovers the multiset.
            buff.sort_unstable();
            assert_eq!(
                buff, sorted_input,
                "scatter lost keys at {threads} threads ({backend:?})"
            );
        }
    }
}

/// The fused rank-pipeline kernel (`--opt=3` on the phase-4 bucket
/// loop) must produce bit-identical ranks to the `--opt=2` interpreter
/// no matter how the worksharing runtime carves the bucket iterations
/// up — every schedule kind crossed with 1/2/4-thread teams, all
/// against the serial Rust oracle. The kernel claims whole buckets
/// through `ws_begin`, so a chunking bug would shear exactly here.
#[test]
fn rank_pipeline_native_bit_identity_across_schedules_and_threads() {
    let maxlog = 9u32;
    let nblog = 4u32;
    let params = custom_params(11, maxlog, nblog);
    let keys: Vec<u32> = npb::is::create_seq(&params);
    let keys_i: Vec<i64> = keys.iter().map(|&k| k as i64).collect();
    let want = rank_serial(&keys, &params);
    let nb = 1usize << nblog;

    for sched in [
        "static",
        "static, 1",
        "static, 3",
        "dynamic",
        "dynamic, 2",
        "guided",
    ] {
        let src = ZAG_RANK.replace(
            "schedule(static, 1) nowait",
            &format!("schedule({sched}) nowait"),
        );
        assert!(src.contains(sched), "schedule substitution failed");
        for (backend, opt) in [
            (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O2),
            (zomp_vm::Backend::Native, zomp_vm::OptLevel::O3),
        ] {
            let vm = Vm::build(&src, None, backend, opt).expect("compile Zag rank");
            for threads in [1i64, 2, 4] {
                let counts = Arc::new(ArrI::new(threads as usize * nb));
                let starts = Arc::new(ArrI::new(nb + 1));
                let buff2 = Arc::new(ArrI::new(keys.len()));
                let ranks = Arc::new(ArrI::new(1 << maxlog));
                vm.call_function(
                    "rank",
                    vec![
                        Value::ArrI(to_arr(&keys_i)),
                        Value::Int(keys.len() as i64),
                        Value::Int(maxlog as i64),
                        Value::Int(nblog as i64),
                        Value::ArrI(Arc::clone(&counts)),
                        Value::ArrI(Arc::clone(&starts)),
                        Value::ArrI(Arc::clone(&buff2)),
                        Value::ArrI(Arc::clone(&ranks)),
                        Value::Int(threads),
                    ],
                )
                .expect("run Zag rank");
                let got: Vec<u32> = ranks.to_vec().iter().map(|&v| v as u32).collect();
                assert_eq!(
                    got, want,
                    "rank mismatch: schedule({sched}), {threads} threads ({backend:?}, {opt:?})"
                );
            }
        }
    }
}

#[test]
fn port_passes_data_sharing_check() {
    // The port is a known-clean program: the `zag --check` lint must not
    // flag it (acceptance criterion of the analysis pass).
    let ast = zomp_front::parse(ZAG_RANK).expect("port parses");
    let findings = zomp_front::analyze(&ast, "zag_is");
    let rendered: Vec<String> = findings.iter().map(|d| d.render(ZAG_RANK)).collect();
    assert!(
        rendered.is_empty(),
        "lint findings on clean port: {rendered:#?}"
    );
}

mod common;

/// Golden `--remarks` output for the IS port: the histogram, scatter
/// and fused rank-pipeline phases should all appear as installed kernels.
#[test]
fn is_port_remarks_match_golden() {
    common::check_remarks_golden(ZAG_RANK, "is.zag", "remarks_is.txt");
}

/// Run the shared `rank` port on one thread with a `ranks` array of
/// `rlen` elements (the port needs `2^maxlog`), returning the error
/// text, if any. One thread, because a trap in one member of a larger
/// team still leaves its siblings waiting at the next barrier.
fn run_rank(backend: zomp_vm::Backend, rlen: usize) -> Result<(), String> {
    let maxlog = 9u32;
    let nblog = 4u32;
    let params = custom_params(11, maxlog, nblog);
    let keys: Vec<i64> = npb::is::create_seq(&params)
        .iter()
        .map(|&k| k as i64)
        .collect();
    let nb = 1usize << nblog;
    let opt = match backend {
        zomp_vm::Backend::Ast => zomp_vm::OptLevel::O0,
        _ => zomp_vm::OptLevel::O3,
    };
    let vm = Vm::build(ZAG_RANK, None, backend, opt).expect("compile Zag rank");
    vm.call_function(
        "rank",
        vec![
            Value::ArrI(to_arr(&keys)),
            Value::Int(keys.len() as i64),
            Value::Int(maxlog as i64),
            Value::Int(nblog as i64),
            Value::ArrI(Arc::new(ArrI::new(nb))),
            Value::ArrI(Arc::new(ArrI::new(nb + 1))),
            Value::ArrI(Arc::new(ArrI::new(keys.len()))),
            Value::ArrI(Arc::new(ArrI::new(rlen))),
            Value::Int(1),
        ],
    )
    .map(|_| ())
    .map_err(|e| e.to_string())
}

/// A `ranks` array one key short makes the fused `rank-pipeline` kernel
/// bail on the last bucket, before that bucket's first store. The
/// interpreter replays the bucket and must raise the tree-walker
/// oracle's exact error, on the native backend and on bytecode at
/// `--opt=3`.
#[test]
fn rank_pipeline_bail_replays_oracle_error() {
    let diags = zomp_vm::remarks::collect(ZAG_RANK, "is.zag", zomp_vm::OptLevel::O3)
        .expect("collect remarks");
    assert!(
        diags
            .iter()
            .any(|d| d.code == "kernel-installed" && d.message.contains("rank-pipeline")),
        "rank-pipeline did not install: {diags:#?}"
    );
    let maxkey = 1usize << 9;
    assert_eq!(run_rank(zomp_vm::Backend::Native, maxkey), Ok(()));
    let oracle = run_rank(zomp_vm::Backend::Ast, maxkey - 1);
    assert!(oracle.is_err(), "expected an out-of-bounds error");
    let bails = zomp::trace::metrics().kernel_bails;
    zomp::trace::enable_counters();
    let native = run_rank(zomp_vm::Backend::Native, maxkey - 1);
    zomp::trace::disable_all();
    assert!(
        zomp::trace::metrics().kernel_bails > bails,
        "the kernel must bail rather than miss"
    );
    assert_eq!(native, oracle, "native backend");
    assert_eq!(
        run_rank(zomp_vm::Backend::Bytecode, maxkey - 1),
        oracle,
        "--opt=3"
    );
}
