//! The `kernels-native` and `kernels-bytecode` workloads: the three NPB
//! ports of `zomp_bench::ports` (CG `matvec`, EP `ep`, IS `rank`), each
//! called at 1 and 2 threads on one execution tier, every output checked
//! against the `npb` crate on the same inputs.
//!
//! Inputs, drawn from the seed:
//! * CG: the NPB class S `makea` matrix (na=1400, nonzer=7) times a
//!   seeded vector `p` in `[-1, 1)`;
//! * EP: `m` = [`EP_M`] pairs in batches of `2^`[`EP_MK`] (EP's stream
//!   is fixed by NPB, so the seed does not change it);
//! * IS: 2^16 class S keys below 2^11 in 2^9 buckets, from NPB's
//!   `create_seq` recurrence started at a seeded state.
//!
//! A round makes passes over the six (kernel, threads) jobs, calling each
//! once per pass in an order rotated every pass: 24 passes on the native
//! tier, one on the bytecode tier, whose calls are 20-100 times longer.
//! A round is this workload's request: the work of a caller who needs all
//! three results at both team sizes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use npb::cg::makea::{makea, SparseMatrix};
use npb::class::{CgParams, Class, IsParams};
use npb::randlc::{randlc, DEFAULT_MULT};
use zomp::prelude::*;
use zomp::workshare::for_loop;
use zomp_vm::value::{ArrF, ArrI};
use zomp_vm::{Backend, OptLevel, Value, Vm};

use crate::report::{Outcome, Tally};
use crate::stats::{median, median_over_windows, quantile, sorted, summarize, Rng};
use crate::trace::{SpanId, Tracer};
use crate::{pipeline, syncbench, Args};

/// EP size: 2^13 Gaussian-candidate pairs in 8 batches of 2^10.
pub const EP_M: i64 = 13;
pub const EP_MK: i64 = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Team sizes every kernel runs at.
const THREADS: [usize; 2] = [1, 2];
/// Share of a traced run's measuring time spent with tracing off, to
/// price the tracing itself.
const UNTRACED_SHARE: f64 = 0.4;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Native,
    Bytecode,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kernel {
    Cg,
    Ep,
    Is,
}

const KERNELS: [Kernel; 3] = [Kernel::Cg, Kernel::Ep, Kernel::Is];

impl Kernel {
    fn name(self) -> &'static str {
        match self {
            Kernel::Cg => "cg",
            Kernel::Ep => "ep",
            Kernel::Is => "is",
        }
    }

    fn entry(self) -> &'static str {
        match self {
            Kernel::Cg => "matvec",
            Kernel::Ep => "ep",
            Kernel::Is => "rank",
        }
    }

    fn source(self) -> &'static str {
        match self {
            Kernel::Cg => zomp_bench::ports::ZAG_MATVEC,
            Kernel::Ep => zomp_bench::ports::ZAG_EP,
            Kernel::Is => zomp_bench::ports::ZAG_RANK,
        }
    }

    fn unit(self) -> &'static str {
        match self {
            Kernel::Cg => "cg.zag",
            Kernel::Ep => "ep.zag",
            Kernel::Is => "is.zag",
        }
    }

    fn op(self) -> &'static str {
        match self {
            Kernel::Cg => "nonzero",
            Kernel::Ep => "pair",
            Kernel::Is => "key",
        }
    }

    fn exec_span(self) -> &'static str {
        match self {
            Kernel::Cg => "exec.matvec",
            Kernel::Ep => "exec.ep",
            Kernel::Is => "exec.rank",
        }
    }

    fn ref_span(self) -> &'static str {
        match self {
            Kernel::Cg => "ref.cg",
            Kernel::Ep => "ref.ep",
            Kernel::Is => "ref.is",
        }
    }
}

struct Inputs {
    mat: SparseMatrix,
    p: Vec<f64>,
    is: IsParams,
    keys: Vec<u32>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let mat = makea(&CgParams::for_class(Class::S));
        let p = (0..mat.n).map(|_| rng.unit()).collect();
        let is = IsParams::for_class(Class::S);
        // NPB's `create_seq`, started from a seeded odd state below 2^46.
        let mut s = ((rng.next_u64() >> 18) | 1) as f64;
        let k = is.max_key() as f64 / 4.0;
        let keys = (0..is.num_keys())
            .map(|_| {
                let x: f64 = (0..4).map(|_| randlc(&mut s, DEFAULT_MULT)).sum();
                (k * x) as u32
            })
            .collect();
        Inputs { mat, p, is, keys }
    }

    fn ops(&self, k: Kernel) -> f64 {
        match k {
            Kernel::Cg => self.mat.nnz() as f64,
            Kernel::Ep => (1u64 << EP_M) as f64,
            Kernel::Is => self.keys.len() as f64,
        }
    }
}

/// The `npb` crate's results on the same inputs.
struct Expected {
    q: Vec<f64>,
    ep: npb::ep::EpResult,
    ranks: Vec<u32>,
}

impl Expected {
    fn new(inp: &Inputs) -> Expected {
        let mut q = vec![0.0; inp.mat.n];
        inp.mat.spmv(&inp.p, &mut q);
        Expected {
            q,
            ep: npb::ep::run_serial(&npb::ep::custom_params(EP_M as u32)),
            ranks: npb::is::rank_serial(&inp.keys, &inp.is),
        }
    }

    /// EP returns `sx * 1e6 + sy`; `sx` and `sy` may each differ from
    /// `npb` by the worst-case bound on reordering a sum of `n` terms
    /// below 10 in magnitude: `10 * n^2 * eps`.
    fn ep_matches(&self, got: f64) -> bool {
        let n = (1u64 << EP_M) as f64;
        let tol = (1e6 + 1.0) * 10.0 * n * n * f64::EPSILON;
        (got - (self.ep.sx * 1e6 + self.ep.sy)).abs() <= tol
    }
}

fn arr_f(v: &[f64]) -> Arc<ArrF> {
    let a = ArrF::new(v.len());
    for (i, &x) in v.iter().enumerate() {
        a.set(i as i64, x).expect("in bounds");
    }
    Arc::new(a)
}

fn arr_i(v: impl ExactSizeIterator<Item = i64>) -> Arc<ArrI> {
    let a = ArrI::new(v.len());
    for (i, x) in v.enumerate() {
        a.set(i as i64, x).expect("in bounds");
    }
    Arc::new(a)
}

/// Compiled ports and their arguments, marshalled into VM arrays.
struct Bound {
    vms: Vec<Vm>,
    /// `args[kernel][team size index]`.
    args: Vec<[Vec<Value>; 2]>,
    q: Arc<ArrF>,
    ep_q: Arc<ArrF>,
    ranks: Arc<ArrI>,
}

impl Bound {
    fn marshal(vms: Vec<Vm>, inp: &Inputs) -> Bound {
        let m = &inp.mat;
        let rowstr = arr_i(m.rowstr.iter().map(|&v| v as i64));
        let colidx = arr_i(m.colidx.iter().map(|&v| v as i64));
        let a = arr_f(&m.a);
        let p = arr_f(&inp.p);
        let q = Arc::new(ArrF::new(m.n));
        let ep_q = Arc::new(ArrF::new(10));
        let nb = inp.is.num_buckets();
        let keys = arr_i(inp.keys.iter().map(|&k| i64::from(k)));
        let counts = Arc::new(ArrI::new(THREADS[1] * nb));
        let starts = Arc::new(ArrI::new(nb + 1));
        let buff2 = Arc::new(ArrI::new(inp.keys.len()));
        let ranks = Arc::new(ArrI::new(inp.is.max_key()));
        let per_team = |f: &dyn Fn(i64) -> Vec<Value>| [f(1), f(2)];
        let args = vec![
            per_team(&|nth| {
                vec![
                    Value::Int(m.n as i64),
                    Value::ArrI(Arc::clone(&rowstr)),
                    Value::ArrI(Arc::clone(&colidx)),
                    Value::ArrF(Arc::clone(&a)),
                    Value::ArrF(Arc::clone(&p)),
                    Value::ArrF(Arc::clone(&q)),
                    Value::Int(1),
                    Value::Int(nth),
                ]
            }),
            per_team(&|nth| {
                vec![
                    Value::Int(EP_M),
                    Value::Int(EP_MK),
                    Value::Int(nth),
                    Value::ArrF(Arc::clone(&ep_q)),
                ]
            }),
            per_team(&|nth| {
                vec![
                    Value::ArrI(Arc::clone(&keys)),
                    Value::Int(inp.keys.len() as i64),
                    Value::Int(i64::from(inp.is.max_key_log2)),
                    Value::Int(i64::from(inp.is.num_buckets_log2)),
                    Value::ArrI(Arc::clone(&counts)),
                    Value::ArrI(Arc::clone(&starts)),
                    Value::ArrI(Arc::clone(&buff2)),
                    Value::ArrI(Arc::clone(&ranks)),
                    Value::Int(nth),
                ]
            }),
        ];
        Bound {
            vms,
            args,
            q,
            ep_q,
            ranks,
        }
    }

    /// Overwrite every output a job must produce, so a job that writes
    /// nothing cannot pass on the previous job's result.
    fn poison(&self, k: Kernel) {
        match k {
            Kernel::Cg => {
                (0..self.q.len() as i64).for_each(|i| self.q.set(i, f64::NAN).expect("in bounds"))
            }
            Kernel::Ep => (0..10).for_each(|i| self.ep_q.set(i, 0.0).expect("in bounds")),
            Kernel::Is => {
                (0..self.ranks.len() as i64).for_each(|i| self.ranks.set(i, -1).expect("in bounds"))
            }
        }
    }

    /// `None` if the job's outputs equal the expected ones, else why not.
    fn verify(&self, k: Kernel, result: Result<Value, String>, exp: &Expected) -> Option<String> {
        let v = match result {
            Ok(v) => v,
            Err(e) => return Some(format!("{} raised: {e}", k.entry())),
        };
        let wrong = match k {
            Kernel::Cg => exp.q.iter().enumerate().any(|(j, &want)| {
                self.q.get(j as i64).ok().map(f64::to_bits) != Some(want.to_bits())
            }),
            Kernel::Ep => {
                !(0..10).all(|l| self.ep_q.get(l).ok() == Some(exp.ep.q[l as usize]))
                    || !v.as_float().is_ok_and(|x| exp.ep_matches(x))
            }
            Kernel::Is => exp
                .ranks
                .iter()
                .enumerate()
                .any(|(key, &want)| self.ranks.get(key as i64).ok() != Some(i64::from(want))),
        };
        wrong.then(|| format!("{} returned a result that differs from npb", k.entry()))
    }
}

impl Tier {
    /// Passes over the six jobs per round. A native round of one pass
    /// lasts about 4 ms, so a burst of host contention that stalls one
    /// 2-thread call dominated its latency. 24 passes keep a round near
    /// 100 ms, as long as a bytecode round, with about 300 rounds in 30 s.
    /// Under a bursty CPU hog the p90/p50 ratio of native rounds rose
    /// from 1.08 to 1.41 at 6 passes, to 1.26 at 12 and to 1.12 at 24.
    fn passes(self) -> usize {
        match self {
            Tier::Native => 24,
            Tier::Bytecode => 1,
        }
    }

    fn backend_opt(self) -> (Backend, OptLevel) {
        match self {
            Tier::Native => (Backend::Native, OptLevel::O3),
            Tier::Bytecode => (Backend::Bytecode, OptLevel::O2),
        }
    }
}

/// Per-job samples of one measuring phase.
struct Samples {
    /// ns per op, `[kernel][team size index]`.
    ns_per_op: [[Vec<f64>; 2]; 3],
    /// Seconds per fully correct round, in the order the rounds ran.
    round_s: Vec<f64>,
    jobs: u64,
}

struct Ctx<'a> {
    tier: Tier,
    inp: &'a Inputs,
    exp: &'a Expected,
    tally: &'a Tally,
    jobs: &'a AtomicU64,
}

impl Ctx<'_> {
    fn next_job(&self) -> u64 {
        self.jobs.fetch_add(1, Ordering::Relaxed)
    }

    /// Run one job: poison, call (timed), verify. Returns the call's
    /// nanoseconds and whether its output was right.
    fn job(
        &self,
        bound: &Bound,
        k: Kernel,
        ti: usize,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> (f64, bool) {
        bound.poison(k);
        let args = bound.args[k as usize][ti].clone();
        let vm = &bound.vms[k as usize];
        let t0 = Instant::now();
        let r = tracer.span(k.exec_span(), self.next_job(), parent, |_| {
            vm.call_function(k.entry(), args)
        });
        let ns = t0.elapsed().as_nanos() as f64;
        let bad = bound.verify(k, r.map_err(|e| e.to_string()), self.exp);
        let ok = self.tally.check(bad.is_none(), || {
            format!(
                "{} at {} threads: {}",
                k.name(),
                THREADS[ti],
                bad.unwrap_or_default()
            )
        });
        (ns, ok)
    }

    /// Compile the ports, marshal the inputs and warm every job once (hot
    /// team, range hints). Returns the bound ports and the seconds a user
    /// pays for this: compile + marshal + warm-up calls, not the checks.
    fn setup(&self, tracer: &Tracer, parent: Option<SpanId>, first: bool) -> (Bound, f64) {
        let (backend, opt) = self.tier.backend_opt();
        let mut paid = Duration::ZERO;
        let mut vms = Vec::new();
        for k in KERNELS {
            let t0 = Instant::now();
            let program = pipeline::compile_traced(
                tracer,
                self.next_job(),
                parent,
                k.source(),
                k.unit(),
                opt,
            )
            .unwrap_or_else(|e| panic!("the {} port does not compile: {e}", k.name()));
            vms.push(Vm::from_program(
                Arc::clone(&program),
                backend,
                Arc::clone(zomp::Runtime::global()),
            ));
            paid += t0.elapsed();
            if first {
                let same = pipeline::check_same(&program, k.source(), k.unit());
                self.tally.check(same.is_ok(), || same.unwrap_err());
            }
        }
        let t0 = Instant::now();
        let bound = tracer.span("bench.marshal", self.next_job(), parent, |_| {
            Bound::marshal(vms, self.inp)
        });
        paid += t0.elapsed();
        for k in KERNELS {
            for ti in 0..THREADS.len() {
                let (ns, _) = self.job(&bound, k, ti, tracer, parent);
                paid += Duration::from_nanos(ns as u64);
            }
        }
        (bound, paid.as_secs_f64())
    }

    /// Call rounds of all six jobs until `secs` have passed.
    fn measure(
        &self,
        bound: &Bound,
        secs: f64,
        tracer: &Tracer,
        parent: Option<SpanId>,
    ) -> Samples {
        let mut s = Samples {
            ns_per_op: Default::default(),
            round_s: Vec::new(),
            jobs: 0,
        };
        let order: Vec<(Kernel, usize)> = KERNELS.iter().flat_map(|&k| [(k, 0), (k, 1)]).collect();
        let start = Instant::now();
        let mut rot = 0;
        while start.elapsed().as_secs_f64() < secs {
            let (mut round_ns, mut all_ok) = (0.0, true);
            for _ in 0..self.tier.passes() {
                for i in 0..order.len() {
                    let (k, ti) = order[(i + rot) % order.len()];
                    let (ns, ok) = self.job(bound, k, ti, tracer, parent);
                    s.jobs += 1;
                    round_ns += ns;
                    all_ok &= ok;
                    if ok {
                        s.ns_per_op[k as usize][ti].push(ns / self.inp.ops(k));
                    }
                }
                rot += 1;
            }
            if all_ok {
                s.round_s.push(round_ns / 1e9);
            }
        }
        s
    }
}

fn print_kernels(s: &Samples, out: &mut Outcome) {
    for k in KERNELS {
        let [one, two] = &s.ns_per_op[k as usize];
        if one.is_empty() || two.is_empty() {
            panic!("no correct {} job was measured", k.name());
        }
        let (m1, m2) = (median(one), median(two));
        println!(
            "   {} 1t: {} per {}",
            k.name(),
            summarize(one).show("ns"),
            k.op()
        );
        println!(
            "   {} 2t: {} per {}",
            k.name(),
            summarize(two).show("ns"),
            k.op()
        );
        println!(
            "   {} 2t speedup: 1t/2t = {m1:.3}/{m2:.3} = {:.3}x; 2t/1t = {:.3}",
            k.name(),
            m1 / m2,
            m2 / m1
        );
        out.set(crate::counters::ns_per_op(k as usize, 1), m1);
        out.set(crate::counters::ns_per_op(k as usize, 2), m2);
    }
}

/// Hand-written CSR matvec at `nth` threads: `npb`'s CG `q = A p` loop
/// (static schedule over rows) outside its solver.
fn ref_matvec(mat: &SparseMatrix, p: &[f64], q: &mut [f64], nth: usize) {
    if nth == 1 {
        return mat.spmv(p, q);
    }
    let q = SharedSlice::new(q);
    fork_call(Parallel::new().num_threads(nth), |ctx| {
        for_loop(
            ctx,
            Schedule::static_default(),
            0..mat.n as i64,
            false,
            |j| {
                let j = j as usize;
                let mut sum = 0.0;
                for k in mat.rowstr[j]..mat.rowstr[j + 1] {
                    sum += mat.a[k] * p[mat.colidx[k]];
                }
                q.set(j, sum);
            },
        );
    });
}

/// Hand-written EP at `nth` threads with the port's batching (`2^EP_MK`
/// pairs per batch), from `npb`'s LCG primitives: `npb::ep::run_parallel`
/// fixes batches at 2^16 pairs, one batch at this `m`, so it could not
/// use a second thread. Returns `(q, sx, sy)`.
fn ref_ep(nth: usize) -> ([f64; 10], f64, f64) {
    use npb::randlc::{lcg_jump, lcg_pow, vranlc};
    let nk = 1usize << EP_MK;
    let an = lcg_pow(DEFAULT_MULT, 2 * nk as u64);
    let (sx, sy) = (RedCell::new(RedOp::Add, 0.0), RedCell::new(RedOp::Add, 0.0));
    let q: [AtomicF64; 10] = Default::default();
    fork_call(Parallel::new().num_threads(nth), |ctx| {
        let mut x = vec![0.0f64; 2 * nk];
        let (mut lq, mut lsx, mut lsy) = ([0.0f64; 10], 0.0, 0.0);
        for_loop(
            ctx,
            Schedule::static_default(),
            0..1i64 << (EP_M - EP_MK),
            true,
            |kk| {
                let mut t = lcg_jump(npb::ep::EP_SEED, an, kk as u64);
                vranlc(&mut t, DEFAULT_MULT, &mut x);
                for i in 0..nk {
                    let x1 = 2.0 * x[2 * i] - 1.0;
                    let x2 = 2.0 * x[2 * i + 1] - 1.0;
                    let t1 = x1 * x1 + x2 * x2;
                    if t1 <= 1.0 {
                        let t2 = (-2.0 * t1.ln() / t1).sqrt();
                        let (t3, t4) = (x1 * t2, x2 * t2);
                        lq[t3.abs().max(t4.abs()) as usize] += 1.0;
                        lsx += t3;
                        lsy += t4;
                    }
                }
            },
        );
        sx.combine(lsx);
        sy.combine(lsy);
        for (cell, v) in q.iter().zip(lq) {
            cell.fetch_add(v);
        }
    });
    (q.map(|c| c.load()), sx.get(), sy.get())
}

/// The `npb` yardstick on the same inputs, at both team sizes, for
/// about `secs` per (kernel, threads). Every result is checked.
fn yardstick(cx: &Ctx, secs: f64, tracer: &Tracer, parent: Option<SpanId>) -> [[f64; 2]; 3] {
    let inp = cx.inp;
    let mut out = [[0.0; 2]; 3];
    for k in KERNELS {
        for (ti, &nth) in THREADS.iter().enumerate() {
            let mut samples = Vec::new();
            let start = Instant::now();
            while samples.len() < 5 || start.elapsed().as_secs_f64() < secs {
                let job = cx.next_job();
                let t0 = Instant::now();
                let ok = tracer.span(k.ref_span(), job, parent, |_| match k {
                    Kernel::Cg => {
                        let mut q = vec![0.0; inp.mat.n];
                        ref_matvec(&inp.mat, &inp.p, &mut q, nth);
                        q.iter()
                            .zip(&cx.exp.q)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                    }
                    Kernel::Ep => {
                        let (q, sx, sy) = ref_ep(nth);
                        q == cx.exp.ep.q && cx.exp.ep_matches(sx * 1e6 + sy)
                    }
                    Kernel::Is => npb::is::rank_parallel(&inp.keys, &inp.is, nth) == cx.exp.ranks,
                });
                samples.push(t0.elapsed().as_nanos() as f64 / inp.ops(k));
                cx.tally.check(ok, || {
                    format!("npb {} at {nth} threads disagrees with itself", k.name())
                });
            }
            out[k as usize][ti] = median(&samples);
            println!(
                "   ref {} {nth}t: {} per {}",
                k.name(),
                summarize(&samples).show("ns"),
                k.op()
            );
        }
        let [m1, m2] = out[k as usize];
        println!(
            "   ref {} 2t speedup: 1t/2t = {m1:.3}/{m2:.3} = {:.3}x; 2t/1t = {:.3}",
            k.name(),
            m1 / m2,
            m2 / m1
        );
    }
    out
}

/// Run a kernels workload on `tier`.
pub fn run(tier: Tier, args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let inp = Inputs::new(args.seed);
    let exp = Expected::new(&inp);
    let jobs = AtomicU64::new(0);
    let tracer = Tracer::new(args.trace);
    let untraced = Tracer::new(false);
    let cx = Ctx {
        tier,
        inp: &inp,
        exp: &exp,
        tally: &out.tally,
        jobs: &jobs,
    };
    println!(
        "-- inputs: CG makea class S n={} nnz={}; EP m={EP_M} mk={EP_MK}; IS {} keys < {} in {} buckets",
        inp.mat.n,
        inp.mat.nnz(),
        inp.keys.len(),
        inp.is.max_key(),
        inp.is.num_buckets()
    );

    let (bound, setups) = tracer.span("bench.setup", cx.next_job(), None, |root| {
        let mut setups = Vec::new();
        let mut bound = None;
        for i in 0..SETUPS {
            let (b, s) = cx.setup(&tracer, root, i == 0);
            setups.push(s);
            bound = Some(b);
        }
        (bound.expect("at least one set-up"), setups)
    });
    println!("-- setup: {}", summarize(&setups).show("s"));
    let (mut kernels, mut templates) = (0, 0);
    for vm in &bound.vms {
        let (k, t) = pipeline::installed(&vm.program);
        kernels += k;
        templates += t;
    }

    if !args.trace {
        let s = cx.measure(&bound, args.seconds, &untraced, None);
        println!("-- {} jobs in {} rounds", s.jobs, s.round_s.len());
        print_kernels(&s, &mut out);
        if s.round_s.is_empty() {
            panic!("no fully correct round was measured");
        }
        let rounds = sorted(&s.round_s);
        let ms: Vec<f64> = rounds.iter().map(|r| r * 1e3).collect();
        println!("   round latency: {}", summarize(&ms).show("ms"));
        let mut p90s = Vec::new();
        median_over_windows(&s.round_s, |w| {
            p90s.push(format!("{:.2}", quantile(&sorted(w), 0.9) * 1e3));
            0.0
        });
        println!("   round latency p90 per window: {} ms", p90s.join(" "));
        out.set("setup_s", median(&setups));
        // Rounds in the order they ran, medians over the run's windows.
        out.set(
            "req_per_s",
            median_over_windows(&s.round_s, |w| w.len() as f64 / w.iter().sum::<f64>()),
        );
        for (name, q) in [("latency_ms_p50", 0.5), ("latency_ms_p90", 0.9)] {
            out.set(
                name,
                median_over_windows(&s.round_s, |w| quantile(&sorted(w), q) * 1e3),
            );
        }
        // Recorded in the results file, not gated: see the README.
        out.set("latency_ms_p99", quantile(&ms, 0.99));
        return out;
    }

    // Traced run: price the tracing on an untraced phase first, then
    // measure with spans and the runtime's counters on.
    let base = cx.measure(&bound, args.seconds * UNTRACED_SHARE, &untraced, None);
    let (traced, delta, zag, refs, rt) =
        tracer.span("bench.measure", cx.next_job(), None, |root| {
            zomp::trace::enable_counters();
            let m0 = zomp::trace::metrics();
            let traced = cx.measure(&bound, args.seconds * (1.0 - UNTRACED_SHARE), &tracer, root);
            let m1 = zomp::trace::metrics();
            zomp::trace::disable(zomp::trace::COUNTERS);
            let zag: Vec<[f64; 2]> = traced
                .ns_per_op
                .iter()
                .map(|c| [median(&c[0]), median(&c[1])])
                .collect();
            println!("-- npb yardstick (hand-written Rust, same inputs)");
            let refs = yardstick(&cx, 0.25, &tracer, root);
            let rt = [1, 2].map(|nth| syncbench::measure(nth, &tracer, root));
            (traced, crate::counters::Delta::new(&m0, &m1), zag, refs, rt)
        });
    print_kernels(&traced, &mut out);
    let medians = |s: &Samples| -> f64 { s.ns_per_op.iter().flatten().map(|v| median(v)).sum() };
    out.set(
        "trace.overhead_frac",
        medians(&traced) / medians(&base) - 1.0,
    );
    delta.report(traced.jobs, &mut out);
    crate::counters::report_syncbench(&rt, &mut out);
    pipeline::report(&tracer, kernels, templates, &mut out);
    println!("-- Zag over the npb yardstick, same inputs and team sizes");
    for k in KERNELS {
        for (ti, &nth) in THREADS.iter().enumerate() {
            let (z, r) = (zag[k as usize][ti], refs[k as usize][ti]);
            let (ref_name, ratio_name) = crate::counters::ref_names(k as usize, nth);
            out.set(ref_name, r);
            out.set(ratio_name, z / r);
            println!(
                "   {ratio_name} = {z:.3} / {r:.3} ns per {} = {:.3}x (ref/zag = {:.3})",
                k.op(),
                z / r,
                r / z
            );
        }
    }
    for name in crate::counters::ZAGD_METRICS {
        out.set(name, 0.0);
    }
    println!("   zagd.*: not exercised on this workload (no requests), reported as 0");
    out.spans = tracer.spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose output was corrupted must raise `failed_frac`.
    #[test]
    fn corrupted_outputs_raise_failed_frac() {
        let inp = Inputs::new(1);
        let exp = Expected::new(&inp);
        let (tally, jobs, off) = (Tally::default(), AtomicU64::new(0), Tracer::new(false));
        let cx = Ctx {
            tier: Tier::Native,
            inp: &inp,
            exp: &exp,
            tally: &tally,
            jobs: &jobs,
        };
        let (bound, _) = cx.setup(&off, None, true);
        assert_eq!(tally.failed(), 0, "set-up jobs must pass");
        for k in KERNELS {
            assert!(cx.job(&bound, k, 1, &off, None).1);
        }
        bound.q.set(0, bound.q.get(0).unwrap() + 1.0).unwrap();
        bound.ranks.set(7, bound.ranks.get(7).unwrap() + 1).unwrap();
        let corrupted = [
            bound.verify(Kernel::Cg, Ok(Value::Void), &exp),
            bound.verify(Kernel::Ep, Ok(Value::Float(0.0)), &exp),
            bound.verify(Kernel::Is, Ok(Value::Void), &exp),
        ];
        for bad in corrupted {
            let before = tally.failed_frac();
            tally.check(bad.is_none(), || bad.unwrap_or_default());
            assert!(tally.failed_frac() > before);
        }
    }
}
