//! The `zagd-mixed` workload: a closed loop of [`CLIENTS`] clients, each
//! POSTing its next `/run` request only after the previous response, to an
//! in-process `zagd::Server` (default `ServerConfig` with 2 workers, on an
//! ephemeral loopback port). Every request asks `threads: 1`.
//!
//! The seed draws each request: one of the three `zagd::demo` programs
//! with small seeded arguments, and with probability 1/[`MISS_ONE_IN`] a
//! one-off variant of it (a seeded trailing comment), which misses the
//! program cache and runs the whole compile pipeline. Every result is
//! checked against a Rust recomputation of the demo's driver.
//!
//! After the closed loop, a solo phase sends the demos (cache hits) from
//! one client at 1 and 2 threads in turn; the served time per kernel
//! operation gives this workload's `*_ns_per_op_*` metrics.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use zagd::json::Json;
use zagd::{client, demo, ProgramCache, RunRequest, Server, ServerConfig};

use crate::report::{Outcome, Tally};
use crate::stats::{median, median_over_windows, quantile, sorted, summarize, Rng};
use crate::trace::{SpanId, Tracer};
use crate::{counters, pipeline, syncbench, Args};

const CLIENTS: usize = 2;
/// One request in this many is a cache-missing variant.
const MISS_ONE_IN: u64 = 5;
/// Server start-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Share of an untraced run spent in the solo 1t/2t phase.
const SOLO_SHARE: f64 = 0.2;
/// Solo-phase input sizes: CG rows, EP `m`, IS keys.
const SOLO_SIZE: [i64; 3] = [4096, 13, 16384];
/// Every EP `m` a request may carry.
const EP_SIZES: [i64; 3] = [10, 11, 13];
/// Share of a traced run's closed loop spent with tracing off.
const UNTRACED_SHARE: f64 = 0.4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Demo {
    Cg,
    Ep,
    Is,
}

const DEMOS: [Demo; 3] = [Demo::Cg, Demo::Ep, Demo::Is];

impl Demo {
    fn entry(self) -> &'static str {
        match self {
            Demo::Cg => "cg_demo",
            Demo::Ep => "ep_demo",
            Demo::Is => "is_demo",
        }
    }
}

/// What a request's `result` must be.
#[derive(Clone, Copy, Debug)]
enum Expect {
    /// Bit-identical float (per-element CG matvec, fixed summation order).
    Exact(f64),
    /// Float within a stated tolerance (EP's cross-thread sums).
    Near(f64, f64),
    Int(i64),
}

impl Expect {
    fn matches(self, got: Option<&Json>) -> bool {
        match (self, got) {
            (Expect::Exact(w), Some(Json::Float(g))) => w.to_bits() == g.to_bits(),
            (Expect::Near(w, tol), Some(Json::Float(g))) => (w - g).abs() <= tol,
            (Expect::Int(w), Some(Json::Int(g))) => w == *g,
            _ => false,
        }
    }
}

/// Rust recomputation of `cg_demo(n, reps, _)`: tridiagonal CSR
/// (-1, 4, -1), `p[i] = i - n/2`, `q = A p`, `sum q[j] * (j % 7 + 1)`,
/// every sum in the Zag program's order.
fn cg_demo(n: i64) -> f64 {
    let p = |i: i64| (i - n / 2) as f64;
    let mut s = 0.0;
    for j in 0..n {
        let mut q = 0.0;
        if j > 0 {
            q += -p(j - 1);
        }
        q += 4.0 * p(j);
        if j < n - 1 {
            q += -p(j + 1);
        }
        s += q * (j % 7 + 1) as f64;
    }
    s
}

/// Rust recomputation of `is_demo(nkeys, maxlog, nblog, _)`: the demo's
/// Lehmer keys ranked by `npb::is::rank_serial`, then its checksum.
fn is_demo(nkeys: i64, maxlog: u32, nblog: u32) -> i64 {
    let params = npb::is::custom_params(0, maxlog, nblog);
    let mut seed: i64 = 12345;
    let keys: Vec<u32> = (0..nkeys)
        .map(|_| {
            seed = (seed * 16807) % 2_147_483_647;
            (seed % (1i64 << maxlog)) as u32
        })
        .collect();
    npb::is::rank_serial(&keys, &params)
        .iter()
        .enumerate()
        .map(|(k, &r)| i64::from(r) * (k as i64 % 13 + 1))
        .sum()
}

/// `ep_demo(m, _, _)` against `npb::ep::run_serial`, to the float
/// reordering bound the kernels workloads use.
fn ep_demo(m: u32) -> Expect {
    let r = npb::ep::run_serial(&npb::ep::custom_params(m));
    let n = (1u64 << m) as f64;
    Expect::Near(r.sx * 1e6 + r.sy, (1e6 + 1.0) * 10.0 * n * n * f64::EPSILON)
}

/// One drawn request.
struct Req {
    demo: Demo,
    body: String,
    expect: Expect,
    /// Kernel operations the request performs (nonzeros, pairs, keys).
    ops: f64,
    miss: bool,
}

/// The three demo sources, JSON-escaped once.
struct Sources {
    plain: [String; 3],
    escaped: [String; 3],
    /// EP's expected result per `m`.
    ep: std::collections::BTreeMap<i64, Expect>,
}

impl Sources {
    fn new() -> Sources {
        let plain = [demo::cg(), demo::ep(), demo::is()];
        let escaped = plain.clone().map(|s| Json::Str(s).render());
        Sources {
            plain,
            escaped,
            ep: EP_SIZES.iter().map(|&m| (m, ep_demo(m as u32))).collect(),
        }
    }

    /// Draw a closed-loop request at `nth` threads, with small seeded
    /// arguments; a cache miss only if `may_miss`.
    fn draw(&self, rng: &mut Rng, nth: usize, may_miss: bool) -> Req {
        let demo = DEMOS[rng.range(0, 2) as usize];
        let miss = may_miss && rng.range(1, MISS_ONE_IN) == 1;
        let size = match demo {
            Demo::Cg => rng.range(256, 512),
            Demo::Ep => rng.range(10, 11),
            Demo::Is => rng.range(1000, 2000),
        };
        self.build(demo, size as i64, nth, miss.then(|| rng.next_u64()))
    }

    /// A request for `demo` at `size` (CG rows, EP `m`, IS keys) and
    /// `nth` threads; with `variant`, a one-off copy of the source.
    fn build(&self, demo: Demo, size: i64, nth: usize, variant: Option<u64>) -> Req {
        let (args, expect, ops) = match demo {
            Demo::Cg => (
                format!("[{size}, 2, {nth}]"),
                Expect::Exact(cg_demo(size)),
                (2 * (3 * size - 2)) as f64,
            ),
            Demo::Ep => (
                format!("[{size}, 8, {nth}]"),
                *self.ep.get(&size).expect("an EP size drawn from EP_SIZES"),
                (1u64 << size) as f64,
            ),
            Demo::Is => (
                format!("[{size}, 9, 4, {nth}]"),
                Expect::Int(is_demo(size, 9, 4)),
                size as f64,
            ),
        };
        let i = demo as usize;
        let source = match variant {
            Some(v) => Json::Str(format!("{}\n// variant {v:016x}\n", self.plain[i])).render(),
            None => self.escaped[i].clone(),
        };
        let body = format!(
            r#"{{"source":{source},"entry":"{}","args":{args},"threads":{nth}}}"#,
            demo.entry()
        );
        Req {
            demo,
            body,
            expect,
            ops,
            miss: variant.is_some(),
        }
    }
}

/// Count a response: failed unless it is a `200` whose result matches.
pub fn account(
    tally: &Tally,
    resp: Result<client::Response, String>,
    expect: impl FnOnce(Option<&Json>) -> bool,
) -> bool {
    let why = match resp {
        Err(e) => Some(format!("transport error: {e}")),
        Ok(r) if r.status != 200 => Some(format!("status {}: {}", r.status, r.body)),
        Ok(r) => match Json::parse(&r.body) {
            Err(e) => Some(format!("unparsable response: {e}")),
            Ok(j) if !expect(j.get("result")) => Some(format!("wrong result: {}", r.body)),
            Ok(_) => None,
        },
    };
    tally.check(why.is_none(), || why.unwrap_or_default())
}

/// Start a server and fill its cache with the three demos. Returns the
/// address and the seconds that took (the fill results are checked).
fn start(fill: &[Req], tally: &Tally) -> (SocketAddr, f64) {
    let t0 = Instant::now();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral loopback port");
    let addr = server.start();
    let mut paid = t0.elapsed().as_secs_f64();
    for r in fill {
        let t0 = Instant::now();
        let resp = client::post(addr, "/run", &r.body);
        paid += t0.elapsed().as_secs_f64();
        account(tally, resp, |g| r.expect.matches(g));
    }
    (addr, paid)
}

/// In-process replay of a request through the layers the server runs,
/// each call timed: decode, cache lookup (and on a miss the compile
/// pipeline phase by phase), then `zagd::execute`.
struct Replay<'a> {
    cache: &'a ProgramCache,
    tracer: &'a Tracer,
    tally: &'a Tally,
    compiles: &'a AtomicU64,
    /// Cache-hit lookups in µs and compiling misses in ms.
    lookups: Mutex<(Vec<f64>, Vec<f64>)>,
    /// `execute` minus its lookup, in ms, per request.
    exec_ms: Mutex<Vec<f64>>,
}

impl Replay<'_> {
    /// Returns `zagd::execute`'s milliseconds for this request.
    fn run(&self, req: &Req, job: u64, parent: Option<SpanId>) -> f64 {
        let t = self.tracer;
        let decoded = t.span("zagd.decode", job, parent, |_| {
            Json::parse(&req.body).and_then(|j| RunRequest::from_json(&j))
        });
        let Ok(run) = decoded else {
            self.tally
                .check(false, || "the replay could not decode a request".into());
            return 0.0;
        };
        let lookup = || {
            let t0 = Instant::now();
            let r = t.span("zagd.lookup", job, parent, |_| {
                self.cache.get_or_compile(
                    &run.source,
                    run.unit.as_deref(),
                    run.backend(),
                    run.opt(),
                )
            });
            (
                r.is_ok_and(|(_, hit)| hit),
                t0.elapsed().as_secs_f64() * 1e3,
            )
        };
        // A demo the cache's FIFO evicted misses like a variant does.
        let (hit, ms) = lookup();
        if !hit {
            self.lookups.lock().expect("lookup list").1.push(ms);
            let id = self.compiles.fetch_add(1, Ordering::Relaxed);
            let p = pipeline::compile_traced(t, id, parent, &run.source, "request.zag", run.opt());
            self.tally
                .check(p.is_ok(), || "a request's program did not compile".into());
        }
        let (hit, hit_ms) = lookup();
        self.tally.check(hit, || {
            "the replay cache missed a program it had just compiled".into()
        });
        self.lookups
            .lock()
            .expect("lookup list")
            .0
            .push(hit_ms * 1e3);
        let t0 = Instant::now();
        let out = t.span("zagd.execute", job, parent, |_| {
            zagd::execute(self.cache, &run)
        });
        let execute_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.tally.check(
            out.status == 200 && req.expect.matches(out.body.get("result")),
            || format!("in-process execute: {} {}", out.status, out.body.render()),
        );
        self.exec_ms
            .lock()
            .expect("exec list")
            .push(execute_ms - hit_ms);
        execute_ms
    }
}

/// Closed-loop results.
#[derive(Default)]
struct Loop {
    lat_ms: Vec<f64>,
    /// Seconds from the loop's start to each `lat_ms` response.
    done_s: Vec<f64>,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    transport_ms: Vec<f64>,
}

/// A started server and what its clients share.
struct Service<'a> {
    addr: SocketAddr,
    src: &'a Sources,
    tally: &'a Tally,
    /// Next request id, unique across the run.
    ids: AtomicU64,
}

/// Run the closed loop for `secs`; with `replay`, trace each request and
/// replay it in-process after its response.
fn closed_loop(svc: &Service, seed: u64, secs: f64, replay: Option<&Replay>) -> Loop {
    let off = Tracer::new(false);
    let tracer = replay.map_or(&off, |r| r.tracer);
    let (addr, src, tally, next_id) = (svc.addr, svc.src, svc.tally, &svc.ids);
    let start = Instant::now();
    let parts: Vec<Loop> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0x5eed_0000 + c as u64));
                    let mut l = Loop::default();
                    tracer.span("bench.client", c as u64, None, |root| {
                        while start.elapsed().as_secs_f64() < secs {
                            let req = src.draw(&mut rng, 1, true);
                            let job = next_id.fetch_add(1, Ordering::Relaxed);
                            let t0 = Instant::now();
                            let resp = tracer.span("http.request", job, root, |_| {
                                client::post(addr, "/run", &req.body)
                            });
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            if account(tally, resp, |g| req.expect.matches(g)) {
                                l.lat_ms.push(ms);
                                l.done_s.push(start.elapsed().as_secs_f64());
                                if req.miss {
                                    &mut l.miss_ms
                                } else {
                                    &mut l.hit_ms
                                }
                                .push(ms);
                            }
                            if let Some(r) = replay {
                                let exec_ms = r.run(&req, job, root);
                                l.transport_ms.push(ms - exec_ms);
                            }
                        }
                    });
                    l
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut all = Loop::default();
    for p in parts {
        all.lat_ms.extend(p.lat_ms);
        all.done_s.extend(p.done_s);
        all.hit_ms.extend(p.hit_ms);
        all.miss_ms.extend(p.miss_ms);
        all.transport_ms.extend(p.transport_ms);
    }
    assert!(!all.lat_ms.is_empty(), "no request completed");
    all
}

fn cache_hit_rate(addr: SocketAddr) -> f64 {
    client::get(addr, "/stats")
        .ok()
        .and_then(|r| Json::parse(&r.body).ok())
        .and_then(|j| {
            j.get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(Json::as_f64)
        })
        .expect("/stats reports the cache hit rate")
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new();
    let tally = Tally::default();
    let src = Sources::new();
    let tracer = Tracer::new(args.trace);
    let mut rng = Rng::new(args.seed);
    let fill: Vec<Req> = DEMOS
        .iter()
        .map(|&d| loop {
            let r = src.draw(&mut rng, 1, false);
            if r.demo == d {
                break r;
            }
        })
        .collect();
    println!(
        "-- {CLIENTS} closed-loop clients, 1 in {MISS_ONE_IN} requests a cache-missing variant, \
         CG n 256..512, EP m 10..11, IS 1000..2000 keys, threads 1"
    );

    let mut setups = Vec::new();
    let mut addr = None;
    tracer.span("bench.setup", 0, None, |_| {
        for _ in 0..SETUPS {
            let (a, s) = start(&fill, &tally);
            setups.push(s);
            addr = Some(a);
        }
    });
    let addr = addr.expect("a server");
    println!(
        "-- setup (server start + cache fill): {}",
        summarize(&setups).show("s")
    );
    let svc = Service {
        addr,
        src: &src,
        tally: &tally,
        ids: AtomicU64::new(1),
    };

    if !args.trace {
        let l = closed_loop(&svc, args.seed, args.seconds * (1.0 - SOLO_SHARE), None);
        println!("   all requests: {}", summarize(&l.lat_ms).show("ms"));
        println!("   cache hits:   {}", summarize(&l.hit_ms).show("ms"));
        println!("   cache misses: {}", summarize(&l.miss_ms).show("ms"));
        println!("   cache hit rate (/stats): {:.4}", cache_hit_rate(addr));
        out.set("setup_s", median(&setups));
        // Responses in the order they arrived, medians over the run's
        // windows; a window lasts from the previous window's last
        // response (or the start) to its own last response.
        let mut done: Vec<(f64, f64)> = l
            .done_s
            .iter()
            .copied()
            .zip(l.lat_ms.iter().copied())
            .collect();
        done.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut window_start = 0.0;
        out.set(
            "req_per_s",
            median_over_windows(&done, |w| {
                let end = w[w.len() - 1].0;
                let rate = w.len() as f64 / (end - window_start);
                window_start = end;
                rate
            }),
        );
        for (name, q) in [("latency_ms_p50", 0.5), ("latency_ms_p90", 0.9)] {
            out.set(
                name,
                median_over_windows(&done, |w| {
                    quantile(&sorted(&w.iter().map(|d| d.1).collect::<Vec<_>>()), q)
                }),
            );
        }
        // Recorded in the results file, not gated: see the README.
        out.set("latency_ms_p99", quantile(&sorted(&l.lat_ms), 0.99));
        solo(addr, &src, args, &tally, &mut out);
        out.tally = tally;
        return out;
    }

    let base = closed_loop(&svc, args.seed, args.seconds * UNTRACED_SHARE, None);
    let cache = ProgramCache::new(ServerConfig::default().cache_cap);
    let compiles = AtomicU64::new(1 << 40);
    let replay = Replay {
        cache: &cache,
        tracer: &tracer,
        tally: &tally,
        compiles: &compiles,
        lookups: Mutex::new((Vec::new(), Vec::new())),
        exec_ms: Mutex::new(Vec::new()),
    };
    let (mut kernels_n, mut templates_n) = (0, 0);
    for (i, r) in fill.iter().enumerate() {
        let run = RunRequest::from_json(&Json::parse(&r.body).expect("a fill body"))
            .expect("a fill request");
        let (p, _) = cache
            .get_or_compile(&src.plain[i], None, run.backend(), run.opt())
            .expect("the demos compile");
        let (k, t) = pipeline::installed(&p);
        kernels_n += k;
        templates_n += t;
    }
    zomp::trace::enable_counters();
    let m0 = zomp::trace::metrics();
    let traced = closed_loop(
        &svc,
        args.seed,
        args.seconds * (1.0 - UNTRACED_SHARE),
        Some(&replay),
    );
    let m1 = zomp::trace::metrics();
    zomp::trace::disable(zomp::trace::COUNTERS);
    let rt = tracer.span("bench.syncbench", 0, None, |root| {
        [1, 2].map(|nth| syncbench::measure(nth, &tracer, root))
    });

    let (b50, t50) = (median(&base.lat_ms), median(&traced.lat_ms));
    out.set("trace.overhead_frac", t50 / b50 - 1.0);
    println!("-- latency p50 untraced {b50:.4} ms, traced {t50:.4} ms");
    // Every traced request ran twice: on the server and in the replay.
    let executions = 2 * traced.lat_ms.len() as u64;
    counters::Delta::new(&m0, &m1).report(executions, &mut out);
    counters::report_syncbench(&rt, &mut out);
    pipeline::report(&tracer, kernels_n, templates_n, &mut out);

    let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let spans = tracer.spans();
    let decode_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "zagd.decode")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let (hit_us, miss_ms) = replay.lookups.into_inner().expect("lookup list");
    let rows = [
        ("zagd.decode_us", med(&decode_us)),
        ("zagd.cache_hit_us", med(&hit_us)),
        ("zagd.compile_miss_ms", med(&miss_ms)),
        (
            "zagd.exec_ms",
            med(&replay.exec_ms.into_inner().expect("exec list")),
        ),
        ("zagd.transport_ms", med(&traced.transport_ms)),
        ("zagd.cache_hit_rate", cache_hit_rate(addr)),
    ];
    println!("-- zagd request path (in-process replay of every traced request)");
    for (name, v) in rows {
        println!("   {name:<24} {v:>12.4}");
        out.set(name, v);
    }
    for k in 0..3 {
        for nth in [1, 2] {
            let (r, z) = counters::ref_names(k, nth);
            out.set(r, 0.0);
            out.set(z, 0.0);
        }
    }
    println!("   ref.*, zag_over_ref.*: no npb kernel runs on this workload, reported as 0");
    out.spans = tracer.spans();
    out.tally = tally;
    out
}

/// The solo phase: one client, demo cache hits at 1 and 2 threads in
/// turn; served nanoseconds per kernel operation.
fn solo(addr: SocketAddr, src: &Sources, args: &Args, tally: &Tally, out: &mut Outcome) {
    let mut per_op: [[Vec<f64>; 2]; 3] = Default::default();
    let start = Instant::now();
    let mut turn = 0usize;
    while start.elapsed().as_secs_f64() < args.seconds * SOLO_SHARE {
        let ti = turn % 2;
        let demo = DEMOS[turn / 2 % 3];
        let req = src.build(demo, SOLO_SIZE[demo as usize], ti + 1, None);
        let t0 = Instant::now();
        let resp = client::post(addr, "/run", &req.body);
        let ns = t0.elapsed().as_nanos() as f64;
        if account(tally, resp, |g| req.expect.matches(g)) {
            per_op[demo as usize][ti].push(ns / req.ops);
        }
        turn += 1;
    }
    println!("-- solo phase: one client, demo cache hits, served ns per kernel op");
    for d in DEMOS {
        let [one, two] = &per_op[d as usize];
        assert!(
            !one.is_empty() && !two.is_empty(),
            "no {} request completed",
            d.entry()
        );
        let (m1, m2) = (median(one), median(two));
        println!("   {} 1t: {}", d.entry(), summarize(one).show("ns"));
        println!("   {} 2t: {}", d.entry(), summarize(two).show("ns"));
        println!(
            "   {} 2t speedup: 1t/2t = {:.3}x; 2t/1t = {:.3}",
            d.entry(),
            m1 / m2,
            m2 / m1
        );
        out.set(counters::ns_per_op(d as usize, 1), m1);
        out.set(counters::ns_per_op(d as usize, 2), m2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomputations_match_the_demo_programs() {
        let vm = |src: String, entry: &str, args: Vec<zomp_vm::Value>| {
            zomp_vm::Vm::build(
                &src,
                None,
                zomp_vm::Backend::Bytecode,
                zomp_vm::OptLevel::O2,
            )
            .expect("demo compiles")
            .call_function(entry, args)
            .expect("demo runs")
        };
        use zomp_vm::Value::Int;
        let cg = vm(demo::cg(), "cg_demo", vec![Int(300), Int(2), Int(2)]);
        assert_eq!(cg.as_float().unwrap().to_bits(), cg_demo(300).to_bits());
        let is = vm(
            demo::is(),
            "is_demo",
            vec![Int(1500), Int(9), Int(4), Int(2)],
        );
        assert_eq!(is.as_int().unwrap(), is_demo(1500, 9, 4));
        let ep = vm(demo::ep(), "ep_demo", vec![Int(10), Int(8), Int(2)]);
        assert!(ep_demo(10).matches(Some(&Json::Float(ep.as_float().unwrap()))));
    }

    /// A corrupted result and a refused request must each count as failed.
    #[test]
    fn wrong_results_and_refusals_raise_failed_frac() {
        let src = Sources::new();
        let req = src.draw(&mut Rng::new(3), 1, false);
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.start();

        let tally = Tally::default();
        assert!(account(
            &tally,
            client::post(addr, "/run", &req.body),
            |g| req.expect.matches(g)
        ));
        assert_eq!(tally.failed_frac(), 0.0);

        let corrupted = match req.expect {
            Expect::Exact(x) => Expect::Exact(x + 1.0),
            Expect::Near(x, tol) => Expect::Near(x + 1.0, tol),
            Expect::Int(x) => Expect::Int(x + 1),
        };
        assert!(!account(
            &tally,
            client::post(addr, "/run", &req.body),
            |g| corrupted.matches(g)
        ));
        assert_eq!(tally.failed_frac(), 0.5);

        let refused = req.body.replacen("\"threads\"", "\"theads\"", 1);
        assert!(!account(
            &tally,
            client::post(addr, "/run", &refused),
            |g| req.expect.matches(g)
        ));
        assert!((tally.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }
}
