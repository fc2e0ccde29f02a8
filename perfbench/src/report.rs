//! Metric names, failure accounting, the host stamp, and the output: a
//! human-readable report on stdout, a results file with every value and
//! span, and the one-line JSON result as the last line of stdout.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use zagd::Json;

use crate::trace::{self, Span};
use crate::Args;

/// End-to-end metrics, printed by every workload with tracing off:
/// `(name, unit)`. Directions and bounds live in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("cg_ns_per_op_1t", "ns"),
    ("cg_ns_per_op_2t", "ns"),
    ("ep_ns_per_op_1t", "ns"),
    ("ep_ns_per_op_2t", "ns"),
    ("is_ns_per_op_1t", "ns"),
    ("is_ns_per_op_2t", "ns"),
    ("req_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
];

/// Per-layer metrics, printed by every workload with tracing on. A layer
/// a workload never calls reports 0 (no calls, no time) and the report
/// says so.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("front.parse_us", "us"),
    ("front.analyze_us", "us"),
    ("front.preprocess_us", "us"),
    ("vm.compile_us", "us"),
    ("vm.optimize_us", "us"),
    ("vm.typeck_us", "us"),
    ("vm.install_us", "us"),
    ("vm.kernels_installed", "count"),
    ("vm.templates_installed", "count"),
    ("vm.native_iter_frac", "fraction"),
    ("vm.kernel_bails", "1/job"),
    ("vm.quickens", "1/job"),
    ("vm.deopts", "1/job"),
    ("rt.fork_join_us.1t", "us"),
    ("rt.fork_join_us.2t", "us"),
    ("rt.barrier_us.1t", "us"),
    ("rt.barrier_us.2t", "us"),
    ("rt.dispatch_chunk_ns.1t", "ns"),
    ("rt.dispatch_chunk_ns.2t", "ns"),
    ("rt.reduction_us.1t", "us"),
    ("rt.reduction_us.2t", "us"),
    ("rt.regions", "1/job"),
    ("rt.chunks_stolen_frac", "fraction"),
    ("rt.steal_failures", "1/job"),
    ("rt.barrier_park_frac", "fraction"),
    ("zagd.decode_us", "us"),
    ("zagd.cache_hit_us", "us"),
    ("zagd.compile_miss_ms", "ms"),
    ("zagd.exec_ms", "ms"),
    ("zagd.transport_ms", "ms"),
    ("zagd.cache_hit_rate", "fraction"),
    ("ref.cg_ns_per_op_1t", "ns"),
    ("ref.cg_ns_per_op_2t", "ns"),
    ("ref.ep_ns_per_op_1t", "ns"),
    ("ref.ep_ns_per_op_2t", "ns"),
    ("ref.is_ns_per_op_1t", "ns"),
    ("ref.is_ns_per_op_2t", "ns"),
    ("zag_over_ref.cg_1t", "ratio"),
    ("zag_over_ref.cg_2t", "ratio"),
    ("zag_over_ref.ep_1t", "ratio"),
    ("zag_over_ref.ep_2t", "ratio"),
    ("zag_over_ref.is_1t", "ratio"),
    ("zag_over_ref.is_2t", "ratio"),
    ("self.front_ms", "ms"),
    ("self.vm_pipeline_ms", "ms"),
    ("self.vm_exec_ms", "ms"),
    ("self.runtime_ms", "ms"),
    ("self.zagd_ms", "ms"),
    ("self.http_ms", "ms"),
    ("self.ref_ms", "ms"),
    ("self.bench_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
];

/// The `self.*` metric each layer's self time is reported under.
const SELF_METRIC: [(&str, &str); 8] = [
    ("zomp-front", "self.front_ms"),
    ("zomp-vm pipeline", "self.vm_pipeline_ms"),
    ("zomp-vm execution (with zomp runtime)", "self.vm_exec_ms"),
    ("zomp runtime", "self.runtime_ms"),
    ("zagd", "self.zagd_ms"),
    ("zagd over HTTP", "self.http_ms"),
    ("npb yardstick", "self.ref_ms"),
    ("benchmark", "self.bench_ms"),
];

/// Checked operations: every kernel job, every request, every setup
/// step whose output is checked.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Count one checked operation; returns `ok`. A failure's reason is
    /// printed to stderr.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Failed ÷ attempted: a wrong result, an error or a non-200 status.
    pub fn failed_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted().max(1) as f64
    }
}

/// What a workload run hands back.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Host stamp: `nproc`, CPU model, commit, plus the run's own settings.
pub fn host_stamp(args: &Args) -> Vec<(&'static str, Json)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Int(nproc as i64)),
        ("cpu", Json::Str(cpu)),
        ("commit", Json::Str(commit)),
    ]
}

/// Fill the `self.*` metrics from the spans and print the layer table.
fn self_time_table(out: &mut Outcome) {
    let (by_layer, roots_ms) = trace::layer_self_ms(&out.spans);
    println!("-- layer self times (spans from the benchmark's calls into each layer)");
    for (layer, metric) in SELF_METRIC {
        let ms = by_layer.get(layer).copied().unwrap_or(0.0);
        out.set(metric, ms);
        println!(
            "   {layer:<40} {ms:>12.3} ms  {:>5.1}%",
            100.0 * ms / roots_ms.max(1e-9)
        );
    }
    let total: f64 = by_layer.values().sum();
    println!(
        "   self times sum to {total:.3} ms over {roots_ms:.3} ms of root spans \
         (root spans: the run on the main thread and each client thread)"
    );
}

/// Print the report, write the results file, and print the JSON result
/// line. Panics if a metric the mode must print was not measured: that
/// is a bug in the benchmark, not a result.
pub fn finish(mut out: Outcome, stamp: Vec<(&'static str, Json)>, args: &Args) {
    let trace_on = args.trace;
    if trace_on {
        self_time_table(&mut out);
    }
    let list: &[(&str, &str)] = if trace_on { &PER_LAYER } else { &END_TO_END };
    println!(
        "-- failed_frac = {} / {} = {:.6}",
        out.tally.failed(),
        out.tally.attempted(),
        out.tally.failed_frac()
    );
    let mut metrics = BTreeMap::new();
    for &(name, unit) in list {
        let value = *out
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric `{name}` was not measured"));
        println!("   {name:<28} {value:>16.6} {unit}");
        metrics.insert(
            name.to_string(),
            zagd::json::obj([
                ("value", Json::Float(value)),
                ("unit", Json::Str(unit.into())),
            ]),
        );
    }

    let mut file = BTreeMap::new();
    for (k, v) in &stamp {
        file.insert(k.to_string(), v.clone());
    }
    file.insert(
        "all_metrics".into(),
        Json::Obj(
            out.metrics
                .iter()
                .map(|(k, v)| (k.to_string(), Json::Float(*v)))
                .collect(),
        ),
    );
    file.insert("attempted".into(), Json::Int(out.tally.attempted() as i64));
    file.insert("failed".into(), Json::Int(out.tally.failed() as i64));
    file.insert("spans".into(), trace::spans_json(&out.spans));
    let dir = std::path::Path::new("perfbench/results");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(trace_on)
    ));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, Json::Obj(file).render()))
    {
        Ok(()) => println!("-- wrote {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }

    let line = zagd::json::obj([
        ("correct", Json::Bool(out.tally.failed() == 0)),
        ("attempted", Json::Int(out.tally.attempted() as i64)),
        ("failed", Json::Int(out.tally.failed() as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[(&str, &str)]) -> Vec<String> {
        list.iter().map(|(n, _)| n.to_string()).collect()
    }

    /// `BENCHMARK.json` must name exactly the metrics this program prints.
    #[test]
    fn benchmark_json_names_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), pairs(&END_TO_END));
        assert_eq!(listed("per_layer"), pairs(&PER_LAYER));
        let mut all = names(&END_TO_END);
        all.extend(names(&PER_LAYER));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "metric names must be unique");
    }

    #[test]
    fn every_failure_raises_failed_frac() {
        let t = Tally::default();
        assert!(t.check(true, String::new));
        assert_eq!(t.failed_frac(), 0.0);
        assert!(!t.check(false, || "corrupted".into()));
        assert_eq!(t.failed_frac(), 0.5);
    }
}
