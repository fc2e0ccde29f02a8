//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer's public functions. Nothing is probed inside the
//! program: a span covers exactly one public call (or one HTTP round
//! trip), so a layer's self time is what its calls cost minus the
//! nested calls the benchmark timed separately.
//!
//! With tracing off, [`Tracer::span`] runs the closure and records
//! nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use zagd::Json;

pub type SpanId = usize;

#[derive(Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The job (kernel call) or request the span belongs to.
    pub job: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the span's id
    /// (`None` when tracing is off) to pass as the parent of nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let start_ns = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                job,
            });
            spans.len() - 1
        };
        let r = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end_ns = end;
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// The layer a span's time is charged to, from its name's prefix.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "front" => "zomp-front",
        "vm" => "zomp-vm pipeline",
        "exec" => "zomp-vm execution (with zomp runtime)",
        "rt" => "zomp runtime",
        "zagd" => "zagd",
        "http" => "zagd over HTTP",
        "ref" => "npb yardstick",
        _ => "benchmark",
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time per layer in milliseconds, plus the summed duration of the
/// root spans (one per thread that drove work) they must add up to.
pub fn layer_self_ms(spans: &[Span]) -> (BTreeMap<&'static str, f64>, f64) {
    let mut by_layer = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(layer_of(s.name)).or_insert(0.0) += t as f64 / 1e6;
    }
    let roots: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    (by_layer, roots)
}

/// All spans as a JSON array, for the results file.
pub fn spans_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut m = BTreeMap::new();
                m.insert("id".to_string(), Json::Int(id as i64));
                m.insert("name".to_string(), Json::Str(s.name.to_string()));
                m.insert("start_ns".to_string(), Json::Int(s.start_ns as i64));
                m.insert("end_ns".to_string(), Json::Int(s.end_ns as i64));
                m.insert(
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                );
                m.insert("job".to_string(), Json::Int(s.job as i64));
                Json::Obj(m)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // Two concurrent children (client threads) overlap in [20, 30].
        let concurrent = vec![
            span("bench.run", 0, 100, None),
            span("http.request", 10, 30, Some(0)),
            span("http.request", 20, 50, Some(0)),
        ];
        assert_eq!(self_times(&concurrent)[0], 60);

        let spans = vec![
            span("bench.run", 0, 100, None),
            span("front.parse", 10, 30, Some(0)),
            span("vm.compile", 30, 50, Some(0)),
            span("vm.optimize", 35, 45, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let (layers, roots) = layer_self_ms(&spans);
        let total: f64 = layers.values().sum();
        assert!(
            (total - roots).abs() < 1e-12,
            "self times must add up to the roots"
        );
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("vm.compile", 0, None, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
