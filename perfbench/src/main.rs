//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <kernels-native|kernels-bytecode|zagd-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the public APIs of `zomp-front`, `zomp-vm`, `zomp`, `zagd` and
//! `npb` from outside, checks every output against an independent
//! reference, and prints a report whose last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (see `perfbench/README.md` and `BENCHMARK.json`). Every run also
//! writes `perfbench/results/<workload>-seed<n>-trace<t>.json`.

mod counters;
mod kernels;
mod pipeline;
mod report;
mod serve;
mod stats;
mod syncbench;
mod trace;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["kernels-native", "kernels-bytecode", "zagd-mixed"];

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, not `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| bad("a whole number of seconds"))?;
                if s == 0 {
                    return Err(bad("at least 1"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let stamp = report::host_stamp(&args);
    println!(
        "perfbench {}",
        stamp
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let probe_start = syncbench::probe_ns();
    let mut out = match args.workload.as_str() {
        "kernels-native" => kernels::run(kernels::Tier::Native, &args),
        "kernels-bytecode" => kernels::run(kernels::Tier::Bytecode, &args),
        _ => serve::run(&args),
    };
    let probe_end = syncbench::probe_ns();
    println!(
        "-- host speed probe (1e6-step delay loop): {:.3} ms at start, {:.3} ms at end",
        probe_start / 1e6,
        probe_end / 1e6
    );
    out.set("host.probe_start_ns", probe_start);
    out.set("host.probe_end_ns", probe_end);
    report::finish(out, stamp, &args);
    // The zagd server threads serve until the process ends.
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload zagd-mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("zagd-mixed", 7, 10.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload zagd-mixed --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload zagd-mixed --seed 1 --trace 0").is_err());
    }
}
