//! vflash benchmark: one command that runs a named workload through the
//! conventional FTL and PPB, checks the simulated outputs, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-qd1 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats whole passes (fresh devices, both FTLs) until `--seconds` have
//! passed, and reports host times as medians over the passes. Every pass of a
//! seed must give the same digest of all simulated statistics; the digest is
//! printed so later host-only changes can be shown to leave the model
//! bit-identical. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1 when a
//! check fails and 2 on a usage error. It runs on one thread.

mod probe;
mod workloads;

use std::time::{Duration, Instant};

use probe::{Layer, Tracer, Untimed};
use workloads::{pass, setup, subtraction_pass, PassOutput, Size, Workload};

/// End-to-end metrics with their units, reported by every workload. Host
/// metrics come first. The `sim_*` metrics are the modelled device's, in
/// simulated time (`sim_us`, `1/sim_s`): they are deterministic for a seed, and
/// some read the same on every seed (at QD 1 the read p99.9 is the slowest page
/// read), so they carry no host-time unit.
const END_TO_END: [(&str, &str); 12] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_read_mean_us", "sim_us"),
    ("sim_read_p999_us", "sim_us"),
    ("sim_write_mean_us", "sim_us"),
    ("sim_write_p999_us", "sim_us"),
    ("sim_wa", "x"),
    ("sim_iops", "1/sim_s"),
    ("ppb_read_speedup", "x"),
    ("ppb_write_speedup", "x"),
    ("ppb_iops_speedup", "x"),
];

/// Per-layer metrics with their units, reported by every workload's traced
/// run; a layer the workload does not reach reads zero.
const PER_LAYER: [(&str, &str); 44] = [
    ("trace.gen_s", "s"),
    ("ftl.submit_s", "s"),
    ("ftl.submit_ns", "ns"),
    ("ftl.submit_calls", "count"),
    ("ppb.submit_s", "s"),
    ("ppb.submit_ns", "ns"),
    ("ppb.submit_calls", "count"),
    ("ftl.batch_frac", "frac"),
    ("ppb.batch_frac", "frac"),
    ("ftl.batched_pages", "count"),
    ("ftl.gc_copied_pages", "count"),
    ("ftl.erased_blocks", "count"),
    ("ppb.gc_copied_pages", "count"),
    ("ppb.erased_blocks", "count"),
    ("ppb.migrated_pages", "count"),
    ("ppb.migrations_per_host_write", "x"),
    ("nand.reads", "count"),
    ("nand.programs", "count"),
    ("nand.erases", "count"),
    ("nand.busy_frac", "frac"),
    ("sim.drive_frac", "frac"),
    ("sim.overlay_frac", "frac"),
    ("sim.peak_queue_depth", "count"),
    ("sim.busy_arrival_frac", "frac"),
    ("kv.put_frac", "frac"),
    ("kv.get_frac", "frac"),
    ("kv.delete_frac", "frac"),
    ("kv.scan_frac", "frac"),
    ("kv.flush_frac", "frac"),
    ("kv.self_frac", "frac"),
    ("kv.flushes", "count"),
    ("kv.compactions", "count"),
    ("kv.stalled_writes", "count"),
    ("kv.bloom_skip_ratio", "frac"),
    ("kv.app_wa", "x"),
    ("fleet.drive_frac", "frac"),
    ("fleet.self_frac", "frac"),
    ("fleet.cache_frac", "frac"),
    ("fleet.cache_hit_rate", "frac"),
    ("fleet.writebacks", "count"),
    ("fleet.writebacks_per_flush", "x"),
    ("fleet.fanout_amp", "x"),
    ("bench.timer_ns", "ns"),
    ("bench.tracing_overhead_frac", "frac"),
];

/// Passes a run makes at least, however long they take.
const MIN_PASSES: usize = 3;

/// Extra set-ups timed before the first pass, so `setup_s` is a median of
/// many samples even when passes are long.
const EXTRA_SETUPS: usize = 8;

const USAGE: &str =
    "usage: perfbench --workload <replay-qd1|openloop-ladder|kv-mixed|fleet-cache> \
                     --seed <n> --seconds <n> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The outcome of one run, ready to print.
#[derive(Debug, Default)]
struct Report {
    passes: usize,
    digest: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    /// Folds a pass into the totals and checks it against the first pass.
    fn absorb(&mut self, out: &PassOutput, label: &str) {
        if self.passes == 0 {
            self.digest = out.digest;
        } else if out.digest != self.digest {
            self.failures.push(format!(
                "{label} pass {} digest {:#018x} differs from the first pass's {:#018x}",
                self.passes + 1,
                out.digest,
                self.digest
            ));
        }
        self.passes += 1;
        self.attempted += out.attempted;
        self.failed += out.failed;
        for failure in &out.failures {
            if self.failures.len() < 20 {
                self.failures.push(format!("{label}: {failure}"));
            }
        }
    }

    /// Fills in `table` from `values`, in table order.
    fn set_metrics(
        &mut self,
        table: &[(&'static str, &'static str)],
        values: &[(&'static str, f64)],
    ) {
        for &(name, unit) in table {
            match values.iter().find(|(key, _)| *key == name) {
                Some(&(_, value)) if value.is_finite() => self.metrics.push((name, unit, value)),
                Some(_) => self
                    .failures
                    .push(format!("metric {name} is not a finite number")),
                None => self
                    .failures
                    .push(format!("metric {name} was not measured")),
            }
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.is_empty() {
        0.0
    } else if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Untraced passes until the deadline: the end-to-end metrics.
fn end_to_end_run(args: &Args) -> Report {
    let mut report = Report::default();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut setups, mut works) = (Vec::new(), Vec::new());
    for _ in 0..EXTRA_SETUPS {
        let start = Instant::now();
        std::hint::black_box(setup(args.workload, Size::Full, args.seed, &Untimed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut first = None;
    while report.passes < MIN_PASSES || Instant::now() < deadline {
        let start = Instant::now();
        let input = setup(args.workload, Size::Full, args.seed, &Untimed);
        let set_up = Instant::now();
        let out = pass(&input, &Untimed);
        works.push(set_up.elapsed().as_secs_f64());
        setups.push(set_up.duration_since(start).as_secs_f64());
        report.absorb(&out, args.workload.name());
        first.get_or_insert(out);
    }
    let first = first.expect("a run makes at least one pass");
    let mut values = first.sim.clone();
    values.push(("ops_per_s", first.ops as f64 / median(&mut works)));
    values.push(("setup_s", median(&mut setups)));
    match peak_rss_mib() {
        Some(rss) => values.push(("peak_rss_mib", rss)),
        None => report
            .failures
            .push("cannot read the peak RSS from /proc/self/status".into()),
    }
    report.set_metrics(&END_TO_END, &values);
    report
}

/// One traced pass's per-layer values.
fn layer_values(
    tracer: &Tracer,
    out: &PassOutput,
    gen_s: f64,
    pass_ns: f64,
) -> Vec<(&'static str, f64)> {
    let totals = |layer| tracer.totals(layer);
    let frac = |ns: f64| ns / pass_ns;
    let self_ns = |layer| totals(layer).self_ns();
    let per_call = |layer| {
        let t: probe::LayerTotals = totals(layer);
        if t.calls == 0 {
            0.0
        } else {
            t.ns / t.calls as f64
        }
    };
    let kv_layers = [
        Layer::KvOpen,
        Layer::KvPut,
        Layer::KvGet,
        Layer::KvDelete,
        Layer::KvScan,
        Layer::KvFlush,
    ];
    let mut values = vec![
        ("trace.gen_s", gen_s),
        ("ftl.submit_s", totals(Layer::FtlSubmit).s()),
        ("ftl.submit_ns", per_call(Layer::FtlSubmit)),
        ("ftl.submit_calls", totals(Layer::FtlSubmit).calls as f64),
        ("ppb.submit_s", totals(Layer::PpbSubmit).s()),
        ("ppb.submit_ns", per_call(Layer::PpbSubmit)),
        ("ppb.submit_calls", totals(Layer::PpbSubmit).calls as f64),
        ("ftl.batch_frac", frac(totals(Layer::FtlBatch).ns)),
        ("ppb.batch_frac", frac(totals(Layer::PpbBatch).ns)),
        ("sim.drive_frac", frac(totals(Layer::SimDrive).ns)),
        ("sim.overlay_frac", frac(self_ns(Layer::SimDrive))),
        ("kv.put_frac", frac(totals(Layer::KvPut).ns)),
        ("kv.get_frac", frac(totals(Layer::KvGet).ns)),
        ("kv.delete_frac", frac(totals(Layer::KvDelete).ns)),
        ("kv.scan_frac", frac(totals(Layer::KvScan).ns)),
        ("kv.flush_frac", frac(totals(Layer::KvFlush).ns)),
        (
            "kv.self_frac",
            frac(kv_layers.into_iter().map(self_ns).sum()),
        ),
        ("fleet.drive_frac", frac(totals(Layer::FleetDrive).ns)),
        ("fleet.self_frac", frac(self_ns(Layer::FleetDrive))),
        ("bench.timer_ns", tracer.timer_ns()),
    ];
    values.extend_from_slice(&out.counts);
    values
}

/// Alternating untraced and traced passes until the deadline: the per-layer
/// metrics, with the traced digest checked against the untraced one.
fn traced_run(args: &Args) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::calibrated();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let name = args.workload.name();
    while samples.len() < MIN_PASSES || Instant::now() < deadline {
        let input = setup(args.workload, Size::Full, args.seed, &Untimed);
        let start = Instant::now();
        let out = pass(&input, &Untimed);
        untraced.push(start.elapsed().as_secs_f64());
        report.absorb(&out, name);
        drop(input);

        tracer.reset();
        let input = setup(args.workload, Size::Full, args.seed, &tracer);
        let gen_s = tracer.totals(Layer::TraceGen).s();
        let overhead_before = tracer.overhead_ns();
        let start = Instant::now();
        let out = pass(&input, &tracer);
        let wall_ns = start.elapsed().as_nanos() as f64;
        traced.push(wall_ns / 1e9);
        let pass_ns = wall_ns - (tracer.overhead_ns() - overhead_before);
        report.absorb(&out, &format!("{name} traced"));
        for failure in subtraction_pass(&input, &tracer) {
            report.failures.push(format!("{name} cache-off: {failure}"));
        }
        let mut values = layer_values(&tracer, &out, gen_s, pass_ns);
        let cache_ns = {
            let on = tracer.totals(Layer::FleetDrive);
            let off = tracer.totals(Layer::FleetDriveNoCache);
            if off.calls == 0 {
                0.0
            } else {
                on.self_ns() - off.self_ns()
            }
        };
        values.push(("fleet.cache_frac", cache_ns / pass_ns));
        samples.push(values);
    }
    let overhead = median(&mut traced) / median(&mut untraced) - 1.0;
    // Each metric is the median over the traced passes; a layer the workload
    // never reaches has no sample and reads zero.
    let values: Vec<(&'static str, f64)> = PER_LAYER
        .iter()
        .map(|&(metric, _)| {
            if metric == "bench.tracing_overhead_frac" {
                return (metric, overhead);
            }
            let mut seen: Vec<f64> = samples
                .iter()
                .filter_map(|pass| pass.iter().find(|(key, _)| *key == metric))
                .map(|&(_, value)| value)
                .collect();
            (metric, median(&mut seen))
        })
        .collect();
    report.set_metrics(&PER_LAYER, &values);
    write_spans(&tracer, args);
    report
}

/// Writes the traced run's spans under the package's `out/` directory.
fn write_spans(tracer: &Tracer, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let (kept, dropped) = tracer.span_counts();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.spans_jsonl())) {
        Ok(()) => eprintln!(
            "spans: {kept} written to {} ({dropped} dropped)",
            path.display()
        ),
        Err(error) => eprintln!("spans: cannot write {}: {error}", path.display()),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        end_to_end_run(&args)
    };
    println!(
        "workload {} seed {} trace {}: {} passes, {} operations attempted, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        report.passes,
        report.attempted,
        report.failed
    );
    for (name, unit, value) in &report.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!(
        "digest {} seed {}: {:#018x}",
        args.workload.name(),
        args.seed,
        report.digest
    );
    for failure in &report.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", report.json());
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args("--workload kv-mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(parsed.workload, Workload::KvMixed);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3, true));
        assert!(
            args("--workload kv-mixed --seed 7 --seconds 3").is_err(),
            "--trace is required"
        );
        assert!(args("--workload nope --seed 7 --seconds 3 --trace 0").is_err());
        assert!(args("--workload kv-mixed --seed x --seconds 3 --trace 0").is_err());
        assert!(args("--workload kv-mixed --seed 7 --seconds 3 --trace 2").is_err());
        assert!(args("--workload kv-mixed --seed 7 --seconds 3 --trace").is_err());
    }

    #[test]
    fn benchmark_json_lists_every_reported_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}]"
            );
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for workload in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\"", workload.name())));
        }
    }

    #[test]
    fn report_json_carries_every_metric() {
        let mut report = Report {
            passes: 1,
            attempted: 5,
            ..Report::default()
        };
        let values: Vec<(&'static str, f64)> =
            END_TO_END.iter().map(|&(name, _)| (name, 0.125)).collect();
        report.set_metrics(&END_TO_END, &values);
        assert!(report.correct());
        let json = report.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(json.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        report.set_metrics(&END_TO_END, &values[1..]);
        assert!(!report.correct(), "a missing metric fails the run");
    }
}
