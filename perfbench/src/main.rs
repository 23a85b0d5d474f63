//! End-to-end and per-layer benchmark of the faultnet workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload giant_scan --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One process runs one workload. It sets the workload up several times
//! (the median is `setup_s`), then repeats the workload's fixed pass
//! through the library's public entry points for `--seconds` seconds with
//! tracing off. Afterwards the same pass is rebuilt from calls into each
//! layer (the "layer pipeline") and its numbers must equal the untraced
//! ones exactly. With `--trace 1` half the time runs untraced and half runs
//! the layer pipeline with every layer call inside a span of the
//! benchmark's own recorder; the per-layer metrics come from those spans.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A run record (machine,
//! toolchain, knobs, sample counts) and, when traced, a Chrome trace are
//! written under `.bench_out/`.

mod churn;
mod giant;
mod route;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use stats::{fnv1a, median, peak_heap_mb, quantile, CountingAlloc};
use trace::Tracer;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Seed whose rendered reports are digest-checked.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median. One set-up takes 50 to
/// 250 ms, short enough that a slow spell of the host moves a median of a
/// few; 21 of them add 1 to 5 s to a run.
const SETUPS: usize = 21;
/// Directory (relative to the working directory) for records and traces.
const OUT_DIR: &str = ".bench_out";

/// What one pass of a workload produced.
pub struct PassOutput {
    /// Canonical form of every number the pass computed; the untraced and
    /// the layer pipelines must agree on it byte for byte.
    pub canonical: String,
    /// The rendered report (digest-checked on the default seed).
    pub rendered: String,
    /// Units of work done (instances, probes, events or requests).
    pub work: u64,
    /// Operations attempted in the pass.
    pub attempted: u64,
    /// Operations that failed in the pass (non-2xx, transport errors,
    /// in-pass output mismatches).
    pub failed: u64,
}

/// Named counts accumulated by the layer pipeline.
#[derive(Debug, Default)]
pub struct Counters(BTreeMap<&'static str, f64>);

impl Counters {
    /// Adds `n` to the counter `name`.
    pub fn add(&mut self, name: &'static str, n: f64) {
        *self.0.entry(name).or_default() += n;
    }

    /// The counter's value (0 when never touched).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One benchmark workload after set-up.
pub trait Workload {
    /// One pass through the library's public entry points, tracing off.
    /// Pushes one latency sample per operation.
    fn untraced_pass(&mut self, pass: usize, latencies_us: &mut Vec<f64>) -> PassOutput;

    /// Pass `pass` rebuilt from layer calls, each inside a span.
    fn traced_pass(
        &mut self,
        pass: usize,
        tracer: &mut Tracer,
        counters: &mut Counters,
    ) -> PassOutput;

    /// Workload-specific fields of the run record.
    fn record(&self) -> Vec<(&'static str, String)>;

    /// Per-layer metrics the workload measures itself, beyond the span
    /// totals and counters (request-level latencies, cache ratios).
    fn layer_metrics(&mut self, _metrics: &mut BTreeMap<String, f64>) {}

    /// Readies the layer pipeline before the first traced pass (untimed).
    fn prepare(&mut self) {}

    /// Checks made once per run, as `(attempted, failed)`.
    fn final_checks(&mut self) -> (u64, u64) {
        (0, 0)
    }
}

type Setup = fn(u64, &mut Tracer) -> Result<Box<dyn Workload>, String>;

struct Spec {
    name: &'static str,
    setup: Setup,
    /// Whether the workload starts the server (which turns on the obs
    /// layer for the whole process).
    serves: bool,
    /// Every pass repeats the same inputs, so every pass's output must be
    /// the same.
    repeats: bool,
    /// FNV-1a digest of the rendered report of pass 0 at [`DEFAULT_SEED`].
    digest: u64,
}

const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "giant_scan",
        setup: |seed, tracer| Ok(Box::new(giant::GiantScan::setup(seed, tracer))),
        serves: false,
        repeats: true,
        digest: 0xc246_23fb_b7fd_9c0f,
    },
    Spec {
        name: "route_transition",
        setup: |seed, tracer| Ok(Box::new(route::RouteTransition::setup(seed, tracer))),
        serves: false,
        repeats: false,
        digest: 0x6e20_dcae_2127_6211,
    },
    Spec {
        name: "churn",
        setup: |seed, tracer| Ok(Box::new(churn::Churn::setup(seed, tracer))),
        serves: false,
        repeats: true,
        digest: 0xf7a2_4a09_5c62_5aff,
    },
    Spec {
        name: "serve_mix",
        setup: |seed, tracer| Ok(Box::new(serve::ServeMix::setup(seed, tracer)?)),
        serves: true,
        repeats: false,
        digest: 0xe333_4456_417a_15fd,
    },
];

/// End-to-end metrics (`--trace 0`), in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in output order. Span times and
/// counts are per traced pass.
const PER_LAYER: [(&str, &str); 50] = [
    ("topology.build_s", "s"),
    ("topology.self_s", "s"),
    ("faultmodel.instance_s", "s"),
    ("faultmodel.instances", "count"),
    ("faultmodel.schedule_s", "s"),
    ("faultmodel.self_s", "s"),
    ("percolation.transpose_s", "s"),
    ("percolation.lane_bytes", "bytes"),
    ("percolation.census_s", "s"),
    ("percolation.census_calls", "count"),
    ("percolation.census_edges_per_s", "1/s"),
    ("percolation.condition_s", "s"),
    ("percolation.condition_calls", "count"),
    ("percolation.condition_accept_ratio", "ratio"),
    ("percolation.churn_init_s", "s"),
    ("percolation.churn_step_s", "s"),
    ("percolation.churn_steps", "count"),
    ("percolation.churn_events", "count"),
    ("percolation.churn_rebuilds", "count"),
    ("percolation.churn_replayed_per_event", "ratio"),
    ("percolation.self_s", "s"),
    ("routing.route_s", "s"),
    ("routing.trials", "count"),
    ("routing.probes", "count"),
    ("routing.ns_per_probe", "ns"),
    ("routing.budget_exhausted_ratio", "ratio"),
    ("routing.self_s", "s"),
    ("experiments.render_s", "s"),
    ("experiments.self_s", "s"),
    ("server.requests", "count"),
    ("server.transport_us", "us"),
    ("server.hit_handle_us", "us"),
    ("server.parse_us", "us"),
    ("server.resolve_us.hypercube", "us"),
    ("server.resolve_us.explicit", "us"),
    ("server.engine_probes_ms", "ms"),
    ("server.engine_connectivity_ms", "ms"),
    ("server.render_us", "us"),
    ("server.hit_latency_p50_us", "us"),
    ("server.miss_latency_p50_ms", "ms"),
    ("server.response_hit_ratio", "ratio"),
    ("server.census_hit_ratio", "ratio"),
    ("server.census_lookups", "count"),
    ("server.coalesced", "count"),
    ("server.self_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.untraced_wall_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.spans", "count"),
];

/// Spans whose per-pass total is reported as `<span>_s`.
const SPAN_TOTALS: [&str; 9] = [
    "faultmodel.instance",
    "faultmodel.schedule",
    "percolation.transpose",
    "percolation.census",
    "percolation.condition",
    "percolation.churn_init",
    "percolation.churn_step",
    "routing.route",
    "experiments.render",
];

/// Per-pass counters reported under their own names.
const PASS_COUNTS: [&str; 9] = [
    "faultmodel.instances",
    "percolation.lane_bytes",
    "percolation.census_calls",
    "percolation.condition_calls",
    "percolation.churn_steps",
    "percolation.churn_events",
    "percolation.churn_rebuilds",
    "routing.trials",
    "routing.probes",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// What a whole run measured.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    record: Vec<(String, String)>,
    chrome_trace: Option<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
            format!(
                "unknown workload {:?} (one of {})",
                args.workload,
                names.join(", ")
            )
        })?;
    if !spec.serves {
        // Library workloads measure the program with instrumentation off;
        // only the server turns it on, and each workload has its own
        // process.
        assert!(
            !faultnet_obs::enabled(),
            "obs instrumentation must be off for library workloads"
        );
    }

    let mut setup_tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut setup_s = Vec::with_capacity(SETUPS);
    let set_up = |tracer: &mut Tracer, setup_s: &mut Vec<f64>| {
        let started = Instant::now();
        let workload = (spec.setup)(args.seed, tracer)?;
        setup_s.push(started.elapsed().as_secs_f64());
        Ok::<_, String>(workload)
    };
    let mut workload = set_up(&mut setup_tracer, &mut setup_s)?;
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Untraced passes: the program as shipped. The other set-ups are spread
    // between them (and dropped), so `setup_s` samples the same stretch of
    // time as the passes; a slow spell of the host then moves both alike.
    let mut walls: Vec<f64> = Vec::new();
    let mut latencies_us = Vec::new();
    let mut outputs: Vec<PassOutput> = Vec::new();
    while outputs.is_empty() || walls.iter().sum::<f64>() < budget {
        let due = SETUPS as f64 * walls.iter().sum::<f64>() / budget;
        while (setup_s.len() as f64) < due.min(SETUPS as f64) {
            drop(set_up(&mut setup_tracer, &mut setup_s)?);
        }
        if !spec.serves {
            assert!(
                !faultnet_obs::enabled(),
                "obs instrumentation must be off before timing"
            );
        }
        let pass_started = Instant::now();
        let output = workload.untraced_pass(outputs.len(), &mut latencies_us);
        let wall = pass_started.elapsed().as_secs_f64();
        walls.push(wall);
        attempted += output.attempted;
        failed += output.failed;
        if spec.repeats {
            attempted += 1;
            if outputs
                .first()
                .is_some_and(|first| first.canonical != output.canonical)
            {
                eprintln!("mismatch: pass {} differs from pass 0", outputs.len());
                failed += 1;
            }
        }
        outputs.push(output);
    }
    while setup_s.len() < SETUPS {
        drop(set_up(&mut setup_tracer, &mut setup_s)?);
    }

    if args.seed == DEFAULT_SEED {
        attempted += 1;
        let digest = fnv1a(outputs[0].rendered.as_bytes());
        if digest != spec.digest {
            eprintln!(
                "mismatch: report digest {digest:016x}, expected {:016x}",
                spec.digest
            );
            failed += 1;
        }
    }

    // The layer pipeline: traced passes, or one silent verification pass.
    let mut tracer = if args.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let mut counters = Counters::default();
    let mut traced_walls = Vec::new();
    let mut verified_work = 0;
    workload.prepare();
    let traced_started = Instant::now();
    let verify: Vec<usize> = if args.trace {
        (0..outputs.len()).collect()
    } else {
        vec![outputs.len() - 1]
    };
    for pass in verify {
        if args.trace
            && !traced_walls.is_empty()
            && traced_started.elapsed().as_secs_f64() >= budget
        {
            break;
        }
        let root = tracer.enter("pass", None);
        let pass_started = Instant::now();
        let output = workload.traced_pass(pass, &mut tracer, &mut counters);
        traced_walls.push(pass_started.elapsed().as_secs_f64());
        tracer.exit(root);
        attempted += 1;
        verified_work = output.work;
        if output.canonical != outputs[pass].canonical {
            eprintln!(
                "mismatch: layer pipeline differs from untraced pass {pass}: {}",
                first_difference(&outputs[pass].canonical, &output.canonical)
            );
            failed += 1;
        }
        failed += output.failed;
    }
    let (checked, check_failures) = workload.final_checks();
    attempted += checked;
    failed += check_failures;

    // Work over all untraced passes. Passes that repeat their inputs repeat
    // their work, which the layer pipeline counts exactly even where the
    // public entry point does not report it.
    let work: u64 = if spec.repeats {
        verified_work * outputs.len() as u64
    } else {
        outputs.iter().map(|o| o.work).sum()
    };
    let mut record: Vec<(String, String)> = vec![
        ("workload".into(), spec.name.into()),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), args.seconds.to_string()),
        ("trace".into(), u8::from(args.trace).to_string()),
        ("git_rev".into(), env!("PERFBENCH_GIT_REV").into()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc".into(), env!("PERFBENCH_RUSTC").into()),
        ("profile".into(), env!("PERFBENCH_PROFILE").into()),
        ("obs_enabled".into(), faultnet_obs::enabled().to_string()),
        ("setups".into(), setup_s.len().to_string()),
        ("untraced_passes".into(), walls.len().to_string()),
        ("untraced_walls_s".into(), format!("{walls:.4?}")),
        ("traced_walls_s".into(), format!("{traced_walls:.4?}")),
        ("latency_samples".into(), latencies_us.len().to_string()),
        ("traced_passes".into(), traced_walls.len().to_string()),
    ];
    for (key, value) in workload.record() {
        record.push((key.into(), value));
    }

    let mut metrics = Vec::new();
    let mut chrome_trace = None;
    if args.trace {
        let passes = traced_walls.len() as f64;
        let mut values: BTreeMap<String, f64> = BTreeMap::new();
        let mut set = |name: &str, value: f64| values.insert(name.to_string(), value);
        let setups = setup_s.len() as f64;
        set(
            "topology.build_s",
            setup_tracer.total_s("topology.build") / setups
                + tracer.total_s("topology.build") / passes,
        );
        for name in SPAN_TOTALS {
            set(&format!("{name}_s"), tracer.total_s(name) / passes);
        }
        for name in PASS_COUNTS {
            set(name, counters.get(name) / passes);
        }
        for (name, numerator, denominator) in [
            (
                "percolation.census_edges_per_s",
                counters.get("percolation.census_edges"),
                tracer.total_s("percolation.census"),
            ),
            (
                "percolation.condition_accept_ratio",
                counters.get("percolation.condition_accepted"),
                counters.get("percolation.condition_calls"),
            ),
            (
                "percolation.churn_replayed_per_event",
                counters.get("percolation.churn_replayed"),
                counters.get("percolation.churn_events"),
            ),
            (
                "routing.ns_per_probe",
                tracer.total_s("routing.route") * 1e9,
                counters.get("routing.probes"),
            ),
            (
                "routing.budget_exhausted_ratio",
                counters.get("routing.budget_exhausted"),
                counters.get("routing.trials"),
            ),
        ] {
            set(name, ratio(numerator, denominator));
        }
        let (layers, unattributed) = tracer.self_times();
        for (layer, self_s) in layers {
            set(&format!("{}.self_s", layer.name()), self_s / passes);
        }
        // Means over the same pass indices, so the layer self times plus
        // the unattributed remainder add up to `trace.wall_s` and the
        // overhead ratio compares the same inputs.
        let traced_wall = tracer.total_s("pass") / passes;
        let untraced_wall = walls[..traced_walls.len()].iter().sum::<f64>() / passes;
        set("trace.unattributed_s", unattributed / passes);
        set("trace.wall_s", traced_wall);
        set("obs.untraced_wall_s", untraced_wall);
        set(
            "obs.trace_overhead_ratio",
            ratio(traced_wall, untraced_wall),
        );
        set("trace.spans", tracer.span_count() as f64 / passes);
        workload.layer_metrics(&mut values);
        for key in values.keys() {
            assert!(
                PER_LAYER.iter().any(|(name, _)| name == key),
                "{key} is not a declared per-layer metric"
            );
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, unit, values.get(name).copied().unwrap_or(0.0)));
        }
        let mut combined = setup_tracer;
        combined.append(tracer);
        chrome_trace = Some(combined.chrome_trace());
    } else {
        let values = [
            median(&setup_s),
            median(&walls),
            work as f64 / walls.iter().sum::<f64>(),
            quantile(&latencies_us, 0.5),
            quantile(&latencies_us, 0.99),
            peak_heap_mb(),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((*name, *unit, value));
        }
    }
    record.push((
        "latency_samples_beyond_p99".into(),
        (latencies_us.len() / 100).to_string(),
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        record,
        chrome_trace,
    })
}

/// The first line where two canonical outputs differ, for the log.
fn first_difference(expected: &str, got: &str) -> String {
    let mut got_lines = got.lines();
    for (i, want) in expected.lines().enumerate() {
        let have = got_lines.next().unwrap_or("<missing>");
        if want != have {
            return format!("line {}: expected {want:.200} got {have:.200}", i + 1);
        }
    }
    "extra trailing output".to_string()
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn write_outputs(args: &Args, outcome: &Outcome) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record: Vec<String> = outcome
        .record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let body = format!(
        "{{{}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        record.join(", "),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
    std::fs::write(format!("{stem}.json"), body)?;
    if let Some(trace) = &outcome.chrome_trace {
        std::fs::write(format!("{stem}.trace.json"), trace)?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    };
    if let Err(err) = write_outputs(&args, &outcome) {
        eprintln!("perfbench: cannot write the run record: {err}");
        std::process::exit(1);
    }
    for (key, value) in &outcome.record {
        eprintln!("# {key} = {value}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
}
