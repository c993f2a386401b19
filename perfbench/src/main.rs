//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_ring_big --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One process, one thread. The seed makes every input (the space, the
//! lane root, the fault plan, the trial roots); the program sees only
//! those inputs. With `--trace 0` the last line of standard output is a
//! JSON object with every end-to-end metric; with `--trace 1` it carries
//! every per-layer metric instead, measured from outside by timing
//! batches of calls into each layer's public functions. Diagnostics and
//! the layer ledger go to standard error. See `perfbench/README.md`.

mod checks;
mod layers;
mod measure;
mod serve;
mod trials;

use checks::Checks;
use geo2c_core::load::PackedLoads;
use measure::{fast, median, Trace};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("max_load", "count"),
    ("admit_share", "ratio"),
    ("recovery_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
const PER_LAYER: &[(&str, &str)] = &[
    ("space.build_s", "s"),
    ("space.owners_ns_per_event", "ns"),
    ("space.ring_owner_ns", "ns"),
    ("space.torus_owner_ns", "ns"),
    ("load.min_of_d_ns", "ns"),
    ("load.bump_dec_ns", "ns"),
    ("strategy.place_ns", "ns"),
    ("rng.lanes_ns_per_event", "ns"),
    ("wheel.schedule_ns", "ns"),
    ("wheel.drain_ns_per_entry", "ns"),
    ("wheel.len", "count"),
    ("wheel.purge_ns", "ns"),
    ("fault.apply_us", "us"),
    ("retry.rescue_share", "ratio"),
    ("engine.window_ns_p50", "ns"),
    ("engine.window_ns_p99", "ns"),
    ("engine.windows", "count"),
    ("engine.ledger_sum_ns", "ns"),
    ("engine.ledger_residual_ns", "ns"),
    ("journal.encode_us", "us"),
    ("journal.image_bytes", "bytes"),
    ("journal.decode_us", "us"),
    ("journal.bytes_per_event", "bytes"),
    ("journal.checkpoints", "count"),
    ("journal.checkpoint_ms", "ms"),
    ("recovery.restore_us", "us"),
    ("recovery.replay_ns_per_event", "ns"),
    ("recovery.replayed_events", "count"),
    ("sim.ring_ns_per_ball", "ns"),
    ("sim.torus_ns_per_ball", "ns"),
    ("host.ref_ns", "ns"),
    ("proc.oncpu_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Input purposes, each mixed into the workload seed (see [`Ctx::derive`]).
pub const SPACE_SEED: u64 = 1;
pub const ROOT_SEED: u64 = 2;
pub const FAULT_SEED: u64 = 3;
pub const TORUS_SEED: u64 = 4;
pub const WHEEL_SEED: u64 = 5;
/// Trial `k` of a run uses purpose `TRIAL_SEED + k`.
pub const TRIAL_SEED: u64 = 1 << 32;

/// Everything a workload reads and fills in.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    /// Directory for this run's journal, inside the checkout.
    pub run_dir: PathBuf,
    pub trace: Trace,
    pub checks: Checks,
    /// Operations attempted: arrivals or balls, checkpoints, resumes.
    pub attempted: u64,
    /// Metric values by name; `main` checks the set is complete.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host reference-kernel samples taken between windows or trials.
    pub host_ref_ns: Vec<f64>,
    /// Seconds of each set-up, and of its space build.
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
}

impl Ctx {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Samples the host reference kernel, between windows or trials.
    pub fn sample_host(&mut self) {
        self.host_ref_ns.push(measure::host_ref_ns());
    }

    /// Records one set-up: its whole time and its space build.
    pub fn record_setup(&mut self, total: Duration, space: Duration) {
        self.setup_s.push(total.as_secs_f64());
        self.build_s.push(space.as_secs_f64());
    }

    /// Sets `setup_s` and `space.build_s` from the set-ups recorded.
    pub fn set_setup_metrics(&mut self) {
        self.set("setup_s", fast(&self.setup_s));
        self.set("space.build_s", fast(&self.build_s));
        eprintln!(
            "perfbench: {} set-ups: ms min {:.3} p50 {:.3}",
            self.setup_s.len(),
            fast(&self.setup_s) * 1e3,
            median(&self.setup_s) * 1e3
        );
    }

    /// Records `peak_rss_mb`: the footprint after set-up, warm-up and the
    /// first timed work, before checkpoint cycles add their copies.
    pub fn record_peak_rss(&mut self) {
        self.set("peak_rss_mb", measure::peak_rss_mb());
    }

    /// Sets the host diagnostics of the traced run.
    pub fn host_metrics(&mut self, oncpu_share: f64) {
        self.set("proc.oncpu_share", oncpu_share);
        self.set("host.ref_ns", median(&self.host_ref_ns));
    }

    /// Derives an input seed for `purpose` from the workload seed.
    pub fn derive(&self, purpose: u64) -> u64 {
        geo2c_util::rng::mix(self.seed ^ geo2c_util::rng::mix(purpose))
    }
}

/// The workloads, by name.
const WORKLOADS: &[&str] = &["serve_ring_big", "serve_chaos_journaled", "paper_trials"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!(
                "perfbench: {msg}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(err) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {err}", run_dir.display());
        return ExitCode::FAILURE;
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        run_dir: run_dir.clone(),
        trace: Trace::new(args.trace),
        checks: Checks::default(),
        attempted: 0,
        metrics: BTreeMap::new(),
        host_ref_ns: Vec::new(),
        setup_s: Vec::new(),
        build_s: Vec::new(),
    };
    eprintln!(
        "perfbench: journal directory {} is on {} (the journal never fsyncs, so its \
         figures are page-cache writes)",
        run_dir.display(),
        measure::fs_type(&run_dir)
    );
    let outcome = match args.workload.as_str() {
        "serve_ring_big" => serve::run(&serve::RING_BIG, |n| vec![0u32; n], &mut ctx),
        "serve_chaos_journaled" => serve::run(&serve::CHAOS, PackedLoads::nibble, &mut ctx),
        _ => trials::run(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(err) = outcome {
        eprintln!("perfbench: {} failed: {err}", args.workload);
        return ExitCode::FAILURE;
    }
    if args.trace {
        let path = PathBuf::from(".bench_run")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match ctx.trace.write_jsonl(&path) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(err) => eprintln!("perfbench: cannot write {}: {err}", path.display()),
        }
    }
    ctx.set("ok_share", ctx.checks.ok_share());
    for failure in ctx.checks.failures() {
        eprintln!("perfbench: CHECK FAILED: {failure}");
    }
    eprintln!(
        "perfbench: host.ref_ns median {:.4} over {} samples; {} checks of {} kinds, ok_share {}",
        median(&ctx.host_ref_ns),
        ctx.host_ref_ns.len(),
        ctx.checks.total(),
        ctx.checks.kinds(),
        ctx.checks.ok_share()
    );
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let Some(&value) = ctx.metrics.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a finite number ({value})");
            return ExitCode::FAILURE;
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = ctx.checks.ok_share() == 1.0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        ctx.attempted.max(1),
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
