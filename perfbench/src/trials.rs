//! The `paper_trials` workload: the paper's one-shot process, m = n
//! balls with d = 2 on a ring and on a torus, one trial at a time.
//!
//! Trials alternate ring, torus. Each pair is timed as two spans of
//! whole trials (no per-ball timer); `events_per_s` is the ball rate of
//! the fastest ring trial plus the fastest torus trial (`measure::fast`).
//! The checkpoint and recovery metrics come from the same process run as
//! a serving engine with no departures on the trial ring, so they are
//! the cost of making this workload's state durable.

use crate::measure::{self, fast, median, ns, quantile, Trace};
use crate::serve::{CycleStats, Cycles, NEVER};
use crate::{layers, Ctx, ROOT_SEED, SPACE_SEED, TORUS_SEED, TRIAL_SEED};
use geo2c_core::sim::{run_trial, TrialResult};
use geo2c_core::space::{RingSpace, Space, TorusSpace};
use geo2c_core::strategy::Strategy;
use geo2c_serve::{
    DepartureWheel, DurableEngine, FaultPlan, JournalError, Recovery, Resumed, ServeConfig,
    SessionLife,
};
use geo2c_util::rng::Xoshiro256pp;
use std::path::Path;
use std::time::{Duration, Instant};

const LOG2_N: u32 = 16;
/// Trial pairs between the set-ups repeated in the timed phase.
const SETUP_EVERY: u64 = 2;
/// Pairs of trials that define the exact `max_load` (always run).
const QUALITY_PAIRS: u64 = 8;
const MAX_PAIRS: u64 = 4096;
/// Trial pairs between checkpoint/recovery cycles.
const CYCLE_EVERY: u64 = 2;
const TAIL: u64 = 1 << 12;

/// The one-shot process as a serving engine: no session ever departs.
fn config() -> ServeConfig {
    ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: None,
        life: SessionLife::Fixed(NEVER),
        retries: 0,
    }
}

fn fresh(n: usize) -> Vec<u32> {
    vec![0u32; n]
}

/// What a set-up builds: the ring, the torus and the durable twin.
type Built = (RingSpace, TorusSpace, DurableEngine<RingSpace, Vec<u32>>);

/// One set-up: build the ring and the torus, and create the durable twin
/// on the ring in `dir`, with its seed checkpoint. The times go to `ctx`.
fn set_up(dir: &Path, ctx: &mut Ctx) -> Result<Built, JournalError> {
    let _ = std::fs::remove_dir_all(dir);
    let n = 1usize << LOG2_N;
    let rep = ctx.setup_s.len() as u64;
    let mut ring_rng = Xoshiro256pp::from_u64(ctx.derive(SPACE_SEED));
    let mut torus_rng = Xoshiro256pp::from_u64(ctx.derive(TORUS_SEED));
    let start = Instant::now();
    let ring = ctx
        .trace
        .time("setup.space", rep, || RingSpace::random(n, &mut ring_rng));
    let torus = ctx
        .trace
        .time("setup.space", rep, || TorusSpace::random(n, &mut torus_rng));
    let space_took = start.elapsed();
    let keep = ring.clone();
    let start = Instant::now();
    let root = ctx.derive(ROOT_SEED);
    let durable = ctx.trace.time("setup.engine", rep, || {
        DurableEngine::<_, _, DepartureWheel>::create_with(
            dir,
            ring,
            config(),
            root,
            NEVER,
            fresh(n),
        )
    })?;
    ctx.record_setup(space_took + start.elapsed(), space_took);
    Ok((keep, torus, durable))
}

fn trial(space: &impl Space, m: usize, root: u64) -> TrialResult {
    run_trial(
        space,
        &Strategy::two_choice(),
        m,
        &mut Xoshiro256pp::from_u64(root),
    )
}

pub fn run(ctx: &mut Ctx) -> Result<(), JournalError> {
    let n = 1usize << LOG2_N;
    let m = n;
    let root = ctx.derive(ROOT_SEED);
    let config = config();
    let dir = ctx.run_dir.join("journal");
    let (ring, torus, mut durable) = set_up(&dir, ctx)?;

    // The durable twin serves the m arrivals of one trial; every cycle
    // then starts from a copy of that state.
    let plan = FaultPlan::empty();
    durable.run_journaled(m as u64, &plan)?;
    drop(durable);
    let twin: Resumed<RingSpace, Vec<u32>, DepartureWheel> =
        Recovery::resume(&dir, ring.clone(), config, root, &plan, fresh(n))?;
    let twin = twin.engine;
    let mut cycles = Cycles {
        dir: &dir,
        config,
        root,
        plan: &plan,
        every: NEVER,
        tail: TAIL,
        resumes: 1,
        fresh,
        measured: CycleStats::default(),
        crashed: None,
    };

    // Timed trials, until `--seconds` of trial time is measured. In a
    // traced run every odd pair also records spans.
    let mut ring_ns = Vec::new();
    let mut torus_ns = Vec::new();
    let mut traced_pair_ns = Vec::new();
    let mut quality_max = 0u64;
    let mut measured = Duration::ZERO;
    let oncpu_start = measure::oncpu_ns();
    let wall = Instant::now();
    let mut pairs = 0;
    while pairs < MAX_PAIRS && (pairs < QUALITY_PAIRS || measured < ctx.seconds) {
        let traced = ctx.trace.on() && pairs % 2 == 1;
        let ring_root = ctx.derive(TRIAL_SEED + 2 * pairs);
        let torus_root = ctx.derive(TRIAL_SEED + 2 * pairs + 1);
        let (r, r_ns) = timed(&mut ctx.trace, traced, "sim.ring_trial", pairs, || {
            trial(&ring, m, ring_root)
        });
        let (t, t_ns) = timed(&mut ctx.trace, traced, "sim.torus_trial", pairs, || {
            trial(&torus, m, torus_root)
        });
        measured += Duration::from_nanos((r_ns + t_ns) as u64);
        for (label, result) in [("ring", &r), ("torus", &t)] {
            ctx.checks
                .check("trial ball count", result.total_balls() == m as u64, || {
                    format!(
                        "{label} trial {pairs}: loads sum to {}, not {m}",
                        result.total_balls()
                    )
                });
        }
        if traced {
            traced_pair_ns.push((r_ns + t_ns) / (2 * m) as f64);
        } else {
            ring_ns.push(r_ns);
            torus_ns.push(t_ns);
        }
        if pairs < QUALITY_PAIRS {
            quality_max += u64::from(r.max_load) + u64::from(t.max_load);
        }
        ctx.sample_host();
        pairs += 1;
        if pairs % CYCLE_EVERY == 0 {
            if pairs == CYCLE_EVERY {
                ctx.record_peak_rss();
            }
            cycles.run_copy(&twin, ctx)?;
        }
        if pairs > CYCLE_EVERY && pairs % SETUP_EVERY == 0 {
            let dir = ctx.run_dir.join("setup");
            drop(set_up(&dir, ctx)?);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    ctx.set_setup_metrics();
    let wall_ns = ns(wall.elapsed());
    let oncpu_share = match (oncpu_start, measure::oncpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / wall_ns,
        _ => f64::NAN,
    };
    ctx.attempted += pairs * 2 * m as u64 + twin.arrivals();
    let (ring_fast, torus_fast) = (fast(&ring_ns), fast(&torus_ns));
    ctx.set(
        "events_per_s",
        (2 * m) as f64 * 1e9 / (ring_fast + torus_fast),
    );
    ctx.set("max_load", quality_max as f64 / (2 * QUALITY_PAIRS) as f64);
    ctx.set("admit_share", 1.0);
    cycles.finish(ctx);
    let (ring_med, torus_med) = (median(&ring_ns), median(&torus_ns));
    eprintln!(
        "perfbench: {pairs} trial pairs; ring ms min {:.3} p50 {:.3}, torus ms min {:.3} p50 {:.3}",
        ring_fast / 1e6,
        ring_med / 1e6,
        torus_fast / 1e6,
        torus_med / 1e6,
    );

    // A sampled pair, replayed from the same roots, must come out identical.
    let k = ctx.seed % pairs;
    let (ring_root, torus_root) = (
        ctx.derive(TRIAL_SEED + 2 * k),
        ctx.derive(TRIAL_SEED + 2 * k + 1),
    );
    let ring_same = trial(&ring, m, ring_root) == trial(&ring, m, ring_root);
    let torus_same = trial(&torus, m, torus_root) == trial(&torus, m, torus_root);
    ctx.checks.check("trial replay", ring_same, || {
        format!("ring trial {k} does not replay identically")
    });
    ctx.checks.check("trial replay", torus_same, || {
        format!("torus trial {k} does not replay identically")
    });

    if ctx.trace.on() {
        let pair_ns: Vec<f64> = ring_ns
            .iter()
            .zip(&torus_ns)
            .map(|(r, t)| (r + t) / (2 * m) as f64)
            .collect();
        ctx.set("engine.window_ns_p50", median(&pair_ns));
        ctx.set("engine.window_ns_p99", quantile(&pair_ns, 0.99));
        ctx.set("engine.windows", pair_ns.len() as f64);
        ctx.set(
            "trace.overhead_share",
            median(&traced_pair_ns) / median(&pair_ns) - 1.0,
        );
        ctx.set("retry.rescue_share", 0.0);
        ctx.host_metrics(oncpu_share);
        let sim = (ring_med / m as f64, torus_med / m as f64);
        layers::measure(
            &layers::Input {
                space: &ring,
                engine: &twin,
                config,
                root,
                plan: &plan,
                fresh,
                tail: TAIL,
                torus: Some(&torus),
                sim: Some(sim),
            },
            ctx,
        );
        layers::trial_ledger(ctx, sim.0);
    }
    Ok(())
}

/// Runs one whole trial, as a span when `traced`; returns it with its ns.
fn timed(
    trace: &mut Trace,
    traced: bool,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> TrialResult,
) -> (TrialResult, f64) {
    let span = if traced { trace.enter(name, op) } else { None };
    let start = Instant::now();
    let result = f();
    let took = ns(start.elapsed());
    trace.exit(span);
    (result, took)
}
