//! Per-layer measurements for the traced run, taken from outside: each
//! layer's public functions are called in fixed-size batches, each batch
//! is a span, and a layer's figure is its median span over the batch
//! size. Inputs come from the workload's own seed, sizes and warm state:
//! owner sets and tie draws from its lanes, loads and departure entries
//! from its engine after the timed phase.

use crate::checks;
use crate::measure::median;
use crate::{Ctx, TORUS_SEED, TRIAL_SEED, WHEEL_SEED};
use geo2c_core::load::LoadState;
use geo2c_core::sim::{run_trial, EventOwnerBlocks};
use geo2c_core::space::{RingSpace, Space, TorusSpace};
use geo2c_core::strategy::Strategy;
use geo2c_serve::journal::{decode_state, encode_state};
use geo2c_serve::{
    DepartureQueue, DepartureWheel, FaultPlan, ServeConfig, ServeEngine, SessionLife,
};
use geo2c_util::rng::{BallLanes, EventLanes, LaneSource, Xoshiro256pp};
use rand::seq::SliceRandom as _;
use rand::RngCore as _;
use std::hint::black_box;

/// Batches per layer; the median batch is reported.
const REPEATS: u64 = 9;
/// Events (or calls) per batch.
const BATCH: u64 = 4096;
/// Repeats of the whole-state journal operations and of the trials.
const HEAVY_REPEATS: u64 = 5;
const SIM_REPEATS: u64 = 3;
/// Fault applications per batch.
const FAULTS: usize = 1024;

/// Counter deltas over a timed phase, for the ledger's per-event weights.
pub struct PhaseCounts {
    pub arrivals: u64,
    pub departed: u64,
    pub shed: u64,
    pub admitted_on_retry: u64,
}

/// What the layer suite measures on.
pub struct Input<'a, L: LoadState> {
    pub space: &'a RingSpace,
    /// The workload's warm engine.
    pub engine: &'a ServeEngine<RingSpace, L>,
    pub config: ServeConfig,
    pub root: u64,
    pub plan: &'a FaultPlan,
    pub fresh: fn(usize) -> L,
    /// Events replayed by a recovery.
    pub tail: u64,
    /// The workload's torus, if it has one (else one of the same size is built).
    pub torus: Option<&'a TorusSpace>,
    /// Ring and torus ns per ball, if the workload timed trials itself.
    pub sim: Option<(f64, f64)>,
}

/// The engine's lifetime draw for event `t`, mirrored from outside.
fn life(lanes: &EventLanes, config: &ServeConfig, t: u64) -> u64 {
    match config.life {
        SessionLife::Fixed(ttl) => ttl,
        SessionLife::Exponential { mean } => {
            let raw = lanes.life(t).next_u64();
            let u = ((raw >> 11) + 1) as f64 / (1u64 << 53) as f64;
            ((-mean * u.ln()).ceil() as u64).max(1)
        }
    }
}

/// Times `REPEATS` batches of `body(first_op_of_batch)` as spans named
/// `name`, and returns the median ns per op for `ops` ops per batch.
fn batches(ctx: &mut Ctx, name: &'static str, ops: u64, mut body: impl FnMut(u64)) -> f64 {
    for r in 0..REPEATS {
        ctx.trace.time(name, r, || body(r * BATCH));
    }
    ctx.trace.median_per_op(name, ops as f64)
}

pub fn measure<L: LoadState + Clone>(input: &Input<'_, L>, ctx: &mut Ctx) {
    let space = input.space;
    let n = space.num_servers();
    let d = input.config.strategy.d();
    let state = input.engine.state();
    let t0 = state.counters.arrivals;
    let first = t0 - t0 % EventOwnerBlocks::BLOCK_EVENTS + EventOwnerBlocks::BLOCK_EVENTS;
    let events = REPEATS * BATCH;
    let lanes = EventLanes::new(input.root);
    let mut sink = 0u64;

    // Owner lookup for the engine's 64-event blocks.
    let mut blocks = EventOwnerBlocks::new(d);
    let owners_ns = batches(ctx, "space.owners_block", BATCH, |op| {
        for b in (0..BATCH).step_by(EventOwnerBlocks::BLOCK_EVENTS as usize) {
            sink += blocks.block(space, &lanes, first + op + b)[0] as u64;
        }
    });
    ctx.set("space.owners_ns_per_event", owners_ns);
    let mut owners = Vec::with_capacity((events as usize) * d);
    for b in (0..events).step_by(EventOwnerBlocks::BLOCK_EVENTS as usize) {
        owners.extend_from_slice(blocks.block(space, &lanes, first + b));
    }
    let live: Vec<usize> = owners
        .iter()
        .copied()
        .filter(|&s| !state.failed[s])
        .collect();

    // Per-probe owner resolution, ring and torus, as the trials call it.
    let built_torus;
    let torus = match input.torus {
        Some(torus) => torus,
        None => {
            let mut rng = Xoshiro256pp::from_u64(ctx.derive(TORUS_SEED));
            built_torus = TorusSpace::random(n, &mut rng);
            &built_torus
        }
    };
    let balls = BallLanes::new(input.root);
    let mut buf = vec![0usize; EventOwnerBlocks::BLOCK_EVENTS as usize * d];
    let ring_ns = batches(ctx, "space.ring_owners", BATCH * d as u64, |op| {
        for b in (0..BATCH).step_by(EventOwnerBlocks::BLOCK_EVENTS as usize) {
            space.sample_owners_lanes(&balls.block(op + b), d, &mut buf);
            sink += buf[0] as u64;
        }
    });
    ctx.set("space.ring_owner_ns", ring_ns);
    let torus_ns = batches(ctx, "space.torus_owners", BATCH * d as u64, |op| {
        for b in (0..BATCH).step_by(EventOwnerBlocks::BLOCK_EVENTS as usize) {
            torus.sample_owners_lanes(&balls.block(op + b), d, &mut buf);
            sink += buf[0] as u64;
        }
    });
    ctx.set("space.torus_owner_ns", torus_ns);

    // Loads and placement on the workload's backing, at its warm loads.
    let mut loads = (input.fresh)(n);
    for (s, &load) in state.loads.iter().enumerate() {
        if load != 0 {
            loads.set(s, load);
        }
    }
    let d_slice = |i: u64| &owners[i as usize * d..(i as usize + 1) * d];
    let min_ns = batches(ctx, "load.min_of_d", BATCH, |op| {
        for i in op..op + BATCH {
            sink += u64::from(loads.min_load_of(d_slice(i)));
        }
    });
    ctx.set("load.min_of_d_ns", min_ns);
    let strategy = input.config.strategy;
    let place_ns = batches(ctx, "strategy.place", BATCH, |op| {
        for i in op..op + BATCH {
            let mut tie = lanes.tie(first + i);
            sink += strategy.place_from_loads(space, &loads, d_slice(i), &mut tie) as u64;
        }
    });
    ctx.set("strategy.place_ns", place_ns);
    let bump_ns = batches(ctx, "load.bump_dec", BATCH, |op| {
        let servers = &live[op as usize..(op + BATCH) as usize];
        for &s in servers {
            sink += u64::from(loads.bump(s));
        }
        for &s in servers {
            sink += u64::from(loads.dec(s));
        }
    });
    ctx.set("load.bump_dec_ns", bump_ns);

    // The probe, tie and life lanes of an event plus its life draw.
    let config = input.config;
    let lanes_ns = batches(ctx, "rng.lanes", BATCH, |op| {
        for t in first + op..first + op + BATCH {
            sink ^= lanes.probe(t).next_u64();
            black_box(lanes.tie(t));
            sink ^= life(&lanes, &config, t);
        }
    });
    ctx.set("rng.lanes_ns_per_event", lanes_ns);

    wheel(input, ctx, &state, &lanes, &live);

    // Fail and recover live servers on a copy of the warm engine.
    let mut engine = input.engine.clone();
    let fault_ns = batches(ctx, "fault.apply", FAULTS as u64, |op| {
        let at = (op as usize / BATCH as usize) * FAULTS;
        for &s in &live[at..at + FAULTS] {
            engine.fail_server(s);
            engine.recover_server(s);
        }
    });
    drop(engine);
    ctx.set("fault.apply_us", fault_ns / 1e3);

    journal(input, ctx, &state);

    let (ring_ball, torus_ball) = input.sim.unwrap_or_else(|| {
        let strategy = Strategy::two_choice();
        for r in 0..SIM_REPEATS {
            let mut rng = Xoshiro256pp::from_u64(ctx.derive(TRIAL_SEED + 2 * r));
            ctx.trace.time("sim.ring_trial", r, || {
                black_box(run_trial(space, &strategy, n, &mut rng))
            });
            let mut rng = Xoshiro256pp::from_u64(ctx.derive(TRIAL_SEED + 2 * r + 1));
            ctx.trace.time("sim.torus_trial", r, || {
                black_box(run_trial(torus, &strategy, n, &mut rng))
            });
        }
        (
            ctx.trace.median_per_op("sim.ring_trial", n as f64),
            ctx.trace.median_per_op("sim.torus_trial", n as f64),
        )
    });
    ctx.set("sim.ring_ns_per_ball", ring_ball);
    ctx.set("sim.torus_ns_per_ball", torus_ball);
    black_box(sink);
}

/// The departure wheel at the workload's steady occupancy: the warm
/// engine's entries filed in shuffled order (so slab nodes sit as
/// scattered as in a long-running engine), then a drain-and-schedule
/// loop over the workload's next events, timed per 64-event block.
fn wheel<L: LoadState>(
    input: &Input<'_, L>,
    ctx: &mut Ctx,
    state: &geo2c_serve::EngineState,
    lanes: &EventLanes,
    live: &[usize],
) {
    let t0 = state.counters.arrivals;
    let mut entries = state.departures.clone();
    entries.shuffle(&mut Xoshiro256pp::from_u64(ctx.derive(WHEEL_SEED)));
    let mut wheel = DepartureWheel::with_origin(input.space.num_servers(), t0);
    for &(when, server) in &entries {
        wheel.schedule(when, server);
    }
    drop(entries);
    ctx.set("wheel.len", wheel.len() as f64);
    let mut purged = wheel.clone();

    let block = EventOwnerBlocks::BLOCK_EVENTS;
    let mut drained = 0u64;
    let mut sink = 0u64;
    for b in (0..REPEATS * BATCH).step_by(block as usize) {
        let (lo, hi) = (t0 + b, t0 + b + block);
        ctx.trace.time("wheel.drain", b, || {
            for t in lo..hi {
                wheel.drain_due(t, |server| {
                    drained += 1;
                    sink ^= u64::from(server);
                });
            }
        });
        ctx.trace.time("wheel.schedule", b, || {
            for t in lo..hi {
                // A deadline inside this already-drained block moves to
                // its end: the wheel never files into the past.
                let when = (t + life(lanes, &input.config, t)).max(hi);
                wheel.schedule(when, live[(t - t0) as usize] as u32);
            }
        });
    }
    let events = (REPEATS * BATCH) as f64;
    ctx.set(
        "wheel.schedule_ns",
        ctx.trace.total_ns("wheel.schedule") / events,
    );
    // Where nothing departs (the trials' twin), the figure is per event.
    ctx.set(
        "wheel.drain_ns_per_entry",
        ctx.trace.total_ns("wheel.drain") / if drained == 0 { events } else { drained as f64 },
    );
    let purge_ns = batches(ctx, "wheel.purge", BATCH, |op| {
        for &s in &live[op as usize..(op + BATCH) as usize] {
            sink += purged.purge_server(s as u32);
        }
    });
    ctx.set("wheel.purge_ns", purge_ns);
    black_box(sink);
}

/// The checkpoint codec on the warm state, and a recovery split into
/// restore and replay.
fn journal<L: LoadState>(input: &Input<'_, L>, ctx: &mut Ctx, state: &geo2c_serve::EngineState) {
    let mut image = Vec::new();
    for r in 0..HEAVY_REPEATS {
        image = ctx.trace.time("journal.encode", r, || encode_state(state));
    }
    ctx.set(
        "journal.encode_us",
        median(&ctx.trace.durations("journal.encode")) / 1e3,
    );
    ctx.set("journal.image_bytes", image.len() as f64);
    let mut decoded = None;
    for r in 0..HEAVY_REPEATS {
        decoded = Some(ctx.trace.time("journal.decode", r, || decode_state(&image)));
    }
    ctx.set(
        "journal.decode_us",
        median(&ctx.trace.durations("journal.decode")) / 1e3,
    );
    let round_trip = matches!(&decoded, Some(Ok(decoded)) if decoded == state);
    ctx.checks.check("codec round trip", round_trip, || {
        "decode(encode(state)) differs from state".into()
    });

    let n = input.space.num_servers();
    for r in 0..HEAVY_REPEATS {
        let space = input.space.clone();
        let loads = (input.fresh)(n);
        let mut engine = ctx.trace.time("recovery.restore", r, || {
            ServeEngine::<RingSpace, L, DepartureWheel>::restore_with_scheduler(
                space,
                input.config,
                input.root,
                state,
                loads,
            )
        });
        if r == 0 {
            checks::final_state(
                &mut ctx.checks,
                &engine.state(),
                state,
                "restored vs warm state",
            );
        }
        ctx.trace.time("recovery.replay", r, || {
            engine.run_with_faults(input.tail, input.plan)
        });
    }
    ctx.set(
        "recovery.restore_us",
        median(&ctx.trace.durations("recovery.restore")) / 1e3,
    );
    ctx.set(
        "recovery.replay_ns_per_event",
        ctx.trace
            .median_per_op("recovery.replay", input.tail as f64),
    );
}

/// Prints a ledger and sets its sum and residual.
fn ledger(ctx: &mut Ctx, title: &str, measured: f64, rows: &[(&str, f64)]) {
    let sum: f64 = rows.iter().map(|&(_, ns)| ns).sum();
    eprintln!("perfbench: ledger for {title} (ns per event)");
    for &(layer, ns) in rows {
        eprintln!("  {layer:<34} {ns:>10.1}");
    }
    eprintln!("  {:<34} {sum:>10.1}", "sum of layers");
    eprintln!("  {:<34} {measured:>10.1}", "end to end (median window)");
    eprintln!(
        "  {:<34} {:>10.1}  ({:.1}%)",
        "residual",
        measured - sum,
        100.0 * (measured - sum) / measured
    );
    ctx.set("engine.ledger_sum_ns", sum);
    ctx.set("engine.ledger_residual_ns", measured - sum);
}

/// The serving ledger: each layer's cost, weighted by how often an event
/// calls it, against the untraced windows' median ns per event.
pub fn serving_ledger(ctx: &mut Ctx, ns_per_event: f64, c: &PhaseCounts) {
    let m = &ctx.metrics;
    let admitted = (c.arrivals - c.shed) as f64 / c.arrivals as f64;
    let departed = c.departed as f64 / c.arrivals as f64;
    let rows = [
        (
            "owner lookup (64-event blocks)",
            m["space.owners_ns_per_event"],
        ),
        (
            "probe/tie/life lanes + life draw",
            m["rng.lanes_ns_per_event"],
        ),
        ("least-of-d placement + tie", m["strategy.place_ns"]),
        ("load bump + dec", m["load.bump_dec_ns"] * admitted),
        ("wheel schedule", m["wheel.schedule_ns"] * admitted),
        ("wheel drain", m["wheel.drain_ns_per_entry"] * departed),
    ];
    ledger(ctx, "serving", ns_per_event, &rows);
}

/// The trial ledger on the ring: d owner probes, one placement and one
/// bump per ball (half a bump + dec pair).
pub fn trial_ledger(ctx: &mut Ctx, ns_per_ball: f64) {
    let m = &ctx.metrics;
    let rows = [
        ("ring owner probes (d = 2)", 2.0 * m["space.ring_owner_ns"]),
        ("least-of-d placement + tie", m["strategy.place_ns"]),
        ("load bump", m["load.bump_dec_ns"] / 2.0),
    ];
    ledger(ctx, "ring trials", ns_per_ball, &rows);
}
