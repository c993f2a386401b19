//! The two serving workloads, and the checkpoint/recovery cycle every
//! workload runs.
//!
//! A serving run sets up (space + durable engine), warms the engine to
//! steady state, then times fixed-size windows of arrivals until
//! `--seconds` of window time is measured. Between windows, untimed, it
//! checks session conservation, samples the host reference kernel, and
//! every few windows repeats the set-up or runs one checkpoint → tail →
//! crash → `Recovery::resume` cycle, so those rare operations are
//! sampled across the whole run like the windows are. After the timed
//! phase it replays the stream from event 0 to the end of the quality
//! span on an uninterrupted `HeapQueue`-scheduled engine and compares
//! that state with the one the timed engine had there.

use crate::checks::{self, Checks};
use crate::measure::{self, fast, median, ns, quantile};
use crate::{layers, Ctx, FAULT_SEED, ROOT_SEED, SPACE_SEED};
use geo2c_core::load::LoadState;
use geo2c_core::space::{RingSpace, Space as _};
use geo2c_core::strategy::Strategy;
use geo2c_serve::{
    Counters, DepartureWheel, DurableEngine, EngineState, FaultPlan, HeapQueue, JournalError,
    Recovery, Resumed, ServeConfig, ServeEngine, SessionLife,
};
use geo2c_util::rng::Xoshiro256pp;
use std::path::Path;
use std::time::{Duration, Instant};

/// A checkpoint interval no run reaches: no periodic checkpoints.
pub const NEVER: u64 = 1 << 40;

/// Random crash-and-repair churn (`FaultPlan::random_churn`).
pub struct Churn {
    /// Crashes per arrival event.
    pub per_event: f64,
    /// Mean downtime, in arrival events.
    pub mean_downtime: u64,
}

/// One serving workload.
pub struct Spec {
    pub log2_n: u32,
    pub capacity: Option<u32>,
    /// Mean session life as a fraction of `n`.
    pub life_over_n: f64,
    pub retries: u32,
    pub churn: Option<Churn>,
    /// Serve through `DurableEngine::run_journaled` (else a plain engine).
    pub journaled: bool,
    pub checkpoint_every: u64,
    /// Windows between the set-ups repeated in the timed phase.
    pub setup_every: usize,
    /// Arrivals per timed window.
    pub window: u64,
    /// Untimed arrivals before the first window.
    pub warmup: u64,
    /// Windows that define the exact quality metrics and the state the
    /// heap oracle checks (always run).
    pub quality_windows: usize,
    /// Cap on windows (bounds the fault plan and the oracle replay).
    pub max_windows: usize,
    /// Windows between checkpoint/recovery cycles.
    pub cycle_every: usize,
    /// Resumes per cycle, each timed as one sample.
    pub cycle_resumes: u32,
    /// Windows between lone resumes from the last cycle's files (plain
    /// engines only, whose cycles run on a copy and leave the files).
    pub resume_every: Option<usize>,
    /// Events journaled between the checkpoint and the crash of a cycle.
    pub tail: u64,
}

/// Production scale: memory-bound, no journal, faults or retries.
pub const RING_BIG: Spec = Spec {
    log2_n: 20,
    capacity: None,
    life_over_n: 1.0,
    retries: 0,
    churn: None,
    journaled: false,
    checkpoint_every: NEVER,
    setup_every: 32,
    window: 1 << 14,
    warmup: 2 << 20,
    quality_windows: 128,
    max_windows: 4096,
    cycle_every: 64,
    cycle_resumes: 1,
    resume_every: Some(8),
    tail: 1 << 14,
};

/// Bench scale, every robustness path: capacity sheds, retries, churn,
/// journaled serving with periodic checkpoints.
pub const CHAOS: Spec = Spec {
    log2_n: 14,
    capacity: Some(1),
    life_over_n: 0.25,
    retries: 2,
    churn: Some(Churn {
        per_event: 0.003,
        mean_downtime: 1 << 18,
    }),
    journaled: true,
    checkpoint_every: 1 << 16,
    setup_every: 64,
    window: 1 << 12,
    warmup: 1 << 20,
    quality_windows: 1024,
    max_windows: 1 << 14,
    cycle_every: 32,
    cycle_resumes: 2,
    resume_every: None,
    tail: 1 << 13,
};

impl Spec {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            strategy: Strategy::two_choice(),
            capacity: self.capacity,
            life: SessionLife::Exponential {
                mean: self.life_over_n * (1u64 << self.log2_n) as f64,
            },
            retries: self.retries,
        }
    }

    /// The fault plan, long enough for every event a run can reach.
    fn plan(&self, root: u64) -> FaultPlan {
        let Some(churn) = &self.churn else {
            return FaultPlan::empty();
        };
        let cycles = (self.max_windows / self.cycle_every) as u64;
        let horizon = self.warmup + self.max_windows as u64 * self.window + cycles * self.tail;
        let faults = (horizon as f64 * churn.per_event) as usize;
        FaultPlan::random_churn(root, 1 << self.log2_n, horizon, faults, churn.mean_downtime)
    }
}

/// The engine a serving run drives: plain, or wrapped in the journal
/// (with the event count at which the current handle opened).
enum Engine<L: LoadState> {
    Plain(ServeEngine<RingSpace, L>),
    Durable(DurableEngine<RingSpace, L>, u64),
}

impl<L: LoadState + Clone> Engine<L> {
    fn advance(&mut self, events: u64, plan: &FaultPlan) -> Result<(), JournalError> {
        match self {
            Engine::Plain(engine) => {
                engine.run_with_faults(events, plan);
                Ok(())
            }
            Engine::Durable(durable, _) => durable.run_journaled(events, plan),
        }
    }

    fn get(&self) -> &ServeEngine<RingSpace, L> {
        match self {
            Engine::Plain(engine) => engine,
            Engine::Durable(durable, _) => durable.engine(),
        }
    }

    /// One checkpoint/recovery cycle. A journaled engine goes through it
    /// and serves on as the resumed engine; a plain engine sends a copy.
    fn cycle(self, cycles: &mut Cycles<'_, L>, ctx: &mut Ctx) -> Result<Self, JournalError> {
        Ok(match self {
            Engine::Plain(engine) => {
                cycles.run_copy(&engine, ctx)?;
                Engine::Plain(engine)
            }
            Engine::Durable(durable, since) => {
                let durable = cycles.run(durable, since, ctx)?;
                let since = durable.engine().arrivals();
                Engine::Durable(durable, since)
            }
        })
    }
}

fn counters<L: LoadState>(engine: &ServeEngine<RingSpace, L>) -> Counters {
    Counters {
        arrivals: engine.arrivals(),
        departed: engine.departed(),
        shed: engine.shed(),
        evicted: engine.evicted(),
    }
}

/// Runs one serving workload and fills `ctx.metrics`.
pub fn run<L: LoadState + Clone>(
    spec: &Spec,
    fresh: fn(usize) -> L,
    ctx: &mut Ctx,
) -> Result<(), JournalError> {
    let n = 1usize << spec.log2_n;
    let config = spec.config();
    let root = ctx.derive(ROOT_SEED);
    let plan = spec.plan(ctx.derive(FAULT_SEED));
    let dir = ctx.run_dir.join("journal");

    let durable = set_up(spec, config, root, fresh, &dir, ctx)?;
    let mut engine = if spec.journaled {
        Engine::Durable(durable, 0)
    } else {
        // The plain engine is what a restart from the durable directory
        // hands back. The space is rebuilt from its seed once the durable
        // engine is gone, so the process never holds two.
        drop(durable);
        let space = RingSpace::random(n, &mut Xoshiro256pp::from_u64(ctx.derive(SPACE_SEED)));
        let resumed: Resumed<RingSpace, L, DepartureWheel> =
            Recovery::resume(&dir, space, config, root, &plan, fresh(n))?;
        Engine::Plain(resumed.engine)
    };

    let phase = Instant::now();
    let mut warmed = 0;
    while warmed < spec.warmup {
        engine.advance(spec.window, &plan)?;
        warmed += spec.window;
    }
    eprintln!("perfbench: warm-up {:.2} s", phase.elapsed().as_secs_f64());

    let mut cycles = Cycles {
        dir: &dir,
        config,
        root,
        plan: &plan,
        every: spec.checkpoint_every,
        tail: spec.tail,
        resumes: spec.cycle_resumes,
        fresh,
        measured: CycleStats::default(),
        crashed: None,
    };
    let phase = Instant::now();
    let (engine, timed) = timed_windows(spec, engine, &plan, &mut cycles, ctx)?;
    ctx.set_setup_metrics();
    eprintln!(
        "perfbench: timed phase {:.2} s ({} windows, {} cycles)",
        phase.elapsed().as_secs_f64(),
        timed.plain_ns.len() + timed.traced_ns.len(),
        cycles.measured.checkpoint_ms.len()
    );
    ctx.set("events_per_s", 1e9 / fast(&timed.plain_ns));
    ctx.set("max_load", timed.quality_max_load);
    ctx.set("admit_share", timed.quality_admit_share);
    cycles.finish(ctx);

    // The stream from event 0 to the end of the quality span, on an
    // uninterrupted engine with the binary-heap oracle for a scheduler
    // (untimed). The replay's length does not grow with `--seconds`.
    let phase = Instant::now();
    let mut oracle = ServeEngine::<RingSpace, L, HeapQueue>::with_scheduler(
        engine.get().space().clone(),
        config,
        root,
        fresh(n),
    );
    let (events, state) = &timed.quality_state;
    oracle.run_with_faults(*events, &plan);
    checks::final_state(
        &mut ctx.checks,
        state,
        &oracle.state(),
        "wheel vs heap oracle",
    );
    drop(oracle);
    eprintln!(
        "perfbench: heap oracle replay and compare {:.2} s",
        phase.elapsed().as_secs_f64()
    );
    ctx.attempted += engine.get().arrivals();

    if ctx.trace.on() {
        timed.layer_metrics(ctx);
        layers::measure(
            &layers::Input {
                space: engine.get().space(),
                engine: engine.get(),
                config,
                root,
                plan: &plan,
                fresh,
                tail: spec.tail,
                torus: None,
                sim: None,
            },
            ctx,
        );
        layers::serving_ledger(ctx, median(&timed.plain_ns), &timed.counts);
    }
    Ok(())
}

/// One set-up: build the space and create the durable engine in `dir`,
/// with its seed checkpoint. The times go to `ctx`.
fn set_up<L: LoadState>(
    spec: &Spec,
    config: ServeConfig,
    root: u64,
    fresh: fn(usize) -> L,
    dir: &Path,
    ctx: &mut Ctx,
) -> Result<DurableEngine<RingSpace, L>, JournalError> {
    let _ = std::fs::remove_dir_all(dir);
    let n = 1usize << spec.log2_n;
    let rep = ctx.setup_s.len() as u64;
    let mut rng = Xoshiro256pp::from_u64(ctx.derive(SPACE_SEED));
    let start = Instant::now();
    let space = ctx
        .trace
        .time("setup.space", rep, || RingSpace::random(n, &mut rng));
    let space_took = start.elapsed();
    let start = Instant::now();
    let durable = ctx.trace.time("setup.engine", rep, || {
        DurableEngine::create_with(dir, space, config, root, spec.checkpoint_every, fresh(n))
    })?;
    ctx.record_setup(space_took + start.elapsed(), space_took);
    Ok(durable)
}

/// What the timed phase measured.
struct Timed {
    /// ns per arrival of each untraced window.
    plain_ns: Vec<f64>,
    /// ns per arrival of each traced window (traced runs only).
    traced_ns: Vec<f64>,
    quality_max_load: f64,
    quality_admit_share: f64,
    /// Arrivals at the end of the quality span, and the state there.
    quality_state: (u64, EngineState),
    /// Counter deltas over the timed phase.
    counts: layers::PhaseCounts,
    oncpu_share: f64,
}

impl Timed {
    fn layer_metrics(&self, ctx: &mut Ctx) {
        ctx.set("engine.window_ns_p50", median(&self.plain_ns));
        ctx.set("engine.window_ns_p99", quantile(&self.plain_ns, 0.99));
        ctx.set("engine.windows", self.plain_ns.len() as f64);
        ctx.set(
            "trace.overhead_share",
            median(&self.traced_ns) / median(&self.plain_ns) - 1.0,
        );
        let c = &self.counts;
        let tried_retry = c.admitted_on_retry + c.shed;
        ctx.set(
            "retry.rescue_share",
            if tried_retry == 0 {
                0.0
            } else {
                c.admitted_on_retry as f64 / tried_retry as f64
            },
        );
        ctx.host_metrics(self.oncpu_share);
    }
}

/// Runs windows until `ctx.seconds` of window time is measured (and at
/// least `quality_windows`). In a traced run every odd window also
/// records a span, so the two halves give the tracing overhead.
fn timed_windows<L: LoadState + Clone>(
    spec: &Spec,
    mut engine: Engine<L>,
    plan: &FaultPlan,
    cycles: &mut Cycles<'_, L>,
    ctx: &mut Ctx,
) -> Result<(Engine<L>, Timed), JournalError> {
    let first = counters(engine.get());
    let first_retry = engine.get().admitted_on_retry();
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut max_load_sum = 0u64;
    let mut quality = None;
    let mut quality_state = None;
    let mut measured = Duration::ZERO;
    let oncpu_start = measure::oncpu_ns();
    let wall = Instant::now();
    for window in 0..spec.max_windows {
        let traced = ctx.trace.on() && window % 2 == 1;
        let span = if traced {
            ctx.trace.enter("engine.window", window as u64)
        } else {
            None
        };
        let start = Instant::now();
        engine.advance(spec.window, plan)?;
        let took = start.elapsed();
        ctx.trace.exit(span);
        measured += took;
        let per_event = ns(took) / spec.window as f64;
        if traced {
            traced_ns.push(per_event);
        } else {
            plain_ns.push(per_event);
        }

        let max = check_window(&mut ctx.checks, engine.get(), spec.capacity, window);
        if window < spec.quality_windows {
            max_load_sum += u64::from(max);
        }
        if window + 1 == spec.quality_windows {
            let c = counters(engine.get());
            let arrivals = c.arrivals - first.arrivals;
            let admitted = arrivals - (c.shed - first.shed);
            quality = Some(admitted as f64 / arrivals as f64);
            quality_state = Some((c.arrivals, engine.get().state()));
        }
        if window % 8 == 0 {
            ctx.sample_host();
        }
        if (window + 1) % spec.cycle_every == 0 {
            if window + 1 == spec.cycle_every {
                ctx.record_peak_rss();
            }
            engine = engine.cycle(cycles, ctx)?;
        }
        if let (Some(every), Engine::Plain(plain)) = (spec.resume_every, &engine) {
            if window >= spec.cycle_every && window % every == every / 2 {
                cycles.resume_again(plain.space().clone(), ctx)?;
            }
        }
        if window >= spec.cycle_every && window % spec.setup_every == 0 {
            let dir = ctx.run_dir.join("setup");
            drop(set_up(
                spec,
                cycles.config,
                cycles.root,
                cycles.fresh,
                &dir,
                ctx,
            )?);
            let _ = std::fs::remove_dir_all(&dir);
        }
        if window + 1 >= spec.quality_windows && measured >= ctx.seconds {
            break;
        }
    }
    let wall_ns = ns(wall.elapsed());
    let oncpu_share = match (oncpu_start, measure::oncpu_ns()) {
        (Some(a), Some(b)) => (b - a) as f64 / wall_ns,
        _ => f64::NAN,
    };
    let e = engine.get();
    eprintln!(
        "perfbench: {} arrivals: shed {} at capacity and {} unavailable, {} admitted on retry, \
         {} evicted; peak load {}",
        e.arrivals(),
        e.shed_capacity(),
        e.shed_unavailable(),
        e.admitted_on_retry(),
        e.evicted(),
        e.peak_load()
    );
    eprintln!(
        "perfbench: window ns/event min {:.1} p10 {:.1} p25 {:.1} p50 {:.1} p90 {:.1}",
        fast(&plain_ns),
        quantile(&plain_ns, 0.1),
        quantile(&plain_ns, 0.25),
        median(&plain_ns),
        quantile(&plain_ns, 0.9),
    );
    let last = counters(e);
    let timed = Timed {
        plain_ns,
        traced_ns,
        quality_max_load: max_load_sum as f64 / spec.quality_windows as f64,
        quality_admit_share: quality.expect("quality windows ran"),
        quality_state: quality_state.expect("quality windows ran"),
        counts: layers::PhaseCounts {
            arrivals: last.arrivals - first.arrivals,
            departed: last.departed - first.departed,
            shed: last.shed - first.shed,
            admitted_on_retry: e.admitted_on_retry() - first_retry,
        },
        oncpu_share,
    };
    Ok((engine, timed))
}

/// Per-window checks: conservation over the live loads, and the capacity
/// bound on every live load. Returns the maximum live load.
fn check_window<L: LoadState>(
    checks: &mut Checks,
    engine: &ServeEngine<RingSpace, L>,
    capacity: Option<u32>,
    window: usize,
) -> u32 {
    let (sum, max) = engine.live_loads().fold((0u64, 0u32), |(sum, max), load| {
        (sum + u64::from(load), max.max(load))
    });
    checks.check(
        "window conservation",
        checks::conserved(&counters(engine), sum),
        || format!("window {window}: live loads {sum} break session conservation"),
    );
    if let Some(cap) = capacity {
        checks.check("window capacity", max <= cap, || {
            format!("window {window}: load {max} above capacity {cap}")
        });
    }
    max
}

/// Checkpoint/recovery cycles: their fixed inputs and what they measured.
pub struct Cycles<'a, L> {
    pub dir: &'a Path,
    pub config: ServeConfig,
    pub root: u64,
    pub plan: &'a FaultPlan,
    /// Checkpoint interval of the resumed engine.
    pub every: u64,
    /// Events journaled between the checkpoint and the crash.
    pub tail: u64,
    /// Resumes per cycle, each timed as one sample.
    pub resumes: u32,
    pub fresh: fn(usize) -> L,
    pub measured: CycleStats,
    /// The engine state at the last crash.
    pub crashed: Option<EngineState>,
}

/// What the cycles of a run measured.
#[derive(Default)]
pub struct CycleStats {
    checkpoint_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    /// Journal bytes, journaled events and checkpoints over every
    /// handle a cycle closed.
    journal_bytes: u64,
    journal_events: u64,
    checkpoints: u64,
}

impl<'a, L: LoadState> Cycles<'a, L> {
    /// Checkpoint (timed) → journal a fixed tail → crash → resume (timed,
    /// `resumes` times from the same files); checks that every resumed
    /// state equals the state at the crash. `since` is
    /// the event count at which `durable` opened. The last resumed engine
    /// is handed back.
    pub fn run(
        &mut self,
        mut durable: DurableEngine<RingSpace, L>,
        since: u64,
        ctx: &mut Ctx,
    ) -> Result<DurableEngine<RingSpace, L>, JournalError> {
        let k = self.measured.checkpoint_ms.len() as u64;
        let start = Instant::now();
        ctx.trace
            .time("journal.checkpoint_now", k, || durable.checkpoint_now())?;
        self.measured.checkpoint_ms.push(ns(start.elapsed()) / 1e6);
        ctx.attempted += 1;
        durable.run_journaled(self.tail, self.plan)?;
        let stats = &mut self.measured;
        stats.journal_bytes += durable.journal_bytes();
        stats.journal_events += durable.engine().arrivals() - since;
        stats.checkpoints += durable.checkpoints();
        self.crashed = Some(durable.engine().state());
        let space = durable.engine().space().clone();
        drop(durable); // the crash: only the files survive

        // A clean crash leaves nothing for `resume` to repair, so every
        // resume reads the same files.
        let mut last = None;
        for _ in 0..self.resumes {
            drop(last.take());
            last = Some(self.resume(space.clone(), ctx)?);
        }
        let last = last.expect("resumes >= 1");
        Ok(last.into_durable(self.dir, self.root, self.every))
    }

    /// One timed `Recovery::resume` from the files of the last crash,
    /// checked against the state at that crash.
    fn resume(
        &mut self,
        space: RingSpace,
        ctx: &mut Ctx,
    ) -> Result<Resumed<RingSpace, L, DepartureWheel>, JournalError> {
        let k = self.measured.recovery_ms.len() as u64;
        let loads = (self.fresh)(space.num_servers());
        let start = Instant::now();
        let resumed = ctx.trace.time("recovery.resume", k, || {
            Recovery::resume::<_, _, DepartureWheel>(
                self.dir,
                space,
                self.config,
                self.root,
                self.plan,
                loads,
            )
        })?;
        self.measured.recovery_ms.push(ns(start.elapsed()) / 1e6);
        ctx.attempted += 1;
        let tail = self.tail;
        ctx.checks
            .check("recovery replay length", resumed.replayed == tail, || {
                format!(
                    "resume {k}: replayed {} events, not {tail}",
                    resumed.replayed
                )
            });
        let crashed = self.crashed.as_ref().expect("a cycle crashed first");
        checks::final_state(
            &mut ctx.checks,
            &resumed.engine.state(),
            crashed,
            "recovered vs crashed",
        );
        Ok(resumed)
    }

    /// One more timed resume from the files the last [`Cycles::run_copy`]
    /// left (nothing writes to them until the next cycle), so resumes are
    /// sampled between cycles too. `space` is the run's space.
    pub fn resume_again(&mut self, space: RingSpace, ctx: &mut Ctx) -> Result<(), JournalError> {
        drop(self.resume(space, ctx)?);
        Ok(())
    }

    /// [`Cycles::run`] on a copy of `engine`, adopted into the journal
    /// directory; the copy is dropped afterwards, so every such cycle
    /// starts from the same state and `engine` keeps its memory layout.
    pub fn run_copy(
        &mut self,
        engine: &ServeEngine<RingSpace, L>,
        ctx: &mut Ctx,
    ) -> Result<(), JournalError>
    where
        L: Clone,
    {
        let twin = Resumed {
            engine: engine.clone(),
            checkpoint_event: engine.arrivals(),
            replayed: 0,
            torn_bytes: 0,
        }
        .into_durable(self.dir, self.root, NEVER);
        drop(self.run(twin, engine.arrivals(), ctx)?);
        Ok(())
    }

    /// Sets the cycle metrics: the median checkpoint pause, the fastest
    /// resume, the fixed replay length, and the journal's per-layer counts.
    pub fn finish(&self, ctx: &mut Ctx) {
        let stats = &self.measured;
        ctx.set("journal.checkpoint_ms", median(&stats.checkpoint_ms));
        ctx.set("recovery_ms", fast(&stats.recovery_ms));
        ctx.set("recovery.replayed_events", self.tail as f64);
        ctx.set(
            "journal.bytes_per_event",
            stats.journal_bytes as f64 / stats.journal_events.max(1) as f64,
        );
        ctx.set("journal.checkpoints", stats.checkpoints as f64);
        eprintln!(
            "perfbench: {} cycles: checkpoint ms p25 {:.3} p50 {:.3} p75 {:.3}; resume ms min {:.3} p25 {:.3} p50 {:.3} p75 {:.3}",
            stats.checkpoint_ms.len(),
            quantile(&stats.checkpoint_ms, 0.25),
            median(&stats.checkpoint_ms),
            quantile(&stats.checkpoint_ms, 0.75),
            fast(&stats.recovery_ms),
            quantile(&stats.recovery_ms, 0.25),
            median(&stats.recovery_ms),
            quantile(&stats.recovery_ms, 0.75)
        );
    }
}
