//! The wheel-vs-heap oracle suite: [`DepartureWheel`] must be
//! observationally equal to the [`HeapQueue`] it replaced, under
//! arbitrary interleavings of every operation the engine performs.
//!
//! Two layers:
//!
//! 1. **Queue-level.** A generated op script (schedule at arbitrary
//!    deltas spanning every wheel level and the overflow, bursts that
//!    fill more than two chunks of one slot, range drains, lazy purges,
//!    checkpoint/reincarnate round-trips) drives both implementations
//!    in lockstep; after every op they must agree on `len` and the
//!    sorted [`DepartureQueue::entries`] image, and every drain must
//!    deliver the same server multiset. (Within one deadline the order
//!    may differ — chunk order vs heap order — which is exactly the
//!    commuting-departures contract the engine relies on.)
//! 2. **Engine-level.** A [`ServeEngine`] running on the wheel and one
//!    running on the heap, fed the same root and fault plan, must
//!    produce byte-identical [`ServeEngine::state`] checkpoints at
//!    arbitrary cuts — the whole-system restatement of (1), covering
//!    the drain/schedule/purge call sites the engine actually uses.
//!
//! A third, deterministic check bounds the wheel's chunk arena over a
//! long chaos-shaped run: lockstep equality cannot see storage that a
//! slot keeps after it has been emptied.

use geo2c_core::load::PackedLoads;
use geo2c_core::space::RingSpace;
use geo2c_core::strategy::Strategy;
use geo2c_serve::engine::{ServeConfig, ServeEngine, SessionLife};
use geo2c_serve::fault::{FaultAction, FaultPlan};
use geo2c_serve::wheel::{DepartureQueue, DepartureWheel, HeapQueue};
use geo2c_util::rng::Xoshiro256pp;
use proptest::prelude::*;
use rand::RngCore;

/// Drains `(..=t]` from both queues and checks the multisets match;
/// returns how many entries were delivered.
fn drain_both(wheel: &mut DepartureWheel, heap: &mut HeapQueue, t: u64) -> usize {
    let mut from_wheel = Vec::new();
    let mut from_heap = Vec::new();
    wheel.drain_due(t, |s| from_wheel.push(s));
    heap.drain_due(t, |s| from_heap.push(s));
    from_wheel.sort_unstable();
    from_heap.sort_unstable();
    assert_eq!(from_wheel, from_heap, "drain multiset diverged at t={t}");
    from_wheel.len()
}

/// Checkpoint/reincarnate: rebuilds both queues from the wheel's entry
/// image with their clocks re-keyed to `now` — the restore path of
/// `ServeEngine::restore`, which sizes the wheel for the image up front.
fn reincarnate(wheel: &mut DepartureWheel, heap: &mut HeapQueue, n: usize, now: u64) {
    let image = wheel.entries();
    assert_eq!(image, heap.entries(), "checkpoint image diverged");
    *wheel = DepartureWheel::with_capacity(n, now, image.len());
    *heap = HeapQueue::with_origin(n, now);
    for &(when, s) in &image {
        wheel.schedule(when, s);
        heap.schedule(when, s);
    }
}

/// Events one wheel level-1 window spans, and the wheel's full span.
const WINDOW: u64 = 1 << 10;
const SPAN: u64 = 1 << 20;

proptest! {
    /// Queue-level lockstep: schedules (short, mid, cross-level, and
    /// overflow deltas), multi-chunk bursts into one slot, drains, lazy
    /// purges, and checkpoint reincarnations, in any order, leave wheel
    /// and heap agreeing on every observable.
    #[test]
    fn wheel_matches_heap_on_arbitrary_op_scripts(
        n in 1usize..12,
        origin in 0u64..2_000_000,
        ops in proptest::collection::vec(
            (0u8..11, 0u64..2_200_000, 0usize..12),
            1..40,
        ),
    ) {
        let mut wheel = DepartureWheel::with_origin(n, origin);
        let mut heap = HeapQueue::with_origin(n, origin);
        let mut now = origin;
        for &(kind, a, b) in &ops {
            let server = (b % n) as u32;
            match kind {
                // Schedules biased toward level 0/1 deltas; kind == 2
                // keeps the raw delta so overflow (≥ 2^20) is reachable.
                0..=2 => {
                    let delta = match kind {
                        0 => a % 64,
                        1 => a % 4096,
                        _ => a,
                    };
                    wheel.schedule(now + delta, server);
                    heap.schedule(now + delta, server);
                }
                // Range drain: both deliver the same multiset.
                3 | 4 => {
                    let t = now + a % 4096;
                    drain_both(&mut wheel, &mut heap, t);
                    now = t + 1;
                }
                // Lazy purge vs eager rebuild: same count.
                5 | 6 => {
                    prop_assert_eq!(
                        wheel.purge_server(server),
                        heap.purge_server(server),
                        "purge count diverged"
                    );
                }
                7 => reincarnate(&mut wheel, &mut heap, n, now),
                // Bursts: more than two chunks of entries into one slot
                // — at one deadline (level 0 or 1, cascading as one
                // list), across one level-1 window, or into the
                // overflow — then a purge and a checkpoint while they
                // are filed. Range drains and the final drain empty
                // them.
                _ => {
                    let burst = 2 * DepartureWheel::CHUNK as u64 + 1 + a % 16;
                    for i in 0..burst {
                        let when = match kind {
                            8 => now + a % 4096,
                            9 => ((now / WINDOW + 2 + a % 1000) * WINDOW) + (a + i * 97) % WINDOW,
                            _ => now + SPAN + (a + i * 4099) % SPAN,
                        };
                        let s = ((b + i as usize) % n) as u32;
                        wheel.schedule(when, s);
                        heap.schedule(when, s);
                    }
                    prop_assert_eq!(
                        wheel.purge_server(server),
                        heap.purge_server(server),
                        "purge count diverged after a burst"
                    );
                    reincarnate(&mut wheel, &mut heap, n, now);
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "len diverged");
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.entries(), heap.entries(), "entry image diverged");
        }
        // Drain everything left: the final multisets must also agree.
        let remaining = wheel.len();
        let horizon = wheel
            .entries()
            .last()
            .map_or(now, |&(when, _)| when);
        prop_assert_eq!(
            drain_both(&mut wheel, &mut heap, horizon),
            remaining,
            "full drain must deliver every live entry"
        );
        prop_assert!(wheel.is_empty() && heap.is_empty());
    }

    /// Engine-level lockstep: the wheel-backed and heap-backed engines
    /// are byte-identical at every cut of a faulted run — including the
    /// same-deadline batches where their internal drain orders differ.
    #[test]
    fn engine_on_wheel_equals_engine_on_heap(
        seed in 0u64..1 << 48,
        n in 1usize..32,
        p in 0u64..200,
        q in 0u64..200,
        d in 1usize..4,
        life in (0u8..2, 1u64..120, 0.5f64..120.0),
        retries in 0u32..3,
        raw_plan in proptest::collection::vec((0u64..400, 0usize..32, 0u8..2), 0..8),
    ) {
        let mut rng = Xoshiro256pp::from_u64(seed ^ 0x0B5E);
        let space = RingSpace::random(n, &mut rng);
        let root = rng.next_u64();
        let life = match life {
            (0, ttl, _) => SessionLife::Fixed(ttl),
            (_, _, mean) => SessionLife::Exponential { mean },
        };
        let plan = FaultPlan::new(
            raw_plan
                .iter()
                .filter(|&&(_, s, _)| s < n)
                .map(|&(at, s, kind)| {
                    (at, if kind == 1 { FaultAction::Recover(s) } else { FaultAction::Crash(s) })
                })
                .collect(),
        );
        let config = ServeConfig {
            strategy: Strategy::d_choice(d),
            capacity: None,
            life,
            retries,
        };

        let mut on_wheel = ServeEngine::new(space.clone(), config, root);
        let mut on_heap =
            ServeEngine::<_, Vec<u32>, HeapQueue>::with_scheduler(space, config, root, vec![0; n]);
        on_wheel.run_with_faults(p, &plan);
        on_heap.run_with_faults(p, &plan);
        prop_assert_eq!(on_wheel.state(), on_heap.state(), "diverged at the cut");
        on_wheel.run_with_faults(q, &plan);
        on_heap.run_with_faults(q, &plan);
        prop_assert_eq!(on_wheel.state(), on_heap.state(), "diverged at the end");
    }
}

/// The chunk arena holds only what the slots need: full chunks for the
/// filed entries plus at most one partial head chunk per occupied slot.
/// The arena never shrinks, so the bound is checked each time it grows,
/// against the occupancy at that moment; the slack covers the one
/// source chunk a cascade holds while it re-files, and a level-0 slot
/// released later in the same event. Storage a slot kept after being
/// emptied would push the arena past the bound. The engine is shaped
/// like the chaos benchmark: n = 2^14, nibble-packed loads, capacity 1,
/// mean life n/4, random churn, 2^20 events.
#[test]
fn wheel_arena_stays_within_its_occupancy_bound() {
    let n = 1usize << 14;
    let events = 1u64 << 20;
    let mut rng = Xoshiro256pp::from_u64(0xA2E7A);
    let space = RingSpace::random(n, &mut rng);
    let config = ServeConfig {
        strategy: Strategy::two_choice(),
        capacity: Some(1),
        life: SessionLife::Exponential {
            mean: n as f64 / 4.0,
        },
        retries: 2,
    };
    let plan = FaultPlan::random_churn(rng.next_u64(), n, events, 3_000, 1 << 18);
    let mut engine =
        ServeEngine::with_load_state(space, config, rng.next_u64(), PackedLoads::nibble(n));
    let chunk = DepartureWheel::CHUNK;
    let slack = 2;
    let mut arena = 0;
    let mut growths = 0;
    let mut faults = plan.events().iter().peekable();
    for t in 0..events {
        while let Some(&&(at, action)) = faults.peek() {
            if at > t {
                break;
            }
            match action {
                FaultAction::Crash(s) => engine.fail_server(s),
                FaultAction::Recover(s) => engine.recover_server(s),
            }
            faults.next();
        }
        engine.step();
        let wheel = engine.departures();
        if wheel.arena_chunks() > arena {
            arena = wheel.arena_chunks();
            growths += 1;
            let bound = (wheel.filed() + chunk - 1) / chunk + wheel.occupied_slots() + slack;
            assert!(
                arena <= bound,
                "event {t}: arena of {arena} chunks above the occupancy bound {bound} \
                 ({} filed, {} occupied slots)",
                wheel.filed(),
                wheel.occupied_slots()
            );
        }
    }
    let wheel = engine.departures();
    assert!(engine.evicted() > 0, "the churn must have evicted sessions");
    assert!(
        wheel.filed() > 2 * chunk && growths > 1,
        "the run must load the arena"
    );
    eprintln!(
        "arena {arena} chunks after {growths} growths; {} filed in {} slots at the end",
        wheel.filed(),
        wheel.occupied_slots()
    );
}
