//! Departure scheduling: a hierarchical timing wheel and the binary-heap
//! oracle it is proven against.
//!
//! Departure deadlines are arrival-event timestamps — small integers
//! that only ever move forward — so a comparison-based priority queue is
//! overkill: a timing wheel gives O(1) [`DepartureQueue::schedule`],
//! O(due) [`DepartureQueue::drain_due`], and — because every server
//! carries an epoch that a purge bumps — O(1)
//! [`DepartureQueue::purge_server`] where the heap had to rebuild itself
//! wholesale on every fault.
//!
//! Layout: two levels of `SLOTS` (1024) slots each, plus one overflow
//! list. Level 0 holds entries due within `SLOTS` events, one slot per
//! deadline (`deadline mod SLOTS`); level 1 holds entries due within
//! `SLOTS^2` events, one slot per 1024-event *window* (bits 10..20 of
//! the deadline); everything later waits in the overflow. When a window
//! begins, its level-1 slot *cascades*: every entry in it is now due
//! within `SLOTS` events and re-files into level 0. Every `SLOTS^2`
//! events the overflow cascades too, re-filing by the same rule. So by
//! the time the clock reaches a deadline its entries all sit in one
//! level-0 slot, where the drain pops them without a single comparison.
//! The slots are wide so that a typical session — mean lifetime on the
//! order of the server count — re-files **once** on its way down.
//!
//! **Storage.** Entries are stored by value, 16 bytes each (`deadline`,
//! `server`, `epoch`). Level 1 and the overflow keep them in fixed-size
//! chunks of [`DepartureWheel::CHUNK`] entries, all drawn from one
//! shared arena with a free list; a list is a short chain of chunks
//! whose head is the only one not full. Schedule appends to the head
//! chunk (opening a fresh one when it is full); a cascade reads the
//! list's chunks whole and in order and releases each chunk to the free
//! list as soon as it has been read. So a cascade streams through
//! contiguous memory instead of chasing one pointer per entry across
//! the whole arena, which at `n = 2^20` is a DRAM miss each. Level 0 is
//! different: a slot holds one deadline's entries — about one on
//! average — so a chunk per slot would be mostly empty. Its entries sit
//! in small linked nodes (entry plus link) from a pool of their own,
//! whose size is the level-0 occupancy (about `SLOTS` entries), so it
//! stays cache resident. Steady-state churn allocates nothing.
//!
//! Memory bound: at any moment the chunks in use are at most
//! `⌈filed / CHUNK⌉ + occupied lists` (one partial head per occupied
//! list), plus one source chunk while the overflow re-files into
//! itself. The arena is the high-water mark of that count — never a
//! per-list high-water mark, because an emptied list keeps no storage.
//! With `1024 + 1` chunk lists the partial heads cost at most 0.25 MiB
//! on top of 16 bytes per filed entry. The `wheel_oracle` suite pins
//! the bound on a long chaos-shaped run.
//!
//! Slots are only ever emptied whole (drain and cascade take the whole
//! slot), which is what makes lazy purging work:
//! [`DepartureQueue::purge_server`] never touches an entry. It bumps the
//! server's epoch and zeroes its pending count; entries scheduled under
//! the old epoch become *stale* in place, keep cascading toward their
//! deadline, and are dropped silently when the drain reaches them.
//! Fault handling costs O(1) at the fault, and the hot path pays one
//! epoch compare per drained entry instead of threading every entry onto
//! a per-server purge list.
//!
//! Same-deadline drain order differs from the heap's (list order vs
//! server-number order) — the engine's departures commute within a
//! deadline (each one only decrements its own server's load), which is
//! exactly the heap-order-invariance contract the `wheel_oracle`
//! proptests pin: wheel and heap drain the same multiset per deadline
//! and agree on [`DepartureQueue::entries`] bit-for-bit.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The scheduling interface [`crate::engine::ServeEngine`] is generic
/// over: the production [`DepartureWheel`] and the [`HeapQueue`] oracle
/// implement it, and the `wheel_oracle` property suite drives both
/// through arbitrary schedule/drain/purge interleavings.
pub trait DepartureQueue {
    /// An empty queue for `num_servers` servers whose clock starts at
    /// `now` (a restored checkpoint starts mid-stream).
    #[must_use]
    fn with_origin(num_servers: usize, now: u64) -> Self;

    /// [`DepartureQueue::with_origin`] sized up front for `entries`
    /// schedules, so that re-filing a checkpoint image of that many
    /// entries does not pay for repeated growth of the queue's storage.
    #[must_use]
    fn with_capacity(num_servers: usize, now: u64, entries: usize) -> Self
    where
        Self: Sized,
    {
        let _ = entries;
        Self::with_origin(num_servers, now)
    }

    /// Schedules `server`'s session to depart at event `when`.
    ///
    /// # Panics
    /// May panic if `when` precedes the current clock or `server` is out
    /// of range (the wheel checks both; the heap oracle cannot).
    fn schedule(&mut self, when: u64, server: u32);

    /// Pops every entry with deadline `≤ t`, advancing the clock to
    /// `t + 1`, and calls `f(server)` for each. Entries sharing a
    /// deadline may be delivered in any order (engine departures
    /// commute); deadlines are delivered in order.
    fn drain_due(&mut self, t: u64, f: impl FnMut(u32));

    /// Removes every entry belonging to `server` (its sessions were just
    /// evicted), returning how many were dropped.
    fn purge_server(&mut self, server: u32) -> u64;

    /// Outstanding entries.
    #[must_use]
    fn len(&self) -> usize;

    /// Whether no entries are outstanding.
    #[must_use]
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every outstanding `(deadline, server)` pair, sorted — the
    /// checkpoint image, identical across implementations.
    #[must_use]
    fn entries(&self) -> Vec<(u64, u32)>;
}

/// Null link in the node and chunk lists.
const NONE: u32 = u32::MAX;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 10;
/// Buckets per wheel level.
const SLOTS: usize = 1 << SLOT_BITS;
/// A deadline's level-0 slot, or a window's level-1 slot: the low bits.
const MASK: u64 = SLOTS as u64 - 1;
/// Index of the overflow's chunk list, after level 1's.
const OVERFLOW: usize = SLOTS;
/// Events covered by the two levels combined: `SLOTS^2`.
const WHEEL_SPAN: u64 = 1 << (2 * SLOT_BITS);

/// One scheduled departure, stored by value. The `epoch` snapshots the
/// server's epoch at schedule time; a mismatch at drain means the
/// server was purged in between and the entry is stale.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    deadline: u64,
    server: u32,
    epoch: u32,
}

/// A level-0 entry on its slot's list. Free nodes chain through `next`.
#[derive(Debug, Clone, Copy)]
struct Node {
    entry: Entry,
    next: u32,
}

/// A chunk list: the head chunk (`NONE` when the list is empty) and how
/// many entries it holds. Every chunk behind the head is full. An empty
/// list reports a full head, so that one `len == CHUNK` test sends both
/// cases to the chunk allocator.
#[derive(Debug, Clone, Copy)]
struct Slot {
    head: u32,
    len: u32,
}

/// The list with no chunks.
const EMPTY: Slot = Slot {
    head: NONE,
    len: DepartureWheel::CHUNK as u32,
};

/// Per-server purge state: the current epoch and how many live (current
/// epoch) entries the server has filed in the wheel.
#[derive(Debug, Clone, Copy, Default)]
struct ServerMeta {
    epoch: u32,
    pending: u32,
}

/// The hierarchical timing wheel. See the module docs for the layout,
/// the chunk arena, and the lazy-purge epoch scheme.
#[derive(Debug, Clone)]
pub struct DepartureWheel {
    /// Level 0: per-deadline list heads into `nodes`.
    near: Vec<u32>,
    /// Level 0's entries, one node each, recycled through `free_node`.
    nodes: Vec<Node>,
    /// Head of the free node list.
    free_node: u32,
    /// Chunk lists: level 1's windows, then the overflow.
    slots: Vec<Slot>,
    /// Chunk arena: chunk `c` is `entries[c * CHUNK..(c + 1) * CHUNK]`.
    entries: Vec<Entry>,
    /// Per-chunk link: the next (older, full) chunk of the same list, or
    /// the next free chunk.
    next: Vec<u32>,
    /// Head of the free chunk list.
    free: u32,
    /// Per-server epoch + live pending count.
    meta: Vec<ServerMeta>,
    /// The next event the wheel will drain.
    now: u64,
    /// Live (non-stale) entries — what [`DepartureQueue::len`] reports.
    live: usize,
    /// Entries filed, stale ones included. Guards the empty-wheel clock
    /// jump: stale entries still need to be walked to (and released at)
    /// their deadlines.
    filed: usize,
}

impl DepartureWheel {
    /// Entries per arena chunk (16 bytes each, so a chunk is four cache
    /// lines).
    pub const CHUNK: usize = 16;

    /// Chunks the arena has ever handed out, in use or free: its
    /// high-water mark, since chunks are recycled and never returned.
    #[must_use]
    pub fn arena_chunks(&self) -> usize {
        self.next.len()
    }

    /// Entries filed, stale (purged but not yet drained) ones included.
    #[must_use]
    pub fn filed(&self) -> usize {
        self.filed
    }

    /// Chunk lists (level-1 windows and the overflow) holding at least
    /// one entry.
    #[must_use]
    pub fn occupied_slots(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.head != NONE && slot.len > 0)
            .count()
    }

    /// Files `entry` by its deadline's distance from the clock: level 0
    /// within `SLOTS` events, level 1 within `SLOTS^2`, else the
    /// overflow. A level-1 entry cascades to level 0 when its window
    /// begins (its distance is then below `SLOTS`), an overflow entry
    /// every `SLOTS^2` events, so none is ever late.
    #[inline(always)]
    fn place(&mut self, entry: Entry) {
        let delta = entry.deadline - self.now;
        if delta < SLOTS as u64 {
            self.place_near(entry);
        } else if delta < WHEEL_SPAN {
            self.file(((entry.deadline >> SLOT_BITS) & MASK) as usize, entry);
        } else {
            self.file(OVERFLOW, entry);
        }
    }

    /// Pushes `entry`, due within `SLOTS` events, onto its level-0 list.
    #[inline(always)]
    fn place_near(&mut self, entry: Entry) {
        let slot = (entry.deadline & MASK) as usize;
        let node = Node {
            entry,
            next: self.near[slot],
        };
        let idx = if self.free_node == NONE {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        } else {
            let idx = self.free_node;
            self.free_node = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        };
        self.near[slot] = idx;
    }

    /// Appends `entry` to chunk list `home`, opening a new head chunk
    /// when the current one is full (or the list is empty).
    #[inline(always)]
    fn file(&mut self, home: usize, entry: Entry) {
        let slot = self.slots[home];
        if slot.len as usize == Self::CHUNK {
            self.open_chunk(home, entry);
        } else {
            self.entries[slot.head as usize * Self::CHUNK + slot.len as usize] = entry;
            // The whole slot, not just `len`: the next schedule into this
            // list reloads all 8 bytes, which a 4-byte store would stall.
            self.slots[home] = Slot {
                len: slot.len + 1,
                ..slot
            };
        }
    }

    /// Puts `entry` first in a fresh head chunk of list `home`, recycled
    /// from the free list if it can be.
    fn open_chunk(&mut self, home: usize, entry: Entry) {
        let chunk = if self.free == NONE {
            self.entries
                .resize(self.entries.len() + Self::CHUNK, Entry::default());
            self.next.push(NONE);
            self.next.len() as u32 - 1
        } else {
            let chunk = self.free;
            self.free = self.next[chunk as usize];
            chunk
        };
        self.next[chunk as usize] = self.slots[home].head;
        self.entries[chunk as usize * Self::CHUNK] = entry;
        self.slots[home] = Slot {
            head: chunk,
            len: 1,
        };
    }

    /// Empties chunk list `home`, handing each of its entries to `place`
    /// chunk by chunk and releasing every chunk once it has been read. A
    /// released chunk may be refilled by `place` itself (the overflow
    /// re-files into the overflow), so at most one chunk of the list is
    /// outstanding at a time.
    fn cascade(&mut self, home: usize) {
        let Slot { mut head, mut len } = std::mem::replace(&mut self.slots[home], EMPTY);
        while head != NONE {
            let base = head as usize * Self::CHUNK;
            for i in base..base + len as usize {
                let entry = self.entries[i];
                self.place(entry);
            }
            let older = self.next[head as usize];
            self.next[head as usize] = self.free;
            self.free = head;
            head = older;
            len = Self::CHUNK as u32;
        }
    }
}

impl DepartureQueue for DepartureWheel {
    fn with_origin(num_servers: usize, now: u64) -> Self {
        Self::with_capacity(num_servers, now, 0)
    }

    fn with_capacity(num_servers: usize, now: u64, entries: usize) -> Self {
        // Full chunks for the entries plus one partial head per list
        // they can occupy. Reserved, not touched: the pages stay
        // unmapped until a chunk is handed out.
        let chunks = (entries + Self::CHUNK - 1) / Self::CHUNK + entries.min(OVERFLOW + 1);
        Self {
            near: vec![NONE; SLOTS],
            nodes: Vec::new(),
            free_node: NONE,
            slots: vec![EMPTY; OVERFLOW + 1],
            entries: Vec::with_capacity(chunks * Self::CHUNK),
            next: Vec::with_capacity(chunks),
            free: NONE,
            meta: vec![ServerMeta::default(); num_servers],
            now,
            live: 0,
            filed: 0,
        }
    }

    #[inline]
    fn schedule(&mut self, when: u64, server: u32) {
        assert!(when >= self.now, "departure scheduled in the past");
        let meta = &mut self.meta[server as usize];
        meta.pending += 1;
        let entry = Entry {
            deadline: when,
            server,
            epoch: meta.epoch,
        };
        self.place(entry);
        self.live += 1;
        self.filed += 1;
    }

    #[inline]
    fn drain_due(&mut self, t: u64, mut f: impl FnMut(u32)) {
        while self.now <= t {
            if self.filed == 0 {
                // Nothing filed anywhere (stale included): jump the clock.
                self.now = t + 1;
                return;
            }
            let cur = self.now;
            // A level-1 window begins at `cur`: the overflow re-files
            // first (every `SLOTS^2` events), then the window's chunk
            // list, whose entries all fall due within `SLOTS` events and
            // settle into level 0.
            if cur & MASK == 0 {
                if cur % WHEEL_SPAN == 0 {
                    self.cascade(OVERFLOW);
                }
                self.cascade(((cur >> SLOT_BITS) & MASK) as usize);
            }
            // Level-0 list `cur mod SLOTS` now holds exactly the entries
            // due at `cur`.
            let mut idx = std::mem::replace(&mut self.near[(cur & MASK) as usize], NONE);
            while idx != NONE {
                let node = self.nodes[idx as usize];
                debug_assert_eq!(node.entry.deadline, cur);
                self.nodes[idx as usize].next = self.free_node;
                self.free_node = idx;
                self.filed -= 1;
                let meta = &mut self.meta[node.entry.server as usize];
                // Epoch mismatch: the server was purged after this entry
                // was scheduled — drop it silently.
                if node.entry.epoch == meta.epoch {
                    meta.pending -= 1;
                    self.live -= 1;
                    f(node.entry.server);
                }
                idx = node.next;
            }
            self.now = cur + 1;
        }
    }

    fn purge_server(&mut self, server: u32) -> u64 {
        let meta = &mut self.meta[server as usize];
        let purged = u64::from(meta.pending);
        meta.pending = 0;
        meta.epoch = meta.epoch.wrapping_add(1);
        self.live -= purged as usize;
        purged
    }

    #[inline]
    fn len(&self) -> usize {
        self.live
    }

    fn entries(&self) -> Vec<(u64, u32)> {
        let mut out = Vec::with_capacity(self.live);
        let mut keep = |entry: &Entry| {
            if entry.epoch == self.meta[entry.server as usize].epoch {
                out.push((entry.deadline, entry.server));
            }
        };
        for &head in &self.near {
            let mut idx = head;
            while idx != NONE {
                let node = &self.nodes[idx as usize];
                keep(&node.entry);
                idx = node.next;
            }
        }
        for &Slot { mut head, mut len } in &self.slots {
            while head != NONE {
                let base = head as usize * Self::CHUNK;
                self.entries[base..base + len as usize]
                    .iter()
                    .for_each(&mut keep);
                head = self.next[head as usize];
                len = Self::CHUNK as u32;
            }
        }
        // One-word key: same order as the tuple comparator (deadline,
        // then server), noticeably faster on the checkpoint path.
        out.sort_unstable_by_key(|&(when, server)| (u128::from(when) << 32) | u128::from(server));
        out
    }
}

/// The binary-heap scheduler the wheel replaced, kept as the proptest
/// oracle: same [`DepartureQueue`] contract, with `purge_server` doing
/// the original O(len) filter-and-rebuild.
#[derive(Debug, Clone, Default)]
pub struct HeapQueue {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl DepartureQueue for HeapQueue {
    fn with_origin(_num_servers: usize, _now: u64) -> Self {
        Self::default()
    }

    fn schedule(&mut self, when: u64, server: u32) {
        self.heap.push(Reverse((when, server)));
    }

    fn drain_due(&mut self, t: u64, mut f: impl FnMut(u32)) {
        while let Some(&Reverse((when, server))) = self.heap.peek() {
            if when > t {
                break;
            }
            self.heap.pop();
            f(server);
        }
    }

    fn purge_server(&mut self, server: u32) -> u64 {
        let before = self.heap.len();
        if self.heap.iter().any(|&Reverse((_, s))| s == server) {
            let kept: Vec<_> = std::mem::take(&mut self.heap)
                .into_iter()
                .filter(|&Reverse((_, s))| s != server)
                .collect();
            self.heap = kept.into();
        }
        (before - self.heap.len()) as u64
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn entries(&self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self.heap.iter().map(|&Reverse(pair)| pair).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains `[queue.now, t]`, returning the drained servers sorted.
    fn drain_sorted<Q: DepartureQueue>(queue: &mut Q, t: u64) -> Vec<u32> {
        let mut out = Vec::new();
        queue.drain_due(t, |s| out.push(s));
        out.sort_unstable();
        out
    }

    #[test]
    fn drains_in_deadline_order_across_every_level() {
        let mut wheel = DepartureWheel::with_origin(8, 0);
        // Deltas spanning level 0 (3, 900), level 1 (5_000, 800_000),
        // and the overflow.
        let deadlines = [3u64, 900, 5_000, 800_000, WHEEL_SPAN + 17];
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.schedule(d, i as u32);
        }
        assert_eq!(wheel.len(), 5);
        let mut drained = Vec::new();
        for &d in &deadlines {
            wheel.drain_due(d - 1, |_| panic!("nothing due before {d}"));
            wheel.drain_due(d, |s| drained.push(s));
        }
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn same_deadline_entries_drain_together() {
        let mut wheel = DepartureWheel::with_origin(4, 0);
        for server in 0..4 {
            wheel.schedule(70, server);
        }
        wheel.schedule(71, 0);
        assert_eq!(drain_sorted(&mut wheel, 70), vec![0, 1, 2, 3]);
        assert_eq!(drain_sorted(&mut wheel, 71), vec![0]);
    }

    #[test]
    fn purge_drops_only_the_victims_sessions() {
        let mut wheel = DepartureWheel::with_origin(3, 0);
        for (when, server) in [(10, 0), (10, 1), (20, 0), (30, 2), (20, 0)] {
            wheel.schedule(when, server);
        }
        assert_eq!(wheel.purge_server(0), 3);
        assert_eq!(wheel.purge_server(0), 0, "idempotent once empty");
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.entries(), vec![(10, 1), (30, 2)]);
        assert_eq!(drain_sorted(&mut wheel, 30), vec![1, 2]);
    }

    #[test]
    fn entries_scheduled_after_a_purge_are_live_again() {
        // The epoch scheme must not confuse a server's new sessions with
        // its purged ones, even at the same deadline.
        let mut wheel = DepartureWheel::with_origin(2, 0);
        wheel.schedule(10, 0);
        assert_eq!(wheel.purge_server(0), 1);
        wheel.schedule(10, 0);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.entries(), vec![(10, 0)]);
        assert_eq!(drain_sorted(&mut wheel, 10), vec![0]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn empty_wheel_jumps_the_clock_instead_of_walking_slots() {
        let mut wheel = DepartureWheel::with_origin(2, 0);
        wheel.drain_due(10_000_000, |_| panic!("empty"));
        // The clock jumped: a short-delta schedule lands on level 0.
        wheel.schedule(10_000_001, 1);
        assert_eq!(drain_sorted(&mut wheel, 10_000_001), vec![1]);
    }

    #[test]
    fn stale_entries_pin_the_clock_walk_but_not_the_len() {
        // After a purge the wheel reports empty, yet the stale entry is
        // still filed: the clock must walk (not jump) to its deadline so
        // its storage gets released, and the drain must stay silent.
        let mut wheel = DepartureWheel::with_origin(2, 0);
        wheel.schedule(5_000, 1);
        wheel.purge_server(1);
        assert!(wheel.is_empty());
        assert_eq!(
            (wheel.filed(), wheel.occupied_slots(), wheel.arena_chunks()),
            (1, 1, 1)
        );
        // Its chunk is released when its level-1 window begins, onto the
        // free list; the entry moves to a level-0 node.
        assert_eq!(drain_sorted(&mut wheel, 4_095), Vec::<u32>::new());
        assert_eq!(wheel.occupied_slots(), 1, "still filed before its window");
        assert_eq!(drain_sorted(&mut wheel, 4_096), Vec::<u32>::new());
        assert_eq!((wheel.filed(), wheel.occupied_slots()), (1, 0));
        assert_eq!(wheel.free, 0);
        assert_eq!((wheel.nodes.len(), wheel.free_node), (1, NONE));
        // The node is released at the deadline.
        assert_eq!(drain_sorted(&mut wheel, 10_000), Vec::<u32>::new());
        assert_eq!((wheel.filed(), wheel.free_node), (0, 0));
        // Fresh schedules recycle both.
        wheel.schedule(20_000, 0);
        wheel.schedule(10_001, 1);
        assert_eq!(wheel.arena_chunks(), 1, "the stale chunk was recycled");
        assert_eq!(wheel.nodes.len(), 1, "the stale node was recycled");
        assert_eq!((wheel.free, wheel.free_node), (NONE, NONE));
        assert_eq!(drain_sorted(&mut wheel, 20_000), vec![0, 1]);
    }

    #[test]
    fn mid_stream_origin_files_against_the_restored_clock() {
        // A restored checkpoint constructs the wheel at now = arrivals:
        // deltas (not absolute deadlines) pick the level.
        let origin = 123_456_789;
        let mut wheel = DepartureWheel::with_origin(2, origin);
        wheel.schedule(origin, 0);
        wheel.schedule(origin + 63, 1);
        wheel.schedule(origin + WHEEL_SPAN + 1, 0);
        assert_eq!(drain_sorted(&mut wheel, origin), vec![0]);
        assert_eq!(drain_sorted(&mut wheel, origin + 63), vec![1]);
        assert_eq!(drain_sorted(&mut wheel, origin + WHEEL_SPAN + 1), vec![0]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn arena_recycles_chunks_through_the_free_list() {
        // Steady churn over every level: each round files a chunk and a
        // bit at level 0, as much into one level-1 window, and a few
        // entries into the overflow, purges a server, then drains a full
        // wheel span. From the second round on every round needs the
        // same chunks, and the arena must not grow.
        let mut wheel = DepartureWheel::with_origin(4, 0);
        let mut arena = Vec::new();
        for round in 0..6u64 {
            let base = round * WHEEL_SPAN;
            for i in 0..DepartureWheel::CHUNK as u64 + 3 {
                wheel.schedule(base + 7, (i % 4) as u32);
                wheel.schedule(base + 5_000 + i % 1024, 1);
            }
            for i in 0..3 {
                wheel.schedule(base + WHEEL_SPAN + 9 + i, 2);
            }
            wheel.purge_server(3);
            wheel.drain_due(base + WHEEL_SPAN - 1, |_| {});
            arena.push(wheel.arena_chunks());
        }
        wheel.drain_due(7 * WHEEL_SPAN, |_| {});
        assert!(wheel.is_empty());
        assert_eq!(wheel.filed(), 0);
        assert_eq!(wheel.occupied_slots(), 0);
        // A round's peak is its overflow cascade: two chunks hold the
        // level-1 window, and the overflow chunk being read re-files
        // this round's entries into a fresh overflow chunk. Level 0
        // peaks at the 19 nodes at `base + 7` plus the last round's 3
        // overflow entries.
        assert_eq!(wheel.nodes.len(), DepartureWheel::CHUNK + 3 + 3);
        assert!(
            arena.iter().all(|&chunks| chunks == 2 + 2),
            "steady churn must recycle chunks, not grow the arena: {arena:?}"
        );
        // Every chunk and node is back on its free list.
        let mut free = 0;
        let mut chunk = wheel.free;
        while chunk != NONE {
            free += 1;
            chunk = wheel.next[chunk as usize];
        }
        assert_eq!(free, wheel.arena_chunks());
        let mut free = 0;
        let mut node = wheel.free_node;
        while node != NONE {
            free += 1;
            node = wheel.nodes[node as usize].next;
        }
        assert_eq!(free, wheel.nodes.len());
    }

    #[test]
    fn a_window_cascades_whole_chunks_into_level_0() {
        // More than two chunks of entries for one level-1 window: the
        // cascade at the window's start reads them chunk by chunk,
        // releases every chunk, and the next window reuses them.
        let chunk = DepartureWheel::CHUNK as u64;
        let burst = 2 * chunk + 1;
        let mut wheel = DepartureWheel::with_origin(3, 0);
        for i in 0..burst {
            wheel.schedule(2_049 + i * 7 % 1_000, (i % 3) as u32);
        }
        assert_eq!((wheel.arena_chunks(), wheel.occupied_slots()), (3, 1));
        assert_eq!(wheel.purge_server(2), burst / 3);
        wheel.drain_due(2_048, |_| panic!("nothing due yet"));
        assert_eq!((wheel.arena_chunks(), wheel.occupied_slots()), (3, 0));
        assert_eq!(wheel.nodes.len() as u64, burst);
        for i in 0..burst {
            wheel.schedule(5_000 + i, 1);
        }
        assert_eq!(wheel.arena_chunks(), 3, "the window reused the chunks");
        assert_eq!(wheel.entries().len(), wheel.len());
        let mut drained = Vec::new();
        wheel.drain_due(6_000, |s| drained.push(s));
        assert_eq!(drained.len() as u64, 2 * burst - burst / 3);
        assert!(drained.iter().all(|&s| s != 2));
        assert!(wheel.is_empty());
        assert_eq!((wheel.filed(), wheel.occupied_slots()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_behind_the_clock_panics() {
        let mut wheel = DepartureWheel::with_origin(1, 0);
        wheel.drain_due(10, |_| {});
        wheel.schedule(5, 0);
    }

    #[test]
    fn heap_oracle_matches_on_a_mixed_script() {
        let mut wheel = DepartureWheel::with_origin(8, 0);
        let mut heap = HeapQueue::with_origin(8, 0);
        let script = [
            (2u64, 3u32),
            (2, 5),
            (64, 1),
            (64, 3),
            (4_100, 2),
            (70_000, 3),
            (WHEEL_SPAN + 9, 6),
        ];
        for &(when, server) in &script {
            wheel.schedule(when, server);
            heap.schedule(when, server);
        }
        assert_eq!(wheel.entries(), heap.entries());
        assert_eq!(wheel.purge_server(3), heap.purge_server(3));
        assert_eq!(wheel.entries(), heap.entries());
        for t in [2u64, 64, 4_100, 70_000, WHEEL_SPAN + 9] {
            assert_eq!(drain_sorted(&mut wheel, t), drain_sorted(&mut heap, t));
        }
        assert!(wheel.is_empty() && heap.is_empty());
    }
}
