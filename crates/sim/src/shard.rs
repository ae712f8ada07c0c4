//! Conservative parallel sharding: one simulation across worker threads
//! (E25).
//!
//! A [`ShardedSimulation`] partitions one logical discrete-event
//! simulation into shards, each running its own timing-wheel
//! [`Simulation`] over a disjoint slice of the model. Shards exchange
//! cross-shard events through a **timestamp-ordered merge** under a
//! conservative lookahead contract (null-message Chandy–Misra–Bryant
//! lineage): a message emitted at local time `t` may not take effect on
//! another shard before `t + lookahead`. The engine advances in bounded
//! windows — with one coordinating thread, the distributed algorithm's
//! per-link null messages and lower-bound-timestamp (LBTS) exchange
//! collapse to a barrier:
//!
//! 1. **LBTS** — the coordinator reads every shard's earliest pending
//!    event; the minimum `T` is the global lower bound (no shard can
//!    ever deliver anything earlier).
//! 2. **Window** — every shard, in parallel, runs its local events in
//!    `[T, T + lookahead)`. No event inside the window can be affected
//!    by a cross-shard message emitted *in* the window, because the
//!    lookahead contract puts every such message at `≥ T + lookahead`.
//! 3. **Merge** — emitted envelopes are drained, sorted by the total
//!    `(time, seq, shard)` key, and inserted into the destination
//!    shards' wheels before the next window starts.
//!
//! Determinism: window boundaries are a pure function of the model
//! (never of wall-clock), each shard's wheel keeps FIFO order at equal
//! timestamps, and the merge key is total — so per-shard delivery order
//! is **independent of worker-thread count and OS scheduling**. For a
//! world whose event arrivals are unique per shard (physical-time
//! models; the PCIe wire serializes, so two TLPs never land on the same
//! picosecond of one shard's wire), the order also equals what the
//! monolithic single-[`Simulation`] run delivers — the differential
//! property suite in `tests/prop_shard.rs` pins both claims.
//!
//! ```
//! use vf_sim::{Outbox, RunOutcome, Scheduler, ShardWorld, ShardedSimulation, Time};
//!
//! /// Two counters ping-ponging across shards, 1 µs of flight apart.
//! struct Relay {
//!     peer: usize,
//!     log: Vec<Time>,
//! }
//! impl ShardWorld for Relay {
//!     type Msg = u32;
//!     fn deliver(&mut self, now: Time, hops: u32, _: &mut Scheduler<u32>, net: &mut Outbox<'_, u32>) {
//!         self.log.push(now);
//!         if hops > 0 {
//!             net.send(self.peer, now + Time::from_us(1), hops - 1);
//!         }
//!     }
//! }
//!
//! let shards = vec![
//!     Relay { peer: 1, log: Vec::new() },
//!     Relay { peer: 0, log: Vec::new() },
//! ];
//! let mut sim = ShardedSimulation::new(shards, Time::from_us(1));
//! sim.schedule_at(0, Time::from_us(1), 3);
//! assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
//! assert_eq!(sim.world(0).log, vec![Time::from_us(1), Time::from_us(3)]);
//! assert_eq!(sim.world(1).log, vec![Time::from_us(2), Time::from_us(4)]);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

use crate::engine::{RunOutcome, Scheduler, Simulation, World};
use crate::sweep::{resume_point, Panic};
use crate::time::Time;

/// A world that can run as one shard of a [`ShardedSimulation`]: like
/// [`World`], plus an [`Outbox`] for messages that cross shards.
///
/// Local follow-up events go through the [`Scheduler`] exactly as in a
/// plain simulation. Events for *other* shards go through
/// [`Outbox::send`] and must respect the lookahead contract — see the
/// module docs.
pub trait ShardWorld: Send {
    /// The message type carried by events (local and cross-shard).
    type Msg: Send;

    /// Deliver one message at simulated instant `now`.
    fn deliver(
        &mut self,
        now: Time,
        msg: Self::Msg,
        sched: &mut Scheduler<Self::Msg>,
        net: &mut Outbox<'_, Self::Msg>,
    );
}

/// Handle through which a [`ShardWorld`] posts cross-shard events while
/// one of its own is being delivered. Every send is stamped with the
/// emitting shard and a per-shard sequence number — the `(time, seq,
/// shard)` merge key that makes delivery order independent of which
/// worker thread ran which shard when.
pub struct Outbox<'a, M> {
    from: usize,
    now: Time,
    lookahead: Time,
    emitted: &'a mut u64,
    out: &'a mut Vec<Envelope<M>>,
}

impl<M> Outbox<'_, M> {
    /// Post `msg` to shard `to`, taking effect at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// If `at < now + lookahead`: the conservative window protocol is
    /// only correct when every cross-shard effect is at least one
    /// lookahead away, so a closer send is a modeling bug, not a
    /// schedulable event.
    pub fn send(&mut self, to: usize, at: Time, msg: M) {
        assert!(
            at >= self.now + self.lookahead,
            "cross-shard send violates the lookahead contract: \
             at {at:?} < now {:?} + lookahead {:?}",
            self.now,
            self.lookahead,
        );
        let seq = *self.emitted;
        *self.emitted += 1;
        self.out.push(Envelope {
            at,
            seq,
            from: self.from,
            to,
            msg,
        });
    }

    /// The shard this outbox belongs to.
    #[inline]
    pub fn shard(&self) -> usize {
        self.from
    }

    /// The lookahead every send must clear.
    #[inline]
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }
}

/// One cross-shard message in flight between windows.
struct Envelope<M> {
    at: Time,
    seq: u64,
    from: usize,
    to: usize,
    msg: M,
}

/// Adapter giving each shard's inner [`Simulation`] a [`World`] view of
/// its [`ShardWorld`], threading the outbox through every delivery.
struct Cell<W: ShardWorld> {
    world: W,
    id: usize,
    lookahead: Time,
    emitted: u64,
    out: Vec<Envelope<W::Msg>>,
}

impl<W: ShardWorld> World for Cell<W> {
    type Msg = W::Msg;

    fn deliver(&mut self, now: Time, msg: W::Msg, sched: &mut Scheduler<W::Msg>) {
        let mut net = Outbox {
            from: self.id,
            now,
            lookahead: self.lookahead,
            emitted: &mut self.emitted,
            out: &mut self.out,
        };
        self.world.deliver(now, msg, sched, &mut net);
    }
}

/// Any plain [`World`] as a single-component [`ShardWorld`] that never
/// crosses shards. This is how the fully-coupled testbed worlds (the
/// shared-wire MQ and tenant models — see DESIGN §2.1.2) ride the
/// sharded engine: their one shard takes the engine's single-shard fast
/// path, which delegates straight to the inner [`Simulation`] and is
/// therefore bit-identical to the monolithic run by construction.
pub struct Coupled<W: World>(pub W);

impl<W: World + Send> ShardWorld for Coupled<W>
where
    W::Msg: Send,
{
    type Msg = W::Msg;

    fn deliver(
        &mut self,
        now: Time,
        msg: W::Msg,
        sched: &mut Scheduler<W::Msg>,
        _net: &mut Outbox<'_, W::Msg>,
    ) {
        self.0.deliver(now, msg, sched);
    }
}

/// A [`World`] that can describe how to split itself across shards —
/// the seam `run_mq`/`run_tenants` use so driver code never learns
/// about sharding.
///
/// A world that is fully coupled (every event touches shared state, as
/// the multi-tag PCIe wire model is today) reports one component and
/// partitions into `vec![self]`; a future world with per-shard wire
/// reservations can return a real decomposition without any caller
/// changing.
pub trait ShardableWorld: World + Sized {
    /// Independently schedulable components (1 = fully coupled).
    fn components(&self) -> usize {
        1
    }

    /// Conservative lookahead between components: a lower bound on how
    /// long any cross-component effect takes (for PCIe-coupled worlds,
    /// the link's minimum one-way flight time).
    fn lookahead(&self) -> Time;

    /// Consume the world into at most `max_shards` shard worlds.
    fn partition(self, max_shards: usize) -> Vec<Self>;
}

/// Run a [`ShardableWorld`] to completion on the sharded engine: the
/// shared drive loop behind `run_mq --shards N` and friends.
///
/// Partitions the world (a coupled world yields one shard regardless of
/// `shards`), wraps each piece in [`Coupled`], schedules `initial`
/// stimulus into shard 0, and runs with up to `threads` workers.
/// Returns the shard worlds (in partition order), the final simulated
/// time, and the run outcome.
pub fn run_partitioned<W>(
    world: W,
    shards: usize,
    threads: usize,
    initial: Vec<(Time, W::Msg)>,
    horizon: Time,
    max_events: u64,
) -> (Vec<W>, Time, RunOutcome)
where
    W: ShardableWorld + Send,
    W::Msg: Send,
{
    let lookahead = world.lookahead();
    let worlds = world.partition(shards.max(1));
    let n = worlds.len();
    let mut sim = ShardedSimulation::new(worlds.into_iter().map(Coupled).collect(), lookahead)
        .with_threads(threads.clamp(1, n));
    for (at, msg) in initial {
        sim.schedule_at(0, at, msg);
    }
    let outcome = sim.run(horizon, max_events);
    let now = sim.now();
    let worlds = sim.into_worlds().into_iter().map(|c| c.0).collect();
    (worlds, now, outcome)
}

/// A discrete-event simulation sharded across worker threads.
///
/// See the module docs for the protocol. The public surface mirrors
/// [`Simulation`] (`schedule_at` / `run` / `run_to_idle` / `now` /
/// `events_delivered`), with shard-indexed world access.
pub struct ShardedSimulation<W: ShardWorld> {
    shards: Vec<Simulation<Cell<W>>>,
    lookahead: Time,
    threads: usize,
    windows: u64,
    merged: u64,
}

impl<W: ShardWorld> ShardedSimulation<W>
where
    W::Msg: Send,
{
    /// Create a sharded simulation at time zero, one shard per world.
    ///
    /// # Panics
    ///
    /// If `worlds` is empty, or if more than one shard is given with a
    /// zero lookahead (the conservative window would never advance past
    /// a cross-shard dependency).
    pub fn new(worlds: Vec<W>, lookahead: Time) -> Self {
        assert!(!worlds.is_empty(), "a sharded simulation needs a shard");
        assert!(
            worlds.len() == 1 || lookahead > Time::ZERO,
            "multi-shard simulation requires a positive lookahead"
        );
        let shards = worlds
            .into_iter()
            .enumerate()
            .map(|(id, world)| {
                Simulation::new(Cell {
                    world,
                    id,
                    lookahead,
                    emitted: 0,
                    out: Vec::new(),
                })
            })
            .collect::<Vec<_>>();
        let threads = crate::sweep::default_threads().clamp(1, shards.len());
        ShardedSimulation {
            shards,
            lookahead,
            threads,
            windows: 0,
            merged: 0,
        }
    }

    /// Cap the worker threads used per window (clamped to `[1, shards]`).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, self.shards.len());
        self
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The lookahead the merge protocol is running with.
    #[inline]
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// Shard `i`'s world.
    pub fn world(&self, i: usize) -> &W {
        &self.shards[i].world.world
    }

    /// Shard `i`'s world, mutably (between runs: inspect or inject).
    pub fn world_mut(&mut self, i: usize) -> &mut W {
        &mut self.shards[i].world.world
    }

    /// Consume the simulation into its shard worlds, in shard order.
    pub fn into_worlds(self) -> Vec<W> {
        self.shards.into_iter().map(|s| s.world.world).collect()
    }

    /// Schedule stimulus into shard `shard` at absolute instant `at`
    /// (clamped to that shard's local clock).
    pub fn schedule_at(&mut self, shard: usize, at: Time, msg: W::Msg) {
        self.shards[shard].schedule_at(at, msg);
    }

    /// The committed frontier: the latest instant any shard has reached.
    /// With one shard this is exactly [`Simulation::now`].
    pub fn now(&self) -> Time {
        self.shards
            .iter()
            .map(|s| s.now())
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Total events delivered across all shards.
    pub fn events_delivered(&self) -> u64 {
        self.shards.iter().map(|s| s.events_delivered()).sum()
    }

    /// Total events pending across all shards (cross-shard envelopes
    /// are always merged into a wheel before control returns, so there
    /// is never anything in flight between calls).
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.pending()).sum()
    }

    /// Synchronization windows committed so far.
    #[inline]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Cross-shard envelopes merged so far.
    #[inline]
    pub fn merged_events(&self) -> u64 {
        self.merged
    }

    /// Run until every shard drains, `horizon` is passed, or
    /// `max_events` deliveries (summed over shards) have been made.
    ///
    /// Exactly like [`Simulation::run`], and with one shard it *is*
    /// that call. With several shards the event budget is enforced at
    /// window boundaries: a window in flight may finish before the
    /// budget stops the run, so treat `max_events` as the livelock
    /// guard it is, not an exact step counter.
    pub fn run(&mut self, horizon: Time, max_events: u64) -> RunOutcome {
        if self.shards.len() == 1 {
            // Fast path: one shard is the monolithic engine,
            // bit-identical semantics included.
            return self.shards[0].run(horizon, max_events);
        }
        let budget_end = self.events_delivered().saturating_add(max_events);
        loop {
            // LBTS exchange: the earliest pending event anywhere is the
            // global lower bound on what any shard may still deliver.
            let Some(next) = self
                .shards
                .iter_mut()
                .filter_map(|s| s.next_event_at())
                .min()
            else {
                return RunOutcome::Idle;
            };
            if next > horizon {
                return RunOutcome::Horizon;
            }
            let delivered = self.events_delivered();
            if delivered >= budget_end {
                return RunOutcome::EventBudget;
            }
            // Window [next, next + lookahead), clamped to the horizon.
            // `run` horizons are inclusive, so the exclusive window end
            // backs off one tick.
            let cap = Time::from_ps(
                next.as_ps()
                    .saturating_add(self.lookahead.as_ps())
                    .saturating_sub(1),
            )
            .min(horizon);
            self.run_window(cap, budget_end - delivered);
            self.windows += 1;
            // Deterministic timestamp-ordered merge: drain every
            // outbox, sort by the total (time, seq, shard) key, insert
            // into the destination wheels. Insertion order fixes the
            // wheels' FIFO order at equal timestamps, so the merge —
            // not thread completion order — decides ties.
            let mut batch: Vec<Envelope<W::Msg>> = Vec::new();
            for shard in &mut self.shards {
                batch.append(&mut shard.world.out);
            }
            batch.sort_by_key(|e| (e.at, e.seq, e.from));
            self.merged += batch.len() as u64;
            for e in batch {
                debug_assert!(
                    e.at > self.shards[e.to].now(),
                    "lookahead admitted a message into a shard's past"
                );
                self.shards[e.to].schedule_at(e.at, e.msg);
            }
        }
    }

    /// Run one window: every shard advances to `cap` (inclusive), in
    /// parallel when more than one worker thread is configured.
    ///
    /// A panic inside a shard reaches the caller with its original
    /// message prefixed by `"shard {i} panicked: "`. Every worker is
    /// joined first, and the lowest panicking shard index wins, so the
    /// re-raised panic is the same at any thread count.
    fn run_window(&mut self, cap: Time, budget: u64) {
        const WHAT: &str = "shard";
        let threads = self.threads.min(self.shards.len());
        if threads <= 1 {
            for (i, shard) in self.shards.iter_mut().enumerate() {
                if let Err(p) = catch_unwind(AssertUnwindSafe(|| shard.run(cap, budget))) {
                    resume_point(WHAT, i, p);
                }
            }
            return;
        }
        let per = self.shards.len().div_ceil(threads);
        // Each worker runs a contiguous run of shards and stops at its
        // first panic, so the first panic over chunks in order is the
        // lowest panicking shard.
        let results: Vec<thread::Result<Option<(usize, Panic)>>> = thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .chunks_mut(per)
                .enumerate()
                .map(|(c, chunk)| {
                    scope.spawn(move || {
                        for (i, shard) in chunk.iter_mut().enumerate() {
                            if let Err(p) =
                                catch_unwind(AssertUnwindSafe(|| shard.run(cap, budget)))
                            {
                                return Some((c * per + i, p));
                            }
                        }
                        None
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut first_panic = None;
        for worker in results {
            // Shard panics are caught above; a panic here is in this function.
            let panicked = worker.unwrap_or_else(|p| std::panic::resume_unwind(p));
            first_panic = first_panic.or(panicked);
        }
        if let Some((i, p)) = first_panic {
            resume_point(WHAT, i, p);
        }
    }

    /// Run until every shard drains (with a generous livelock guard).
    pub fn run_to_idle(&mut self) -> RunOutcome {
        self.run(Time::MAX, u64::MAX / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// K round-robin token rings over the shards: shard `i` forwards
    /// each token to shard `(i + 1) % n` one lookahead later, logging
    /// every arrival.
    struct Ring {
        id: usize,
        n: usize,
        hop: Time,
        log: Vec<(Time, u32)>,
    }

    impl ShardWorld for Ring {
        type Msg = u32;

        fn deliver(
            &mut self,
            now: Time,
            token: u32,
            _sched: &mut Scheduler<u32>,
            net: &mut Outbox<'_, u32>,
        ) {
            self.log.push((now, token));
            if token > 0 {
                net.send((self.id + 1) % self.n, now + self.hop, token - 1);
            }
        }
    }

    fn ring(n: usize, hop: Time) -> ShardedSimulation<Ring> {
        let worlds = (0..n)
            .map(|id| Ring {
                id,
                n,
                hop,
                log: Vec::new(),
            })
            .collect();
        ShardedSimulation::new(worlds, hop)
    }

    #[test]
    fn tokens_circulate_and_drain() {
        let hop = Time::from_us(1);
        let mut sim = ring(3, hop);
        sim.schedule_at(0, Time::from_us(1), 7);
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        assert_eq!(sim.events_delivered(), 8);
        // Token visits shards 0,1,2,0,1,2,0,1 at 1 µs intervals.
        assert_eq!(sim.world(0).log.len(), 3);
        assert_eq!(sim.world(1).log.len(), 3);
        assert_eq!(sim.world(2).log.len(), 2);
        assert_eq!(sim.world(1).log[0], (Time::from_us(2), 6));
        assert_eq!(sim.now(), Time::from_us(8));
        assert_eq!(sim.merged_events(), 7);
        assert!(sim.windows() >= 7);
    }

    #[test]
    fn thread_count_does_not_change_delivery() {
        let hop = Time::from_ns(300);
        let run = |threads: usize| {
            let mut sim = ring(4, hop).with_threads(threads);
            for t in 0..4 {
                sim.schedule_at(t, Time::from_ns(100 * (t as u64 + 1)), 40);
            }
            assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
            (0..4).map(|i| sim.world(i).log.clone()).collect::<Vec<_>>()
        };
        let serial = run(1);
        for threads in [2, 4] {
            assert_eq!(run(threads), serial, "{threads} threads diverged");
        }
    }

    #[test]
    fn horizon_pauses_and_resumes() {
        let hop = Time::from_us(1);
        let mut sim = ring(2, hop);
        sim.schedule_at(0, Time::from_us(1), 9);
        assert_eq!(sim.run(Time::from_us(4), u64::MAX / 2), RunOutcome::Horizon);
        let so_far = sim.events_delivered();
        assert_eq!(so_far, 4); // arrivals at 1, 2, 3, 4 µs
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        assert_eq!(sim.events_delivered(), 10);
    }

    #[test]
    fn event_budget_stops_at_a_window_boundary() {
        let hop = Time::from_us(1);
        let mut sim = ring(2, hop);
        sim.schedule_at(0, Time::from_us(1), 100);
        let outcome = sim.run(Time::MAX, 5);
        assert_eq!(outcome, RunOutcome::EventBudget);
        assert!(sim.events_delivered() >= 5);
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        assert_eq!(sim.events_delivered(), 101);
    }

    #[test]
    fn merge_ties_follow_time_seq_shard_order() {
        /// Every shard fires one local event, then floods shard 0 with
        /// same-instant envelopes; arrival order must be (seq, shard).
        struct Flood {
            id: usize,
            log: Vec<u32>,
        }
        impl ShardWorld for Flood {
            type Msg = u32;
            fn deliver(
                &mut self,
                now: Time,
                msg: u32,
                _sched: &mut Scheduler<u32>,
                net: &mut Outbox<'_, u32>,
            ) {
                self.log.push(msg);
                if msg == 0 {
                    // Two sends per shard, all landing at 10 µs: seq 0
                    // then seq 1 per shard, shards tie-broken last.
                    let id = self.id as u32;
                    net.send(0, now + Time::from_us(9), 100 + id);
                    net.send(0, now + Time::from_us(9), 200 + id);
                }
            }
        }
        let worlds = (0..3)
            .map(|id| Flood {
                id,
                log: Vec::new(),
            })
            .collect();
        let mut sim = ShardedSimulation::new(worlds, Time::from_us(1));
        for shard in 0..3 {
            sim.schedule_at(shard, Time::from_us(1), 0);
        }
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        // (time, seq, shard): all six land at 10 µs; seq orders each
        // shard's first send before any second send, shard id breaks
        // the remaining ties.
        assert_eq!(
            sim.world(0).log,
            vec![0, 100, 101, 102, 200, 201, 202],
            "merge tie-break must be (time, seq, shard)"
        );
    }

    #[test]
    #[should_panic(expected = "lookahead contract")]
    fn lookahead_violation_panics() {
        let hop = Time::from_us(1);
        struct Cheat;
        impl ShardWorld for Cheat {
            type Msg = ();
            fn deliver(
                &mut self,
                now: Time,
                _msg: (),
                _sched: &mut Scheduler<()>,
                net: &mut Outbox<'_, ()>,
            ) {
                net.send(1, now + Time::from_ns(1), ());
            }
        }
        let mut sim = ShardedSimulation::new(vec![Cheat, Cheat], hop);
        sim.schedule_at(0, Time::from_us(1), ());
        sim.run_to_idle();
    }

    /// Regression: on more than one worker thread the contract panic
    /// used to come back as the generic "a scoped thread panicked".
    #[test]
    fn lookahead_violation_names_the_shard_at_any_thread_count() {
        struct Cheat;
        impl ShardWorld for Cheat {
            type Msg = ();
            fn deliver(
                &mut self,
                now: Time,
                _msg: (),
                _sched: &mut Scheduler<()>,
                net: &mut Outbox<'_, ()>,
            ) {
                net.send(1, now + Time::from_ns(1), ());
            }
        }
        for threads in [1, 2] {
            let mut sim =
                ShardedSimulation::new(vec![Cheat, Cheat], Time::from_us(1)).with_threads(threads);
            sim.schedule_at(0, Time::from_us(1), ());
            let err = catch_unwind(AssertUnwindSafe(|| sim.run_to_idle()))
                .expect_err("the send breaks the contract");
            let msg = err.downcast_ref::<String>().expect("message payload");
            assert!(
                msg.starts_with("shard 0 panicked: ") && msg.contains("lookahead contract"),
                "{threads} threads: {msg}"
            );
        }
    }

    /// Both shards panic on two worker threads, shard 1 first: shard 0
    /// holds until shard 1 has panicked. Shard 0's panic is the one
    /// re-raised.
    #[test]
    fn lowest_panicking_shard_wins_on_two_threads() {
        struct Fail {
            id: usize,
            shard1_failed: Arc<AtomicBool>,
        }
        impl ShardWorld for Fail {
            type Msg = ();
            fn deliver(
                &mut self,
                _now: Time,
                _msg: (),
                _sched: &mut Scheduler<()>,
                _net: &mut Outbox<'_, ()>,
            ) {
                if self.id == 0 {
                    while !self.shard1_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                } else {
                    self.shard1_failed.store(true, Ordering::SeqCst);
                }
                panic!("world {} failed", self.id);
            }
        }
        let flag = Arc::new(AtomicBool::new(false));
        let worlds = (0..2)
            .map(|id| Fail {
                id,
                shard1_failed: Arc::clone(&flag),
            })
            .collect();
        let mut sim = ShardedSimulation::new(worlds, Time::from_us(1)).with_threads(2);
        sim.schedule_at(0, Time::from_us(1), ());
        sim.schedule_at(1, Time::from_us(1), ());
        let err =
            catch_unwind(AssertUnwindSafe(|| sim.run_to_idle())).expect_err("both shards panic");
        let msg = err.downcast_ref::<String>().expect("message payload");
        assert_eq!(msg, "shard 0 panicked: world 0 failed");
    }

    #[test]
    fn single_shard_fast_path_matches_simulation_semantics() {
        struct Count(u64);
        impl ShardWorld for Count {
            type Msg = ();
            fn deliver(
                &mut self,
                _now: Time,
                _msg: (),
                sched: &mut Scheduler<()>,
                _net: &mut Outbox<'_, ()>,
            ) {
                self.0 += 1;
                if self.0 < 10 {
                    sched.after(Time::from_ns(10), ());
                }
            }
        }
        // Zero lookahead is allowed with one shard: the fast path never
        // opens a window.
        let mut sim = ShardedSimulation::new(vec![Count(0)], Time::ZERO);
        sim.schedule_at(0, Time::from_ns(5), ());
        assert_eq!(
            sim.run(Time::from_ns(44), u64::MAX / 2),
            RunOutcome::Horizon
        );
        assert_eq!(sim.events_delivered(), 4);
        assert_eq!(sim.run_to_idle(), RunOutcome::Idle);
        assert_eq!(sim.world(0).0, 10);
        assert_eq!(sim.now(), Time::from_ns(95));
    }

    #[test]
    fn coupled_world_rides_the_sharded_engine_unchanged() {
        struct Countdown(Vec<(Time, u32)>);
        impl World for Countdown {
            type Msg = u32;
            fn deliver(&mut self, now: Time, msg: u32, sched: &mut Scheduler<u32>) {
                self.0.push((now, msg));
                if msg > 0 {
                    sched.after(Time::from_ns(10), msg - 1);
                }
            }
        }
        let mut mono = Simulation::new(Countdown(Vec::new()));
        mono.schedule_at(Time::from_ns(5), 3);
        mono.run_to_idle();

        let mut sharded = ShardedSimulation::new(vec![Coupled(Countdown(Vec::new()))], Time::ZERO);
        sharded.schedule_at(0, Time::from_ns(5), 3);
        assert_eq!(sharded.run_to_idle(), RunOutcome::Idle);
        assert_eq!(sharded.world(0).0 .0, mono.world.0);
        assert_eq!(sharded.now(), mono.now());
        assert_eq!(sharded.events_delivered(), mono.events_delivered());
    }
}
