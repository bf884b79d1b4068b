//! The multi-process campaign supervisor.
//!
//! A fixed pool of worker *links* executes tasks from a [`TaskTable`].
//! Historically a link was always a subprocess (the same binary
//! re-invoked with `--worker-mode`); since the networked-campaign work
//! the pool is generic over a [`Transport`] that provisions links, so
//! the same lease, heartbeat, epoch-tagging, and requeue logic drives
//! local subprocesses and remote TCP workers unchanged. All scheduling
//! decisions live here; all crash-isolation comes from the link
//! boundary (process exit or socket death):
//!
//! - Each dispatched task is covered by a **lease**. Workers heartbeat
//!   while running; a lease that outlives its deadline means the worker
//!   is wedged or dead, so the supervisor kills the link and requeues
//!   the shard with exponential backoff (capped at
//!   [`crate::lease::MAX_REQUEUE_BACKOFF`]).
//! - A worker death (crash, chaos kill, kill -9 from outside, TCP
//!   disconnect) surfaces as EOF on its link; its leased shard requeues
//!   the same way, and so does a corrupt frame on it. Partial output is
//!   discarded wholesale — only complete, checksummed `result` frames
//!   ever reach the merge — so a rerun is byte-identical to an
//!   undisturbed run.
//! - A shard that keeps killing workers quarantines after
//!   `max_attempts` dispatches (reported as *suspect*), and a slot that
//!   keeps dying in quick succession is retired after
//!   [`Supervisor::FAST_DEATH_CAP`] consecutive deaths. The attempt cap
//!   is below the slot cap, so a poison shard quarantines before it can
//!   take the pool down.
//! - If every slot dies anyway, remaining tasks are *abandoned* and the
//!   campaign reports a resumable exit instead of spinning. Likewise, a
//!   transport that stays [`Provision::Unavailable`] (no remote worker
//!   attached) for longer than `attach_timeout` abandons the batch
//!   rather than waiting forever.
//!
//! Chaos mode (`chaos_kill_pct`) kills a freshly-dispatched worker with
//! seeded probability — only on a task's **first** attempt, so fault
//! injection exercises every recovery path yet can never quarantine a
//! healthy shard. CI uses it to prove kill-tolerance by diffing a chaos
//! campaign against an in-process run.

use crate::frame::{read_frame, write_frame};
use crate::lease::{FailOutcome, TaskTable};
use crate::proto::{FromWorker, ToWorker};
use cdsspec_mc::{Config, Stats};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Supervisor tuning.
#[derive(Clone, Debug)]
pub struct SupervisorOpts {
    /// Worker link slots (subprocesses or attached remote workers).
    pub workers: usize,
    /// Explorer threads inside each worker.
    pub worker_threads: usize,
    /// Lease duration granted per dispatch/heartbeat.
    pub lease: Duration,
    /// Heartbeat interval workers are asked to use.
    pub heartbeat: Duration,
    /// Dispatch attempts per task before quarantine.
    pub max_attempts: u32,
    /// Probability (percent, 0–100) of chaos-killing the worker right
    /// after a task's first dispatch.
    pub chaos_kill_pct: u32,
    /// Seed for the chaos RNG.
    pub chaos_seed: u64,
    /// Forwarded to workers: benchmark name on which to `abort()`
    /// (fault-injection of a poison shard).
    pub poison: Option<String>,
    /// Ordering sites every dispatched task weakens before checking
    /// (Figure 8-style fault injection; empty = default orderings).
    pub weaken: Vec<usize>,
    /// Worker executable; `None` = `std::env::current_exe()`.
    pub worker_exe: Option<PathBuf>,
    /// How long the whole pool may sit with zero live links and zero
    /// retired slots (a transport with no workers attached yet) before
    /// the batch is abandoned as resumable. Subprocess transports spawn
    /// on demand and never get near this; it exists so a daemon
    /// campaign with no attached remote workers fails fast instead of
    /// spinning forever.
    pub attach_timeout: Duration,
}

impl Default for SupervisorOpts {
    fn default() -> Self {
        SupervisorOpts {
            workers: 2,
            worker_threads: 1,
            lease: Duration::from_secs(30),
            heartbeat: Duration::from_millis(500),
            max_attempts: 3,
            chaos_kill_pct: 0,
            chaos_seed: 0,
            poison: None,
            weaken: Vec::new(),
            worker_exe: None,
            attach_timeout: Duration::from_secs(30),
        }
    }
}

/// Counters describing what the pool went through.
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorStats {
    /// Worker links provisioned (including respawns/re-attaches).
    pub spawns: u64,
    /// Worker deaths observed (all causes, chaos included).
    pub worker_deaths: u64,
    /// Deaths injected by chaos mode.
    pub chaos_kills: u64,
    /// Results that arrived after their lease had been revoked and were
    /// dropped (their shard was recomputed; merging both would double
    /// count).
    pub stale_results: u64,
    /// Slots permanently retired after repeated fast deaths.
    pub dead_slots: u64,
    /// Tasks quarantined at the attempt cap.
    pub quarantined: u64,
    /// Tasks dispatched to workers (first attempts and retries alike).
    pub dispatches: u64,
    /// Tasks sent back to `Pending` after a worker failure (the retry
    /// half of `worker_deaths` + in-worker errors; quarantines are
    /// counted separately).
    pub requeues: u64,
}

/// Per-slot counters, surfaced in the final campaign report so requeue
/// and reconnect churn is visible instead of silently absorbed.
#[derive(Clone, Copy, Debug, Default)]
pub struct SlotStats {
    /// Links provisioned on this slot (spawns or remote re-attaches).
    pub spawns: u64,
    /// Link deaths observed on this slot.
    pub deaths: u64,
    /// Tasks requeued because this slot's worker failed them.
    pub requeues: u64,
    /// Tasks this slot completed.
    pub completed: u64,
}

/// One transport event: a complete frame payload from a worker link,
/// or the link's death. Tagged with the slot index and the provision
/// epoch so output from a revoked incarnation can be dropped.
pub enum Event {
    /// One complete, checksummed frame payload from the link on
    /// `(slot, epoch)`.
    Message(usize, u64, String),
    /// The link on `(slot, epoch)` died (EOF, socket close or a corrupt
    /// frame).
    Eof(usize, u64),
}

/// Result of asking a [`Transport`] for a worker link.
pub enum Provision {
    /// A live link, ready for [`ToWorker`] messages.
    Link(Box<dyn WorkerLink>),
    /// No worker is available *right now* but one may appear (e.g. no
    /// remote worker attached yet). Not a failure: the slot is not
    /// charged a death and the supervisor retries on the next tick.
    Unavailable,
    /// Provisioning failed outright (spawn error). The slot is charged
    /// a death: backed off and eventually retired.
    Failed,
}

/// A live bidirectional channel to one worker.
///
/// Implementations must have delivered every incoming frame payload as
/// [`Event::Message`] and exactly one [`Event::Eof`] on the channel given
/// to [`Transport::provision`], tagged with that provision's
/// `(slot, epoch)`.
pub trait WorkerLink: Send {
    /// Send one message; `false` means the link is dead (the supervisor
    /// treats it like any other worker death).
    fn send(&mut self, msg: &ToWorker) -> bool;
    /// Hard-kill the worker behind the link (SIGKILL / socket
    /// shutdown). Idempotent; called on lease expiry and chaos kills.
    fn kill(&mut self);
    /// Graceful disposal at batch/campaign end: a subprocess link sends
    /// `Exit` and reaps the child; a network link returns the still-
    /// live worker to its registry for the next campaign.
    fn release(self: Box<Self>);
}

/// Provisions [`WorkerLink`]s for supervisor slots. The transport owns
/// *where* workers come from (spawned subprocesses, attached TCP
/// connections); the supervisor owns every scheduling decision.
pub trait Transport: Send {
    /// Try to produce a link for `slot`. The transport must arrange for
    /// the link's incoming messages and eventual EOF to arrive on `tx`
    /// tagged `(slot, epoch)`.
    fn provision(&mut self, slot: usize, epoch: u64, tx: &mpsc::Sender<Event>) -> Provision;
}

struct Slot {
    link: Option<Box<dyn WorkerLink>>,
    /// Provision generation; events tagged with an older epoch are stale.
    epoch: u64,
    /// Consecutive deaths without a completed task in between.
    fast_deaths: u32,
    /// Earliest instant a re-provision may happen (death backoff).
    respawn_after: Instant,
    /// Permanently retired.
    dead: bool,
    stats: SlotStats,
}

/// The worker pool + event loop. One instance supervises a whole
/// campaign; [`Supervisor::run_batch`] drives one task table to
/// completion at a time, reusing live workers across batches.
pub struct Supervisor {
    opts: SupervisorOpts,
    transport: Box<dyn Transport>,
    slots: Vec<Slot>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    next_epoch: u64,
    rng: StdRng,
    /// Counters (readable between batches).
    pub stats: SupervisorStats,
}

impl Supervisor {
    /// Consecutive fast deaths that retire a slot. Strictly greater than
    /// the default task attempt cap, so a poison shard quarantines before
    /// any slot is retired.
    pub const FAST_DEATH_CAP: u32 = 5;

    /// Base backoff applied before re-provisioning a slot after a death
    /// (doubles per consecutive death, capped at
    /// [`Supervisor::MAX_RESPAWN_BACKOFF`]).
    const RESPAWN_BACKOFF: Duration = Duration::from_millis(20);

    /// Hard ceiling on the per-slot respawn backoff. Keeps a slot that
    /// has died a few times from sitting out for unbounded stretches:
    /// the exponential curve exists to damp crash loops, not to retire
    /// the slot by stealth.
    pub const MAX_RESPAWN_BACKOFF: Duration = Duration::from_secs(1);

    /// Event-loop poll interval (bounds lease-expiry detection latency).
    const POLL: Duration = Duration::from_millis(25);

    /// A pool with `opts.workers` empty slots over the default
    /// subprocess transport (workers spawn lazily on first dispatch).
    pub fn new(opts: SupervisorOpts) -> Supervisor {
        let transport = SubprocessTransport {
            worker_exe: opts.worker_exe.clone(),
            heartbeat: opts.heartbeat,
            worker_threads: opts.worker_threads,
            poison: opts.poison.clone(),
        };
        Supervisor::with_transport(opts, Box::new(transport))
    }

    /// A pool with `opts.workers` empty slots over an arbitrary
    /// transport (the networked daemon passes its attach registry).
    pub fn with_transport(opts: SupervisorOpts, transport: Box<dyn Transport>) -> Supervisor {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        let slots = (0..opts.workers.max(1))
            .map(|_| Slot {
                link: None,
                epoch: 0,
                fast_deaths: 0,
                respawn_after: now,
                dead: false,
                stats: SlotStats::default(),
            })
            .collect();
        let rng = StdRng::seed_from_u64(opts.chaos_seed);
        Supervisor {
            opts,
            transport,
            slots,
            tx,
            rx,
            next_epoch: 0,
            rng,
            stats: SupervisorStats::default(),
        }
    }

    /// Per-slot counters, in slot order (readable between batches).
    pub fn slot_stats(&self) -> Vec<SlotStats> {
        self.slots.iter().map(|s| s.stats).collect()
    }

    /// Drive `table` until every task is terminal (`Done`, `Quarantined`,
    /// or — if the whole pool dies — abandoned). `on_complete` fires once
    /// per completed task, in completion order, before the task is
    /// considered durable (the campaign journals there).
    pub fn run_batch(
        &mut self,
        base_config: &Config,
        table: &mut TaskTable,
        mut on_complete: impl FnMut(usize, &Stats),
    ) {
        let mut linkless_since: Option<Instant> = None;
        while table.unfinished() {
            let now = Instant::now();

            // Revoke expired leases: kill the wedged worker, requeue the
            // shard. The epoch bump makes any in-flight output stale.
            for (_, slot) in table.expired(now) {
                self.fail_slot(slot, table, now);
            }

            // Re-provision slots whose backoff has elapsed.
            for i in 0..self.slots.len() {
                if !self.slots[i].dead
                    && self.slots[i].link.is_none()
                    && self.slots[i].respawn_after <= now
                {
                    self.provision_slot(i, now);
                }
            }

            // Dispatch ready tasks to idle live workers.
            while let Some(id) = table.next_ready(now) {
                let Some(slot) = self.idle_slot(table) else {
                    break;
                };
                self.dispatch(id, slot, base_config, table, now);
            }

            if self.slots.iter().all(|s| s.dead) {
                table.abandon_unfinished();
                break;
            }

            // A pool with zero links (and at least one non-retired slot,
            // or we'd have broken above) is waiting on the transport. A
            // subprocess transport resolves this within one tick; a
            // network transport may wait on a worker attaching. Give it
            // `attach_timeout`, then abandon the batch as resumable.
            if self.slots.iter().all(|s| s.link.is_none()) {
                let since = *linkless_since.get_or_insert(now);
                if now.duration_since(since) >= self.opts.attach_timeout {
                    table.abandon_unfinished();
                    break;
                }
            } else {
                linkless_since = None;
            }

            match self.rx.recv_timeout(Self::POLL) {
                Ok(ev) => {
                    self.handle(ev, table, &mut on_complete);
                    while let Ok(ev) = self.rx.try_recv() {
                        self.handle(ev, table, &mut on_complete);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("supervisor holds a sender")
                }
            }
        }
    }

    /// Gracefully dispose of every live link (subprocesses are asked to
    /// exit and reaped; remote workers are returned to their registry).
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if let Some(link) = slot.link.take() {
                link.release();
            }
        }
    }

    fn idle_slot(&self, table: &TaskTable) -> Option<usize> {
        (0..self.slots.len()).find(|&i| {
            !self.slots[i].dead && self.slots[i].link.is_some() && table.leased_by(i).is_none()
        })
    }

    fn dispatch(
        &mut self,
        id: usize,
        slot: usize,
        base_config: &Config,
        table: &mut TaskTable,
        now: Instant,
    ) {
        let spec = table.spec(id).clone();
        table.lease(id, slot, now);
        self.stats.dispatches += 1;
        let mut config = base_config.clone();
        config.max_executions = spec.max_executions;
        let msg = ToWorker::Run {
            task: id as u64,
            bench: spec.bench,
            shard: spec.shard,
            config,
            weaken: self.opts.weaken.clone(),
        };
        let sent = match &mut self.slots[slot].link {
            Some(link) => link.send(&msg),
            None => false,
        };
        if !sent {
            // The worker died between provision and dispatch; normal
            // failure path (requeue + re-provision with backoff).
            self.fail_slot(slot, table, now);
            return;
        }
        // Chaos: on a task's FIRST dispatch only, kill the worker that
        // just received it. Recovery (requeue + respawn) must reproduce
        // the exact same campaign result.
        if self.opts.chaos_kill_pct > 0
            && table.attempts(id) == 1
            && self.rng.gen_range(0..100u32) < self.opts.chaos_kill_pct
        {
            self.stats.chaos_kills += 1;
            self.fail_slot(slot, table, now);
        }
    }

    fn provision_slot(&mut self, slot: usize, now: Instant) {
        self.next_epoch += 1;
        let epoch = self.next_epoch;
        match self.transport.provision(slot, epoch, &self.tx) {
            Provision::Link(link) => {
                self.slots[slot].epoch = epoch;
                self.slots[slot].link = Some(link);
                self.stats.spawns += 1;
                self.slots[slot].stats.spawns += 1;
            }
            Provision::Unavailable => {
                // Nobody to link to yet (no remote worker attached).
                // Not the slot's fault: retry next tick, no backoff.
            }
            Provision::Failed => self.retire_or_backoff(slot, now),
        }
    }

    /// Kill the worker on `slot` (if any), requeue or quarantine its
    /// lease, and schedule a backed-off re-provision (or retire the
    /// slot).
    fn fail_slot(&mut self, slot: usize, table: &mut TaskTable, now: Instant) {
        // Bump the epoch first: everything the dying worker already wrote
        // is stale from this point on.
        self.next_epoch += 1;
        self.slots[slot].epoch = self.next_epoch;
        if let Some(mut link) = self.slots[slot].link.take() {
            link.kill();
        }
        self.stats.worker_deaths += 1;
        self.slots[slot].stats.deaths += 1;
        self.charge_task_failure(slot, table, now);
        self.retire_or_backoff(slot, now);
    }

    /// Requeue-or-quarantine the task leased by `slot`, updating the
    /// requeue/quarantine counters.
    fn charge_task_failure(&mut self, slot: usize, table: &mut TaskTable, now: Instant) {
        if let Some((_, outcome)) = table.fail(slot, now) {
            match outcome {
                FailOutcome::Quarantined { .. } => self.stats.quarantined += 1,
                FailOutcome::Requeued { .. } => {
                    self.stats.requeues += 1;
                    self.slots[slot].stats.requeues += 1;
                }
            }
        }
    }

    fn retire_or_backoff(&mut self, slot: usize, now: Instant) {
        let s = &mut self.slots[slot];
        s.fast_deaths += 1;
        if s.fast_deaths >= Self::FAST_DEATH_CAP {
            s.dead = true;
            self.stats.dead_slots += 1;
        } else {
            let exp = (s.fast_deaths - 1).min(10);
            let delay = (Self::RESPAWN_BACKOFF * 2u32.pow(exp)).min(Self::MAX_RESPAWN_BACKOFF);
            s.respawn_after = now + delay;
        }
    }

    fn handle(
        &mut self,
        ev: Event,
        table: &mut TaskTable,
        on_complete: &mut impl FnMut(usize, &Stats),
    ) {
        let now = Instant::now();
        match ev {
            Event::Message(slot, epoch, payload) => {
                if self.slots[slot].epoch != epoch {
                    return; // output of a revoked/killed incarnation
                }
                match FromWorker::decode(&payload) {
                    Ok(FromWorker::Heartbeat { .. }) => {
                        table.extend(slot, now);
                    }
                    Ok(FromWorker::Result { stats, .. }) => {
                        if let Some(id) = table.complete(slot, stats.clone()) {
                            // A completed task proves the slot healthy.
                            self.slots[slot].fast_deaths = 0;
                            self.slots[slot].stats.completed += 1;
                            on_complete(id, &stats);
                        } else {
                            self.stats.stale_results += 1;
                        }
                    }
                    Ok(FromWorker::Error { message, .. }) => {
                        // The task failed *inside* a healthy worker (it
                        // replied cleanly): charge the task, not the slot.
                        self.charge_task_failure(slot, table, now);
                        let _ = message;
                    }
                    Err(_) => {
                        // Protocol corruption — indistinguishable from a
                        // half-dead worker. Kill and recover.
                        self.fail_slot(slot, table, now);
                    }
                }
            }
            Event::Eof(slot, epoch) => {
                if self.slots[slot].epoch != epoch {
                    return; // we killed it ourselves; already handled
                }
                self.fail_slot(slot, table, now);
            }
        }
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut link) = slot.link.take() {
                link.kill();
            }
        }
    }
}

/// The classic transport: spawn the campaign binary with
/// `--worker-mode` and exchange frames over its stdin/stdout.
struct SubprocessTransport {
    worker_exe: Option<PathBuf>,
    heartbeat: Duration,
    worker_threads: usize,
    poison: Option<String>,
}

impl Transport for SubprocessTransport {
    fn provision(&mut self, slot: usize, epoch: u64, tx: &mpsc::Sender<Event>) -> Provision {
        let exe = match &self.worker_exe {
            Some(p) => p.clone(),
            None => match std::env::current_exe() {
                Ok(p) => p,
                Err(_) => return Provision::Failed,
            },
        };
        let mut cmd = Command::new(exe);
        cmd.arg("--worker-mode")
            .arg("--heartbeat-ms")
            .arg(self.heartbeat.as_millis().to_string())
            .arg("--worker-threads")
            .arg(self.worker_threads.max(1).to_string());
        if let Some(poison) = &self.poison {
            cmd.arg("--poison").arg(poison);
        }
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(_) => return Provision::Failed,
        };
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = tx.clone();
        std::thread::spawn(move || {
            // A corrupt frame ends the link exactly like EOF does.
            let mut reader = BufReader::new(stdout);
            while let Ok(payload) = read_frame(&mut reader) {
                if tx.send(Event::Message(slot, epoch, payload)).is_err() {
                    return;
                }
            }
            let _ = tx.send(Event::Eof(slot, epoch));
        });
        Provision::Link(Box::new(SubprocessLink {
            child: Some((child, Some(stdin))),
        }))
    }
}

struct SubprocessLink {
    child: Option<(Child, Option<ChildStdin>)>,
}

impl WorkerLink for SubprocessLink {
    fn send(&mut self, msg: &ToWorker) -> bool {
        match &mut self.child {
            Some((_, Some(stdin))) => write_frame(stdin, &msg.encode()).is_ok(),
            _ => false,
        }
    }

    fn kill(&mut self) {
        if let Some((mut child, stdin)) = self.child.take() {
            drop(stdin);
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn release(mut self: Box<Self>) {
        if let Some((_, stdin)) = &mut self.child {
            if let Some(stdin) = stdin {
                let _ = write_frame(stdin, &ToWorker::Exit.encode());
            }
            *stdin = None; // EOF backstop in case the Exit write raced
        }
        if let Some((mut child, _)) = self.child.take() {
            let _ = child.wait();
        }
    }
}

impl Drop for SubprocessLink {
    fn drop(&mut self) {
        self.kill();
    }
}
