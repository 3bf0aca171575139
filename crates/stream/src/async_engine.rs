//! Asynchronous ingestion: score now, monitor in the background.
//!
//! The paper's non-invasive premise is that fairness repair must not slow
//! down serving. The synchronous [`StreamEngine`]
//! couples the two anyway: every `ingest` call pays for window updates,
//! Page–Hinkley steps, and — on alert — a full ConFair retrain before a
//! single decision is returned. [`AsyncEngine`] runs the same two halves
//! ([`Scorer`] / [`Monitor`]) as a
//! pipeline instead:
//!
//! 1. **Score path** (caller's thread): validate, take any pending model
//!    swap, run the forward pass, enqueue the `(tuples, decisions)` record
//!    on a bounded queue, return the decisions. No monitoring work, no
//!    locks around the model parameters — the scorer owns its predictor
//!    outright and replacement models arrive through a latest-wins
//!    single-value mailbox (`Slot` in the source: a mutex the score path
//!    only ever `try_lock`s, so pickup never blocks).
//! 2. **Monitor thread** (single consumer): drains the queue in order,
//!    folds each record into the window/detectors, appends alerts, runs
//!    on-alert retrains, and publishes refreshed state — fairness
//!    snapshots and counters under a stats mutex (observability path, not
//!    the score path), replacement predictors through the model slot.
//!
//! Because the monitor consumes records in exactly the order they were
//! scored, the async engine is *deterministic given a quiescent point*:
//! after [`AsyncEngine::flush`], its decisions, snapshots, alert log, and
//! checkpoints are byte-identical to a synchronous engine fed the same
//! batches (property-pinned by `tests/async_equivalence.rs`).
//!
//! Backpressure is explicit ([`BackpressurePolicy`]): `Block` bounds
//! memory by stalling the producer when the monitor falls more than
//! `queue_depth` batches behind; `DropOldest` keeps the score path
//! wait-free by discarding the oldest *unprocessed* record and counting
//! what was lost ([`AsyncEngine::dropped`]) — the monitor's windowed view
//! degrades to a sample, the serving path never stalls, and the drop
//! counters tell operators which trade they are living with.

use crate::engine::{
    checkpoint_from_parts, validate_batch, validate_feedback, LabelFeedback, StreamConfig,
    StreamEngine, StreamTuple,
};
use crate::monitor::{FairnessSnapshot, Monitor};
use crate::repair::{RepairTier, RepairUpdate};
use crate::scorer::Scorer;
use crate::supervise::{Backoff, ShardHealth, SupervisorConfig};
use crate::telemetry::StreamMetrics;
use crate::window::{GroupCounts, JoinStats};
use crate::{DriftAlert, EngineCheckpoint, Result, StreamError};
use cf_data::Dataset;
use cf_learners::LearnerKind;
use cf_telemetry::{DropEvent, MetricsRegistry, MonitorRestartEvent, SharedSink, TelemetryEvent};
use confair_core::Predictor;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// What the score path does when the monitor queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Stall `ingest` until the monitor frees a slot. Nothing is ever
    /// dropped: the monitor sees every tuple, and a long retrain
    /// back-pressures the producer once the queue has absorbed
    /// `queue_depth` batches. This is the deterministic default.
    Block,
    /// Discard the **oldest** unprocessed record to make room, count it in
    /// [`AsyncEngine::dropped`], and enqueue the new record without
    /// waiting. The score path becomes wait-free, at the price of a
    /// monitoring view that degrades to a (newest-biased) sample under
    /// sustained overload.
    DropOldest,
}

/// Configuration of the asynchronous pipeline between the two halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncConfig {
    /// Maximum `(tuples, decisions)` records the queue holds before the
    /// backpressure policy applies. Control messages (flush barriers,
    /// checkpoint requests, shutdown) never count against the depth and
    /// are never dropped.
    pub queue_depth: usize,
    /// What to do when the queue is full.
    pub backpressure: BackpressurePolicy,
    /// Monitor-thread supervision: restart budget, respawn backoff, and
    /// how often the recovery clone is refreshed.
    pub supervisor: SupervisorConfig,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            queue_depth: 32,
            backpressure: BackpressurePolicy::Block,
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// Tuples and batches discarded under [`BackpressurePolicy::DropOldest`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounters {
    /// Whole records (micro-batches) discarded.
    pub batches: u64,
    /// Tuples those records carried.
    pub tuples: u64,
}

/// Human-readable one-liner, e.g. `dropped batches=2 tuples=503`.
impl std::fmt::Display for DropCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dropped batches={} tuples={}", self.batches, self.tuples)
    }
}

/// What flows from the score path to the monitor thread.
enum MonitorMsg {
    /// One served micro-batch, in scoring order. `first_id` is the
    /// scorer-assigned id of the first tuple: ids travel with the record
    /// so a dropped record leaves a gap in the monitor's id space instead
    /// of shifting every later feedback join.
    Record {
        first_id: u64,
        tuples: Vec<StreamTuple>,
        decisions: Vec<u8>,
    },
    /// Late ground truth for already-served tuples — a control-plane
    /// record: it bypasses the queue bound and is never dropped under
    /// [`BackpressurePolicy::DropOldest`] (labels are scarcer and more
    /// precious than monitoring samples), but it stays in FIFO order so a
    /// join can never overtake the record that carries its tuple.
    Feedback(Vec<LabelFeedback>),
    /// Barrier: acknowledged only after every record enqueued before it
    /// has been fully processed (including any retrain it triggered).
    Flush(mpsc::Sender<()>),
    /// Quiescent-point state request: answered with a coherent clone of
    /// the monitor half.
    Checkpoint(mpsc::Sender<Box<Monitor>>),
    /// Install (`Some`) or remove (`None`) the monitor's telemetry sink —
    /// a control-plane record so the change lands in FIFO order with the
    /// records around it.
    SetSink(Option<SharedSink>),
    /// Install metrics handles on the monitor half.
    SetMetrics(StreamMetrics),
    /// Stop consuming and hand the monitor half back through the thread's
    /// join value.
    Shutdown,
}

/// The bounded queue between the score path and the monitor thread.
///
/// Only `Record` messages count against `depth`; control messages bypass
/// the bound so a full queue can never deadlock a flush or shutdown.
///
/// Record pushes deliberately do **not** signal the consumer: on a busy
/// single core, a wakeup per batch preempts the score path with a context
/// switch it just paid to avoid. Instead the monitor polls on a short
/// timed wait ([`POLL_INTERVAL`]) and drains everything queued per wake —
/// bounded extra lag, amortised switches. Control messages (flush,
/// checkpoint, shutdown) and `not_full` transitions signal immediately,
/// because somebody is provably waiting on them.
struct BoundedQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
    /// Set (with both condvars signalled) when the consumer exits for any
    /// reason — clean shutdown or a panic unwinding the monitor thread —
    /// so producers blocked on backpressure or waiting on a flush ack can
    /// fail with a typed error instead of hanging on a queue nobody will
    /// ever drain.
    closed: std::sync::atomic::AtomicBool,
}

/// How long the idle monitor sleeps between queue polls — the upper bound
/// a record can sit unprocessed before the consumer self-wakes (on top of
/// processing time). Small enough to be irrelevant next to the window
/// dynamics being monitored, large enough to keep the idle engine silent.
const POLL_INTERVAL: std::time::Duration = std::time::Duration::from_millis(1);

struct QueueInner {
    messages: VecDeque<MonitorMsg>,
    /// `Record` entries currently queued (≤ `depth` after every push).
    records: usize,
    dropped: DropCounters,
}

impl BoundedQueue {
    fn new(depth: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                messages: VecDeque::new(),
                records: 0,
                dropped: DropCounters::default(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth,
            closed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Whether the consumer is gone (see the `closed` field).
    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Mark the consumer gone and wake every waiter on both condvars.
    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Reopen after a replacement consumer is about to take over.
    /// Everything still queued — records the dead consumer never reached
    /// and control messages alike — is retained for the new consumer to
    /// drain in the original FIFO order.
    fn reopen(&self) {
        self.closed.store(false, Ordering::Release);
    }

    /// Tuples currently sitting in queued records (the supervisor's gap
    /// arithmetic: queued tuples are *not* lost, they will be monitored
    /// by the respawned consumer).
    fn queued_tuple_count(&self) -> u64 {
        let inner = self.inner.lock().expect("queue mutex poisoned");
        inner
            .messages
            .iter()
            .map(|m| match m {
                MonitorMsg::Record { tuples, .. } => tuples.len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// Enqueue one record under the configured backpressure policy.
    ///
    /// # Errors
    /// [`StreamError::Async`] when the consumer is gone — including while
    /// blocked on a full queue under [`BackpressurePolicy::Block`], so a
    /// monitor-thread panic can never wedge the serving path.
    fn push_record(
        &self,
        first_id: u64,
        tuples: Vec<StreamTuple>,
        decisions: Vec<u8>,
        policy: BackpressurePolicy,
    ) -> Result<()> {
        let dead = || StreamError::Async("the monitor thread is no longer running".into());
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        match policy {
            BackpressurePolicy::Block => {
                while inner.records >= self.depth {
                    if self.is_closed() {
                        return Err(dead());
                    }
                    inner = self
                        .not_full
                        .wait_timeout(inner, POLL_INTERVAL)
                        .expect("queue mutex poisoned")
                        .0;
                }
            }
            BackpressurePolicy::DropOldest => {
                while inner.records >= self.depth {
                    // Drop the oldest *record*; control messages ahead of
                    // it (flush barriers already enqueued) are preserved.
                    let oldest = inner
                        .messages
                        .iter()
                        .position(|m| matches!(m, MonitorMsg::Record { .. }))
                        .expect("records > 0 implies a Record in the queue");
                    if let Some(MonitorMsg::Record { tuples, .. }) = inner.messages.remove(oldest) {
                        inner.records -= 1;
                        inner.dropped.batches += 1;
                        inner.dropped.tuples += tuples.len() as u64;
                    }
                }
            }
        }
        if self.is_closed() {
            return Err(dead());
        }
        inner.records += 1;
        inner.messages.push_back(MonitorMsg::Record {
            first_id,
            tuples,
            decisions,
        });
        // No notify: the consumer self-wakes within POLL_INTERVAL (see the
        // queue's type-level comment).
        Ok(())
    }

    /// Enqueue a control message (never bounded, never dropped).
    fn push_control(&self, msg: MonitorMsg) {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        inner.messages.push_back(msg);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Blocking pop, in FIFO order (monitor thread only). Waits on a timed
    /// poll so record pushes never have to signal.
    fn pop(&self) -> MonitorMsg {
        let mut inner = self.inner.lock().expect("queue mutex poisoned");
        loop {
            if let Some(msg) = inner.messages.pop_front() {
                if matches!(msg, MonitorMsg::Record { .. }) {
                    inner.records -= 1;
                    self.not_full.notify_one();
                }
                return msg;
            }
            inner = self
                .not_empty
                .wait_timeout(inner, POLL_INTERVAL)
                .expect("queue mutex poisoned")
                .0;
        }
    }

    fn dropped(&self) -> DropCounters {
        self.inner.lock().expect("queue mutex poisoned").dropped
    }

    /// Records currently waiting (the monitor's backlog, in batches).
    fn backlog(&self) -> usize {
        self.inner.lock().expect("queue mutex poisoned").records
    }
}

/// Latest-wins single-value mailbox from the monitor thread to the score
/// path: replacement predictors and repair-ladder publications. An
/// unconsumed older value is simply superseded, which is safe because both
/// carry *absolute* state (a whole model; a full threshold vector and
/// projection, never deltas).
struct Slot<T>(Mutex<Option<T>>);

impl<T> Slot<T> {
    fn empty() -> Self {
        Slot(Mutex::new(None))
    }

    /// The slot's contents. A panicked holder cannot leave an `Option`
    /// half-written, so a poisoned lock is recovered as-is.
    fn lock(&self) -> MutexGuard<'_, Option<T>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Publish a value, superseding any unconsumed predecessor.
    fn publish(&self, value: T) {
        let superseded = self.lock().replace(value);
        // Dropped here, after the guard: freeing a model never holds up
        // the score path's pickup.
        drop(superseded);
    }

    /// Take the pending value without blocking (score path). If the
    /// monitor holds the lock right now, pickup waits for the next batch.
    fn try_take(&self) -> Option<T> {
        match self.0.try_lock() {
            Ok(mut value) => value.take(),
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner().take(),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Take the pending value, waiting out a concurrent publish (`flush`,
    /// where the pickup must not be missed).
    fn take(&self) -> Option<T> {
        self.lock().take()
    }
}

/// The monitor thread's published view, refreshed after every processed
/// record. Read under a short mutex by the observability accessors — never
/// by the score path.
struct PublishedState {
    snapshot: FairnessSnapshot,
    counts: Vec<GroupCounts>,
    window_len: usize,
    seen: u64,
    retrains: u64,
    /// A second copy of the monitor's alert log, so `alerts()` never has
    /// to round-trip to the monitor thread. Alert volume is bounded by
    /// the detectors' cooldown hysteresis (at most one alert per group
    /// per `cooldown`/`floor_cooldown` tuples), so the duplication stays
    /// small relative to the traffic that produced it.
    alerts: Vec<DriftAlert>,
    /// The most recent failed repair episodes, oldest first — a bounded
    /// ring ([`RETRAIN_ERROR_CAP`]) so a persistently failing retrain
    /// cannot grow memory without bound; `retrain_failures` keeps the
    /// cumulative count.
    retrain_errors: VecDeque<StreamError>,
    /// Failed repair *episodes* ever, including those whose errors have
    /// rotated out of the ring.
    retrain_failures: u64,
    monitor_error: Option<StreamError>,
    /// Label-plane observability: cumulative join counters and the
    /// pending-join backlog, refreshed with every record and feedback
    /// message the monitor processes.
    joins: JoinStats,
    pending_labels: usize,
    /// The rung of the open repair-ladder episode per the monitor's latest
    /// published state (`None` while the ladder is idle or disabled).
    repair_tier: Option<RepairTier>,
}

/// Most recent retrain errors retained in the published ring.
const RETRAIN_ERROR_CAP: usize = 32;

impl PublishedState {
    /// Reset the monitoring view to a recovery clone's state (the dead
    /// incarnation's unpublished progress is part of the gap). Cumulative
    /// operational history — retrain errors/failures, the monitor-error
    /// diagnostic — is deliberately kept: those events really happened.
    fn reset_from(&mut self, monitor: &Monitor) {
        self.snapshot = monitor.snapshot();
        self.counts = monitor.window_counts().to_vec();
        self.window_len = monitor.window_len();
        self.seen = monitor.tuples_seen();
        self.retrains = monitor.retrain_count();
        self.alerts = monitor.alerts().to_vec();
        self.joins = monitor.join_stats();
        self.pending_labels = monitor.pending_labels();
        self.repair_tier = monitor.repair_tier();
    }
}

/// The supervisor's view of the monitor thread, updated by both sides:
/// the monitor thread refreshes the recovery clone, the serving side
/// (which owns the join handle) detects deaths and respawns.
struct Supervision {
    /// A coherent clone of the monitor half, seeded before the first
    /// spawn and refreshed by the monitor thread every
    /// [`SupervisorConfig::clone_interval`] records — what a respawn
    /// resumes from.
    recovery: Option<Box<Monitor>>,
    /// Times a dead monitor thread has been respawned.
    restarts: u64,
    /// When the pending respawn is allowed to happen (`Some` while
    /// health is [`ShardHealth::Restarting`]).
    next_restart_at: Option<std::time::Instant>,
    /// Seeded-jitter respawn backoff, shared across this engine's whole
    /// restart budget (it resets only with the engine).
    backoff: Backoff,
    health: ShardHealth,
    /// Cumulative tuples scored but never monitored because they fell
    /// into a monitor-death gap (lost with a dead incarnation's
    /// un-cloned progress, or served unmonitored during restart backoff).
    gap_tuples: u64,
}

/// Everything the two sides share.
struct Shared {
    queue: BoundedQueue,
    model: Slot<Box<dyn Predictor>>,
    repair: Slot<RepairUpdate>,
    stats: Mutex<PublishedState>,
    sup: Mutex<Supervision>,
    /// Records between recovery-clone refreshes on the monitor thread.
    clone_every: u32,
    /// The last drop counters acknowledged by a drop event on the trail.
    /// Lives here — not on the monitor thread's stack — so the baseline
    /// survives a respawn (no re-emission of already-reported drops) and
    /// starts at zero from engine construction (drops racing ahead of a
    /// freshly spawned thread's first poll are still diffed and emitted).
    dropped_reported: Mutex<DropCounters>,
}

/// The asynchronous serving engine: `ingest` returns decisions straight
/// off the forward pass while a background thread owns the
/// [`Monitor`] half and performs the window, detector, and
/// retrain work behind a bounded queue.
///
/// # Example
///
/// ```
/// use cf_datasets::stream::{DriftStream, DriftStreamSpec};
/// use cf_learners::LearnerKind;
/// use cf_stream::{AsyncConfig, AsyncEngine, StreamConfig, StreamTuple};
/// use confair_core::confair::{AlphaMode, ConFairConfig};
///
/// let spec = DriftStreamSpec::default();
/// let reference = spec.reference(600, 7);
/// let config = StreamConfig {
///     window: 256,
///     confair: ConFairConfig {
///         alpha: AlphaMode::Fixed { alpha_u: 2.0, alpha_w: 1.0 },
///         ..ConFairConfig::default()
///     },
///     ..StreamConfig::default()
/// };
/// let mut engine = AsyncEngine::from_reference(
///     &reference, LearnerKind::Logistic, 7, config, AsyncConfig::default())?;
///
/// let mut stream = DriftStream::new(spec, 1);
/// let batch = StreamTuple::rows_from_dataset(&stream.next_batch(100))?;
/// // Decisions come back without waiting for any monitoring work…
/// let decisions = engine.ingest(&batch)?;
/// assert_eq!(decisions.len(), 100);
/// // …and `flush` is the barrier that makes the monitor's view current.
/// engine.flush()?;
/// assert_eq!(engine.tuples_monitored(), 100);
/// println!("{}", engine.snapshot());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct AsyncEngine {
    /// `Some` until the engine is consumed by [`AsyncEngine::into_engine`]
    /// (the `Option` lets that method move the scorer out from under the
    /// `Drop` impl).
    scorer: Option<Scorer>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<Monitor>>,
    async_config: AsyncConfig,
    stream_config: StreamConfig,
    scored: u64,
    /// Serving-side metrics handles (latency histogram, backlog/lag/drop
    /// gauges); the monitor thread holds its own clone for its half.
    metrics: Option<StreamMetrics>,
}

impl AsyncEngine {
    /// Bootstrap an async engine from reference data — a
    /// [`StreamEngine::from_reference`] whose halves are then split across
    /// the queue.
    pub fn from_reference(
        reference: &Dataset,
        learner: LearnerKind,
        seed: u64,
        config: StreamConfig,
        async_config: AsyncConfig,
    ) -> Result<Self> {
        Ok(Self::from_engine(
            StreamEngine::from_reference(reference, learner, seed, config)?,
            async_config,
        ))
    }

    /// Split a synchronous engine into the async pipeline: the scorer
    /// stays with the caller, the monitor moves to a background thread.
    /// The engine's observable state (window, alerts, clocks) carries over
    /// exactly: `tuples_scored` starts at the engine's ingested-tuple
    /// clock (everything previously ingested was both scored and
    /// monitored), so `monitor_lag` reads 0 until new batches arrive.
    pub fn from_engine(engine: StreamEngine, async_config: AsyncConfig) -> Self {
        // Clamp once, up front, so the stored config (what `async_config()`
        // reports) always matches the bound the queue actually enforces.
        let async_config = AsyncConfig {
            queue_depth: async_config.queue_depth.max(1),
            ..async_config
        };
        let (scorer, monitor) = engine.into_parts();
        let metrics = monitor.metrics.clone();
        let stream_config = monitor.config().clone();
        // The scorer inherits the engine's id clock (not `tuples_seen`:
        // an engine that dropped records under earlier backpressure has
        // issued more ids than it monitored).
        let scored = monitor.ids_issued();
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(async_config.queue_depth),
            model: Slot::empty(),
            repair: Slot::empty(),
            stats: Mutex::new(PublishedState {
                snapshot: monitor.snapshot(),
                counts: monitor.window_counts().to_vec(),
                window_len: monitor.window_len(),
                seen: monitor.tuples_seen(),
                retrains: monitor.retrain_count(),
                alerts: monitor.alerts().to_vec(),
                retrain_errors: VecDeque::new(),
                retrain_failures: 0,
                monitor_error: None,
                joins: monitor.join_stats(),
                pending_labels: monitor.pending_labels(),
                repair_tier: monitor.repair_tier(),
            }),
            sup: Mutex::new(Supervision {
                // Seed the recovery clone *before* the first spawn, so a
                // monitor that dies on its very first record is still
                // recoverable.
                recovery: Some(Box::new(monitor.clone())),
                restarts: 0,
                next_restart_at: None,
                backoff: async_config.supervisor.backoff(),
                health: ShardHealth::Live,
                gap_tuples: 0,
            }),
            clone_every: async_config.supervisor.clone_interval(),
            dropped_reported: Mutex::new(DropCounters::default()),
        });
        let handle = spawn_monitor(monitor, &shared);
        AsyncEngine {
            scorer: Some(scorer),
            shared,
            handle: Some(handle),
            async_config,
            stream_config,
            scored,
            metrics,
        }
    }

    /// Rebuild an async engine from a checkpoint (same format and
    /// validation as [`StreamEngine::restore`]; checkpoints do not record
    /// the queue because [`AsyncEngine::checkpoint`] drains it first).
    ///
    /// `tuples_scored` restarts at the monitor's restored clock, so the
    /// scored/monitored lag reads 0 on a fresh restore — exactly the
    /// quiescent state the checkpoint captured.
    pub fn restore(ckpt: EngineCheckpoint, async_config: AsyncConfig) -> Result<Self> {
        Ok(Self::from_engine(
            StreamEngine::restore(ckpt)?,
            async_config,
        ))
    }

    /// [`AsyncEngine::restore`] with a telemetry sink installed before the
    /// monitor thread starts, so the trail opens with the `"restored"`
    /// checkpoint event that re-anchors a replay mid-trail.
    pub fn restore_with_sink(
        ckpt: EngineCheckpoint,
        sink: SharedSink,
        async_config: AsyncConfig,
    ) -> Result<Self> {
        Ok(Self::from_engine(
            StreamEngine::restore_with_sink(ckpt, sink)?,
            async_config,
        ))
    }

    /// Install a telemetry sink on the background monitor. The change
    /// travels the queue as a control message, so it takes effect in FIFO
    /// order: records already enqueued are emitted (or not) under the sink
    /// that was installed when they were scored.
    ///
    /// # Errors
    /// [`StreamError::Async`] when the monitor thread is gone.
    pub fn set_sink(&mut self, sink: SharedSink) -> Result<()> {
        self.supervise(false)?;
        self.shared
            .queue
            .push_control(MonitorMsg::SetSink(Some(sink)));
        Ok(())
    }

    /// Remove the monitor's telemetry sink (FIFO-ordered, like
    /// [`AsyncEngine::set_sink`]).
    ///
    /// # Errors
    /// [`StreamError::Async`] when the monitor thread is gone.
    pub fn clear_sink(&mut self) -> Result<()> {
        self.supervise(false)?;
        self.shared.queue.push_control(MonitorMsg::SetSink(None));
        Ok(())
    }

    /// Register this engine's instruments on `registry` and start keeping
    /// them fresh: the serving half updates the ingest-latency histogram
    /// and the backlog/lag/drop gauges, the monitor thread the
    /// alert/retrain/join instruments.
    ///
    /// # Errors
    /// [`StreamError::Async`] when the monitor thread is gone.
    pub fn install_metrics(&mut self, registry: &MetricsRegistry) -> Result<()> {
        self.set_metrics(StreamMetrics::register(registry))
    }

    /// Install pre-registered metrics handles (the sharded router's path,
    /// where each shard's instruments carry a `shard` label).
    ///
    /// # Errors
    /// [`StreamError::Async`] when the monitor thread is gone.
    pub fn set_metrics(&mut self, metrics: StreamMetrics) -> Result<()> {
        self.supervise(false)?;
        self.shared
            .queue
            .push_control(MonitorMsg::SetMetrics(metrics.clone()));
        self.metrics = Some(metrics);
        self.refresh_serving_metrics();
        Ok(())
    }

    /// The metrics handles installed on this engine, if any.
    pub fn metrics(&self) -> Option<&StreamMetrics> {
        self.metrics.as_ref()
    }

    /// Refresh the serving-side gauges (queue backlog, monitor lag, drop
    /// counters).
    fn refresh_serving_metrics(&self) {
        if let Some(m) = &self.metrics {
            m.queue_backlog.set_u64(self.shared.queue.backlog() as u64);
            m.monitor_lag.set_u64(self.monitor_lag());
            let dropped = self.dropped();
            m.dropped_batches.set_u64(dropped.batches);
            m.dropped_tuples.set_u64(dropped.tuples);
        }
    }

    /// Score one micro-batch and return its decisions immediately; the
    /// monitoring work (window, detectors, floor check, on-alert retrain)
    /// happens on the background thread after this call returns.
    ///
    /// The batch is copied once onto the queue; use
    /// [`AsyncEngine::ingest_owned`] to hand the tuples over without the
    /// copy.
    ///
    /// # Errors
    /// Validation errors reject the whole batch before anything is scored
    /// or enqueued, exactly as in the sync engine;
    /// [`StreamError::Async`] only once the monitor thread has died
    /// *and* the supervisor's restart budget is exhausted
    /// ([`ShardHealth::Dead`]). While restarts remain, a monitor death
    /// never fails `ingest`: decisions keep flowing, and tuples served
    /// during the restart window are accounted as a monitoring gap
    /// ([`AsyncEngine::monitor_gap_tuples`]).
    pub fn ingest(&mut self, batch: &[StreamTuple]) -> Result<Vec<u8>> {
        self.ingest_owned(batch.to_vec())
    }

    /// [`AsyncEngine::ingest`] without the queue-bound copy: the batch is
    /// moved onto the queue after scoring.
    pub fn ingest_owned(&mut self, batch: Vec<StreamTuple>) -> Result<Vec<u8>> {
        validate_batch(&batch, self.scorer().schema(), &self.stream_config)?;
        self.ingest_prevalidated_owned(batch)
    }

    /// Score + enqueue after validation (shared with the sharded router,
    /// which validates whole mixed batches itself).
    pub(crate) fn ingest_prevalidated_owned(&mut self, batch: Vec<StreamTuple>) -> Result<Vec<u8>> {
        self.supervise(false)?;
        let started = self.metrics.as_ref().map(|_| std::time::Instant::now());
        self.install_published(false);
        let decisions = self.scorer_mut().score(&batch)?;
        if batch.is_empty() {
            // Nothing to monitor; the sync engine's empty ingest is a
            // no-op on state too.
            return Ok(decisions);
        }
        let n = batch.len() as u64;
        if self.health() == ShardHealth::Restarting {
            // The monitor is between incarnations: serve unmonitored
            // rather than block or fail. These tuples burn ids but never
            // reach a queue, so the gap arithmetic at respawn counts
            // them automatically.
            self.scored += n;
            self.refresh_serving_metrics();
            return Ok(decisions);
        }
        if let Err(push_err) = self.shared.queue.push_record(
            self.scored,
            batch,
            decisions.clone(),
            self.async_config.backpressure,
        ) {
            // The consumer died between the liveness check and the push.
            // The batch was served either way, so burn its ids *first* —
            // the tuples never reached a queue, which makes them gap
            // tuples at the respawn the supervisor now schedules (or
            // performs). Only a dead budget surfaces as an error.
            self.scored += n;
            self.supervise(false).map_err(|_| push_err)?;
            self.refresh_serving_metrics();
            return Ok(decisions);
        }
        self.scored += n;
        if let (Some(m), Some(started)) = (&self.metrics, started) {
            m.record_ingest(started.elapsed(), n);
        }
        self.refresh_serving_metrics();
        Ok(decisions)
    }

    /// Join late ground truth into the label plane: the records are
    /// enqueued as a control-plane message behind everything already
    /// scored (FIFO, never dropped, exempt from the queue bound) and the
    /// background monitor applies them in order. Observable after a
    /// [`AsyncEngine::flush`] via [`AsyncEngine::join_stats`],
    /// [`AsyncEngine::snapshot`], and the label-plane counters.
    ///
    /// Tuple `k` of an `ingest` batch has id `tuples_scored()-before + k`;
    /// ids of records dropped under [`BackpressurePolicy::DropOldest`]
    /// were never monitored, so their feedback counts as unmatched rather
    /// than erroring.
    ///
    /// # Errors
    /// [`StreamError::BadLabel`] for a non-binary label,
    /// [`StreamError::FutureFeedback`] for an id not scored yet (both
    /// validated here, synchronously, before anything is enqueued);
    /// [`StreamError::Async`] when the monitor thread is gone.
    pub fn feedback(&mut self, feedback: &[LabelFeedback]) -> Result<()> {
        self.supervise(false)?;
        for record in feedback {
            validate_feedback(record, self.scored)?;
        }
        if feedback.is_empty() {
            return Ok(());
        }
        self.shared
            .queue
            .push_control(MonitorMsg::Feedback(feedback.to_vec()));
        Ok(())
    }

    /// Barrier: block until every record enqueued so far has been fully
    /// processed (including any retrain it triggered), then install any
    /// model the monitor published. After `flush`, the engine's
    /// observable state is byte-identical to a synchronous engine fed the
    /// same batches.
    ///
    /// # Errors
    /// [`StreamError::Async`] only once the restart budget is exhausted:
    /// a monitor death mid-flush is respawned (immediately — a barrier
    /// wants quiescence, not backoff pacing) and the flush retried, each
    /// death charging the same bounded budget.
    pub fn flush(&mut self) -> Result<()> {
        loop {
            self.supervise(true)?;
            let (ack_tx, ack_rx) = mpsc::channel();
            self.shared.queue.push_control(MonitorMsg::Flush(ack_tx));
            // A dead consumer leaves the un-acked barrier in the queue;
            // the respawned one (next iteration) acks it into a dropped
            // receiver, which is harmless.
            if self.recv_from_monitor(&ack_rx, "flush").is_ok() {
                break;
            }
        }
        self.install_published(true);
        self.refresh_serving_metrics();
        Ok(())
    }

    /// Install the latest retrained model and repair-ladder publication
    /// (threshold nudges, projection installs) the monitor has published.
    /// The score path passes `wait = false` and never blocks: no lock is
    /// held around the model parameters while scoring, and a slot the
    /// monitor is publishing into right now is picked up on the next
    /// batch. `flush` waits, so nothing published before it is missed.
    fn install_published(&mut self, wait: bool) {
        let (model, update) = if wait {
            (self.shared.model.take(), self.shared.repair.take())
        } else {
            (self.shared.model.try_take(), self.shared.repair.try_take())
        };
        if let Some(model) = model {
            self.scorer_mut().install(model);
        }
        if let Some(update) = update {
            self.scorer_mut().apply_repair(update);
        }
    }

    /// Wait for the monitor thread's reply to a control message, bailing
    /// out with a typed error if the thread dies first. A plain `recv()`
    /// would hang: the un-acked sender sits *inside* the engine-held
    /// queue, so it is never dropped when the consumer is gone.
    fn recv_from_monitor<T>(&self, rx: &mpsc::Receiver<T>, during: &str) -> Result<T> {
        let dead = || StreamError::Async(format!("monitor thread terminated during {during}"));
        loop {
            match rx.recv_timeout(POLL_INTERVAL) {
                Ok(value) => return Ok(value),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shared.queue.is_closed() {
                        return Err(dead());
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(dead()),
            }
        }
    }

    /// Drain to a quiescent point and capture the complete engine state as
    /// a versioned [`EngineCheckpoint`] — the same document
    /// [`StreamEngine::checkpoint`] writes, so sync and async engines
    /// restore each other's checkpoints interchangeably.
    ///
    /// The flush-first contract is what keeps restores bit-identical: no
    /// record is in flight when the monitor clone is taken, so the
    /// document never captures a window the scorer is ahead of.
    ///
    /// # Errors
    /// [`StreamError::Async`] when the monitor thread is gone;
    /// [`StreamError::Checkpoint`] when the predictor does not support
    /// serialisation.
    pub fn checkpoint(&mut self) -> Result<EngineCheckpoint> {
        let monitor = loop {
            self.flush()?;
            let (tx, rx) = mpsc::channel();
            self.shared.queue.push_control(MonitorMsg::Checkpoint(tx));
            // A death between the flush ack and the state reply re-runs
            // both (each death bounded by the restart budget).
            if let Ok(monitor) = self.recv_from_monitor(&rx, "checkpoint") {
                break monitor;
            }
        };
        // The clone shares the live monitor's sink (it is an `Arc`), so
        // the `"taken"` marker lands on the same trail — at the quiescent
        // point the flush above established.
        monitor.emit(crate::checkpoint::checkpoint_event(&monitor, "taken"));
        checkpoint_from_parts(self.scorer(), &monitor)
    }

    /// Shut the pipeline down and reunite the halves into a synchronous
    /// [`StreamEngine`] carrying the exact same state (flushes first, so
    /// nothing in flight is lost).
    ///
    /// # Errors
    /// [`StreamError::Async`] when the monitor thread is gone or panicked.
    pub fn into_engine(mut self) -> Result<StreamEngine> {
        self.flush()?;
        let handle = self
            .handle
            .take()
            .ok_or_else(|| StreamError::Async("monitor thread already shut down".into()))?;
        self.shared.queue.push_control(MonitorMsg::Shutdown);
        let monitor = handle
            .join()
            .map_err(|_| StreamError::Async("monitor thread panicked".into()))?;
        let scorer = self.scorer.take().expect("scorer present until consumed");
        StreamEngine::from_parts(scorer, monitor)
    }

    /// Tuples scored (and therefore served) by this engine.
    pub fn tuples_scored(&self) -> u64 {
        self.scored
    }

    /// Tuples the background monitor has fully processed so far.
    pub fn tuples_monitored(&self) -> u64 {
        self.stats(|s| s.seen)
    }

    /// How far the monitor lags the scorer, in tuples. 0 after a
    /// [`AsyncEngine::flush`] (tuples dropped under
    /// [`BackpressurePolicy::DropOldest`] and tuples lost to
    /// monitor-death gaps are subtracted — they will never be monitored).
    pub fn monitor_lag(&self) -> u64 {
        self.scored.saturating_sub(
            self.stats(|s| s.seen) + self.dropped().tuples + self.monitor_gap_tuples(),
        )
    }

    /// Records currently waiting in the queue (the monitor's backlog).
    pub fn queue_backlog(&self) -> usize {
        self.shared.queue.backlog()
    }

    /// Batches/tuples discarded under [`BackpressurePolicy::DropOldest`]
    /// (always zero under [`BackpressurePolicy::Block`]).
    pub fn dropped(&self) -> DropCounters {
        self.shared.queue.dropped()
    }

    /// The monitor's latest published label-join counters (current after a
    /// [`AsyncEngine::flush`]).
    pub fn join_stats(&self) -> JoinStats {
        self.stats(|s| s.joins)
    }

    /// Evicted decisions currently awaiting labels in the monitor's
    /// pending-join index, per its latest published state.
    pub fn pending_labels(&self) -> usize {
        self.stats(|s| s.pending_labels)
    }

    /// The monitor's latest published fairness reading. Lags the scorer by
    /// at most the queue backlog; current after a [`AsyncEngine::flush`].
    pub fn snapshot(&self) -> FairnessSnapshot {
        self.stats(|s| s.snapshot.clone())
    }

    /// The monitor's latest published per-cell window counters
    /// (index = group cell id).
    pub fn window_counts(&self) -> Vec<GroupCounts> {
        self.stats(|s| s.counts.clone())
    }

    /// Tuples currently retained in the monitor's window.
    pub fn window_len(&self) -> usize {
        self.stats(|s| s.window_len)
    }

    /// Every alert raised so far, in stream order (cloned out of the
    /// published state; the log itself lives with the monitor thread).
    pub fn alerts(&self) -> Vec<DriftAlert> {
        self.stats(|s| s.alerts.clone())
    }

    /// How many times the on-alert retraining hook has run.
    pub fn retrain_count(&self) -> u64 {
        self.stats(|s| s.retrains)
    }

    /// Errors from the most recent failed repair episodes, oldest first.
    /// The sync engine reports these per batch in
    /// [`IngestOutcome::retrain_error`](crate::IngestOutcome); here they
    /// accumulate because the failing batch was already served when the
    /// retrain ran — bounded to the last `RETRAIN_ERROR_CAP` (32) so a
    /// persistently failing retrain cannot grow memory without limit
    /// ([`AsyncEngine::retrain_failure_count`] keeps the total).
    pub fn retrain_errors(&self) -> Vec<StreamError> {
        self.stats(|s| s.retrain_errors.iter().cloned().collect())
    }

    /// Failed repair episodes ever, including those whose errors have
    /// rotated out of the [`AsyncEngine::retrain_errors`] ring.
    pub fn retrain_failure_count(&self) -> u64 {
        self.stats(|s| s.retrain_failures)
    }

    /// Whether the monitor's latest published state reports degraded
    /// mode (a repair episode exhausted its budget; the stale model
    /// keeps serving). Current after a [`AsyncEngine::flush`].
    pub fn is_degraded(&self) -> bool {
        self.stats(|s| s.snapshot.degraded)
    }

    /// The rung of the open repair-ladder episode per the monitor's
    /// latest published state (current after a [`AsyncEngine::flush`];
    /// `None` while the ladder is idle or disabled).
    pub fn repair_tier(&self) -> Option<RepairTier> {
        self.stats(|s| s.repair_tier)
    }

    /// The per-cell serve-time margin cutoffs the *scorer* currently
    /// applies (the serving-side truth; all zeros means the model's
    /// native boundary).
    pub fn repair_thresholds(&self) -> &[f64] {
        self.scorer().repair_thresholds()
    }

    /// Whether the tier-2 conformance projection is installed on the
    /// serving path.
    pub fn repair_projection_active(&self) -> bool {
        self.scorer().repair_projection()
    }

    /// A monitoring-side failure, if one ever occurred (record shape
    /// errors are impossible for validated input, so this is a
    /// should-never-happen diagnostic, kept visible rather than
    /// swallowed).
    pub fn monitor_error(&self) -> Option<StreamError> {
        self.stats(|s| s.monitor_error.clone())
    }

    /// The stream configuration the engine was built with.
    pub fn config(&self) -> &StreamConfig {
        &self.stream_config
    }

    /// The async pipeline configuration (queue depth, backpressure).
    pub fn async_config(&self) -> &AsyncConfig {
        &self.async_config
    }

    /// The reference schema's column names.
    pub fn schema(&self) -> &[String] {
        self.scorer().schema()
    }

    fn scorer(&self) -> &Scorer {
        self.scorer.as_ref().expect("scorer present until consumed")
    }

    fn scorer_mut(&mut self) -> &mut Scorer {
        self.scorer.as_mut().expect("scorer present until consumed")
    }

    fn stats<R>(&self, read: impl FnOnce(&PublishedState) -> R) -> R {
        read(&self.shared.stats.lock().expect("stats mutex poisoned"))
    }

    /// The supervisor: make sure a monitor thread is (or will be) running.
    ///
    /// The fast path — thread alive — is two atomic loads. On a detected
    /// death the dead handle is reaped, one restart attempt is charged
    /// against [`SupervisorConfig::max_restarts`], and the respawn is
    /// scheduled behind the seeded backoff. Until that deadline the
    /// engine keeps *serving*: health reads [`ShardHealth::Restarting`]
    /// and `ingest` skips the queue (the skipped tuples are accounted as
    /// gap at respawn). A respawn resumes from the last recovery clone,
    /// reopens the queue (retained records are drained in order), resets
    /// the published view to the clone, and emits a
    /// [`TelemetryEvent::MonitorRestart`] that re-anchors a replayed
    /// trail at the clone's absolute counters.
    ///
    /// `force` (the flush/checkpoint path) respawns immediately instead
    /// of waiting out the backoff — a barrier wants quiescence, not
    /// pacing, and the restart budget still bounds a crash loop.
    ///
    /// # Errors
    /// [`StreamError::Async`] once the budget is exhausted: health is
    /// [`ShardHealth::Dead`] and stays there.
    fn supervise(&mut self, force: bool) -> Result<()> {
        if let Some(handle) = &self.handle {
            if !handle.is_finished() && !self.shared.queue.is_closed() {
                return Ok(());
            }
        }
        let dead_err = || {
            StreamError::Async("the monitor thread died and the restart budget is exhausted".into())
        };
        // Reap the dead incarnation. Its panic payload (if any) already
        // went through the panic hook; the supervisor only needs the
        // thread gone before a replacement takes the queue.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        let mut sup = self.shared.sup.lock().expect("supervision mutex poisoned");
        if sup.health == ShardHealth::Dead {
            return Err(dead_err());
        }
        let now = std::time::Instant::now();
        let deadline = match sup.next_restart_at {
            Some(deadline) => deadline,
            None => {
                // First detection of this death: charge one restart
                // attempt and schedule the respawn behind the backoff.
                if sup.restarts >= u64::from(self.async_config.supervisor.max_restarts) {
                    sup.health = ShardHealth::Dead;
                    return Err(dead_err());
                }
                sup.health = ShardHealth::Restarting;
                let deadline = now + sup.backoff.next_delay();
                sup.next_restart_at = Some(deadline);
                deadline
            }
        };
        if !force && now < deadline {
            // Not yet: keep serving unmonitored through the backoff
            // window. The skipped tuples are captured by the gap
            // arithmetic at respawn.
            return Ok(());
        }
        // Respawn from the recovery clone (which stays in place — if the
        // replacement dies before its first clone refresh, the next
        // respawn resumes from the same point; injected fault schedules
        // share their counters across clones, so a scheduled panic fires
        // once, not once per incarnation).
        let monitor = sup
            .recovery
            .as_ref()
            .expect("recovery clone is seeded before the first spawn")
            .clone();
        // Every id ever issued is exactly one of: monitored along the
        // surviving lineage (`clone.tuples_seen()`), dropped under
        // backpressure, still queued (the respawned monitor will drain
        // it), or gone — the gap.
        let gap = self
            .scored
            .saturating_sub(self.shared.queue.dropped().tuples)
            .saturating_sub(self.shared.queue.queued_tuple_count())
            .saturating_sub(monitor.tuples_seen());
        sup.gap_tuples += gap;
        sup.restarts += 1;
        sup.health = ShardHealth::Live;
        sup.next_restart_at = None;
        let restarts = sup.restarts;
        let gap_total = sup.gap_tuples;
        drop(sup);
        {
            let mut stats = self.shared.stats.lock().expect("stats mutex poisoned");
            stats.reset_from(&monitor);
        }
        // The restart marker lands before the respawned thread processes
        // anything (the dead consumer is reaped, so nothing else emits),
        // carrying the clone's absolute counters — the same re-anchor
        // mechanism a "restored" checkpoint event uses.
        monitor.emit(TelemetryEvent::MonitorRestart(MonitorRestartEvent {
            at_tuple: monitor.tuples_seen(),
            restarts,
            gap_tuples: gap,
            resumed_from: monitor.ids_issued(),
            counters: crate::telemetry::both_counters(monitor.window_counts()),
            di_floor: monitor.config().di_floor,
            degraded: monitor.is_degraded(),
        }));
        if let Some(m) = &self.metrics {
            m.monitor_restarts.set_u64(restarts);
            m.monitor_gap_tuples.set_u64(gap_total);
        }
        self.shared.queue.reopen();
        self.handle = Some(spawn_monitor(*monitor, &self.shared));
        Ok(())
    }

    /// This engine's monitor-thread health: [`ShardHealth::Live`] under
    /// normal operation, [`ShardHealth::Restarting`] while a respawn
    /// waits out its backoff (serving continues, unmonitored), and
    /// [`ShardHealth::Dead`] — permanently — once the restart budget is
    /// exhausted.
    pub fn health(&self) -> ShardHealth {
        self.shared
            .sup
            .lock()
            .expect("supervision mutex poisoned")
            .health
    }

    /// Times the supervisor respawned a dead monitor thread.
    pub fn monitor_restarts(&self) -> u64 {
        self.shared
            .sup
            .lock()
            .expect("supervision mutex poisoned")
            .restarts
    }

    /// Cumulative tuples scored but never monitored because they fell
    /// into a monitor-death gap. Every one of them is accounted in the
    /// audit trail by a `monitor_restart` event's `gap_tuples`.
    pub fn monitor_gap_tuples(&self) -> u64 {
        self.shared
            .sup
            .lock()
            .expect("supervision mutex poisoned")
            .gap_tuples
    }
}

impl Drop for AsyncEngine {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.queue.push_control(MonitorMsg::Shutdown);
            // A panicked monitor already detached; nothing to salvage in
            // `drop`.
            let _ = handle.join();
        }
    }
}

/// Spawn the background consumer for `shared`'s queue — used for the
/// first spawn and for every supervisor respawn, so both incarnations
/// behave identically (including the close-on-exit guard that lets
/// blocked producers and the supervisor detect a death).
fn spawn_monitor(monitor: Monitor, shared: &Arc<Shared>) -> JoinHandle<Monitor> {
    let thread_shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name("cf-stream-monitor".into())
        .spawn(move || {
            // Close the queue on *any* exit — clean shutdown or a
            // panic unwinding this thread — so producers blocked on
            // backpressure or a flush ack fail fast instead of
            // hanging (the guard's Drop runs during unwinding too).
            struct CloseOnExit<'a>(&'a BoundedQueue);
            impl Drop for CloseOnExit<'_> {
                fn drop(&mut self) {
                    self.0.close();
                }
            }
            let _guard = CloseOnExit(&thread_shared.queue);
            monitor_loop(monitor, &thread_shared)
        })
        .expect("spawn monitor thread")
}

/// The single-consumer monitor loop: drain records in order, publish
/// refreshed state, answer control messages, return the monitor on
/// shutdown.
fn monitor_loop(mut monitor: Monitor, shared: &Shared) -> Monitor {
    // Records evicted under `DropOldest` vanish from the queue without
    // ever reaching the monitor, so the trail learns about them here —
    // by diffing the queue's counters against `shared.dropped_reported`
    // before processing each surviving message, which places the drop
    // event at its queue-order position. The baseline lives in `Shared`
    // (not on this stack) so drops racing ahead of a freshly spawned
    // thread are still diffed, and a respawn never re-emits drops its
    // dead predecessor already reported.
    //
    // Records since the recovery clone was last refreshed; the clone is
    // the supervisor's respawn point, so the interval bounds how much
    // monitoring progress one thread death can lose.
    let mut since_clone: u32 = 0;
    loop {
        let msg = shared.queue.pop();
        let dropped_now = shared.queue.dropped();
        {
            let mut reported = shared
                .dropped_reported
                .lock()
                .expect("drop-baseline mutex poisoned");
            if dropped_now != *reported {
                monitor.emit(TelemetryEvent::Drop(DropEvent {
                    at_tuple: monitor.tuples_seen(),
                    batches: dropped_now.batches,
                    tuples: dropped_now.tuples,
                }));
                if let Some(m) = &monitor.metrics {
                    m.dropped_batches.set_u64(dropped_now.batches);
                    m.dropped_tuples.set_u64(dropped_now.tuples);
                }
                *reported = dropped_now;
            }
        }
        match msg {
            MonitorMsg::Record {
                first_id,
                tuples,
                decisions,
            } => {
                // The deterministic monitor-death seam: an installed
                // fault plan can kill this thread here, before the
                // record is folded in — the supervisor's job is to make
                // that invisible to serving.
                #[cfg(feature = "fault-injection")]
                monitor.observe_failpoint();
                match monitor.observe_with_ids(&tuples, &decisions, first_id) {
                    Ok(outcome) => {
                        if let Some(model) = outcome.model {
                            shared.model.publish(model);
                            // The swap slot is the async engine's publication
                            // point, so the swap event is emitted here — after
                            // repair_end, exactly as the sync engine orders it.
                            monitor.emit_model_swap();
                        }
                        if let Some(update) = outcome.repair {
                            shared.repair.publish(update);
                        }
                        let mut stats = shared.stats.lock().expect("stats mutex poisoned");
                        stats.snapshot = outcome.snapshot;
                        stats.counts = monitor.window_counts().to_vec();
                        stats.window_len = monitor.window_len();
                        stats.seen = monitor.tuples_seen();
                        stats.retrains = monitor.retrain_count();
                        stats.alerts.extend_from_slice(&outcome.alerts);
                        stats.joins = monitor.join_stats();
                        stats.pending_labels = monitor.pending_labels();
                        stats.repair_tier = monitor.repair_tier();
                        if let Some(e) = outcome.retrain_error {
                            if stats.retrain_errors.len() == RETRAIN_ERROR_CAP {
                                stats.retrain_errors.pop_front();
                            }
                            stats.retrain_errors.push_back(e);
                            stats.retrain_failures += 1;
                        }
                    }
                    Err(e) => {
                        let mut stats = shared.stats.lock().expect("stats mutex poisoned");
                        if stats.monitor_error.is_none() {
                            stats.monitor_error = Some(e);
                        }
                    }
                }
                since_clone += 1;
                if since_clone >= shared.clone_every {
                    since_clone = 0;
                    let clone = Box::new(monitor.clone());
                    shared
                        .sup
                        .lock()
                        .expect("supervision mutex poisoned")
                        .recovery = Some(clone);
                }
            }
            MonitorMsg::Feedback(records) => {
                // Ids in a dropped record's range resolve as unmatched
                // inside the join, so validated feedback cannot fail here
                // except through the should-never-happen diagnostic path.
                match monitor.feedback(&records) {
                    Ok(outcome) => {
                        let mut stats = shared.stats.lock().expect("stats mutex poisoned");
                        stats.snapshot = outcome.snapshot;
                        stats.counts = monitor.window_counts().to_vec();
                        stats.joins = monitor.join_stats();
                        stats.pending_labels = monitor.pending_labels();
                    }
                    Err(e) => {
                        let mut stats = shared.stats.lock().expect("stats mutex poisoned");
                        if stats.monitor_error.is_none() {
                            stats.monitor_error = Some(e);
                        }
                    }
                }
            }
            MonitorMsg::Flush(ack) => {
                // Everything enqueued before the barrier has been
                // processed (single consumer, FIFO queue) — a quiescent
                // point, so refresh the recovery clone: a later death
                // resumes from here rather than an older mid-stream
                // point. The ack's receiver may have given up — that is
                // its business.
                since_clone = 0;
                shared
                    .sup
                    .lock()
                    .expect("supervision mutex poisoned")
                    .recovery = Some(Box::new(monitor.clone()));
                let _ = ack.send(());
            }
            MonitorMsg::Checkpoint(tx) => {
                let _ = tx.send(Box::new(monitor.clone()));
            }
            MonitorMsg::SetSink(sink) => monitor.sink = sink,
            MonitorMsg::SetMetrics(metrics) => monitor.set_metrics(metrics),
            MonitorMsg::Shutdown => return monitor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The halves and the whole pipeline must be free to cross threads.
    #[test]
    fn halves_and_engine_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Scorer>();
        assert_send::<Monitor>();
        assert_send::<AsyncEngine>();
        assert_send::<MonitorMsg>();
    }

    #[test]
    fn model_slot_latest_wins_and_frees_unconsumed() {
        struct Dummy(u8);
        impl Predictor for Dummy {
            fn predict(&self, _data: &Dataset) -> confair_core::Result<Vec<u8>> {
                Ok(vec![self.0])
            }
            fn predict_rows(&self, x: &cf_linalg::Matrix) -> confair_core::Result<Vec<u8>> {
                Ok(vec![self.0; x.rows()])
            }
        }
        let slot: Slot<Box<dyn Predictor>> = Slot::empty();
        assert!(slot.try_take().is_none());
        slot.publish(Box::new(Dummy(1)));
        slot.publish(Box::new(Dummy(2)));
        let taken = slot.try_take().expect("a model is pending");
        let x = cf_linalg::Matrix::zeros(1, 1);
        assert_eq!(taken.predict_rows(&x).unwrap(), vec![2], "latest wins");
        assert!(slot.take().is_none(), "take empties the slot");
        // Leave one unconsumed for the slot's own drop to free.
        slot.publish(Box::new(Dummy(3)));
    }

    #[test]
    fn slot_drops_superseded_and_pending_values_exactly_once() {
        let first = Arc::new(());
        let second = Arc::new(());
        let slot = Slot::empty();
        slot.publish(Arc::clone(&first));
        assert_eq!(Arc::strong_count(&first), 2);
        slot.publish(Arc::clone(&second));
        assert_eq!(Arc::strong_count(&first), 1, "superseded value dropped");
        assert_eq!(Arc::strong_count(&second), 2);
        drop(slot);
        assert_eq!(
            Arc::strong_count(&second),
            1,
            "pending value dropped with the slot"
        );
    }

    #[test]
    fn slot_pickup_skips_a_held_lock_and_survives_poison() {
        let slot = Arc::new(Slot::empty());
        slot.publish(7u8);
        {
            let _held = slot.lock();
            assert_eq!(slot.try_take(), None, "the score path never blocks");
        }
        assert_eq!(slot.try_take(), Some(7), "picked up on the next batch");

        slot.publish(8);
        let poisoner = Arc::clone(&slot);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock();
            panic!("poison the slot");
        })
        .join();
        assert_eq!(slot.try_take(), Some(8));
        slot.publish(9);
        assert_eq!(slot.take(), Some(9));
    }

    #[test]
    fn model_slot_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Slot<Box<dyn Predictor>>>();
        assert_send_sync::<Slot<RepairUpdate>>();
    }

    #[test]
    fn drop_oldest_keeps_newest_and_counts() {
        let queue = BoundedQueue::new(2);
        let tuple = StreamTuple {
            features: vec![0.0],
            group: 0,
            label: None,
        };
        for i in 0..4u8 {
            queue
                .push_record(
                    u64::from(i),
                    vec![tuple.clone(); (i + 1) as usize],
                    vec![0; (i + 1) as usize],
                    BackpressurePolicy::DropOldest,
                )
                .unwrap();
        }
        // Batches of 1 and 2 tuples were evicted; 3 and 4 remain.
        assert_eq!(
            queue.dropped(),
            DropCounters {
                batches: 2,
                tuples: 3
            }
        );
        assert_eq!(queue.backlog(), 2);
        match queue.pop() {
            MonitorMsg::Record { tuples, .. } => assert_eq!(tuples.len(), 3),
            _ => panic!("expected a record"),
        }
    }

    #[test]
    fn control_messages_bypass_a_full_queue() {
        let queue = BoundedQueue::new(1);
        let tuple = StreamTuple {
            features: vec![0.0],
            group: 0,
            label: None,
        };
        queue
            .push_record(0, vec![tuple], vec![0], BackpressurePolicy::DropOldest)
            .unwrap();
        let (tx, _rx) = mpsc::channel();
        queue.push_control(MonitorMsg::Flush(tx));
        assert_eq!(queue.backlog(), 1, "control messages do not count");
        assert!(matches!(queue.pop(), MonitorMsg::Record { .. }));
        assert!(matches!(queue.pop(), MonitorMsg::Flush(_)));
    }

    #[test]
    fn closed_queue_rejects_records_and_unblocks_producers() {
        let tuple = StreamTuple {
            features: vec![0.0],
            group: 0,
            label: None,
        };
        // A closed queue rejects new records outright (either policy).
        let queue = BoundedQueue::new(1);
        queue.close();
        for policy in [BackpressurePolicy::Block, BackpressurePolicy::DropOldest] {
            assert!(matches!(
                queue.push_record(0, vec![tuple.clone()], vec![0], policy),
                Err(StreamError::Async(_))
            ));
        }

        // A producer already blocked on a full queue is released with an
        // error when the consumer dies (instead of hanging forever).
        let queue = Arc::new(BoundedQueue::new(1));
        queue
            .push_record(0, vec![tuple.clone()], vec![0], BackpressurePolicy::Block)
            .unwrap();
        let blocked = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                queue.push_record(1, vec![tuple], vec![1], BackpressurePolicy::Block)
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        queue.close();
        assert!(matches!(
            blocked.join().expect("producer thread"),
            Err(StreamError::Async(_))
        ));
    }
}
