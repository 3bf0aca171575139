//! Sharded multi-stream serving: a partition-and-merge router over
//! independent per-shard engines.
//!
//! Production traffic is naturally partitioned — by region, product line,
//! tenant — and each partition drifts on its own schedule. [`ShardedEngine`]
//! keys a [`StreamEngine`] per shard id, routes each arriving tuple to its
//! shard, ingests the per-shard micro-batches one after another in shard
//! order, and reads a **cross-shard aggregate** [`FairnessSnapshot`] by
//! merging the additive window counters — exact, not approximate, because
//! every counter is a sum. [`ShardedAsyncEngine`] runs the same router over
//! [`AsyncEngine`]s; its per-shard monitor threads are the only parallelism
//! in sharding.
//!
//! Sharding is a semantic feature, not a speed feature: per-shard
//! monitoring catches drift that is local to one partition. Per-shard
//! state (model, conformance profiles, Page–Hinkley detectors, window,
//! alert log) stays fully independent: a shard's drift alert or retrain
//! never perturbs its neighbours, and per-shard results are byte-identical
//! to running that shard's engine standalone (pinned by the
//! `sharded_consistency` integration test).

use crate::async_engine::{AsyncConfig, AsyncEngine, DropCounters};
use crate::checkpoint::ShardedCheckpoint;
use crate::engine::{
    validate_feedback, validate_tuple, IngestOutcome, LabelFeedback, StreamConfig, StreamEngine,
    StreamTuple,
};
use crate::monitor::{FairnessSnapshot, FeedbackOutcome};
use crate::telemetry::StreamMetrics;
use crate::window::GroupCounts;
use crate::{Result, StreamError};
use cf_telemetry::{MetricsRegistry, SharedSink};
use std::borrow::Borrow;

/// One observation addressed to a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedTuple {
    /// The shard key (region, product, …) already resolved to an index.
    pub shard: u32,
    /// The observation itself.
    pub tuple: StreamTuple,
}

// A routed tuple borrows as the observation it carries, so a single-shard
// router can feed its batch to the shard engine's generic ingest directly
// — no per-tuple gather into a `&StreamTuple` side array.
impl Borrow<StreamTuple> for ShardedTuple {
    fn borrow(&self) -> &StreamTuple {
        &self.tuple
    }
}

/// Recycled scatter-once routing scratch. One counting pass over the
/// (validated) batch builds a per-shard histogram, a prefix sum turns it
/// into segment offsets, and a second pass scatters each tuple's *index*
/// into its shard's segment of `order` — so routing a mixed batch costs
/// two linear passes and zero per-tuple allocations, and the buffers are
/// reused across batches instead of reallocated.
#[derive(Debug, Default)]
struct RouteScratch {
    /// Per-shard histogram during counting; per-shard write cursors during
    /// the scatter pass.
    cursors: Vec<u32>,
    /// Start offset of each shard's segment in `order` (length
    /// `shards + 1`; shard `s` owns `order[offsets[s]..offsets[s + 1]]`).
    offsets: Vec<u32>,
    /// Batch indices in shard-major order, arrival order within a shard.
    order: Vec<u32>,
}

impl RouteScratch {
    /// Run the counting + scatter passes for `batch`, whose shard ids have
    /// already been validated to be in `0..n`.
    fn route(&mut self, n: usize, batch: &[ShardedTuple]) {
        self.cursors.clear();
        self.cursors.resize(n, 0);
        for routed in batch {
            self.cursors[routed.shard as usize] += 1;
        }
        self.offsets.clear();
        self.offsets.reserve(n + 1);
        let mut acc = 0u32;
        for cursor in &mut self.cursors {
            let count = *cursor;
            self.offsets.push(acc);
            // The histogram slot becomes the scatter pass's write cursor,
            // starting at its shard's segment offset.
            *cursor = acc;
            acc += count;
        }
        self.offsets.push(acc);
        self.order.clear();
        self.order.resize(batch.len(), 0);
        for (i, routed) in batch.iter().enumerate() {
            let cursor = &mut self.cursors[routed.shard as usize];
            self.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
    }

    /// Shard `s`'s segment of the routed order.
    fn segment(&self, s: usize) -> &[u32] {
        &self.order[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

// The router core both sharded engines share. Routing is serial: shards
// ingest their segments one after another in shard order, so the two
// routers differ only in what a shard does with its segment.

/// `shard` as an index, or [`StreamError::BadShard`] when out of range.
fn check_shard(shard: u32, shards: usize) -> Result<usize> {
    if (shard as usize) < shards {
        Ok(shard as usize)
    } else {
        Err(StreamError::BadShard { shard, shards })
    }
}

/// Whole-batch validation (shard range, then the per-tuple checks every
/// engine runs), before any shard ingests: an error rejects the batch with
/// no shard advanced.
fn validate_routed(
    batch: &[ShardedTuple],
    shards: usize,
    schema: &[String],
    config: &StreamConfig,
) -> Result<()> {
    for (i, routed) in batch.iter().enumerate() {
        check_shard(routed.shard, shards)?;
        validate_tuple(&routed.tuple, schema.len(), i, config.groups)?;
    }
    Ok(())
}

/// Drive every result in order, then return all values or the first
/// error: shards are independent, so one failing shard must not stop its
/// neighbours.
fn all_or_first_error<T>(results: impl Iterator<Item = Result<T>>) -> Result<Vec<T>> {
    results.collect::<Vec<_>>().into_iter().collect()
}

/// Route a validated batch, run `ingest` on every shard's segment (batch
/// indices, arrival order) in shard order, and scatter each shard's
/// decisions back to input order.
fn dispatch<E, O>(
    shards: &mut [E],
    route: &mut RouteScratch,
    batch: &[ShardedTuple],
    mut ingest: impl FnMut(&mut E, &[u32]) -> Result<O>,
    decisions_of: impl Fn(&O) -> &[u8],
) -> Result<(Vec<u8>, Vec<O>)> {
    route.route(shards.len(), batch);
    let outcomes = all_or_first_error(
        shards
            .iter_mut()
            .enumerate()
            .map(|(shard, engine)| ingest(engine, route.segment(shard))),
    )?;
    let mut decisions = vec![0u8; batch.len()];
    for (shard, outcome) in outcomes.iter().enumerate() {
        for (&original, &decision) in route.segment(shard).iter().zip(decisions_of(outcome)) {
            decisions[original as usize] = decision;
        }
    }
    Ok((decisions, outcomes))
}

/// Validate a feedback batch against each shard's id clock and split it
/// per shard, arrival order kept. Nothing is returned, so nothing joins
/// anywhere, unless the whole batch is valid.
fn split_feedback<E>(
    shards: &[E],
    issued: fn(&E) -> u64,
    feedback: &[ShardedFeedback],
) -> Result<Vec<Vec<LabelFeedback>>> {
    let mut per_shard = vec![Vec::new(); shards.len()];
    for routed in feedback {
        let shard = check_shard(routed.shard, shards.len())?;
        validate_feedback(&routed.feedback, issued(&shards[shard]))?;
        per_shard[shard].push(routed.feedback);
    }
    Ok(per_shard)
}

/// Assemble a fleet checkpoint from every shard's, in shard order.
fn fleet_checkpoint(
    shards: impl Iterator<Item = Result<crate::EngineCheckpoint>>,
) -> Result<ShardedCheckpoint> {
    Ok(ShardedCheckpoint {
        version: crate::checkpoint::CHECKPOINT_VERSION,
        shards: shards.collect::<Result<Vec<_>>>()?,
    })
}

/// Merge per-shard window counters cell by cell. Exact: every windowed
/// counter is additive, so the merge is a componentwise sum.
fn merge_counts<C: Borrow<[GroupCounts]>>(
    groups: usize,
    per_shard: impl Iterator<Item = C>,
) -> Vec<GroupCounts> {
    let mut merged = vec![GroupCounts::default(); groups];
    for counts in per_shard {
        for (cell, counts) in merged.iter_mut().zip(counts.borrow()) {
            cell.merge(counts);
        }
    }
    merged
}

/// One late ground-truth record addressed to the shard that served its
/// tuple. Ids are **per shard** (each shard engine runs its own id clock),
/// so the shard key is part of the join address, not just a routing hint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedFeedback {
    /// The shard whose engine served (and id-stamped) the tuple.
    pub shard: u32,
    /// The feedback record itself.
    pub feedback: LabelFeedback,
}

/// What one sharded ingest call produced.
#[derive(Debug, Clone)]
pub struct ShardedOutcome {
    /// The served decision for every tuple of the batch, **in input
    /// order** (scattered back from the per-shard engines).
    pub decisions: Vec<u8>,
    /// Per-shard outcomes, indexed by shard id. Shards that received no
    /// tuples report an empty outcome.
    pub per_shard: Vec<IngestOutcome>,
    /// The cross-shard aggregate fairness reading after the batch.
    pub snapshot: FairnessSnapshot,
}

impl ShardedOutcome {
    /// Alerts raised by this batch across all shards, as `(shard, alert)`.
    pub fn alerts(&self) -> impl Iterator<Item = (u32, &crate::drift::DriftAlert)> {
        self.per_shard
            .iter()
            .enumerate()
            .flat_map(|(s, o)| o.alerts.iter().map(move |a| (s as u32, a)))
    }
}

/// A router over N independent per-shard [`StreamEngine`]s with exact
/// cross-shard aggregate snapshots.
pub struct ShardedEngine {
    shards: Vec<StreamEngine>,
    route: RouteScratch,
}

impl ShardedEngine {
    /// Bootstrap `n_shards` engines from one shared reference dataset.
    /// Every shard trains from the same reference with the same seed, so
    /// all shards start from identical models and profiles.
    ///
    /// Bootstrap cost is `n_shards` full ConFair runs (`Predictor` holds
    /// unclonable trained state, so identical engines are re-derived
    /// rather than copied) — a one-time cost, off the serving path. For
    /// expensive references, bootstrap per-shard engines yourself (in
    /// parallel, or from per-shard references) and use
    /// [`ShardedEngine::from_engines`].
    pub fn from_reference(
        reference: &cf_data::Dataset,
        learner: cf_learners::LearnerKind,
        seed: u64,
        config: StreamConfig,
        n_shards: usize,
    ) -> Result<Self> {
        if n_shards == 0 {
            return Err(StreamError::NoShards);
        }
        let shards = (0..n_shards)
            .map(|_| StreamEngine::from_reference(reference, learner, seed, config.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedEngine {
            shards,
            route: RouteScratch::default(),
        })
    }

    /// Assemble from independently bootstrapped engines (e.g. one
    /// reference dataset per region). All engines must share the same
    /// schema (or routed tuples could not be validated uniformly) and the
    /// same DI* floor (or the aggregate snapshot's verdict would silently
    /// judge the fleet by one shard's floor).
    pub fn from_engines(shards: Vec<StreamEngine>) -> Result<Self> {
        if shards.is_empty() {
            return Err(StreamError::NoShards);
        }
        let schema = shards[0].schema().to_vec();
        let di_floor = shards[0].config().di_floor;
        let groups = shards[0].config().groups;
        for (i, engine) in shards.iter().enumerate().skip(1) {
            if engine.schema() != schema.as_slice() {
                return Err(StreamError::Schema(format!(
                    "shard {i} schema {:?} differs from shard 0 schema {:?}",
                    engine.schema(),
                    schema
                )));
            }
            if engine.config().di_floor != di_floor {
                return Err(StreamError::ConfigMismatch(format!(
                    "shard {i} di_floor {} differs from shard 0 di_floor {di_floor}",
                    engine.config().di_floor
                )));
            }
            if engine.config().groups != groups {
                return Err(StreamError::ConfigMismatch(format!(
                    "shard {i} has {} group cells; shard 0 has {groups} \
                     (counters are only additive across identical cell layouts)",
                    engine.config().groups
                )));
            }
        }
        Ok(ShardedEngine {
            shards,
            route: RouteScratch::default(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's open repair-ladder rung, indexed by shard id (`None`
    /// = that shard's ladder is idle or disabled). Shards climb and
    /// descend independently — one shard's escalation never moves its
    /// neighbours.
    pub fn repair_tiers(&self) -> Vec<Option<crate::repair::RepairTier>> {
        self.shards.iter().map(StreamEngine::repair_tier).collect()
    }

    /// Borrow one shard's engine (per-shard telemetry, alert logs, audits).
    pub fn shard(&self, shard: u32) -> Result<&StreamEngine> {
        Ok(&self.shards[check_shard(shard, self.shards.len())?])
    }

    /// Install a telemetry sink on one shard's engine. Shards keep
    /// independent trails (each shard's id clock and window are its own),
    /// so each shard's audit log replays standalone — give every shard its
    /// own sink rather than sharing one.
    ///
    /// # Errors
    /// [`StreamError::BadShard`] for an out-of-range shard id.
    pub fn set_sink(&mut self, shard: u32, sink: SharedSink) -> Result<()> {
        let shard = check_shard(shard, self.shards.len())?;
        self.shards[shard].set_sink(sink);
        Ok(())
    }

    /// Register every shard's instruments on `registry` under a
    /// `shard="<id>"` label and start keeping them fresh.
    pub fn install_metrics(&mut self, registry: &MetricsRegistry) {
        for (i, engine) in self.shards.iter_mut().enumerate() {
            engine.set_metrics(StreamMetrics::register_shard(registry, Some(i as u32)));
        }
    }

    /// Total tuples ingested across all shards.
    pub fn tuples_seen(&self) -> u64 {
        self.shards.iter().map(StreamEngine::tuples_seen).sum()
    }

    /// The cross-shard merged per-cell counters. Exact: every windowed
    /// counter is additive, so the merge is a componentwise sum
    /// (`from_engines` pinned every shard to the same cell layout).
    pub fn merged_counts(&self) -> Vec<GroupCounts> {
        merge_counts(
            self.shards[0].config().groups,
            self.shards.iter().map(StreamEngine::window_counts),
        )
    }

    /// The cross-shard aggregate fairness reading — the fleet-wide DI*,
    /// parity gaps, and violation rates over the union of all windows.
    pub fn snapshot(&self) -> FairnessSnapshot {
        FairnessSnapshot::from_counts(&self.merged_counts(), self.shards[0].config().di_floor)
    }

    /// Snapshot every shard coherently as one [`ShardedCheckpoint`].
    ///
    /// Coherence is structural, not locked: [`ShardedEngine::ingest`]
    /// takes `&mut self`, so this `&self` borrow can only run between
    /// batches — no shard can be mid-ingest while its neighbours are
    /// captured, and the per-shard checkpoints always describe one
    /// consistent fleet state.
    ///
    /// # Errors
    /// [`StreamError::Checkpoint`] when any shard's predictor does not
    /// support serialisation.
    pub fn checkpoint(&self) -> Result<ShardedCheckpoint> {
        fleet_checkpoint(self.shards.iter().map(StreamEngine::checkpoint))
    }

    /// Rebuild a fleet from a sharded checkpoint. Each shard restores
    /// independently (bit-identical to its pre-checkpoint self), then the
    /// fleet is re-validated through [`ShardedEngine::from_engines`] so a
    /// tampered checkpoint with mismatched schemas or DI* floors is
    /// rejected with the same typed errors as any other inconsistent
    /// fleet.
    ///
    /// # Errors
    /// [`StreamError::CheckpointVersion`] for an incompatible format
    /// version; [`StreamError::Checkpoint`], [`StreamError::Schema`],
    /// [`StreamError::ConfigMismatch`], or [`StreamError::NoShards`] for
    /// inconsistent contents.
    pub fn restore(ckpt: ShardedCheckpoint) -> Result<Self> {
        if ckpt.version != crate::checkpoint::CHECKPOINT_VERSION {
            return Err(StreamError::CheckpointVersion {
                found: ckpt.version,
                expected: crate::checkpoint::CHECKPOINT_VERSION,
            });
        }
        Self::from_engines(
            ckpt.shards
                .into_iter()
                .map(StreamEngine::restore)
                .collect::<Result<Vec<_>>>()?,
        )
    }

    /// Route, score, and monitor one mixed-shard micro-batch. Shards
    /// ingest their sub-batches one after another in shard order; tuples
    /// keep their arrival order within each shard, and the returned
    /// decisions are scattered back to the input order.
    ///
    /// # Errors
    /// The whole batch is validated (shard ids, schema, groups, labels)
    /// before any shard ingests, so a validation error rejects the batch
    /// without advancing any engine. After validation every shard still
    /// ingests its sub-batch, and a per-shard scoring failure surfaces as
    /// the first shard's error in shard order.
    pub fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<ShardedOutcome> {
        let first = &self.shards[0];
        validate_routed(batch, self.shards.len(), first.schema(), first.config())?;

        // Single-shard fleets skip routing entirely: the routed batch
        // already is shard 0's batch, in arrival order, so the only router
        // cost left is one decisions copy into the input-order view.
        if self.shards.len() == 1 {
            let outcome = self.shards[0].ingest_prevalidated(batch)?;
            return Ok(ShardedOutcome {
                decisions: outcome.decisions.clone(),
                snapshot: self.snapshot(),
                per_shard: vec![outcome],
            });
        }

        // Each shard borrows its segment's tuples through one recycled
        // gather buffer. Empty shards ingest too: their outcome is a
        // constant-time snapshot read.
        let mut segment_tuples: Vec<&StreamTuple> = Vec::with_capacity(batch.len());
        let (decisions, per_shard) = dispatch(
            &mut self.shards,
            &mut self.route,
            batch,
            |engine, segment| {
                segment_tuples.clear();
                segment_tuples.extend(segment.iter().map(|&i| &batch[i as usize].tuple));
                engine.ingest_prevalidated(&segment_tuples)
            },
            |outcome| &outcome.decisions,
        )?;
        Ok(ShardedOutcome {
            decisions,
            per_shard,
            snapshot: self.snapshot(),
        })
    }

    /// Route late ground truth to the shards that served it and join it
    /// into their label planes. Returns one [`FeedbackOutcome`] per shard,
    /// indexed by shard id (shards that received no records report zero
    /// joins and their current snapshot).
    ///
    /// # Errors
    /// The whole batch is validated first — shard range
    /// ([`StreamError::BadShard`]), label range
    /// ([`StreamError::BadLabel`]), and per-shard id clocks
    /// ([`StreamError::FutureFeedback`]) — so a validation error joins
    /// nothing anywhere. After validation every shard joins its records,
    /// and a per-shard failure surfaces as the first shard's error in
    /// shard order.
    pub fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<Vec<FeedbackOutcome>> {
        let per_shard = split_feedback(&self.shards, StreamEngine::ids_issued, feedback)?;
        all_or_first_error(
            self.shards
                .iter_mut()
                .zip(per_shard)
                .map(|(engine, records)| engine.feedback(&records)),
        )
    }
}

/// The asynchronous sharded router: one [`AsyncEngine`] per shard, so each
/// shard gets its *own* background monitor thread while all scoring stays
/// on the caller's thread.
///
/// Routing is the same serial partition-and-merge as
/// [`ShardedEngine::ingest`]: the cheap part (scoring, ~tens of ns per
/// tuple) runs in shard order on the caller's thread, and the expensive
/// part (window/detector updates, on-alert retrains) proceeds concurrently
/// across shards *after* `ingest` has returned. A shard mid-retrain delays
/// only its own queue — its neighbours' monitors, and everyone's
/// decisions, keep flowing.
pub struct ShardedAsyncEngine {
    shards: Vec<AsyncEngine>,
    route: RouteScratch,
}

impl ShardedAsyncEngine {
    /// Split a synchronous sharded engine into per-shard async pipelines,
    /// carrying every shard's observable state over exactly.
    pub fn from_sharded(engine: ShardedEngine, async_config: AsyncConfig) -> Self {
        ShardedAsyncEngine {
            shards: engine
                .shards
                .into_iter()
                .map(|e| AsyncEngine::from_engine(e, async_config))
                .collect(),
            route: RouteScratch::default(),
        }
    }

    /// Bootstrap `n_shards` async engines from one shared reference
    /// dataset (see [`ShardedEngine::from_reference`] for the bootstrap
    /// cost discussion).
    pub fn from_reference(
        reference: &cf_data::Dataset,
        learner: cf_learners::LearnerKind,
        seed: u64,
        config: StreamConfig,
        n_shards: usize,
        async_config: AsyncConfig,
    ) -> Result<Self> {
        ShardedEngine::from_reference(reference, learner, seed, config, n_shards)
            .map(|engine| Self::from_sharded(engine, async_config))
    }

    /// Assemble from independently bootstrapped engines, with the same
    /// fleet-coherence validation as [`ShardedEngine::from_engines`].
    pub fn from_engines(shards: Vec<StreamEngine>, async_config: AsyncConfig) -> Result<Self> {
        ShardedEngine::from_engines(shards).map(|engine| Self::from_sharded(engine, async_config))
    }

    /// Rebuild a fleet from a sharded checkpoint (same validation as
    /// [`ShardedEngine::restore`]).
    pub fn restore(ckpt: ShardedCheckpoint, async_config: AsyncConfig) -> Result<Self> {
        ShardedEngine::restore(ckpt).map(|engine| Self::from_sharded(engine, async_config))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Each shard's open repair-ladder rung per its monitor's latest
    /// published state, indexed by shard id (current after a
    /// [`ShardedAsyncEngine::flush`]).
    pub fn repair_tiers(&self) -> Vec<Option<crate::repair::RepairTier>> {
        self.shards.iter().map(AsyncEngine::repair_tier).collect()
    }

    /// Borrow one shard's async engine (lag, drop counters, alert log,
    /// published snapshots).
    pub fn shard(&self, shard: u32) -> Result<&AsyncEngine> {
        Ok(&self.shards[check_shard(shard, self.shards.len())?])
    }

    /// Install a telemetry sink on one shard's background monitor (FIFO
    /// with that shard's queue; see [`AsyncEngine::set_sink`]). Shards
    /// keep independent trails.
    ///
    /// # Errors
    /// [`StreamError::BadShard`] for an out-of-range shard id;
    /// [`StreamError::Async`] when that shard's monitor thread is gone.
    pub fn set_sink(&mut self, shard: u32, sink: SharedSink) -> Result<()> {
        let shard = check_shard(shard, self.shards.len())?;
        self.shards[shard].set_sink(sink)
    }

    /// Register every shard's instruments on `registry` under a
    /// `shard="<id>"` label and start keeping them fresh (each shard's
    /// serving path and monitor thread update its own labeled set).
    ///
    /// # Errors
    /// [`StreamError::Async`] when any shard's monitor thread is gone.
    pub fn install_metrics(&mut self, registry: &MetricsRegistry) -> Result<()> {
        for (i, engine) in self.shards.iter_mut().enumerate() {
            engine.set_metrics(StreamMetrics::register_shard(registry, Some(i as u32)))?;
        }
        Ok(())
    }

    /// How far the fleet's worst shard lags its scorer, in tuples — the
    /// **max** over shards, not the sum: lags are not additive (each shard
    /// monitors its own stream), and the operational question this answers
    /// is "how stale can any published reading be right now". 0 after a
    /// [`ShardedAsyncEngine::flush`]. Per-shard values are at
    /// [`ShardedAsyncEngine::shard_monitor_lags`].
    pub fn monitor_lag(&self) -> u64 {
        self.shard_monitor_lags().into_iter().max().unwrap_or(0)
    }

    /// Every shard's scored-vs-monitored lag, indexed by shard id.
    pub fn shard_monitor_lags(&self) -> Vec<u64> {
        self.shards.iter().map(AsyncEngine::monitor_lag).collect()
    }

    /// Every shard's monitor-thread health, indexed by shard id —
    /// replacing the old all-or-nothing view (a shard's death used to be
    /// visible only as an `Async` error from the next call that touched
    /// it). [`ShardHealth::Restarting`](crate::ShardHealth) shards are
    /// still serving, unmonitored, while their supervisor waits out its
    /// backoff; [`ShardHealth::Dead`](crate::ShardHealth) shards have
    /// exhausted their restart budget
    /// and fail their own calls, without stopping the rest of the fleet.
    pub fn shard_health(&self) -> Vec<crate::ShardHealth> {
        self.shards.iter().map(AsyncEngine::health).collect()
    }

    /// Route and score one mixed-shard micro-batch, returning every
    /// decision **in input order** without waiting for any monitoring
    /// work; each shard's `(tuples, decisions)` record lands on that
    /// shard's own queue.
    ///
    /// # Errors
    /// The whole batch is validated before any shard scores, exactly as in
    /// the sync router. A post-validation failure ([`StreamError::Async`]
    /// when a shard's monitor thread is gone) follows the sync router's
    /// contract too: every *other* shard still serves and enqueues its
    /// sub-batch, and the first failing shard's error (in shard order) is
    /// returned — shards are independent, so a dead neighbour must not
    /// stop the rest of the fleet from ingesting.
    pub fn ingest(&mut self, batch: &[ShardedTuple]) -> Result<Vec<u8>> {
        let first = &self.shards[0];
        validate_routed(batch, self.shards.len(), first.schema(), first.config())?;

        // Single-shard fleets: the batch is shard 0's batch in arrival
        // order; clone straight into the queue hand-off with no routing.
        if self.shards.len() == 1 {
            return self.shards[0]
                .ingest_prevalidated_owned(batch.iter().map(|r| r.tuple.clone()).collect());
        }

        // Each non-empty shard clones its segment in one exactly-sized
        // allocation (the queue hand-off owns its tuples).
        let (decisions, _) = dispatch(
            &mut self.shards,
            &mut self.route,
            batch,
            |engine, segment| {
                if segment.is_empty() {
                    return Ok(Vec::new());
                }
                engine.ingest_prevalidated_owned(
                    segment
                        .iter()
                        .map(|&i| batch[i as usize].tuple.clone())
                        .collect(),
                )
            },
            Vec::as_slice,
        )?;
        Ok(decisions)
    }

    /// Route late ground truth to the shards that served it: each shard's
    /// records land on that shard's own queue as a control-plane message
    /// (never dropped, FIFO behind the records that carry their tuples)
    /// and its background monitor joins them. Effects are observable per
    /// shard after a [`ShardedAsyncEngine::flush`].
    ///
    /// # Errors
    /// The whole batch is validated against shard range, label range, and
    /// per-shard scored clocks before anything is enqueued anywhere. A
    /// post-validation [`StreamError::Async`] (a dead shard monitor)
    /// follows the router's contract: every live shard still receives its
    /// records, and the first failing shard's error is returned.
    pub fn feedback(&mut self, feedback: &[ShardedFeedback]) -> Result<()> {
        let per_shard = split_feedback(&self.shards, AsyncEngine::tuples_scored, feedback)?;
        all_or_first_error(
            self.shards
                .iter_mut()
                .zip(per_shard)
                .filter(|(_, records)| !records.is_empty())
                .map(|(engine, records)| engine.feedback(&records)),
        )?;
        Ok(())
    }

    /// Barrier over every shard: returns once all queues are drained and
    /// all pending model swaps are installed.
    pub fn flush(&mut self) -> Result<()> {
        for shard in &mut self.shards {
            shard.flush()?;
        }
        Ok(())
    }

    /// The cross-shard merged per-group counters, from each shard's
    /// latest published state (exact after a [`ShardedAsyncEngine::flush`];
    /// otherwise each shard lags by at most its queue backlog).
    pub fn merged_counts(&self) -> Vec<GroupCounts> {
        merge_counts(
            self.shards[0].config().groups,
            self.shards.iter().map(AsyncEngine::window_counts),
        )
    }

    /// The cross-shard aggregate fairness reading over the merged
    /// published counters.
    pub fn snapshot(&self) -> FairnessSnapshot {
        FairnessSnapshot::from_counts(&self.merged_counts(), self.shards[0].config().di_floor)
    }

    /// Total tuples scored (served) across all shards.
    pub fn tuples_scored(&self) -> u64 {
        self.shards.iter().map(AsyncEngine::tuples_scored).sum()
    }

    /// Total tuples the shard monitors have fully processed.
    pub fn tuples_monitored(&self) -> u64 {
        self.shards.iter().map(AsyncEngine::tuples_monitored).sum()
    }

    /// Aggregate drop counters across all shard queues.
    pub fn dropped(&self) -> DropCounters {
        let mut total = DropCounters::default();
        for shard in &self.shards {
            let d = shard.dropped();
            total.batches += d.batches;
            total.tuples += d.tuples;
        }
        total
    }

    /// Drain every shard to a quiescent point and snapshot the fleet
    /// coherently (no ingest can interleave: this takes `&mut self`).
    ///
    /// # Errors
    /// Same contract as [`ShardedEngine::checkpoint`], plus
    /// [`StreamError::Async`] when a monitor thread is gone.
    pub fn checkpoint(&mut self) -> Result<ShardedCheckpoint> {
        self.flush()?;
        fleet_checkpoint(self.shards.iter_mut().map(AsyncEngine::checkpoint))
    }

    /// Shut every shard's pipeline down and reunite the fleet into a
    /// synchronous [`ShardedEngine`] carrying the exact same state.
    ///
    /// # Errors
    /// [`StreamError::Async`] when any monitor thread is gone or panicked.
    pub fn into_sharded(self) -> Result<ShardedEngine> {
        ShardedEngine::from_engines(
            self.shards
                .into_iter()
                .map(AsyncEngine::into_engine)
                .collect::<Result<Vec<_>>>()?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RetrainPolicy, StreamConfig};
    use cf_datasets::stream::{DriftStream, DriftStreamSpec};
    use cf_learners::LearnerKind;

    fn stationary() -> DriftStreamSpec {
        DriftStreamSpec {
            drift_onset: u64::MAX,
            ..DriftStreamSpec::default()
        }
    }

    fn sharded(n: usize) -> ShardedEngine {
        let reference = stationary().reference(1_500, 33);
        let config = StreamConfig {
            retrain: RetrainPolicy::Never,
            ..StreamConfig::default()
        };
        ShardedEngine::from_reference(&reference, LearnerKind::Logistic, 33, config, n).unwrap()
    }

    fn routed_batch(n_shards: u32, k: usize, seed: u64) -> Vec<ShardedTuple> {
        let mut stream = DriftStream::new(stationary(), seed);
        StreamTuple::rows_from_dataset(&stream.next_batch(k))
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, tuple)| ShardedTuple {
                shard: (i as u32) % n_shards,
                tuple,
            })
            .collect()
    }

    #[test]
    fn zero_shards_is_rejected() {
        let reference = stationary().reference(500, 1);
        assert!(matches!(
            ShardedEngine::from_reference(
                &reference,
                LearnerKind::Logistic,
                1,
                StreamConfig::default(),
                0
            ),
            Err(StreamError::NoShards)
        ));
        assert!(matches!(
            ShardedEngine::from_engines(Vec::new()),
            Err(StreamError::NoShards)
        ));
    }

    #[test]
    fn bad_shard_id_rejects_the_whole_batch() {
        let mut engine = sharded(2);
        let mut batch = routed_batch(2, 10, 5);
        batch[7].shard = 9;
        assert!(matches!(
            engine.ingest(&batch),
            Err(StreamError::BadShard {
                shard: 9,
                shards: 2
            })
        ));
        // Nothing ingested anywhere, including the validly-addressed prefix.
        assert_eq!(engine.tuples_seen(), 0);
    }

    #[test]
    fn bad_group_rejects_atomically_with_no_shard_state_advanced() {
        // Validation happens once, at the router boundary — so it must
        // still be *whole-batch* atomic: one out-of-range group cell deep
        // in the batch may not leave any shard's window, id clock, or
        // counters advanced. Exercised on both router paths: the
        // multi-shard scatter route and the single-shard fast path.
        for shards in [2u32, 1] {
            let mut engine = sharded(shards as usize);
            let mut batch = routed_batch(shards, 60, 5);
            batch[41].tuple.group = 7; // K = 2 → cells {0, 1} only
            assert!(matches!(
                engine.ingest(&batch),
                Err(StreamError::BadGroup(7))
            ));
            for s in 0..shards {
                let shard = engine.shard(s).unwrap();
                assert_eq!(shard.tuples_seen(), 0, "shard {s} of {shards} advanced");
                assert_eq!(shard.window_len(), 0);
                assert_eq!(shard.ids_issued(), 0);
            }
            // The same batch with the cell fixed ingests fine afterwards.
            batch[41].tuple.group = 1;
            assert_eq!(engine.ingest(&batch).unwrap().decisions.len(), 60);
            assert_eq!(engine.tuples_seen(), 60);
        }
    }

    /// One invalid call against a three-shard fleet of either router.
    enum Rejected {
        /// Runs on a fresh fleet.
        Ingest(Vec<ShardedTuple>),
        /// Runs after an unlabeled warm-up batch, so ids `0..10` are
        /// issued on every shard and the leading record is valid.
        Feedback(Vec<ShardedFeedback>),
    }

    /// A named invalid call and the error it must be rejected with.
    type RejectionCase = (&'static str, Rejected, fn(&StreamError) -> bool);

    /// Every case puts its invalid entry behind valid ones, so whole-batch
    /// rejection is what is under test.
    fn rejection_table() -> Vec<RejectionCase> {
        let batch = |edit: fn(&mut ShardedTuple)| {
            let mut batch = routed_batch(3, 60, 5);
            edit(&mut batch[41]);
            Rejected::Ingest(batch)
        };
        let feedback = |id: u64, label: u8| {
            Rejected::Feedback(vec![
                ShardedFeedback {
                    shard: 0,
                    feedback: LabelFeedback { id: 0, label: 1 },
                },
                ShardedFeedback {
                    shard: 2,
                    feedback: LabelFeedback { id, label },
                },
            ])
        };
        vec![
            ("bad shard", batch(|t| t.shard = 3), |e| {
                matches!(
                    e,
                    StreamError::BadShard {
                        shard: 3,
                        shards: 3
                    }
                )
            }),
            ("wrong width", batch(|t| t.tuple.features.push(0.0)), |e| {
                matches!(e, StreamError::Schema(_))
            }),
            ("bad group", batch(|t| t.tuple.group = 7), |e| {
                matches!(e, StreamError::BadGroup(7))
            }),
            ("bad label", batch(|t| t.tuple.label = Some(2)), |e| {
                matches!(e, StreamError::BadLabel(2))
            }),
            ("future feedback id", feedback(50, 1), |e| {
                matches!(e, StreamError::FutureFeedback { id: 50, issued: 10 })
            }),
            ("bad feedback label", feedback(3, 2), |e| {
                matches!(e, StreamError::BadLabel(2))
            }),
        ]
    }

    #[test]
    fn both_routers_reject_invalid_batches_whole() {
        for (case, call, rejects) in rejection_table() {
            let mut engine = sharded(3);
            if let Rejected::Feedback(_) = call {
                let mut warm = routed_batch(3, 30, 9);
                warm.iter_mut().for_each(|r| r.tuple.label = None);
                engine.ingest(&warm).unwrap();
            }
            let seen = if matches!(call, Rejected::Ingest(_)) {
                0
            } else {
                10
            };

            let err = match &call {
                Rejected::Ingest(batch) => engine.ingest(batch).unwrap_err(),
                Rejected::Feedback(records) => engine.feedback(records).unwrap_err(),
            };
            assert!(rejects(&err), "sync router, {case}: {err:?}");
            for s in 0..3 {
                let shard = engine.shard(s).unwrap();
                assert_eq!(shard.tuples_seen(), seen, "sync router, {case}: shard {s}");
                assert_eq!(shard.join_stats(), crate::JoinStats::default());
            }

            let mut engine = ShardedAsyncEngine::from_sharded(engine, AsyncConfig::default());
            let err = match &call {
                Rejected::Ingest(batch) => engine.ingest(batch).unwrap_err(),
                Rejected::Feedback(records) => engine.feedback(records).unwrap_err(),
            };
            assert!(rejects(&err), "async router, {case}: {err:?}");
            engine.flush().unwrap();
            for s in 0..3 {
                let shard = engine.shard(s).unwrap();
                assert_eq!(
                    shard.tuples_scored(),
                    seen,
                    "async router, {case}: shard {s}"
                );
                assert_eq!(shard.join_stats(), crate::JoinStats::default());
            }
        }
    }

    #[test]
    fn decisions_come_back_in_input_order() {
        let mut engine = sharded(3);
        let batch = routed_batch(3, 200, 6);
        let outcome = engine.ingest(&batch).unwrap();
        assert_eq!(outcome.decisions.len(), 200);

        // Re-derive the expected order from the per-shard outcomes.
        let mut cursors = [0usize; 3];
        for (routed, &decision) in batch.iter().zip(&outcome.decisions) {
            let s = routed.shard as usize;
            assert_eq!(decision, outcome.per_shard[s].decisions[cursors[s]]);
            cursors[s] += 1;
        }
        assert_eq!(engine.tuples_seen(), 200);
    }

    #[test]
    fn merged_snapshot_equals_recomputing_from_summed_counters() {
        let mut engine = sharded(4);
        let batch = routed_batch(4, 400, 7);
        let outcome = engine.ingest(&batch).unwrap();

        let mut summed = [GroupCounts::default(); 2];
        for s in 0..4 {
            let counts = engine.shard(s).unwrap().window_counts();
            summed[0].merge(&counts[0]);
            summed[1].merge(&counts[1]);
        }
        let recomputed =
            FairnessSnapshot::from_counts(&summed, engine.shard(0).unwrap().config().di_floor);
        assert_eq!(outcome.snapshot, recomputed);
        assert_eq!(engine.snapshot(), recomputed);
        assert_eq!(
            outcome.snapshot.window_len,
            (0..4)
                .map(|s| engine.shard(s).unwrap().window_len() as u64)
                .sum::<u64>()
        );
    }

    #[test]
    fn empty_and_partial_batches_are_well_defined() {
        let mut engine = sharded(2);
        let outcome = engine.ingest(&[]).unwrap();
        assert!(outcome.decisions.is_empty());
        assert_eq!(outcome.per_shard.len(), 2);
        assert_eq!(engine.tuples_seen(), 0);

        // A batch addressed entirely to shard 1 leaves shard 0 untouched.
        let batch: Vec<ShardedTuple> = routed_batch(1, 50, 8)
            .into_iter()
            .map(|mut r| {
                r.shard = 1;
                r
            })
            .collect();
        engine.ingest(&batch).unwrap();
        assert_eq!(engine.shard(0).unwrap().tuples_seen(), 0);
        assert_eq!(engine.shard(1).unwrap().tuples_seen(), 50);
    }

    #[test]
    fn from_engines_rejects_mismatched_schemas() {
        let a = StreamEngine::from_reference(
            &stationary().reference(600, 1),
            LearnerKind::Logistic,
            1,
            StreamConfig::default(),
        )
        .unwrap();
        let wide = DriftStreamSpec {
            n_features: 3,
            ..stationary()
        };
        let b = StreamEngine::from_reference(
            &wide.reference(600, 1),
            LearnerKind::Logistic,
            1,
            StreamConfig::default(),
        )
        .unwrap();
        assert!(matches!(
            ShardedEngine::from_engines(vec![a, b]),
            Err(StreamError::Schema(_))
        ));
    }

    #[test]
    fn from_engines_rejects_mismatched_di_floors() {
        let reference = stationary().reference(600, 1);
        let mk = |floor: f64| {
            StreamEngine::from_reference(
                &reference,
                LearnerKind::Logistic,
                1,
                StreamConfig {
                    di_floor: floor,
                    ..StreamConfig::default()
                },
            )
            .unwrap()
        };
        assert!(matches!(
            ShardedEngine::from_engines(vec![mk(0.8), mk(0.9)]),
            Err(StreamError::ConfigMismatch(_))
        ));
    }
}
