//! Statistics counters shared by every layer of the stack.
//!
//! The paper's stub compiler generates a "termination routine ... that prints
//! statistics about the application behavior" (§3.2); Tables 2 and 3 are
//! built from exactly these counters (optimistic successes vs. aborts), and
//! the TSP discussion quotes live-stack hit rates. Each node owns a
//! [`NodeStats`]; [`MachineStats`] aggregates them after a run.

use core::fmt;
use std::collections::BTreeMap;

use crate::time::Dur;

/// Why an optimistic execution had to abort (§2 lists the three detectable
/// conditions; we split lock waits and condition waits as §3.3 does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortReason {
    /// The handler tried to acquire a lock that is held.
    LockHeld,
    /// The handler waited on a condition variable whose condition was false.
    ConditionFalse,
    /// The handler tried to send while the network interface was full.
    NetworkFull,
    /// The handler exceeded its execution budget ("runs for too long").
    RanTooLong,
}

impl AbortReason {
    /// All reasons, in display order.
    pub const ALL: [AbortReason; 4] = [
        AbortReason::LockHeld,
        AbortReason::ConditionFalse,
        AbortReason::NetworkFull,
        AbortReason::RanTooLong,
    ];

    /// Dense index for counter arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            AbortReason::LockHeld => 0,
            AbortReason::ConditionFalse => 1,
            AbortReason::NetworkFull => 2,
            AbortReason::RanTooLong => 3,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::LockHeld => "lock-held",
            AbortReason::ConditionFalse => "condition-false",
            AbortReason::NetworkFull => "network-full",
            AbortReason::RanTooLong => "ran-too-long",
        };
        f.write_str(s)
    }
}

/// A log-bucketed latency histogram with deterministic integer quantiles.
///
/// Buckets grow geometrically (4 sub-buckets per octave of nanoseconds), so
/// the whole range from 1 ns to ~584 years fits in at most 256 buckets with
/// a worst-case relative quantile error of ~19%. The bucket vector is
/// allocated lazily, so a default histogram costs nothing — existing
/// workloads that never record a latency keep their allocation counts.
///
/// Everything is integer arithmetic on counts and bucket indices: merging
/// shard-harvested histograms and then taking a quantile yields the same
/// answer on every host, which is what lets the chaos tests compare whole
/// [`NodeStats`] values bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Sample counts per log bucket (lazily grown, trailing zeros trimmed
    /// by construction: the vector is only ever as long as the highest
    /// occupied bucket + 1).
    buckets: Vec<u64>,
    /// Total samples recorded.
    count: u64,
    /// Sum of all recorded latencies, for mean computations.
    total: Dur,
}

/// Sub-bucket resolution: 2^2 = 4 buckets per octave.
const LAT_SUBBITS: u32 = 2;

impl LatencyHistogram {
    /// Bucket index for a latency of `ns` nanoseconds.
    fn bucket_of(ns: u64) -> usize {
        // Octave = position of the highest set bit; sub-bucket = the next
        // LAT_SUBBITS bits below it. Values below 2^LAT_SUBBITS ns map to
        // the first buckets directly.
        let sub = 1u64 << LAT_SUBBITS;
        if ns < sub {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros();
        let low = (ns >> (octave - LAT_SUBBITS)) & (sub - 1);
        (((octave - LAT_SUBBITS + 1) as u64 * sub) + low) as usize
    }

    /// Representative latency (upper bound) of bucket `i` in nanoseconds.
    fn bucket_upper(i: usize) -> u64 {
        let sub = 1usize << LAT_SUBBITS;
        if i < sub {
            return i as u64;
        }
        let octave = (i / sub - 1) as u32 + LAT_SUBBITS;
        let low = (i % sub) as u64;
        // Inclusive upper bound of the bucket: one below the next bucket's
        // lower bound.
        (((1u64 << LAT_SUBBITS) + low + 1) << (octave - LAT_SUBBITS)) - 1
    }

    /// Record one latency sample.
    pub fn record(&mut self, lat: Dur) {
        let idx = Self::bucket_of(lat.as_nanos());
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += lat;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency; [`Dur::ZERO`] when empty.
    pub fn mean(&self) -> Dur {
        match self.total.as_nanos().checked_div(self.count) {
            Some(ns) => Dur::from_nanos(ns),
            None => Dur::ZERO,
        }
    }

    /// The latency at quantile `q` (0.0 ..= 1.0): an upper bound on the
    /// bucket holding the ceil(q·count)-th sample. [`Dur::ZERO`] when
    /// empty. Deterministic: pure integer rank arithmetic.
    pub fn quantile(&self, q: f64) -> Dur {
        if self.count == 0 {
            return Dur::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Dur::from_nanos(Self::bucket_upper(i));
            }
        }
        Dur::from_nanos(Self::bucket_upper(self.buckets.len().saturating_sub(1)))
    }

    /// Accumulate another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.total += other.total;
    }
}

/// Per-method call-engine counters — the per-procedure slice of Tables 2
/// and 3, plus the adaptive-dispatch history. Keyed by raw handler id in
/// [`NodeStats::per_method`] (a `BTreeMap` so aggregation and reports
/// iterate in a deterministic order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Optimistic attempts of this method (as receiver).
    pub attempts: u64,
    /// Attempts that completed inline without aborting.
    pub inline_ok: u64,
    /// Aborts by reason; index with [`AbortReason::index`].
    pub aborts: [u64; 4],
    /// Aborts resolved by promoting the partially-run handler.
    pub promotions: u64,
    /// Aborts resolved by re-running the whole call as a thread.
    pub reruns: u64,
    /// Aborts resolved by NACKing the sender.
    pub nacks_sent: u64,
    /// Calls dispatched straight to a thread (TRPC mode, including calls
    /// served while adaptively demoted).
    pub threaded: u64,
    /// Adaptive mode switches (demotions and re-promotions).
    pub mode_switches: u64,
    /// Arrivals shed by admission control before execution (NACKed back
    /// with a retry-after hint).
    pub shed: u64,
    /// Aborts of one-way calls under [`crate::AbortStrategy::Nack`] that
    /// fell back to rerun because there is no caller to NACK. Distinct
    /// from [`MethodStats::reruns`], which counts the strategy chosen on
    /// purpose.
    pub nack_fallback_reruns: u64,
    /// Stream chunks emitted by handlers of this method (stream methods
    /// only; single-shot methods keep this at zero).
    pub chunks: u64,
    /// In-flight executions of this method aborted by a client-sent
    /// cancel frame.
    pub cancels: u64,
}

impl MethodStats {
    /// Total aborts across all reasons.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Fraction of optimistic attempts that completed inline; `None` if
    /// the method was never attempted optimistically.
    pub fn success_rate(&self) -> Option<f64> {
        if self.attempts == 0 {
            None
        } else {
            Some(self.inline_ok as f64 / self.attempts as f64)
        }
    }

    /// Accumulate another method-counter set into this one.
    pub fn merge(&mut self, other: &MethodStats) {
        self.attempts += other.attempts;
        self.inline_ok += other.inline_ok;
        for i in 0..self.aborts.len() {
            self.aborts[i] += other.aborts[i];
        }
        self.promotions += other.promotions;
        self.reruns += other.reruns;
        self.nacks_sent += other.nacks_sent;
        self.threaded += other.threaded;
        self.mode_switches += other.mode_switches;
        self.shed += other.shed;
        self.nack_fallback_reruns += other.nack_fallback_reruns;
        self.chunks += other.chunks;
        self.cancels += other.cancels;
    }
}

/// Per-node event counters. All counts are cumulative over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeStats {
    // ---- optimistic execution (Tables 2 & 3) ----
    /// Optimistic Active Messages attempted on this node (as receiver).
    pub oam_attempts: u64,
    /// OAMs that ran to completion in the handler without aborting.
    pub oam_successes: u64,
    /// Aborts by reason; index with [`AbortReason::index`].
    pub oam_aborts: [u64; 4],
    /// Aborted OAMs resolved by promoting the partially-run handler.
    pub oam_promotions: u64,
    /// Aborted OAMs resolved by re-running the whole call as a thread.
    pub oam_reruns: u64,
    /// Aborted OAMs resolved by NACKing the sender.
    pub oam_nacks_sent: u64,
    /// NACKs received by this node's client stubs (each implies a resend).
    pub nacks_received: u64,

    // ---- threads ----
    /// Threads created (including promotions and TRPC per-call threads).
    pub threads_created: u64,
    /// Threads that ran to completion.
    pub threads_completed: u64,
    /// Full context switches charged.
    pub context_switches: u64,
    /// Thread starts that used the live-stack optimization (scheduler was on
    /// a terminated thread's stack; no register state to restore).
    pub live_stack_hits: u64,
    /// Thread starts that needed a full context switch.
    pub live_stack_misses: u64,
    /// Voluntary yields.
    pub yields: u64,

    // ---- communication ----
    /// Short active messages sent.
    pub messages_sent: u64,
    /// Short active messages received and dispatched.
    pub messages_received: u64,
    /// Bulk (scopy) transfers initiated.
    pub bulk_transfers_sent: u64,
    /// Payload bytes sent (short + bulk).
    pub bytes_sent: u64,
    /// Polls that found the NI empty.
    pub polls_empty: u64,
    /// Polls that dispatched at least one message.
    pub polls_nonempty: u64,
    /// Sends that found the NI output FIFO full and had to wait or abort.
    pub send_backpressure_events: u64,

    // ---- RPC ----
    /// Synchronous RPCs issued by this node.
    pub rpcs_sync: u64,
    /// Asynchronous RPCs issued by this node.
    pub rpcs_async: u64,

    // ---- faults & reliability ----
    /// Packets this node sent that the (faulted) fabric dropped.
    pub packets_dropped: u64,
    /// Packets this node sent that the fabric duplicated.
    pub packets_duplicated: u64,
    /// Packets this node sent that the fabric hit with an extra delay.
    pub packets_delayed: u64,
    /// Per-call timeouts that expired on this node's outstanding calls.
    pub call_timeouts: u64,
    /// Requests this node retransmitted after a timeout.
    pub retransmits: u64,
    /// Duplicate requests this node suppressed as server (at-most-once).
    pub dups_suppressed: u64,
    /// Replies/acks that arrived for an already-completed call and were
    /// dropped instead of corrupting a recycled call slot.
    pub stale_replies_dropped: u64,

    // ---- overload control ----
    /// Deadline-bearing calls this node issued that completed with a reply.
    pub calls_completed: u64,
    /// Deadline-bearing calls this node issued and gave up on (deadline
    /// expired before a reply, or the NACK back-off would overrun it).
    pub calls_abandoned: u64,
    /// Arrivals this node shed as server via admission control.
    pub calls_shed: u64,
    /// Arrivals this node dropped as server because their deadline had
    /// already expired.
    pub calls_expired: u64,
    /// NACK retries whose delay honored a server-supplied retry-after hint
    /// instead of the blind exponential back-off.
    pub retry_after_honored: u64,
    /// High-water mark of engine-admitted pending calls on this node.
    pub admission_peak: u64,
    /// Client-observed call latencies (request issue to reply integration)
    /// for deadline-bearing calls.
    pub latency: LatencyHistogram,

    // ---- sessions (streaming RPC) ----
    /// Streaming sessions this node opened as client.
    pub sessions_opened: u64,
    /// Sessions that ended with the server's Close (all chunks accounted).
    pub sessions_closed: u64,
    /// Sessions the client tore down without a Close: explicit cancel,
    /// deadline expiry, or handle drop. Every opened session ends in
    /// exactly one of closed or cancelled.
    pub sessions_cancelled: u64,
    /// Stream chunks this node received and delivered into a live session.
    pub chunks_received: u64,
    /// Chunks that arrived for a session no longer (or not yet) in the
    /// table — late traffic from cancelled or re-keyed sessions.
    pub orphan_chunks: u64,

    // ---- time accounting ----
    /// Virtual time this node spent in application compute charges.
    pub compute_time: Dur,
    /// Virtual time this node spent idle (no runnable thread, empty NI).
    pub idle_time: Dur,

    // ---- per-method breakdown ----
    /// Call-engine counters broken down by remote procedure (raw handler
    /// id); the node-level OAM counters above are their sums plus any
    /// non-engine traffic.
    pub per_method: BTreeMap<u32, MethodStats>,
}

impl NodeStats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one abort with its reason.
    #[inline]
    pub fn record_abort(&mut self, reason: AbortReason) {
        self.oam_aborts[reason.index()] += 1;
    }

    /// Total aborts across all reasons.
    pub fn total_aborts(&self) -> u64 {
        self.oam_aborts.iter().sum()
    }

    /// Fraction of OAM attempts that succeeded, in `[0, 1]`; `None` if no
    /// attempts were made.
    pub fn success_rate(&self) -> Option<f64> {
        if self.oam_attempts == 0 {
            None
        } else {
            Some(self.oam_successes as f64 / self.oam_attempts as f64)
        }
    }

    /// Fraction of thread starts that hit the live-stack optimization.
    pub fn live_stack_rate(&self) -> Option<f64> {
        let total = self.live_stack_hits + self.live_stack_misses;
        if total == 0 {
            None
        } else {
            Some(self.live_stack_hits as f64 / total as f64)
        }
    }

    /// The method-counter slot for `id`, creating it on first use.
    #[inline]
    pub fn method_mut(&mut self, id: u32) -> &mut MethodStats {
        self.per_method.entry(id).or_default()
    }

    /// Accumulate another node's counters into this one.
    pub fn merge(&mut self, other: &NodeStats) {
        self.oam_attempts += other.oam_attempts;
        self.oam_successes += other.oam_successes;
        for i in 0..self.oam_aborts.len() {
            self.oam_aborts[i] += other.oam_aborts[i];
        }
        self.oam_promotions += other.oam_promotions;
        self.oam_reruns += other.oam_reruns;
        self.oam_nacks_sent += other.oam_nacks_sent;
        self.nacks_received += other.nacks_received;
        self.threads_created += other.threads_created;
        self.threads_completed += other.threads_completed;
        self.context_switches += other.context_switches;
        self.live_stack_hits += other.live_stack_hits;
        self.live_stack_misses += other.live_stack_misses;
        self.yields += other.yields;
        self.messages_sent += other.messages_sent;
        self.messages_received += other.messages_received;
        self.bulk_transfers_sent += other.bulk_transfers_sent;
        self.bytes_sent += other.bytes_sent;
        self.polls_empty += other.polls_empty;
        self.polls_nonempty += other.polls_nonempty;
        self.send_backpressure_events += other.send_backpressure_events;
        self.rpcs_sync += other.rpcs_sync;
        self.rpcs_async += other.rpcs_async;
        self.packets_dropped += other.packets_dropped;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_delayed += other.packets_delayed;
        self.call_timeouts += other.call_timeouts;
        self.retransmits += other.retransmits;
        self.dups_suppressed += other.dups_suppressed;
        self.stale_replies_dropped += other.stale_replies_dropped;
        self.calls_completed += other.calls_completed;
        self.calls_abandoned += other.calls_abandoned;
        self.calls_shed += other.calls_shed;
        self.calls_expired += other.calls_expired;
        self.retry_after_honored += other.retry_after_honored;
        self.admission_peak = self.admission_peak.max(other.admission_peak);
        self.latency.merge(&other.latency);
        self.sessions_opened += other.sessions_opened;
        self.sessions_closed += other.sessions_closed;
        self.sessions_cancelled += other.sessions_cancelled;
        self.chunks_received += other.chunks_received;
        self.orphan_chunks += other.orphan_chunks;
        self.compute_time += other.compute_time;
        self.idle_time += other.idle_time;
        for (id, m) in &other.per_method {
            self.per_method.entry(*id).or_default().merge(m);
        }
    }
}

/// Host-engine execution counters for one run: how many conservative
/// epochs the sharded executor stepped through, how it spent them, and how
/// the delivery layer batched the records crossing worker threads. All
/// zero under the legacy single-threaded engine; the native backend fills
/// only the delivery fields (it has no epochs).
///
/// These describe the *host* schedule, not the simulated machine: they
/// legitimately vary with the shard count while every simulation-domain
/// counter stays bit-identical (fewer shards see fewer distinct fences).
/// [`MachineStats`] equality therefore ignores this field — see its manual
/// [`PartialEq`] impl. The round fields (`epochs`, `empty_epochs`,
/// `fence_skips`) and the epoch engine's `deposits`/`batches` are fully
/// deterministic for a fixed config and shard count, which is what lets
/// `tests/counters_golden.rs` pin them exactly; `wakes` (and every
/// native-backend field) additionally depends on host timing and core
/// count, so it is reported but never exact-gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Synchronization rounds the shard workers stepped through.
    pub epochs: u64,
    /// Rounds in which no shard deposited a cross-shard record (under the
    /// adaptive fence policy these cost a single fused barrier).
    pub empty_epochs: u64,
    /// Rounds in which the adaptive policy widened some shard's fence past
    /// the classic `global min + lookahead` bound.
    pub fence_skips: u64,
    /// Boundary records handed to the delivery layer (cross-shard messages
    /// in the epoch engine, ring-routed records in the native backend).
    pub deposits: u64,
    /// Non-empty batch publishes that carried those deposits: per-peer
    /// mailbox appends in the epoch engine, ring flushes (each issuing at
    /// most one wake signal) in the native backend. Under the naive
    /// per-message path (`OAM_BATCH=1`) this equals `deposits`.
    pub batches: u64,
    /// Wake signals delivered to a parked (or possibly-parked) consumer:
    /// barrier unparks in the epoch engine, post-flush unparks of a parked
    /// receiver in the native backend. Host-timing dependent.
    pub wakes: u64,
}

impl EngineCounters {
    /// Fold another worker's counters into this one. The round counters
    /// are derived from shared per-round data, so every worker reports the
    /// same values; the delivery counters are per-worker and sum.
    pub fn absorb(&mut self, other: EngineCounters) {
        debug_assert_eq!(self.epochs, other.epochs, "epoch counts must agree across workers");
        debug_assert_eq!(self.empty_epochs, other.empty_epochs);
        debug_assert_eq!(self.fence_skips, other.fence_skips);
        self.deposits += other.deposits;
        self.batches += other.batches;
        self.wakes += other.wakes;
    }

    /// Mean records per non-empty batch publish (1.0 on the naive
    /// per-message path, 0.0 when nothing was deposited).
    pub fn msgs_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.deposits as f64 / self.batches as f64
        }
    }
}

/// Whole-machine statistics: one entry per node plus the aggregate.
#[derive(Debug, Clone, Default, Eq)]
pub struct MachineStats {
    /// Per-node counters, indexed by node id.
    pub per_node: Vec<NodeStats>,
    /// Human-readable names for the handler ids appearing in
    /// [`NodeStats::per_method`], when the runtime knows them.
    pub method_names: BTreeMap<u32, String>,
    /// Host-engine epoch counters (see [`EngineCounters`]); excluded from
    /// equality.
    pub engine: EngineCounters,
}

/// Simulation-domain equality only: [`MachineStats::engine`] is excluded.
/// The host partition legitimately changes epoch counts while the simulated
/// machine stays bit-identical — and that invariance is exactly what the
/// differential tests assert with `==`.
impl PartialEq for MachineStats {
    fn eq(&self, other: &Self) -> bool {
        self.per_node == other.per_node && self.method_names == other.method_names
    }
}

impl MachineStats {
    /// Wrap harvested per-node counters.
    pub fn new(per_node: Vec<NodeStats>) -> Self {
        MachineStats { per_node, method_names: BTreeMap::new(), engine: EngineCounters::default() }
    }

    /// Attach host-engine epoch counters (the sharded engine's merge step).
    pub fn with_engine(mut self, engine: EngineCounters) -> Self {
        self.engine = engine;
        self
    }

    /// Attach handler-id → name mappings for report rendering.
    pub fn with_method_names(mut self, names: BTreeMap<u32, String>) -> Self {
        self.method_names = names;
        self
    }

    /// Machine-wide per-method counters (every node's merged), in
    /// deterministic handler-id order.
    pub fn per_method_total(&self) -> BTreeMap<u32, MethodStats> {
        let mut acc: BTreeMap<u32, MethodStats> = BTreeMap::new();
        for n in &self.per_node {
            for (id, m) in &n.per_method {
                acc.entry(*id).or_default().merge(m);
            }
        }
        acc
    }

    /// Display name for a handler id: the registered name if known, else
    /// the hex id.
    pub fn method_name(&self, id: u32) -> String {
        self.method_names.get(&id).cloned().unwrap_or_else(|| format!("{id:#010x}"))
    }

    /// Sum of all nodes' counters.
    pub fn total(&self) -> NodeStats {
        let mut acc = NodeStats::new();
        for n in &self.per_node {
            acc.merge(n);
        }
        acc
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.per_node.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_reason_indices_are_dense_and_distinct() {
        let mut seen = [false; 4];
        for r in AbortReason::ALL {
            assert!(!seen[r.index()]);
            seen[r.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn success_rate_handles_zero_attempts() {
        let mut s = NodeStats::new();
        assert_eq!(s.success_rate(), None);
        s.oam_attempts = 4;
        s.oam_successes = 3;
        assert_eq!(s.success_rate(), Some(0.75));
    }

    #[test]
    fn merge_accumulates_all_fields() {
        let mut a = NodeStats::new();
        a.oam_attempts = 1;
        a.record_abort(AbortReason::LockHeld);
        a.compute_time = Dur::from_micros(5);
        let mut b = NodeStats::new();
        b.oam_attempts = 2;
        b.record_abort(AbortReason::LockHeld);
        b.record_abort(AbortReason::NetworkFull);
        b.compute_time = Dur::from_micros(7);
        a.merge(&b);
        assert_eq!(a.oam_attempts, 3);
        assert_eq!(a.oam_aborts[AbortReason::LockHeld.index()], 2);
        assert_eq!(a.total_aborts(), 3);
        assert_eq!(a.compute_time, Dur::from_micros(12));
    }

    #[test]
    fn machine_stats_total_sums_nodes() {
        let mut n0 = NodeStats::new();
        n0.messages_sent = 10;
        let mut n1 = NodeStats::new();
        n1.messages_sent = 32;
        let m = MachineStats::new(vec![n0, n1]);
        assert_eq!(m.nodes(), 2);
        assert_eq!(m.total().messages_sent, 42);
    }

    #[test]
    fn per_method_counters_aggregate_across_nodes() {
        let mut n0 = NodeStats::new();
        n0.method_mut(7).attempts = 3;
        n0.method_mut(7).inline_ok = 2;
        n0.method_mut(7).aborts[AbortReason::LockHeld.index()] = 1;
        let mut n1 = NodeStats::new();
        n1.method_mut(7).attempts = 1;
        n1.method_mut(9).threaded = 5;
        let m = MachineStats::new(vec![n0, n1]);
        let total = m.per_method_total();
        assert_eq!(total[&7].attempts, 4);
        assert_eq!(total[&7].inline_ok, 2);
        assert_eq!(total[&7].total_aborts(), 1);
        assert_eq!(total[&9].threaded, 5);
        assert_eq!(m.method_name(9), "0x00000009");
        let m = m.with_method_names([(9u32, "Svc::op".to_string())].into_iter().collect());
        assert_eq!(m.method_name(9), "Svc::op");
    }

    #[test]
    fn latency_histogram_quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Dur::ZERO);
        assert_eq!(h.count(), 0);
        for us in 1..=1000u64 {
            h.record(Dur::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!(p50 <= p99 && p99 <= p999, "{p50:?} {p99:?} {p999:?}");
        // Log buckets: the quantile is an upper bound within ~19% of the
        // true value, and never below it.
        assert!(p50 >= Dur::from_micros(500) && p50 <= Dur::from_micros(625), "{p50:?}");
        assert!(p99 >= Dur::from_micros(990) && p99 <= Dur::from_micros(1250), "{p99:?}");
        assert!(h.mean() >= Dur::from_micros(490) && h.mean() <= Dur::from_micros(510));
    }

    #[test]
    fn latency_histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut both = LatencyHistogram::default();
        for i in 0..500u64 {
            let d = Dur::from_nanos(i * i + 1);
            if i % 2 == 0 {
                a.record(d);
            } else {
                b.record(d);
            }
            both.record(d);
        }
        a.merge(&b);
        assert_eq!(a, both, "merge must be exactly additive");
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn latency_histogram_buckets_are_monotone() {
        // bucket_of must be monotone non-decreasing and bucket_upper an
        // upper bound for everything mapped into the bucket.
        let mut prev = 0usize;
        for ns in 0..=4096u64 {
            let b = LatencyHistogram::bucket_of(ns);
            assert!(b >= prev, "bucket_of must not decrease at {ns}");
            assert!(
                LatencyHistogram::bucket_upper(b) >= ns,
                "upper({b}) = {} < {ns}",
                LatencyHistogram::bucket_upper(b)
            );
            prev = b;
        }
    }

    #[test]
    fn overload_counters_merge_and_peak_takes_max() {
        let mut a = NodeStats::new();
        a.calls_shed = 3;
        a.admission_peak = 7;
        a.latency.record(Dur::from_micros(10));
        let mut b = NodeStats::new();
        b.calls_shed = 2;
        b.calls_expired = 1;
        b.admission_peak = 5;
        a.merge(&b);
        assert_eq!(a.calls_shed, 5);
        assert_eq!(a.calls_expired, 1);
        assert_eq!(a.admission_peak, 7, "peak merges by max, not sum");
        assert_eq!(a.latency.count(), 1);
    }

    #[test]
    fn live_stack_rate() {
        let mut s = NodeStats::new();
        assert!(s.live_stack_rate().is_none());
        s.live_stack_hits = 3;
        s.live_stack_misses = 1;
        assert_eq!(s.live_stack_rate(), Some(0.75));
    }
}
