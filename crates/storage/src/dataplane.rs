//! The data plane: placement-aware routing of intermediate data.
//!
//! The paper's execution engine "provides data communication APIs (e.g.,
//! shuffle and broadcast) that transparently dispatch I/O requests to shared
//! memory or external storage, according to the co-location of the upstream
//! and downstream tasks" (§5). [`DataPlane`] is that dispatch layer: it
//! owns one external [`ObjectStore`] (S3- or Redis-like) and one
//! [`SharedMemoryBus`] per server, and routes each transfer by whether the
//! producing and consuming tasks share a server.
//!
//! It also keeps a [`TransferLedger`] of bytes moved and persistence cost
//! accrued per medium — the source of the shared-memory/Redis cost terms in
//! the paper's cost metric (§6.2).

use crate::checksum::checksum64;
use crate::lineage::LineageIndex;
use crate::medium::{CostModel, Medium, TransferModel};
use crate::object_store::{ObjectStore, StoreError};
use crate::sharedmem::SharedMemoryBus;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Bounded-retry policy for external reads.
///
/// The exec-layer `RecoveryPolicy` governs task re-execution; this is its
/// storage-side counterpart for the read path, built from the same
/// `max_retries` / `backoff_base` knobs so one configuration bounds both
/// (the satellite fix: storage reads used to poll unbounded and invisibly).
/// Backoff between attempts is exponential with deterministic jitter
/// derived from the partition key, so reruns with the same seed take the
/// same wait schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadRetryPolicy {
    /// Maximum read attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// First backoff between attempts, seconds; doubles each retry.
    pub backoff_base: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by
    /// `1 ± jitter` (deterministically, keyed by partition + attempt).
    pub jitter: f64,
}

impl Default for ReadRetryPolicy {
    fn default() -> Self {
        // 64 doublings of 200µs span far beyond any test timeout while
        // keeping every wait bounded and accounted.
        ReadRetryPolicy {
            max_attempts: 64,
            backoff_base: 200e-6,
            jitter: 0.25,
        }
    }
}

impl ReadRetryPolicy {
    /// Backoff before retry number `attempt` (0-based) of `key`, seconds.
    /// Exponential base-2 growth, capped at 50ms, with multiplicative
    /// jitter drawn deterministically from `(key, attempt)`.
    pub fn backoff(&self, key: &str, attempt: u32) -> f64 {
        let raw = (self.backoff_base * 2f64.powi(attempt.min(16) as i32)).min(0.05);
        let h = checksum64(key.as_bytes(), attempt as u64);
        // Map the hash onto [-1, 1] then into the jitter band.
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
        raw * (1.0 + self.jitter * unit)
    }
}

/// Accounting of external-read retries (the formerly invisible path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReadRetryStats {
    /// Reads that needed more than one attempt.
    pub retried_reads: u64,
    /// Total extra attempts across all reads.
    pub extra_attempts: u64,
    /// Reads that exhausted the attempt budget (or the caller's deadline).
    pub exhausted: u64,
    /// Reads that failed checksum verification.
    pub corrupt_reads: u64,
}

/// Accumulated transfer and persistence accounting, per medium.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MediumLedger {
    /// Bytes written into the medium.
    pub bytes_in: u64,
    /// Bytes read out of the medium.
    pub bytes_out: u64,
    /// Number of transfers.
    pub transfers: u64,
    /// Accrued persistence cost (price · GB · s).
    pub persistence_cost: f64,
    /// Pre-encoding (logical) size of the transferred tables. The gap to
    /// `bytes_in` is what the columnar codec saved on the wire —
    /// dictionary-encoded string columns make wire bytes smaller than the
    /// in-memory table they carry.
    pub logical_bytes: u64,
}

/// Ledger over all three media.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TransferLedger {
    /// Shared-memory accounting.
    pub shared_memory: MediumLedger,
    /// Redis accounting.
    pub redis: MediumLedger,
    /// S3 accounting.
    pub s3: MediumLedger,
}

impl TransferLedger {
    /// The ledger for one medium.
    pub fn for_medium(&self, m: Medium) -> &MediumLedger {
        match m {
            Medium::SharedMemory => &self.shared_memory,
            Medium::Redis => &self.redis,
            Medium::S3 => &self.s3,
        }
    }

    fn for_medium_mut(&mut self, m: Medium) -> &mut MediumLedger {
        match m {
            Medium::SharedMemory => &mut self.shared_memory,
            Medium::Redis => &mut self.redis,
            Medium::S3 => &mut self.s3,
        }
    }

    /// Total persistence cost across media — the storage component of the
    /// paper's job cost.
    pub fn total_persistence_cost(&self) -> f64 {
        self.shared_memory.persistence_cost + self.redis.persistence_cost + self.s3.persistence_cost
    }
}

/// Placement-aware data exchange for one job execution.
pub struct DataPlane {
    external_medium: Medium,
    external: Arc<ObjectStore>,
    buses: Vec<Arc<SharedMemoryBus>>,
    ledger: Mutex<TransferLedger>,
    obs: Mutex<Option<Arc<ditto_obs::Recorder>>>,
    retry: Mutex<ReadRetryPolicy>,
    read_stats: Mutex<ReadRetryStats>,
    lineage: LineageIndex,
}

impl DataPlane {
    /// Build a data plane with the given external medium backing shuffles
    /// between non-co-located tasks, for a cluster of `n_servers` servers.
    ///
    /// # Panics
    /// Panics if `external_medium` is [`Medium::SharedMemory`]: shared
    /// memory is intra-server only and cannot back remote exchange.
    pub fn new(external_medium: Medium, n_servers: usize) -> Self {
        assert!(
            external_medium != Medium::SharedMemory,
            "external medium must be Redis or S3"
        );
        let external = match external_medium {
            // Two cache.r5.4xlarge Redis nodes ≈ 228 GB usable in the paper.
            Medium::Redis => Arc::new(ObjectStore::bounded("redis", 228 << 30)),
            Medium::S3 => Arc::new(ObjectStore::unbounded("s3")),
            Medium::SharedMemory => unreachable!(),
        };
        DataPlane {
            external_medium,
            external,
            buses: (0..n_servers).map(|_| Arc::new(SharedMemoryBus::new())).collect(),
            ledger: Mutex::new(TransferLedger::default()),
            obs: Mutex::new(None),
            retry: Mutex::new(ReadRetryPolicy::default()),
            read_stats: Mutex::new(ReadRetryStats::default()),
            lineage: LineageIndex::new(),
        }
    }

    /// Replace the external-read retry policy (the runtime derives it from
    /// its `RecoveryPolicy` so one knob bounds task and read retries alike).
    pub fn set_read_retry(&self, policy: ReadRetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Current external-read retry policy.
    pub fn read_retry(&self) -> ReadRetryPolicy {
        *self.retry.lock()
    }

    /// Snapshot of external-read retry accounting.
    pub fn read_stats(&self) -> ReadRetryStats {
        *self.read_stats.lock()
    }

    /// The lineage index mapping intermediate objects to their producers.
    pub fn lineage(&self) -> &LineageIndex {
        &self.lineage
    }

    /// Attach a telemetry recorder: every subsequent transfer also lands
    /// on the `storage.bytes` counter (per-medium series), timestamped
    /// with the recorder's wall clock. Physical-path counterpart of the
    /// simulator's per-edge byte accounting.
    pub fn attach_recorder(&self, obs: Arc<ditto_obs::Recorder>) {
        *self.obs.lock() = Some(obs);
    }

    /// The configured external medium.
    pub fn external_medium(&self) -> Medium {
        self.external_medium
    }

    /// The external object store (for job input/output and inspection).
    pub fn external_store(&self) -> &Arc<ObjectStore> {
        &self.external
    }

    /// The shared-memory bus of one server.
    pub fn bus(&self, server: usize) -> &Arc<SharedMemoryBus> {
        &self.buses[server]
    }

    /// Which medium a transfer between the two servers uses.
    pub fn medium_between(&self, src_server: usize, dst_server: usize) -> Medium {
        if src_server == dst_server {
            Medium::SharedMemory
        } else {
            self.external_medium
        }
    }

    /// Simulated per-task transfer time for `bytes` between the servers.
    pub fn transfer_time(&self, src_server: usize, dst_server: usize, bytes: u64) -> f64 {
        TransferModel::for_medium(self.medium_between(src_server, dst_server)).transfer_time(bytes)
    }

    /// Record a transfer whose wire size (`bytes`) differs from the
    /// logical table size it carries (`logical_bytes`) — the codec's
    /// compression shows up as the gap between the two ledger columns.
    pub fn record_transfer_sized(&self, medium: Medium, bytes: u64, logical_bytes: u64) {
        {
            let mut l = self.ledger.lock();
            let m = l.for_medium_mut(medium);
            m.bytes_in += bytes;
            m.bytes_out += bytes;
            m.transfers += 1;
            m.logical_bytes += logical_bytes;
        }
        if let Some(obs) = self.obs.lock().as_ref() {
            if obs.is_enabled() {
                let series = match medium {
                    Medium::SharedMemory => "shared-memory",
                    Medium::Redis => "redis",
                    Medium::S3 => "s3",
                };
                obs.counter_add("storage.bytes", series, bytes as f64, obs.wall_now());
            }
        }
    }

    /// Accrue persistence cost: `bytes` resident in `medium` for `seconds`.
    pub fn record_persistence(&self, medium: Medium, bytes: u64, seconds: f64) {
        let cost = CostModel::for_medium(medium).persistence_cost(bytes, seconds);
        self.ledger.lock().for_medium_mut(medium).persistence_cost += cost;
    }

    /// Ledger snapshot.
    pub fn ledger(&self) -> TransferLedger {
        *self.ledger.lock()
    }

    // ------------------------------------------------------------------
    // Physical path (used by the local runtime in ditto-exec)
    // ------------------------------------------------------------------

    /// Publish one intermediate partition from `(edge, from_task)` to
    /// `to_task`, where producer and consumer run on the given servers.
    pub fn send_partition(
        &self,
        edge: u32,
        from_task: u32,
        to_task: u32,
        src_server: usize,
        dst_server: usize,
        data: Bytes,
    ) -> Result<(), StoreError> {
        let bytes = data.len() as u64;
        self.send_partition_sized(edge, from_task, to_task, src_server, dst_server, data, bytes)
    }

    /// [`Self::send_partition`] with an explicit logical (pre-encoding)
    /// size, for producers that track how many table bytes the encoded
    /// frame represents.
    #[allow(clippy::too_many_arguments)]
    pub fn send_partition_sized(
        &self,
        edge: u32,
        from_task: u32,
        to_task: u32,
        src_server: usize,
        dst_server: usize,
        data: Bytes,
        logical_bytes: u64,
    ) -> Result<(), StoreError> {
        let bytes = data.len() as u64;
        let medium = self.medium_between(src_server, dst_server);
        match medium {
            Medium::SharedMemory => {
                self.buses[src_server].send((edge, from_task, to_task), data);
            }
            _ => {
                self.external.put(partition_key(edge, from_task, to_task), data)?;
            }
        }
        self.record_transfer_sized(medium, bytes, logical_bytes);
        // Happens-before edge for the race checker: the object is now
        // durable (or on the bus); any fetch of this key must follow.
        self.hb_object_event("hb.object_commit", &partition_key(edge, from_task, to_task));
        Ok(())
    }

    /// Emit one dataplane `hb.object_*` event on the storage track, keyed
    /// by partition key, at the recorder's wall clock. No-op without an
    /// attached, enabled recorder.
    fn hb_object_event(&self, name: &'static str, key: &str) {
        if let Some(obs) = self.obs.lock().as_ref() {
            if obs.is_enabled() {
                obs.event(
                    name,
                    ditto_obs::Track::storage(),
                    obs.wall_now(),
                    vec![("key", ditto_obs::AttrValue::Text(key.to_string()))],
                );
            }
        }
    }

    /// Receive one intermediate partition, blocking up to `timeout` when it
    /// travels via shared memory (producer may still be running).
    pub fn recv_partition(
        &self,
        edge: u32,
        from_task: u32,
        to_task: u32,
        src_server: usize,
        dst_server: usize,
        timeout: Duration,
    ) -> Result<Bytes, StoreError> {
        match self.medium_between(src_server, dst_server) {
            Medium::SharedMemory => {
                match self.buses[src_server].recv((edge, from_task, to_task), timeout) {
                    Some(b) => {
                        self.hb_object_event(
                            "hb.object_fetch",
                            &partition_key(edge, from_task, to_task),
                        );
                        Ok(b)
                    }
                    None => Err(StoreError::NotFound(partition_key(edge, from_task, to_task))),
                }
            }
            _ => {
                let key = partition_key(edge, from_task, to_task);
                // External stores have no blocking read; poll with bounded,
                // jittered backoff (the local runtime launches consumers
                // after producers, so this loop rarely spins more than
                // once). Both the attempt budget and the caller's deadline
                // bound the loop; corruption is surfaced immediately — the
                // bytes will not improve by re-reading, only lineage
                // re-execution can heal them.
                let policy = self.read_retry();
                let deadline = std::time::Instant::now() + timeout;
                let mut attempt = 0u32;
                loop {
                    match self.external.get(&key) {
                        Ok(b) => {
                            if attempt > 0 {
                                let mut st = self.read_stats.lock();
                                st.retried_reads += 1;
                                st.extra_attempts += attempt as u64;
                            }
                            self.hb_object_event("hb.object_fetch", &key);
                            return Ok(b);
                        }
                        Err(StoreError::NotFound(_))
                            if attempt + 1 < policy.max_attempts
                                && std::time::Instant::now() < deadline =>
                        {
                            #[expect(
                                clippy::disallowed_methods,
                                reason = "recv_partition retry loop bounded by RetryPolicy::max_retries; jittered backoff capped at 50 ms per wait"
                            )]
                            std::thread::sleep(Duration::from_secs_f64(
                                policy.backoff(&key, attempt),
                            ));
                            attempt += 1;
                        }
                        Err(e) => {
                            let mut st = self.read_stats.lock();
                            if attempt > 0 {
                                st.extra_attempts += attempt as u64;
                            }
                            match &e {
                                StoreError::Corrupted { .. } => st.corrupt_reads += 1,
                                StoreError::NotFound(_) => st.exhausted += 1,
                                StoreError::CapacityExceeded { .. } => {}
                            }
                            return Err(e);
                        }
                    }
                }
            }
        }
    }
}

impl std::fmt::Debug for DataPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DataPlane")
            .field("external_medium", &self.external_medium)
            .field("servers", &self.buses.len())
            .field("ledger", &self.ledger())
            .finish()
    }
}

/// The store key of one shuffled partition: `(edge, producer, consumer)`.
/// Public so the runtime's lineage index can address objects by the same
/// name the data plane stores them under.
pub fn partition_key(edge: u32, from_task: u32, to_task: u32) -> String {
    format!("shuffle/e{edge}/{from_task}/{to_task}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_by_colocation() {
        let dp = DataPlane::new(Medium::S3, 2);
        assert_eq!(dp.medium_between(0, 0), Medium::SharedMemory);
        assert_eq!(dp.medium_between(0, 1), Medium::S3);
        assert!(dp.transfer_time(0, 0, 1 << 20) < dp.transfer_time(0, 1, 1 << 20));
    }

    #[test]
    #[should_panic(expected = "Redis or S3")]
    fn shared_memory_not_external() {
        DataPlane::new(Medium::SharedMemory, 1);
    }

    #[test]
    fn physical_same_server_via_bus() {
        let dp = DataPlane::new(Medium::S3, 2);
        dp.send_partition(0, 0, 1, 1, 1, Bytes::from_static(b"abc")).unwrap();
        let got = dp
            .recv_partition(0, 0, 1, 1, 1, Duration::from_millis(50))
            .unwrap();
        assert_eq!(got, Bytes::from_static(b"abc"));
        let l = dp.ledger();
        assert_eq!(l.shared_memory.transfers, 1);
        assert_eq!(l.shared_memory.bytes_in, 3);
        assert_eq!(l.s3.transfers, 0);
    }

    #[test]
    fn physical_cross_server_via_external() {
        let dp = DataPlane::new(Medium::Redis, 2);
        dp.send_partition(3, 1, 0, 0, 1, Bytes::from_static(b"xyz")).unwrap();
        let got = dp
            .recv_partition(3, 1, 0, 0, 1, Duration::from_millis(50))
            .unwrap();
        assert_eq!(got, Bytes::from_static(b"xyz"));
        assert_eq!(dp.ledger().redis.transfers, 1);
    }

    #[test]
    fn recv_external_polls_until_available() {
        let dp = Arc::new(DataPlane::new(Medium::S3, 2));
        let dp2 = dp.clone();
        let t = std::thread::spawn(move || {
            dp2.recv_partition(0, 0, 0, 0, 1, Duration::from_secs(2))
        });
        std::thread::sleep(Duration::from_millis(10));
        dp.send_partition(0, 0, 0, 0, 1, Bytes::from_static(b"late")).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), Bytes::from_static(b"late"));
    }

    #[test]
    fn attached_recorder_sees_transfers() {
        let obs = Arc::new(ditto_obs::Recorder::new());
        let dp = DataPlane::new(Medium::S3, 2);
        dp.attach_recorder(obs.clone());
        dp.send_partition(0, 0, 0, 0, 0, Bytes::from_static(b"local")).unwrap();
        dp.send_partition(0, 0, 1, 0, 1, Bytes::from_static(b"remote!")).unwrap();
        let data = obs.finish();
        assert_eq!(data.samples.len(), 2);
        let m = &data.metrics;
        let get = |series: &str| {
            m.iter()
                .find(|s| s.name == "storage.bytes" && s.series == series)
                .map(|s| s.value)
        };
        assert_eq!(get("shared-memory"), Some(5.0));
        assert_eq!(get("s3"), Some(7.0));
    }

    #[test]
    fn commit_and_fetch_emit_ordered_hb_events() {
        let obs = Arc::new(ditto_obs::Recorder::new());
        let dp = DataPlane::new(Medium::S3, 2);
        dp.attach_recorder(obs.clone());
        // One external transfer and one shared-memory transfer.
        dp.send_partition(4, 1, 2, 0, 1, Bytes::from_static(b"ext")).unwrap();
        dp.recv_partition(4, 1, 2, 0, 1, Duration::from_millis(50))
            .unwrap();
        dp.send_partition(5, 0, 0, 1, 1, Bytes::from_static(b"shm")).unwrap();
        dp.recv_partition(5, 0, 0, 1, 1, Duration::from_millis(50))
            .unwrap();
        let data = obs.finish();
        let by_name = |n: &str| -> Vec<_> { data.events.iter().filter(|e| e.name == n).collect() };
        let commits = by_name("hb.object_commit");
        let fetches = by_name("hb.object_fetch");
        assert_eq!(commits.len(), 2);
        assert_eq!(fetches.len(), 2);
        for (c, f) in commits.iter().zip(fetches.iter()) {
            assert_eq!(c.attr("key"), f.attr("key"), "commit/fetch keys must pair");
            assert!(c.ts <= f.ts, "commit {} must precede fetch {}", c.ts, f.ts);
        }
        // A failed fetch emits no event: nothing was handed to the reader.
        let obs2 = Arc::new(ditto_obs::Recorder::new());
        let dp2 = DataPlane::new(Medium::S3, 1);
        dp2.attach_recorder(obs2.clone());
        dp2.set_read_retry(ReadRetryPolicy {
            max_attempts: 1,
            backoff_base: 1e-4,
            jitter: 0.0,
        });
        assert!(dp2.recv_partition(0, 0, 0, 0, 0, Duration::from_millis(1)).is_err());
        assert!(obs2.finish().events.is_empty());
    }

    #[test]
    fn bounded_read_retry_gives_up_and_accounts() {
        let dp = DataPlane::new(Medium::S3, 2);
        dp.set_read_retry(ReadRetryPolicy {
            max_attempts: 3,
            backoff_base: 1e-4,
            jitter: 0.5,
        });
        let err = dp
            .recv_partition(9, 0, 0, 0, 1, Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, StoreError::NotFound(_)));
        let st = dp.read_stats();
        assert_eq!(st.exhausted, 1);
        assert_eq!(st.extra_attempts, 2);
    }

    #[test]
    fn late_publish_counts_as_retried_read() {
        let dp = Arc::new(DataPlane::new(Medium::S3, 2));
        let dp2 = dp.clone();
        let t = std::thread::spawn(move || {
            dp2.recv_partition(1, 0, 0, 0, 1, Duration::from_secs(2))
        });
        std::thread::sleep(Duration::from_millis(15));
        dp.send_partition(1, 0, 0, 0, 1, Bytes::from_static(b"late")).unwrap();
        assert_eq!(t.join().unwrap().unwrap(), Bytes::from_static(b"late"));
        let st = dp.read_stats();
        assert_eq!(st.retried_reads, 1);
        assert!(st.extra_attempts >= 1);
    }

    #[test]
    fn corrupt_partition_surfaces_without_retry() {
        let dp = DataPlane::new(Medium::S3, 2);
        dp.send_partition(2, 0, 0, 0, 1, Bytes::from_static(b"good")).unwrap();
        assert!(dp.external_store().tamper(&partition_key(2, 0, 0)));
        let err = dp
            .recv_partition(2, 0, 0, 0, 1, Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }));
        assert_eq!(dp.read_stats().corrupt_reads, 1);
    }

    #[test]
    fn backoff_is_deterministic_and_jittered() {
        let p = ReadRetryPolicy::default();
        assert_eq!(p.backoff("k", 3), p.backoff("k", 3));
        assert_ne!(p.backoff("k", 3), p.backoff("k", 4));
        for a in 0..80 {
            let b = p.backoff("some/key", a);
            assert!(b > 0.0 && b <= 0.05 * (1.0 + p.jitter), "attempt {a}: {b}");
        }
    }

    #[test]
    fn sized_sends_track_logical_bytes_separately() {
        let dp = DataPlane::new(Medium::S3, 2);
        // 3 wire bytes carrying a 10-byte logical table (compressed), plus
        // an unsized send where logical defaults to wire size.
        dp.send_partition_sized(0, 0, 0, 0, 1, Bytes::from_static(b"abc"), 10)
            .unwrap();
        dp.send_partition(0, 0, 1, 0, 1, Bytes::from_static(b"defg")).unwrap();
        let l = dp.ledger();
        assert_eq!(l.s3.bytes_in, 7);
        assert_eq!(l.s3.logical_bytes, 14);
        assert_eq!(l.s3.transfers, 2);
    }

    #[test]
    fn persistence_cost_accrues() {
        let dp = DataPlane::new(Medium::Redis, 1);
        dp.record_persistence(Medium::SharedMemory, 1_000_000_000, 3.0);
        dp.record_persistence(Medium::S3, 1_000_000_000, 100.0); // free
        let l = dp.ledger();
        assert!(l.shared_memory.persistence_cost > 0.0);
        assert_eq!(l.s3.persistence_cost, 0.0);
        assert!((l.total_persistence_cost() - l.shared_memory.persistence_cost).abs() < 1e-12);
    }
}
