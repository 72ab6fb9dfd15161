//! The data plane: placement-aware routing of intermediate data.
//!
//! The paper's execution engine "provides data communication APIs (e.g.,
//! shuffle and broadcast) that transparently dispatch I/O requests to shared
//! memory or external storage, according to the co-location of the upstream
//! and downstream tasks" (§5). [`DataPlane`] is that dispatch layer: it
//! owns one external [`ObjectStore`] (S3- or Redis-like) and one
//! [`SharedMemoryBus`] per server, and routes each transfer by whether the
//! producing and consuming tasks share a server ([`DataPlane::colocated`]).
//!
//! Two paths cross it. Encoded frames (`Bytes`) go through
//! [`DataPlane::send_partition_sized`] / [`DataPlane::recv_partition`] on
//! either medium. A co-located edge can skip the codec altogether:
//! [`DataPlane::send_local`] / [`DataPlane::take_local`] publish any owned
//! value on the server's bus and hand the consumer that same value.
//!
//! It also keeps a [`TransferLedger`] of wire and logical bytes moved per
//! medium. Persistence cost is the simulator's to charge (`CostModel`).

use crate::medium::Medium;
use crate::object_store::{ObjectStore, StoreError};
use crate::sharedmem::SharedMemoryBus;
use bytes::Bytes;
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;
use std::time::Duration;

/// Accumulated transfer accounting, per medium.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MediumLedger {
    /// Bytes written into the medium: the encoded frame's length, or for
    /// a typed shared-memory hand-off ([`DataPlane::send_local`]) the
    /// value's logical size, since nothing was encoded.
    pub bytes_in: u64,
    /// Number of transfers.
    pub transfers: u64,
    /// Pre-encoding (logical) size of the transferred tables. The gap to
    /// `bytes_in` is what the columnar codec saved on the wire —
    /// dictionary-encoded string columns make wire bytes smaller than the
    /// in-memory table they carry. A typed hand-off has no gap.
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
    fn for_medium_mut(&mut self, m: Medium) -> &mut MediumLedger {
        match m {
            Medium::SharedMemory => &mut self.shared_memory,
            Medium::Redis => &mut self.redis,
            Medium::S3 => &mut self.s3,
        }
    }
}

/// Placement-aware data exchange for one job execution.
pub struct DataPlane {
    external_medium: Medium,
    external: Arc<ObjectStore>,
    buses: Vec<SharedMemoryBus>,
    ledger: Mutex<TransferLedger>,
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
            buses: (0..n_servers).map(|_| SharedMemoryBus::new()).collect(),
            ledger: Mutex::new(TransferLedger::default()),
        }
    }

    /// The external object store (for job input/output and inspection).
    pub fn external_store(&self) -> &Arc<ObjectStore> {
        &self.external
    }

    /// Whether a producer on `src_server` and a consumer on `dst_server`
    /// are co-located, so their edge goes through shared memory rather
    /// than the external store. The one locality rule of the data path:
    /// the runtime's routing, its reads and its object-fault targeting all
    /// ask it.
    pub fn colocated(src_server: usize, dst_server: usize) -> bool {
        src_server == dst_server
    }

    /// Which medium a transfer between the two servers uses.
    fn medium_between(&self, src_server: usize, dst_server: usize) -> Medium {
        if Self::colocated(src_server, dst_server) {
            Medium::SharedMemory
        } else {
            self.external_medium
        }
    }

    /// Ledger snapshot.
    pub fn ledger(&self) -> TransferLedger {
        *self.ledger.lock()
    }

    /// Book one transfer into `medium`'s ledger row.
    fn book(&self, medium: Medium, bytes: u64, logical_bytes: u64) {
        let mut l = self.ledger.lock();
        let m = l.for_medium_mut(medium);
        m.bytes_in += bytes;
        m.transfers += 1;
        m.logical_bytes += logical_bytes;
    }

    // ------------------------------------------------------------------
    // Physical path (used by the local runtime in ditto-exec)
    // ------------------------------------------------------------------

    /// Publish one intermediate partition from `(edge, from_task)` to
    /// `to_task`, where producer and consumer run on the given servers.
    /// `logical_bytes` is the table size the encoded frame represents, so
    /// the codec's compression shows as the gap between the two ledger
    /// columns.
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
            Medium::SharedMemory => self.buses[src_server].send((edge, from_task, to_task), data),
            _ => self
                .external
                .put(partition_key(edge, from_task, to_task), data)?,
        }
        self.book(medium, bytes, logical_bytes);
        Ok(())
    }

    /// Hand `value` from `(edge, from_task)` to `to_task`, both on
    /// `server`, through that server's shared-memory bus — no encoding:
    /// the consumer's [`DataPlane::take_local`] returns this very value.
    /// `logical_bytes` is booked as both the wire and the logical size.
    pub fn send_local<T: Any + Send>(
        &self,
        edge: u32,
        from_task: u32,
        to_task: u32,
        server: usize,
        value: T,
        logical_bytes: u64,
    ) {
        self.buses[server].send((edge, from_task, to_task), value);
        self.book(Medium::SharedMemory, logical_bytes, logical_bytes);
    }

    /// Take the value [`DataPlane::send_local`] published for
    /// `(edge, from_task, to_task)` on `server`. A slot that is empty,
    /// already taken, or holds another type (an encoded frame, say) is
    /// [`StoreError::NotFound`] at once.
    pub fn take_local<T: Any>(
        &self,
        edge: u32,
        from_task: u32,
        to_task: u32,
        server: usize,
    ) -> Result<T, StoreError> {
        self.buses[server]
            .take((edge, from_task, to_task))
            .ok_or_else(|| StoreError::NotFound(partition_key(edge, from_task, to_task)))
    }

    /// Receive one intermediate partition: one take from the source
    /// server's bus, or one checksummed get from the external store. The
    /// runtime launches a consumer only after every producer it reads has
    /// published, so a partition that is not there is lost, not late, and
    /// the miss is [`StoreError::NotFound`] at once. The timeout is unused.
    pub fn recv_partition(
        &self,
        edge: u32,
        from_task: u32,
        to_task: u32,
        src_server: usize,
        dst_server: usize,
        _timeout: Duration,
    ) -> Result<Bytes, StoreError> {
        match self.medium_between(src_server, dst_server) {
            Medium::SharedMemory => self.take_local(edge, from_task, to_task, src_server),
            _ => self.external.get(&partition_key(edge, from_task, to_task)),
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
/// Public so the runtime's object-fault injection can address objects by
/// the name the data plane stores them under.
pub fn partition_key(edge: u32, from_task: u32, to_task: u32) -> String {
    format!("shuffle/e{edge}/{from_task}/{to_task}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn send(dp: &DataPlane, key: (u32, u32, u32), servers: (usize, usize), data: &'static [u8]) {
        let (e, f, t) = key;
        let len = data.len() as u64;
        dp.send_partition_sized(e, f, t, servers.0, servers.1, Bytes::from_static(data), len)
            .unwrap();
    }

    #[test]
    fn routes_by_colocation() {
        let dp = DataPlane::new(Medium::S3, 2);
        assert!(DataPlane::colocated(1, 1));
        assert!(!DataPlane::colocated(0, 1));
        assert_eq!(dp.medium_between(0, 0), Medium::SharedMemory);
        assert_eq!(dp.medium_between(0, 1), Medium::S3);
    }

    #[test]
    fn take_local_returns_the_published_allocation() {
        let dp = DataPlane::new(Medium::S3, 2);
        let value = vec![5u64; 512];
        let ptr = value.as_ptr();
        dp.send_local(4, 0, 1, 1, value, 4096);
        let got: Vec<u64> = dp.take_local(4, 0, 1, 1).unwrap();
        assert_eq!(got.as_ptr(), ptr, "the consumer holds the producer's buffer");
        // A taken slot is gone.
        let again = dp.take_local::<Vec<u64>>(4, 0, 1, 1);
        assert!(matches!(again, Err(StoreError::NotFound(_))));
        // A typed send books its logical size as wire and logical bytes.
        let l = dp.ledger().shared_memory;
        assert_eq!((l.bytes_in, l.logical_bytes, l.transfers), (4096, 4096, 1));
        assert_eq!(dp.ledger().s3, MediumLedger::default());
    }

    #[test]
    fn a_slot_of_another_type_is_not_found() {
        let dp = DataPlane::new(Medium::S3, 2);
        // An encoded frame read as a typed value, and a typed value read
        // as an encoded frame: both miss, neither panics.
        send(&dp, (0, 0, 1), (1, 1), b"abc");
        let typed = dp.take_local::<Vec<u64>>(0, 0, 1, 1);
        assert!(matches!(typed, Err(StoreError::NotFound(_))));
        dp.send_local(1, 0, 1, 0, vec![1u64], 8);
        let framed = dp.recv_partition(1, 0, 1, 0, 0, Duration::ZERO);
        assert!(matches!(framed, Err(StoreError::NotFound(_))));
        let wrong = dp.take_local::<String>(1, 0, 1, 0);
        assert!(matches!(wrong, Err(StoreError::NotFound(_))));
    }

    #[test]
    #[should_panic(expected = "Redis or S3")]
    fn shared_memory_not_external() {
        DataPlane::new(Medium::SharedMemory, 1);
    }

    #[test]
    fn physical_same_server_via_bus() {
        let dp = DataPlane::new(Medium::S3, 2);
        send(&dp, (0, 0, 1), (1, 1), b"abc");
        let got = dp.recv_partition(0, 0, 1, 1, 1, Duration::ZERO).unwrap();
        assert_eq!(got, Bytes::from_static(b"abc"));
        // A taken slot is gone.
        let again = dp.recv_partition(0, 0, 1, 1, 1, Duration::ZERO);
        assert!(matches!(again, Err(StoreError::NotFound(_))));
        let l = dp.ledger();
        assert_eq!(l.shared_memory.transfers, 1);
        assert_eq!(l.shared_memory.bytes_in, 3);
        assert_eq!(l.s3.transfers, 0);
    }

    #[test]
    fn physical_cross_server_via_external() {
        let dp = DataPlane::new(Medium::Redis, 2);
        send(&dp, (3, 1, 0), (0, 1), b"xyz");
        let got = dp.recv_partition(3, 1, 0, 0, 1, Duration::ZERO).unwrap();
        assert_eq!(got, Bytes::from_static(b"xyz"));
        assert_eq!(dp.ledger().redis.transfers, 1);
    }

    #[test]
    fn a_missing_partition_is_not_found_at_once_whatever_the_timeout() {
        let dp = DataPlane::new(Medium::S3, 2);
        let t0 = Instant::now();
        for (src, dst) in [(0, 0), (0, 1)] {
            let got = dp.recv_partition(9, 0, 0, src, dst, Duration::from_secs(30));
            assert!(
                matches!(got, Err(StoreError::NotFound(_))),
                "{src} -> {dst}"
            );
        }
        assert!(t0.elapsed() < Duration::from_secs(5), "a read never waits");
    }

    #[test]
    fn a_tampered_partition_is_corrupted() {
        let dp = DataPlane::new(Medium::S3, 2);
        send(&dp, (2, 0, 0), (0, 1), b"good");
        assert!(dp.external_store().tamper(&partition_key(2, 0, 0)));
        let err = dp
            .recv_partition(2, 0, 0, 0, 1, Duration::ZERO)
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }));
    }

    #[test]
    fn sized_sends_track_logical_bytes_separately() {
        let dp = DataPlane::new(Medium::S3, 2);
        // 3 wire bytes carrying a 10-byte logical table (compressed), plus
        // a send whose logical size is its wire size.
        dp.send_partition_sized(0, 0, 0, 0, 1, Bytes::from_static(b"abc"), 10)
            .unwrap();
        send(&dp, (0, 0, 1), (0, 1), b"defg");
        let l = dp.ledger();
        assert_eq!(l.s3.bytes_in, 7);
        assert_eq!(l.s3.logical_bytes, 14);
        assert_eq!(l.s3.transfers, 2);
    }
}
