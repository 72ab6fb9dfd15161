//! In-memory object store simulating S3/Redis: keyed blobs with optional
//! capacity bounds, per-object checksums, and usage statistics.

use crate::checksum::{checksum64, STORE_SEED};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;

/// Errors from object-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A put would exceed the store's capacity (Redis is bounded; §6.3
    /// scales the benchmark down to fit it).
    CapacityExceeded {
        /// Bytes the store can hold.
        capacity: u64,
        /// Bytes that would be resident after the put.
        requested: u64,
    },
    /// Get of a key that was never put (or was deleted).
    NotFound(String),
    /// Get of a key whose bytes no longer match the checksum recorded at
    /// put time — the intermediate object was silently corrupted.
    Corrupted {
        /// The corrupted key.
        key: String,
        /// Checksum recorded on put.
        expected: u64,
        /// Checksum of the bytes as read.
        actual: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::CapacityExceeded {
                capacity,
                requested,
            } => write!(f, "capacity exceeded: {requested} > {capacity} bytes"),
            StoreError::NotFound(k) => write!(f, "object not found: {k:?}"),
            StoreError::Corrupted {
                key,
                expected,
                actual,
            } => write!(
                f,
                "object {key:?} corrupted: checksum {actual:#018x} != recorded {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Usage statistics of an [`ObjectStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of put operations served.
    pub puts: u64,
    /// Number of successful get operations served.
    pub(crate) gets: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Peak resident bytes over the store's lifetime.
    pub peak_bytes: u64,
    /// Total bytes ever written.
    pub(crate) bytes_written: u64,
    /// Total bytes ever read.
    pub(crate) bytes_read: u64,
    /// Gets that failed checksum verification.
    pub(crate) corrupt_reads: u64,
}

/// A thread-safe keyed blob store.
///
/// `Bytes` values make gets zero-copy (reference-counted slices), so the
/// store is cheap enough to use on the local runtime's data path, not only
/// in simulation.
pub struct ObjectStore {
    name: String,
    /// `None` = unbounded (S3-like); `Some(bytes)` = bounded (Redis-like).
    capacity: Option<u64>,
    inner: Mutex<Inner>,
}

/// One stored blob plus the checksum recorded when it was put.
struct StoredObject {
    data: Bytes,
    checksum: u64,
}

#[derive(Default)]
struct Inner {
    objects: HashMap<String, StoredObject>,
    stats: StoreStats,
}

impl ObjectStore {
    /// Unbounded store (S3-like).
    pub fn unbounded(name: impl Into<String>) -> Self {
        ObjectStore {
            name: name.into(),
            capacity: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Capacity-bounded store (Redis-like).
    pub fn bounded(name: impl Into<String>, capacity: u64) -> Self {
        ObjectStore {
            name: name.into(),
            capacity: Some(capacity),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Store a blob under `key`, replacing any previous value. The blob's
    /// checksum is recorded so later [`get`]s can detect corruption.
    ///
    /// [`get`]: ObjectStore::get
    pub fn put(&self, key: impl Into<String>, value: Bytes) -> Result<(), StoreError> {
        let key = key.into();
        let mut inner = self.inner.lock();
        let old = inner
            .objects
            .get(&key)
            .map(|o| o.data.len() as u64)
            .unwrap_or(0);
        let new_resident = inner.stats.resident_bytes - old + value.len() as u64;
        if let Some(cap) = self.capacity {
            if new_resident > cap {
                return Err(StoreError::CapacityExceeded {
                    capacity: cap,
                    requested: new_resident,
                });
            }
        }
        inner.stats.puts += 1;
        inner.stats.bytes_written += value.len() as u64;
        inner.stats.resident_bytes = new_resident;
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(new_resident);
        let checksum = checksum64(&value, STORE_SEED);
        inner.objects.insert(
            key,
            StoredObject {
                data: value,
                checksum,
            },
        );
        Ok(())
    }

    /// Fetch a blob (zero-copy clone of the stored `Bytes`), verifying it
    /// against the checksum recorded at put time.
    pub fn get(&self, key: &str) -> Result<Bytes, StoreError> {
        let mut inner = self.inner.lock();
        let (v, expected) = match inner.objects.get(key) {
            Some(o) => (o.data.clone(), o.checksum),
            None => return Err(StoreError::NotFound(key.to_string())),
        };
        let actual = checksum64(&v, STORE_SEED);
        if actual != expected {
            inner.stats.corrupt_reads += 1;
            return Err(StoreError::Corrupted {
                key: key.to_string(),
                expected,
                actual,
            });
        }
        inner.stats.gets += 1;
        inner.stats.bytes_read += v.len() as u64;
        Ok(v)
    }

    /// Delete a blob; `true` if it existed. Freed bytes reduce residency
    /// (how Redis recovers capacity once downstream consumed the data).
    pub fn delete(&self, key: &str) -> bool {
        let mut inner = self.inner.lock();
        if let Some(o) = inner.objects.remove(key) {
            inner.stats.resident_bytes -= o.data.len() as u64;
            true
        } else {
            false
        }
    }

    /// Flip bits in the stored blob without updating its recorded checksum
    /// — a corruption injector for fault testing. `true` if the key existed.
    pub fn tamper(&self, key: &str) -> bool {
        let mut inner = self.inner.lock();
        let grew = match inner.objects.get_mut(key) {
            Some(o) => {
                let mut data = o.data.to_vec();
                if data.is_empty() {
                    // An empty blob has no bit to flip; grow it instead.
                    data.push(0xFF);
                } else {
                    let mid = data.len() / 2;
                    data[mid] ^= 0x5A;
                }
                let grew = data.len() as u64 - o.data.len() as u64;
                o.data = Bytes::from(data);
                grew
            }
            None => return false,
        };
        inner.stats.resident_bytes += grew;
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.resident_bytes);
        true
    }

    /// Snapshot of usage statistics.
    pub fn stats(&self) -> StoreStats {
        self.inner.lock().stats
    }
}

impl fmt::Debug for ObjectStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObjectStore")
            .field("name", &self.name)
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let s = ObjectStore::unbounded("s3");
        s.put("a/0", Bytes::from_static(b"hello")).unwrap();
        assert_eq!(s.get("a/0").unwrap(), Bytes::from_static(b"hello"));
        let st = s.stats();
        assert_eq!(st.puts, 1);
        assert_eq!(st.gets, 1);
        assert_eq!(st.resident_bytes, 5);
        assert_eq!(st.bytes_read, 5);
    }

    #[test]
    fn get_missing_errors() {
        let s = ObjectStore::unbounded("s3");
        assert!(matches!(s.get("nope"), Err(StoreError::NotFound(_))));
    }

    #[test]
    fn tampered_object_fails_checksum() {
        let s = ObjectStore::unbounded("s3");
        s.put("a/0", Bytes::from_static(b"payload")).unwrap();
        assert!(s.tamper("a/0"));
        let err = s.get("a/0").unwrap_err();
        assert!(matches!(err, StoreError::Corrupted { .. }), "{err}");
        assert_eq!(s.stats().corrupt_reads, 1);
        // Re-putting clean bytes heals the key.
        s.put("a/0", Bytes::from_static(b"payload")).unwrap();
        assert_eq!(s.get("a/0").unwrap(), Bytes::from_static(b"payload"));
        assert!(!s.tamper("missing"));
    }

    #[test]
    fn tamper_empty_object_detected() {
        let s = ObjectStore::unbounded("s3");
        s.put("e", Bytes::new()).unwrap();
        assert!(s.tamper("e"));
        assert!(matches!(s.get("e"), Err(StoreError::Corrupted { .. })));
    }

    #[test]
    fn bounded_capacity_enforced() {
        let s = ObjectStore::bounded("redis", 10);
        s.put("k1", Bytes::from(vec![0u8; 6])).unwrap();
        let err = s.put("k2", Bytes::from(vec![0u8; 6])).unwrap_err();
        assert!(matches!(err, StoreError::CapacityExceeded { .. }));
        // Replacing a key only counts the delta.
        s.put("k1", Bytes::from(vec![0u8; 10])).unwrap();
        assert_eq!(s.stats().resident_bytes, 10);
    }

    #[test]
    fn delete_frees_capacity() {
        let s = ObjectStore::bounded("redis", 10);
        s.put("k1", Bytes::from(vec![0u8; 8])).unwrap();
        assert!(s.delete("k1"));
        assert!(!s.delete("k1"));
        s.put("k2", Bytes::from(vec![0u8; 8])).unwrap();
        assert_eq!(s.stats().peak_bytes, 8);
    }

    #[test]
    fn concurrent_access() {
        use std::sync::Arc;
        let s = Arc::new(ObjectStore::unbounded("s3"));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        s.put(format!("{t}/{i}"), Bytes::from(vec![t as u8; 64])).unwrap();
                        assert_eq!(s.get(&format!("{t}/{i}")).unwrap().len(), 64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.stats().puts, 400);
        assert_eq!(s.stats().resident_bytes, 400 * 64);
    }
}
