//! SPRIGHT-like zero-copy shared-memory exchange for co-located functions.
//!
//! Functions placed on the same server exchange intermediate data through
//! shared memory: the producer publishes a reference-counted buffer, the
//! consumer receives the same buffer without copying or serialization. The
//! paper models this as α = β = 0 for the co-located I/O steps; here the
//! bus also serves as a *real* transport for the local runtime in
//! `ditto-exec`, which launches a consumer only after its producers have
//! published, so a read never waits: a slot is there or it is lost.

use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;

/// A channel key: (edge id, producer task, consumer task).
pub(crate) type SlotKey = (u32, u32, u32);

/// Zero-copy publish/take bus for intra-server data exchange.
///
/// `Bytes` values are reference-counted slices, so [`SharedMemoryBus::take`]
/// hands the consumer the *same* allocation the producer published — the
/// zero-copy property SPRIGHT provides via shared memory.
#[derive(Default)]
pub(crate) struct SharedMemoryBus {
    slots: Mutex<HashMap<SlotKey, Bytes>>,
}

impl SharedMemoryBus {
    /// New empty bus.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publish a buffer for `(edge, from_task, to_task)`. Publishing twice
    /// to the same slot replaces the buffer (retry semantics).
    pub(crate) fn send(&self, key: SlotKey, data: Bytes) {
        self.slots.lock().insert(key, data);
    }

    /// Take the buffer of a slot, `None` if nothing is published there.
    /// Taking removes the slot (each partition has exactly one consumer
    /// under shuffle/gather).
    pub(crate) fn take(&self, key: SlotKey) -> Option<Bytes> {
        self.slots.lock().remove(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn take_is_zero_copy_and_empties_the_slot() {
        let bus = SharedMemoryBus::new();
        let payload = Bytes::from(vec![7u8; 1024]);
        let ptr = payload.as_ptr();
        bus.send((0, 0, 0), payload);
        let got = bus.take((0, 0, 0)).unwrap();
        // Same allocation: zero-copy.
        assert_eq!(got.as_ptr(), ptr);
        assert_eq!(got.len(), 1024);
        assert!(bus.take((0, 0, 0)).is_none(), "a taken slot is gone");
    }

    #[test]
    fn many_producers_one_consumer() {
        let bus = Arc::new(SharedMemoryBus::new());
        let producers: Vec<_> = (0..8u32)
            .map(|i| {
                let bus = bus.clone();
                std::thread::spawn(move || {
                    bus.send((0, i, 0), Bytes::from(vec![i as u8; 16]));
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for i in 0..8u32 {
            let b = bus.take((0, i, 0)).unwrap();
            assert_eq!(b[0], i as u8);
        }
    }
}
