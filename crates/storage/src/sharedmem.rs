//! SPRIGHT-like zero-copy shared-memory exchange for co-located functions.
//!
//! Functions placed on the same server exchange intermediate data through
//! shared memory: the producer publishes a value, the consumer receives
//! that same value — no copy, no serialization. The paper models this as
//! α = β = 0 for the co-located I/O steps; here the bus also serves as a
//! *real* transport for the local runtime in `ditto-exec`, which hands its
//! co-located consumers the producer's in-memory table and launches a
//! consumer only after its producers have published, so a read never
//! waits: a slot is there or it is lost.

use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;

/// A channel key: (edge id, producer task, consumer task).
pub(crate) type SlotKey = (u32, u32, u32);

/// Zero-copy publish/take bus for intra-server data exchange.
///
/// Slots hold any owned value (`Box<dyn Any + Send>`), so the bus carries
/// whatever the caller's data model is — encoded `Bytes` frames or typed
/// tables — without this crate depending on it. [`SharedMemoryBus::take`]
/// moves the published value out, so the consumer gets the *same*
/// allocation the producer published — the zero-copy property SPRIGHT
/// provides via shared memory.
#[derive(Default)]
pub(crate) struct SharedMemoryBus {
    slots: Mutex<HashMap<SlotKey, Box<dyn Any + Send>>>,
}

impl SharedMemoryBus {
    /// New empty bus.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publish a value for `(edge, from_task, to_task)`. Publishing twice
    /// to the same slot replaces the value (retry semantics).
    pub(crate) fn send<T: Any + Send>(&self, key: SlotKey, value: T) {
        self.slots.lock().insert(key, Box::new(value));
    }

    /// Take the value of a slot, `None` if nothing of type `T` is
    /// published there. Taking removes the slot (each partition has
    /// exactly one consumer under shuffle/gather); a slot of another type
    /// is left in place.
    pub(crate) fn take<T: Any>(&self, key: SlotKey) -> Option<T> {
        let mut slots = self.slots.lock();
        match slots.remove(&key)?.downcast::<T>() {
            Ok(value) => Some(*value),
            Err(other) => {
                slots.insert(key, other);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn take_is_zero_copy_and_empties_the_slot() {
        let bus = SharedMemoryBus::new();
        let payload = Bytes::from(vec![7u8; 1024]);
        let ptr = payload.as_ptr();
        bus.send((0, 0, 0), payload);
        let got: Bytes = bus.take((0, 0, 0)).unwrap();
        // Same allocation: zero-copy.
        assert_eq!(got.as_ptr(), ptr);
        assert_eq!(got.len(), 1024);
        assert!(bus.take::<Bytes>((0, 0, 0)).is_none(), "a taken slot is gone");
    }

    #[test]
    fn a_slot_of_another_type_is_not_taken() {
        let bus = SharedMemoryBus::new();
        bus.send((1, 0, 0), vec![1u64, 2, 3]);
        assert!(bus.take::<Bytes>((1, 0, 0)).is_none());
        // The mistyped read left the value for its real consumer.
        assert_eq!(bus.take::<Vec<u64>>((1, 0, 0)), Some(vec![1, 2, 3]));
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
            let b: Bytes = bus.take((0, i, 0)).unwrap();
            assert_eq!(b[0], i as u8);
        }
    }
}
