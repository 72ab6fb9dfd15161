#![warn(missing_docs)]
// The determinism rules of DESIGN.md §6f, denied in non-test library code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

//! # ditto-storage — data exchange substrates
//!
//! Serverless functions exchange intermediate data through one of three
//! media, mirroring the paper's deployment:
//!
//! * **S3-like object storage** ([`ObjectStore`] with [`Medium::S3`]):
//!   high capacity, high per-request latency, modest per-task bandwidth,
//!   priced >1000× cheaper per GB·s than memory (so its persistence cost is
//!   ignored, as in the paper §6);
//! * **Redis-like in-memory storage** ([`Medium::Redis`]): low latency,
//!   high bandwidth, bounded capacity, memory-priced;
//! * **SPRIGHT-like shared memory** ([`sharedmem::SharedMemoryBus`] /
//!   [`Medium::SharedMemory`]): zero-copy intra-server exchange with
//!   microsecond latency regardless of size — the mechanism that makes
//!   function placement matter (§2.2).
//!
//! [`DataPlane`] ties them together: a put/get surface that routes by
//! placement (co-located → shared memory, otherwise the configured
//! external store) and accounts wire and logical bytes per medium. The
//! persistence cost the paper charges for shared memory and Redis
//! (§6.2/§6.3) is [`CostModel`]'s, which the simulator applies.

pub mod checksum;
pub mod commit;
pub mod dataplane;
pub mod medium;
pub mod object_store;
pub mod sharedmem;

pub use checksum::checksum64;
pub use commit::{CommitLedger, CommitOutcome};
pub use dataplane::{partition_key, DataPlane, TransferLedger};
pub use medium::{CostModel, Medium, TransferModel};
pub use object_store::{ObjectStore, StoreError};
pub use sharedmem::SharedMemoryBus;
