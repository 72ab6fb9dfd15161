//! Storage media with transfer-time and persistence-cost models.

use std::fmt;

/// Where a piece of intermediate data travels or rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Medium {
    /// Intra-server zero-copy shared memory (SPRIGHT-like).
    SharedMemory,
    /// Fast in-memory external storage (ElastiCache Redis-like).
    Redis,
    /// Elastic object storage (S3-like).
    S3,
}

impl fmt::Display for Medium {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Medium::SharedMemory => "shared-memory",
            Medium::Redis => "redis",
            Medium::S3 => "s3",
        })
    }
}

/// Per-task transfer characteristics of a medium: a one-off request latency
/// plus streaming at a fixed per-task bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Fixed per-request latency, seconds.
    pub(crate) latency: f64,
    /// Per-task streaming bandwidth, bytes/second.
    pub(crate) bandwidth: f64,
}

impl TransferModel {
    /// Time for one task to move `bytes` through this medium.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// Calibrated defaults per medium. Absolute values are representative
    /// of the paper's environment (S3 ~80 MB/s per function with tens of ms
    /// latency; Redis several hundred MB/s with sub-ms latency; SPRIGHT
    /// shared memory "microsecond-level latency, no matter the data size"),
    /// preserving the orders-of-magnitude gaps that drive scheduling.
    pub fn for_medium(m: Medium) -> Self {
        match m {
            // Zero-copy: latency only, effectively infinite bandwidth.
            Medium::SharedMemory => TransferModel {
                latency: 2e-6,
                bandwidth: 1e15,
            },
            // Redis is sub-millisecond per request, but two cache nodes
            // serve hundreds of concurrent functions: the per-task
            // streaming rate is contention-bound well below the NIC rate.
            Medium::Redis => TransferModel {
                latency: 1.5e-3,
                bandwidth: 150e6,
            },
            Medium::S3 => TransferModel {
                latency: 40e-3,
                bandwidth: 80e6,
            },
        }
    }
}

/// Persistence pricing of a medium, in dollars per GB·second (relative
/// units; only ratios matter for the normalized-cost figures).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Price per GB of data resident for one second.
    pub(crate) gb_second_price: f64,
}

impl CostModel {
    /// Cost of keeping `bytes` resident for `seconds`.
    pub fn persistence_cost(&self, bytes: u64, seconds: f64) -> f64 {
        self.gb_second_price * (bytes as f64 / 1e9) * seconds
    }

    /// Calibrated defaults: memory (shared memory, Redis) dominates; S3 is
    /// >1000× cheaper per GB·s and is ignored, exactly as the paper does.
    pub fn for_medium(m: Medium) -> Self {
        match m {
            Medium::SharedMemory => CostModel {
                gb_second_price: 1.0,
            },
            Medium::Redis => CostModel {
                gb_second_price: 1.2, // managed cache premium
            },
            Medium::S3 => CostModel {
                gb_second_price: 0.0, // ignored per §6 (priced >1000x less)
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_latency_plus_stream() {
        let t = TransferModel {
            latency: 0.01,
            bandwidth: 100e6,
        };
        assert!((t.transfer_time(100_000_000) - 1.01).abs() < 1e-9);
        assert!((t.transfer_time(0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn media_ordering_holds() {
        // Shared memory ≪ Redis ≪ S3 for any realistic size.
        for bytes in [1u64 << 10, 1 << 20, 1 << 30] {
            let sm = TransferModel::for_medium(Medium::SharedMemory).transfer_time(bytes);
            let rd = TransferModel::for_medium(Medium::Redis).transfer_time(bytes);
            let s3 = TransferModel::for_medium(Medium::S3).transfer_time(bytes);
            assert!(sm < rd && rd < s3, "bytes={bytes}: {sm} {rd} {s3}");
        }
    }

    #[test]
    fn shared_memory_size_insensitive() {
        let m = TransferModel::for_medium(Medium::SharedMemory);
        let small = m.transfer_time(1 << 10);
        let huge = m.transfer_time(1 << 40);
        assert!((huge - small) < 1e-2, "zero-copy must not scale with size");
    }

    #[test]
    fn s3_persistence_free_memory_priced() {
        let gb = 1_000_000_000u64;
        assert_eq!(CostModel::for_medium(Medium::S3).persistence_cost(gb, 100.0), 0.0);
        let sm = CostModel::for_medium(Medium::SharedMemory).persistence_cost(gb, 2.0);
        assert!((sm - 2.0).abs() < 1e-9);
        let rd = CostModel::for_medium(Medium::Redis).persistence_cost(gb, 2.0);
        assert!(rd > sm);
    }

    #[test]
    fn display_names() {
        assert_eq!(Medium::SharedMemory.to_string(), "shared-memory");
        assert_eq!(Medium::Redis.to_string(), "redis");
        assert_eq!(Medium::S3.to_string(), "s3");
    }
}
