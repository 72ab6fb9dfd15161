//! Pin the run to one CPU.
//!
//! `LocalRuntime` starts a thread per task and sleeps at every stage
//! barrier, so on two CPUs a job is dozens of wake-ups of an idle one. In
//! the sandbox's virtual machine a halted vCPU is woken by the host, and
//! what that costs flips between two states for minutes at a time:
//! `tpcds_fanout` read 300 jobs/s in one quarter of an hour and 470 in
//! the next, on one commit. On one CPU nothing halts while work is
//! runnable, and the same workload reads 455–475 jobs/s run after run —
//! which is also the *best* the two-CPU runs ever reach: at these task
//! sizes the second CPU buys no speed-up, only the noise. So every run is
//! pinned, and the numbers fence what the program itself pays for its
//! threads, barriers and copies; they make no claim about parallel
//! speed-up (on a two-core box there is little to claim).

/// Bits in the mask handed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict this thread — and every thread it later starts — to the
/// lowest-numbered CPU it is allowed on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
        .ok_or("empty CPU affinity mask")?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
