//! Pins the benchmark to one CPU.
//!
//! Every workload is a serial chain: one attack at a time, or one request
//! handed from client to server (to router, to replicas) and back. On a
//! two-vCPU virtual machine a hand-off between vCPUs costs an
//! inter-processor interrupt whose price depends on where the host has
//! placed the vCPUs: over ten seeds, the cluster workload's throughput
//! flipped between two modes 1.9× apart, each lasting minutes. Pinned, every
//! hand-off is a context switch on one CPU; the cluster stayed in the fast
//! mode, and the serial chains lose no parallelism they were using.

use std::io;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and with it every thread it spawns later, to
/// the first CPU it may run on. Returns that CPU.
///
/// # Errors
///
/// The OS error if the affinity cannot be read or set.
#[cfg(target_os = "linux")]
pub fn to_first_cpu() -> io::Result<usize> {
    // glibc's cpu_set_t: 1024 bits.
    let mut allowed = [0u64; 16];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of exactly `size` bytes, which
    // is all the call may write; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or_else(|| io::Error::other("the affinity mask is empty"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, which is
    // all the call may read; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Pinning needs Linux; elsewhere the benchmark runs unpinned.
///
/// # Errors
///
/// Always `Unsupported`.
#[cfg(not(target_os = "linux"))]
pub fn to_first_cpu() -> io::Result<usize> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "CPU pinning needs Linux",
    ))
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #[test]
    fn a_pinned_thread_sees_one_cpu() {
        std::thread::spawn(|| {
            let cpu = super::to_first_cpu().expect("pin");
            assert_eq!(
                std::thread::available_parallelism().map(usize::from).ok(),
                Some(1)
            );
            let child =
                std::thread::spawn(|| std::thread::available_parallelism().map(usize::from).ok());
            assert_eq!(
                child.join().expect("child"),
                Some(1),
                "threads inherit the pin"
            );
            cpu
        })
        .join()
        .expect("pinned thread");
    }
}
