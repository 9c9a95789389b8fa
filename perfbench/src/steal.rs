//! CPU time the host takes from the gateway thread.
//!
//! On a shared virtual machine the hypervisor now and then takes a vCPU
//! away for milliseconds (steal), and in the guest another task may preempt
//! the thread. The thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`) stops in
//! both cases, but it also stops while the thread sleeps or blocks. So a
//! stretch in which the thread made no voluntary context switch, and still
//! ran for less CPU time than wall time, lost the difference to the host:
//! it is not the program's time. A stretch with a voluntary switch (a
//! sleep, an fsync, a lock wait) is never corrected, since its off-CPU
//! time cannot be told apart from the wait.

use std::time::{Duration, Instant};

/// Wall clock, thread CPU clock and voluntary context switches, read
/// together.
#[derive(Clone, Copy)]
pub struct Probe {
    pub wall: Instant,
    cpu_ns: u64,
    voluntary: u64,
}

impl Probe {
    pub fn now() -> Self {
        let (cpu_ns, voluntary) = sys::thread_cpu_and_voluntary();
        Self { wall: Instant::now(), cpu_ns, voluntary }
    }

    /// Off-CPU time since `earlier` that the thread did not give up:
    /// zero if it switched out voluntarily in between.
    pub fn stolen_since(&self, earlier: &Probe) -> Duration {
        if self.voluntary != earlier.voluntary {
            return Duration::ZERO;
        }
        let wall = self.wall.saturating_duration_since(earlier.wall);
        wall.saturating_sub(Duration::from_nanos(self.cpu_ns.saturating_sub(earlier.cpu_ns)))
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// ending in `ru_nvcsw`, `ru_nivcsw`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }

    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    const RUSAGE_THREAD: i32 = 1;
    const NVCSW: usize = 12;

    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    pub fn thread_cpu_and_voluntary() -> (u64, u64) {
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        let mut ru = Rusage { times: [0; 4], longs: [0; 14] };
        // SAFETY: both calls only write the struct they are given, which
        // has the C layout of `struct timespec` / `struct rusage` here.
        let (a, b) = unsafe {
            (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts), getrusage(RUSAGE_THREAD, &mut ru))
        };
        assert!(a == 0 && b == 0, "thread clock unavailable");
        (ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64, ru.longs[NVCSW] as u64)
    }
}

/// Elsewhere every stretch counts as a voluntary switch: nothing is
/// corrected.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
mod sys {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub fn thread_cpu_and_voluntary() -> (u64, u64) {
        static N: AtomicU64 = AtomicU64::new(0);
        (0, N.fetch_add(1, Ordering::Relaxed))
    }
}
