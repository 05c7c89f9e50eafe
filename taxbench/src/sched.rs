//! What the benchmark asks of the operating system so that a request is
//! sent when it is due and the run keeps to one core. Everything here
//! is best effort: where the kernel refuses, the run says so and goes
//! on.

use std::time::{Duration, Instant};

const SCHED_FIFO: i32 = 1;

/// Move the calling thread to `policy` at `priority`; true on success.
fn set_policy(policy: i32, priority: i32) -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam {
        sched_priority: priority,
    };
    // SAFETY: `sched_setscheduler(2)` reads one `struct sched_param` (a
    // single int on Linux) through the pointer, which is valid for the
    // call; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

/// Put the calling thread in the real-time class (`SCHED_FIFO`, lowest
/// priority), so that its wake-ups are not queued behind the program's
/// own threads on the shared core: an independent user does not wait
/// for the server's CPU before sending. Returns whether the kernel
/// allowed it (it needs `CAP_SYS_NICE`).
pub fn make_realtime() -> bool {
    set_policy(SCHED_FIFO, 1)
}

/// An affinity mask: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuMask) -> i32;
}

fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes through the
    // pointer, exactly the mask it points at; pid 0 is this thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask) == 0 }
}

/// The calling thread on one core, and back on the cores it had before
/// once dropped. Threads spawned meanwhile inherit the one core and
/// keep it.
///
/// The box's two virtual cores are, at the host's whim, two threads of
/// one physical core: whenever both are busy each runs at about two
/// thirds of its speed, for seconds at a time. A run that keeps to one
/// core is never in that mode by its own doing, and the calibration
/// thread (see `calib`) watches the core the program is on.
pub struct OneCore {
    before: Option<CpuMask>,
}

impl OneCore {
    /// Pin to the highest-numbered allowed core (the lowest takes the
    /// box's interrupts). Where the kernel refuses, the thread stays
    /// where it was.
    pub fn pin() -> OneCore {
        let mut allowed: CpuMask = [0; 16];
        // SAFETY: `sched_getaffinity(2)` writes at most `cpusetsize`
        // bytes through the pointer, the size of the mask it points at.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), &mut allowed) } == 0;
        let last = (0..allowed.len() * 64)
            .rev()
            .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1);
        let before = match last {
            Some(cpu) if got => {
                let mut one: CpuMask = [0; 16];
                one[cpu / 64] = 1 << (cpu % 64);
                set_affinity(&one).then_some(allowed)
            }
            _ => None,
        };
        OneCore { before }
    }

    pub fn pinned(&self) -> bool {
        self.before.is_some()
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(before) = self.before.take() {
            set_affinity(&before);
        }
    }
}

/// How close to the target the pacer stops sleeping and starts
/// spinning; `thread::sleep` alone overshoots by tens of microseconds.
/// Short, because a spinning real-time sender holds the one core.
const SPIN_WINDOW: Duration = Duration::from_micros(40);

/// Block until `target` (sleep, then spin the last stretch).
pub fn wait_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}
