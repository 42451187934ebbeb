//! Rotating the calling thread over the CPUs the process may use.
//!
//! On a shared host each vCPU's speed drifts on its own, in stretches of
//! 10 to 30 s up to 1.5x apart, and a busy thread stays on whichever vCPU
//! the scheduler gave it. The single-worker phases therefore move from
//! CPU to CPU slice by slice, so every run samples all of them alike.

/// A Linux `cpu_set_t`: 1,024 CPUs.
#[derive(Clone, Copy)]
#[repr(C)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<CpuSet> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a writable `cpu_set_t` of the size passed; pid 0
    // is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

#[cfg(target_os = "linux")]
fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable `cpu_set_t` of the size passed; pid 0
    // is the calling thread. A refusal leaves the thread where it was.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) };
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<CpuSet> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &CpuSet) {}

/// The CPUs the calling thread may use, taken when it was built.
pub struct Rotation {
    allowed: Option<CpuSet>,
    cpus: Vec<usize>,
}

impl Rotation {
    /// Reads the calling thread's allowed CPUs.
    pub fn new() -> Rotation {
        let allowed = get();
        let cpus = allowed.map_or_else(Vec::new, |s| {
            (0..1024)
                .filter(|c| s.0[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        Rotation { allowed, cpus }
    }

    /// Pins the calling thread to the `slice`-th allowed CPU, cycling.
    pub fn pin(&self, slice: usize) {
        if self.cpus.len() > 1 {
            let cpu = self.cpus[slice % self.cpus.len()];
            let mut one = CpuSet([0; 16]);
            one.0[cpu / 64] = 1 << (cpu % 64);
            set(&one);
        }
    }

    /// Gives the calling thread back every allowed CPU (threads it spawns
    /// inherit its mask).
    pub fn release(&self) {
        if let Some(all) = &self.allowed {
            set(all);
        }
    }
}

impl Default for Rotation {
    fn default() -> Self {
        Rotation::new()
    }
}
