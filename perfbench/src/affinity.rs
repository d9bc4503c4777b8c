//! Spreading single-threaded calls evenly over the host's cores.
//!
//! A single-threaded call stays on the core it starts on, and on a shared
//! host one core can run a quarter slower than another for tens of seconds
//! at a time.  The reference host showed exactly that: the serial session's
//! medians split run by run into a fast and a slow group, depending on
//! where its thread happened to sit, while `dist2`, which keeps every core
//! busy, did not.  [`Rotation`] pins each serial call to the next allowed
//! core in turn, so every run samples every core equally.
//!
//! Linux only, through the C library's `sched_{get,set}affinity`.  Where
//! the mask cannot be read or set, calls run unpinned.

/// Words of a `cpu_set_t`: 1024 CPUs.
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

type Mask = [u64; WORDS];

/// The calling thread's CPU mask.
fn get() -> Option<Mask> {
    let mut mask: Mask = [0; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Sets the calling thread's CPU mask; false when the kernel refused.
fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// Hands out the allowed cores one after another.
#[derive(Debug, Default)]
pub struct Rotation {
    turn: usize,
}

impl Rotation {
    /// Runs `f` pinned to the next allowed core, then restores the thread's
    /// previous mask, so threads spawned later (the `dist2` ranks) may use
    /// every core again.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let Some(saved) = get() else {
            return f();
        };
        let cpus: Vec<usize> = (0..WORDS * 64)
            .filter(|&c| saved[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.len() < 2 {
            return f();
        }
        let cpu = cpus[self.turn % cpus.len()];
        self.turn += 1;
        let mut one: Mask = [0; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        if !set(&one) {
            return f();
        }
        let out = f();
        set(&saved);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_restores_the_mask() {
        let before = get();
        let mut r = Rotation::default();
        for _ in 0..3 {
            assert_eq!(r.run(|| 7), 7);
            assert_eq!(get(), before);
        }
    }
}
