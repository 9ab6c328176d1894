//! The host-speed probe: a fixed computation that shares no code with the
//! layer crates, timed between ops, the scaling built on it, and the CPU
//! pinning that makes the probe see what the ops see.
//!
//! On a shared host the speed of a vCPU changes by up to 1.8 times within
//! seconds, as neighbours come and go on the same cores and caches, and
//! stays in one state for seconds to minutes; on the 2-vCPU host the
//! baseline was taken on, the two vCPUs change independently. The probe is
//! three small kernels of the kinds of work the layers do: a bytecode
//! dispatch loop (the machines), an unstable sort (branchy comparisons)
//! and dependent loads through an L2-sized random cycle (graph walks). An
//! op's time is scaled to the probe's reference speed with the probes
//! taken around it, so a run on a host slowed down by its neighbours reads
//! about what the same run would on a quiet host.
//!
//! A run pins itself, and so the threads the layers start, to one CPU
//! ([`pin_to_current_cpu`]). Unpinned, the probe and the ops ran on
//! whichever vCPU was free, so the probe often read the other vCPU's
//! state: per second, the op times followed the probe with a correlation
//! of 0.71–0.80. Pinned, that rose to 0.91 on pta-modes and serve-edit,
//! and the workloads whose ops start helper threads (the parser's big
//! stack, the server's per-request worker) ran 16–34% more ops per
//! second, as those threads no longer wake the other vCPU or move the
//! client off its caches.
//!
//! Memory-latency probes (random loads through 2 to 32 MiB) were tried
//! too; they follow the last-level-cache contention, which moves them by
//! up to 4 times while the op times move by less than 2, and they fitted
//! the op times worse than these kernels.

use std::time::Instant;

/// The probe's time, in milliseconds, at the reference speed: about its
/// time on the 2-vCPU host the baseline was taken on when that host was
/// quiet. Scaled timings are `measured × (REFERENCE_MS / probe time)^e`,
/// with `e` the workload's elasticity (1 unless measured otherwise).
pub const REFERENCE_MS: f64 = 2.0;

/// An op's time is scaled by the median of the probes taken within this
/// many seconds of its midpoint: close enough to follow the vCPU's changes
/// of state, wide enough for a steady median.
const LOCAL_S: f64 = 1.0;

/// Pins the calling thread, and every thread it starts from then on, to
/// the CPU it is running on. Returns that CPU, or `None` where pinning is
/// not supported or refused (the run then measures unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    /// glibc's `cpu_set_t`: a mask of 1024 CPUs.
    #[repr(C)]
    struct CpuSet([u64; 16]);
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, set: *const CpuSet) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() })
        .ok()
        .filter(|&c| c < 1024)?;
    let mut set = CpuSet([0; 16]);
    set.0[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t` of the size passed; pid 0 is the
    // calling thread.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } == 0;
    pinned.then_some(cpu)
}

/// Pins the calling thread to its CPU; not supported here.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// One step of the probe's bytecode machine.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Mul,
    Rem,
    Less,
    JumpIf(usize),
    Jump(usize),
    Halt,
}

/// Iterations of the bytecode loop per probe.
const VM_ITERS: i64 = 20_000;
/// Values sorted per probe.
const SORT_LEN: usize = 32_768;
/// Slots of the pointer-chase cycle (128 KiB of `u32`) and loads per probe.
const CHASE_SLOTS: usize = 1 << 15;
const CHASE_STEPS: usize = 1 << 17;

/// The probe's kernels and their fixed inputs.
pub struct HostProbe {
    program: Vec<Op>,
    chase: Vec<u32>,
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random permutation of `0..n` that is one cycle (Sattolo's
/// algorithm), so a walk from any slot visits every slot.
fn one_cycle(n: usize, state: &mut u64) -> Vec<u32> {
    let mut t: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        t.swap(i, (xorshift(state) % i as u64) as usize);
    }
    t
}

impl HostProbe {
    /// Builds the kernels' inputs; deterministic.
    pub fn new() -> Self {
        use Op::{Add, Halt, Jump, JumpIf, Less, Load, Mul, Push, Rem, Store};
        // i = 0; acc = 1; while i < VM_ITERS { acc = (acc * 31 + i) % 1000003; i += 1 }
        let program = vec![
            Push(0),
            Store(0),
            Push(1),
            Store(1),
            Load(0), // 4: loop head
            Push(VM_ITERS),
            Less,
            JumpIf(9),
            Halt,
            Load(1), // 9: body
            Push(31),
            Mul,
            Load(0),
            Add,
            Push(1_000_003),
            Rem,
            Store(1),
            Load(0),
            Push(1),
            Add,
            Store(0),
            Jump(4),
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15;
        HostProbe {
            program,
            chase: one_cycle(CHASE_SLOTS, &mut state),
        }
    }

    fn run_program(&self) -> i64 {
        fn pop(stack: &mut Vec<i64>) -> i64 {
            stack.pop().unwrap_or(0)
        }
        let program = std::hint::black_box(&self.program[..]);
        let mut stack: Vec<i64> = Vec::with_capacity(8);
        let mut regs = [0i64; 2];
        let mut pc = 0;
        loop {
            let op = program[pc];
            pc += 1;
            match op {
                Op::Push(v) => stack.push(v),
                Op::Load(r) => stack.push(regs[r]),
                Op::Store(r) => regs[r] = pop(&mut stack),
                Op::JumpIf(to) => {
                    if pop(&mut stack) != 0 {
                        pc = to;
                    }
                }
                Op::Jump(to) => pc = to,
                Op::Halt => return regs[1],
                Op::Add | Op::Mul | Op::Rem | Op::Less => {
                    let (b, a) = (pop(&mut stack), pop(&mut stack));
                    stack.push(match op {
                        Op::Add => a.wrapping_add(b),
                        Op::Mul => a.wrapping_mul(b),
                        Op::Rem => a % b.max(1),
                        _ => i64::from(a < b),
                    });
                }
            }
        }
    }

    /// One probe: its wall time in milliseconds.
    pub fn time_ms(&self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run_program());
        let mut state = 0x2545_F491_4F6C_DD1D;
        let mut values: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut state)).collect();
        values.sort_unstable();
        std::hint::black_box(&values);
        let mut i = 0usize;
        for _ in 0..CHASE_STEPS {
            i = self.chase[i] as usize;
        }
        std::hint::black_box(i);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// The probes of one run, in time order, and the scaling they give.
pub struct HostSpeed {
    probe: HostProbe,
    start: Instant,
    /// `(seconds since start, probe ms)`.
    samples: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// Starts the run's clock.
    pub fn new() -> Self {
        HostSpeed {
            probe: HostProbe::new(),
            start: Instant::now(),
            samples: Vec::new(),
        }
    }

    /// Seconds since the run's clock started.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs the probe once and records it.
    pub fn sample(&mut self) {
        let at = self.now();
        let ms = self.probe.time_ms();
        self.samples.push((at, ms));
    }

    /// Probe times, in time order.
    pub fn times_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|&(_, ms)| ms).collect()
    }

    /// The factor that takes a time measured around `at` (seconds since
    /// the start) to the reference speed; see [`scale_at`].
    pub fn scale_at(&self, at: f64) -> f64 {
        scale_at(&self.samples, at)
    }
}

/// The factor that takes a time measured around `at` to the reference
/// speed (before the workload's elasticity is applied), given
/// `(time, probe ms)` samples in time order: `REFERENCE_MS`
/// over the median of the probes within [`LOCAL_S`] of `at`, or over the
/// nearest probe when none is that close. 1 without samples.
pub fn scale_at(samples: &[(f64, f64)], at: f64) -> f64 {
    let lo = samples.partition_point(|&(t, _)| t < at - LOCAL_S);
    let hi = samples.partition_point(|&(t, _)| t <= at + LOCAL_S);
    let near: Vec<f64> = if lo < hi {
        samples[lo..hi].iter().map(|&(_, ms)| ms).collect()
    } else {
        let nearest = samples
            .iter()
            .min_by(|a, b| (a.0 - at).abs().total_cmp(&(b.0 - at).abs()));
        nearest.map(|&(_, ms)| ms).into_iter().collect()
    };
    crate::stats::median(&near).map_or(1.0, |ms| REFERENCE_MS / ms)
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}
