//! SM occupancy: how many CTAs/warps fit given register, thread, CTA and
//! shared-memory limits. Register pressure is the lever duplication pulls —
//! doubling per-thread registers can halve the resident warps and with them
//! the SM's latency-hiding ability.

/// GPU hardware limits (defaults approximate a Tesla P100 SM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuConfig {
    /// Streaming multiprocessors on the device.
    pub sms: u32,
    /// Maximum resident warps per SM.
    pub max_warps: u32,
    /// Maximum resident threads per SM.
    pub max_threads: u32,
    /// Maximum resident CTAs per SM.
    pub max_ctas: u32,
    /// 32-bit registers per SM.
    pub regfile_regs: u32,
    /// Shared memory words per SM.
    pub shared_words: u32,
    /// Warp schedulers per SM.
    pub schedulers: u32,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            sms: 56,
            max_warps: 64,
            max_threads: 2048,
            max_ctas: 32,
            regfile_regs: 65_536,
            shared_words: 16_384, // 64 KiB
            schedulers: 4,
        }
    }
}

/// What capped the occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Limiter {
    Warps,
    Threads,
    Ctas,
    Registers,
    SharedMemory,
    GridSize,
}

/// Resident-work summary for one SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Occupancy {
    /// Resident CTAs per SM.
    pub ctas: u32,
    /// Resident warps per SM.
    pub warps: u32,
    /// The binding resource.
    pub limiter: Limiter,
}

/// Compute the occupancy of a kernel with `regs_per_thread` registers,
/// `threads_per_cta` threads and `shared_words_per_cta` words of shared
/// memory per CTA.
///
/// Register allocation is modelled with warp-granularity rounding (256
/// registers per warp allocation unit), like real hardware.
///
/// # Panics
///
/// Panics if `threads_per_cta` is zero.
#[must_use]
pub fn occupancy(
    cfg: &GpuConfig,
    regs_per_thread: u32,
    threads_per_cta: u32,
    shared_words_per_cta: u32,
) -> Occupancy {
    assert!(threads_per_cta > 0, "empty CTA");
    let warps_per_cta = threads_per_cta.div_ceil(32);
    let regs_per_warp = (regs_per_thread.max(1) * 32).div_ceil(256) * 256;
    let regs_per_cta = regs_per_warp * warps_per_cta;

    let mut candidates = vec![
        (cfg.max_warps / warps_per_cta, Limiter::Warps),
        (cfg.max_threads / threads_per_cta, Limiter::Threads),
        (cfg.max_ctas, Limiter::Ctas),
        (cfg.regfile_regs / regs_per_cta, Limiter::Registers),
    ];
    if let Some(shared_limit) = cfg.shared_words.checked_div(shared_words_per_cta) {
        candidates.push((shared_limit, Limiter::SharedMemory));
    }
    let (ctas, limiter) = candidates
        .into_iter()
        .min_by_key(|&(n, _)| n)
        .expect("non-empty candidate list");
    Occupancy {
        ctas,
        warps: ctas * warps_per_cta,
        limiter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_kernels_hit_the_warp_limit() {
        let cfg = GpuConfig::default();
        let occ = occupancy(&cfg, 16, 256, 0);
        assert_eq!(occ.warps, 64);
        assert!(matches!(occ.limiter, Limiter::Warps | Limiter::Threads));
    }

    #[test]
    fn register_pressure_cuts_occupancy() {
        let cfg = GpuConfig::default();
        let lean = occupancy(&cfg, 32, 256, 0);
        let fat = occupancy(&cfg, 64, 256, 0);
        assert!(fat.warps < lean.warps, "{lean:?} vs {fat:?}");
        assert_eq!(fat.limiter, Limiter::Registers);
        // Doubling registers should roughly halve warps once reg-bound.
        assert!(fat.warps <= lean.warps / 2 + 8);
    }

    #[test]
    fn shared_memory_limits() {
        let cfg = GpuConfig::default();
        let occ = occupancy(&cfg, 16, 256, 8_192);
        assert_eq!(occ.ctas, 2);
        assert_eq!(occ.limiter, Limiter::SharedMemory);
    }

    #[test]
    fn allocation_granularity_rounds_up() {
        let cfg = GpuConfig::default();
        // 33 regs/thread -> 1056 regs/warp -> rounds to 1280; but the CTA
        // count is still capped by the 32-CTA limit for single-warp CTAs.
        let occ = occupancy(&cfg, 33, 32, 0);
        let reg_bound = cfg.regfile_regs / 1280;
        assert_eq!(occ.ctas, reg_bound.min(cfg.max_ctas));
    }
}
