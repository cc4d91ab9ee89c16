//! Platform configuration.

use crate::error::ConfigError;
use ulp_isa::arch;
use ulp_mem::{BankMapping, ServingPolicy};

/// Configuration of a [`crate::Platform`] instance.
///
/// The two designs evaluated by the paper are available as presets:
/// [`PlatformConfig::paper_with_sync`] (hardware synchronizer + enhanced
/// D-Xbar serving policy) and [`PlatformConfig::paper_without_sync`]
/// (the state-of-the-art baseline it improves on). All other fields allow
/// the ablation studies A1–A6 of `ulp_bench::ablation`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlatformConfig {
    /// Number of processing cores (1..=16; at most 8 with the
    /// synchronizer, whose identity-flag byte holds one bit per core).
    pub num_cores: usize,
    /// Whether the hardware synchronizer is present. Without it,
    /// `SINC`/`SDEC` degenerate to NOPs (the baseline ISA has no
    /// synchronization ISE).
    pub synchronizer: bool,
    /// D-Xbar serving policy (the paper couples `SyncAware` with the
    /// synchronizer; ablation A2 separates them).
    pub dxbar_policy: ServingPolicy,
    /// Instruction-memory bank mapping (paper layout: blocked).
    pub im_mapping: BankMapping,
    /// Data-memory bank mapping (paper layout: blocked).
    pub dm_mapping: BankMapping,
    /// Instruction memory size in words.
    pub im_words: usize,
    /// Instruction memory banks.
    pub im_banks: usize,
    /// Data memory size in words.
    pub dm_words: usize,
    /// Data memory banks.
    pub dm_banks: usize,
    /// Simulation cycle budget for [`crate::Platform::run`].
    pub max_cycles: u64,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig::paper_with_sync()
    }
}

impl PlatformConfig {
    /// The improved architecture of the paper: 8 cores, 96 kB IM in 8
    /// banks, 64 kB DM in 16 banks, hardware synchronizer, enhanced
    /// data-serving policy.
    pub fn paper_with_sync() -> PlatformConfig {
        PlatformConfig {
            num_cores: arch::NUM_CORES,
            synchronizer: true,
            dxbar_policy: ServingPolicy::SyncAware,
            im_mapping: BankMapping::Blocked,
            dm_mapping: BankMapping::Blocked,
            im_words: arch::IM_WORDS,
            im_banks: arch::IM_BANKS,
            dm_words: arch::DM_WORDS,
            dm_banks: arch::DM_BANKS,
            max_cycles: 200_000_000,
        }
    }

    /// The baseline architecture *without* the synchronization feature
    /// (cf. `ulpmc-bank` in the paper's reference \[4\]).
    pub fn paper_without_sync() -> PlatformConfig {
        PlatformConfig {
            synchronizer: false,
            dxbar_policy: ServingPolicy::Baseline,
            ..PlatformConfig::paper_with_sync()
        }
    }

    /// Returns the preset for one of the paper's two designs.
    pub fn paper(with_sync: bool) -> PlatformConfig {
        if with_sync {
            PlatformConfig::paper_with_sync()
        } else {
            PlatformConfig::paper_without_sync()
        }
    }

    /// Sets the number of cores (builder style).
    pub fn with_cores(mut self, n: usize) -> PlatformConfig {
        self.num_cores = n;
        self
    }

    /// Sets the cycle budget (builder style).
    pub fn with_max_cycles(mut self, cycles: u64) -> PlatformConfig {
        self.max_cycles = cycles;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for zero or too many cores, a core count
    /// beyond the synchronizer's flag capacity, or bank counts that do not
    /// divide the memory sizes.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 || self.num_cores > 16 {
            return Err(ConfigError::BadCoreCount(self.num_cores));
        }
        if self.synchronizer && self.num_cores > 8 {
            return Err(ConfigError::TooManyCoresForSync(self.num_cores));
        }
        for (words, banks) in [
            (self.im_words, self.im_banks),
            (self.dm_words, self.dm_banks),
        ] {
            if banks == 0 || words == 0 || words % banks != 0 {
                return Err(ConfigError::BadBankGeometry { words, banks });
            }
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::ZeroCycleBudget);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_differ_only_in_sync() {
        let with = PlatformConfig::paper_with_sync();
        let without = PlatformConfig::paper_without_sync();
        with.validate().unwrap();
        without.validate().unwrap();
        assert!(with.synchronizer && !without.synchronizer);
        assert_eq!(with.dxbar_policy, ServingPolicy::SyncAware);
        assert_eq!(without.dxbar_policy, ServingPolicy::Baseline);
        assert_eq!(with.num_cores, without.num_cores);
        assert_eq!(PlatformConfig::paper(true), with);
        assert_eq!(PlatformConfig::paper(false), without);
    }

    #[test]
    fn geometry_matches_paper() {
        let c = PlatformConfig::paper_with_sync();
        assert_eq!(c.num_cores, 8);
        assert_eq!(c.im_words * 2, 96 * 1024);
        assert_eq!(c.dm_words * 2, 64 * 1024);
        assert_eq!(c.im_banks, 8);
        assert_eq!(c.dm_banks, 16);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(matches!(
            PlatformConfig::paper_with_sync().with_cores(0).validate(),
            Err(ConfigError::BadCoreCount(0))
        ));
        assert!(matches!(
            PlatformConfig::paper_with_sync().with_cores(9).validate(),
            Err(ConfigError::TooManyCoresForSync(9))
        ));
        assert!(PlatformConfig::paper_without_sync()
            .with_cores(16)
            .validate()
            .is_ok());
        let mut c = PlatformConfig::paper_with_sync();
        c.dm_banks = 7;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::BadBankGeometry { .. })
        ));
        let c = PlatformConfig::paper_with_sync().with_max_cycles(0);
        assert!(matches!(c.validate(), Err(ConfigError::ZeroCycleBudget)));
    }
}
