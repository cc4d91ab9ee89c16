//! Error types of the platform simulator.

use std::fmt;
use ulp_cpu::CoreError;

/// An invalid [`crate::PlatformConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Core count outside 1..=16.
    BadCoreCount(usize),
    /// More than 8 cores with the synchronizer enabled (the sync word has
    /// one identity-flag bit per core).
    TooManyCoresForSync(usize),
    /// Bank count does not divide the memory size (or is zero).
    BadBankGeometry {
        /// Memory size in words.
        words: usize,
        /// Requested bank count.
        banks: usize,
    },
    /// A zero cycle budget.
    ZeroCycleBudget,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadCoreCount(n) => write!(f, "core count {n} outside 1..=16"),
            ConfigError::TooManyCoresForSync(n) => {
                write!(f, "{n} cores exceed the synchronizer's 8 identity flags")
            }
            ConfigError::BadBankGeometry { words, banks } => {
                write!(f, "{banks} banks do not divide {words} words")
            }
            ConfigError::ZeroCycleBudget => write!(f, "cycle budget must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A failed simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformError {
    /// A core fetched an illegal instruction.
    CoreFault {
        /// The faulting core.
        core: usize,
        /// The underlying error.
        error: CoreError,
    },
    /// Every active core is asleep with nothing left to wake it.
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
    },
    /// The cycle budget was exhausted.
    Timeout {
        /// The exhausted budget.
        budget: u64,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::CoreFault { core, error } => write!(f, "core {core}: {error}"),
            PlatformError::Deadlock { cycle } => {
                write!(f, "all active cores asleep at cycle {cycle} (deadlock)")
            }
            PlatformError::Timeout { budget } => {
                write!(f, "simulation exceeded {budget} cycles")
            }
        }
    }
}

impl std::error::Error for PlatformError {}

/// A failed [`crate::Platform::restore`] / [`crate::Platform::restore_from`]
/// or [`crate::Checkpoint::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The checkpoint blob was written by an incompatible schema.
    SchemaMismatch {
        /// Schema version found in the blob.
        found: u32,
        /// Schema version this build understands.
        expected: u32,
    },
    /// The checkpoint's platform configuration is structurally
    /// incompatible with the target platform (core count, memory
    /// geometry, synchronizer presence or serving policy differ).
    ConfigMismatch,
    /// The blob ended before the encoded state did.
    Truncated,
    /// The blob decoded to inconsistent state.
    Corrupt {
        /// Which part of the blob failed to decode.
        what: &'static str,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::SchemaMismatch { found, expected } => {
                write!(f, "checkpoint schema {found} (this build reads {expected})")
            }
            RestoreError::ConfigMismatch => {
                write!(
                    f,
                    "checkpoint platform configuration does not match the target"
                )
            }
            RestoreError::Truncated => write!(f, "checkpoint blob is truncated"),
            RestoreError::Corrupt { what } => write!(f, "checkpoint is corrupt: bad {what}"),
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(
            ConfigError::BadCoreCount(0).to_string(),
            "core count 0 outside 1..=16"
        );
        assert_eq!(
            PlatformError::Deadlock { cycle: 7 }.to_string(),
            "all active cores asleep at cycle 7 (deadlock)"
        );
        let e = PlatformError::CoreFault {
            core: 2,
            error: CoreError::IllegalInstruction {
                pc: 1,
                word: 0xF801,
            },
        };
        assert_eq!(
            e.to_string(),
            "core 2: illegal instruction 0xf801 at pc 0x0001"
        );
        assert_eq!(
            RestoreError::SchemaMismatch {
                found: 9,
                expected: 1
            }
            .to_string(),
            "checkpoint schema 9 (this build reads 1)"
        );
        assert_eq!(
            RestoreError::Corrupt { what: "sync state" }.to_string(),
            "checkpoint is corrupt: bad sync state"
        );
    }
}
