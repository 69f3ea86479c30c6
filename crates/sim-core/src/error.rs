//! Error type shared across the simulator.

use crate::addr::{Gpa, Gva, Hpa};
use crate::ids::VmId;
use core::fmt;

/// Errors surfaced by simulator components.
///
/// Memory-management code paths are written fallibly: allocation failure,
/// double mapping and walks over unmapped addresses are ordinary outcomes
/// that policies react to (e.g. falling back from a huge allocation to base
/// pages), not panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The allocator has no free block of the requested order.
    OutOfMemory {
        /// Buddy order of the failed request.
        order: u32,
    },
    /// A specifically targeted physical range is not free.
    RangeBusy,
    /// A guest virtual address is not covered by any VMA.
    NoVma(Gva),
    /// A guest virtual address is already mapped.
    AlreadyMappedGva(Gva),
    /// A guest physical address is already backed.
    AlreadyMappedGpa(Gpa),
    /// Attempt to operate on an unmapped guest virtual address.
    NotMappedGva(Gva),
    /// Attempt to operate on an unbacked guest physical address.
    NotMappedGpa(Gpa),
    /// A frame was freed that the allocator does not consider allocated.
    BadFree(Hpa),
    /// A huge-page operation was attempted on a misaligned address.
    Unaligned,
    /// Promotion failed because the region's mappings are not contiguous.
    NotContiguous,
    /// The requested region lies outside the configured address space.
    OutOfRange,
    /// An operation named a VM that was never registered.
    UnknownVm(VmId),
    /// A cache was configured with a set count that is not a power of
    /// two; set indexing would silently fall back to a `%` with
    /// different eviction behavior, so the geometry is rejected.
    BadCacheGeometry {
        /// The rejected set count (`entries / assoc`, min 1).
        num_sets: usize,
    },
    /// A virtual-time accounting window ended before it started.
    ClockRegression {
        /// The clock observed at the end of the window.
        now: crate::clock::Cycles,
        /// The clock recorded at the start of the window.
        start: crate::clock::Cycles,
    },
    /// A workload trace failed structural validation: malformed header,
    /// malformed event record, truncated stream (no end marker), or an
    /// event count that does not match the end marker. Carries the
    /// 1-based line number the problem was detected at.
    BadTrace {
        /// Line of the trace file (the header is line 1).
        line: u64,
        /// Human-readable description of the defect.
        reason: String,
    },
    /// A workload trace was written by a format version this build does
    /// not understand. Version bumps are reserved for incompatible
    /// record changes, so the reader refuses rather than guessing.
    TraceVersion {
        /// The version declared in the trace header.
        found: u64,
        /// The newest version this build supports.
        supported: u64,
    },
    /// The underlying I/O stream failed while reading or writing a
    /// workload trace.
    TraceIo {
        /// The `std::io::Error` rendered as text (`io::Error` is
        /// neither `Clone` nor `Eq`, which this enum requires).
        detail: String,
    },
    /// An experiment was asked to run a system it does not cover; it
    /// has no plan, seed or configuration for it. Carries the system's
    /// label only: a second string would grow `SimError`, and with it
    /// every `Result` on the simulator's hot paths, from 32 to 40 bytes.
    UnsupportedSystem(&'static str),
    /// An invariant was violated; carries a static description.
    Invariant(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { order } => {
                write!(f, "out of memory: no free order-{order} block")
            }
            SimError::RangeBusy => write!(f, "targeted physical range is busy"),
            SimError::NoVma(gva) => write!(f, "no VMA covers {gva}"),
            SimError::AlreadyMappedGva(gva) => write!(f, "GVA {gva} already mapped"),
            SimError::AlreadyMappedGpa(gpa) => write!(f, "GPA {gpa} already backed"),
            SimError::NotMappedGva(gva) => write!(f, "GVA {gva} not mapped"),
            SimError::NotMappedGpa(gpa) => write!(f, "GPA {gpa} not backed"),
            SimError::BadFree(hpa) => write!(f, "bad free of {hpa}"),
            SimError::Unaligned => write!(f, "address not aligned for the requested page size"),
            SimError::NotContiguous => write!(f, "region is not physically contiguous"),
            SimError::OutOfRange => write!(f, "address outside configured address space"),
            SimError::UnknownVm(vm) => write!(f, "{vm} is not registered"),
            SimError::BadCacheGeometry { num_sets } => {
                write!(f, "cache set count {num_sets} is not a power of two")
            }
            SimError::ClockRegression { now, start } => {
                write!(f, "clock went backwards: now {now} < start {start}")
            }
            SimError::BadTrace { line, reason } => {
                write!(f, "malformed trace at line {line}: {reason}")
            }
            SimError::TraceVersion { found, supported } => {
                write!(
                    f,
                    "trace format version {found} is newer than supported version {supported}"
                )
            }
            SimError::TraceIo { detail } => write!(f, "trace I/O failed: {detail}"),
            SimError::UnsupportedSystem(system) => {
                write!(f, "system {system} is not part of this experiment")
            }
            SimError::Invariant(msg) => write!(f, "invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_stay_four_words() {
        // Every fallible hot-path call returns `Result<_, SimError>`; a
        // wider error widens all of them.
        assert!(std::mem::size_of::<SimError>() <= 32);
        assert!(std::mem::size_of::<crate::Result<u64>>() <= 32);
    }

    #[test]
    fn errors_render_human_readable_text() {
        assert_eq!(
            SimError::OutOfMemory { order: 9 }.to_string(),
            "out of memory: no free order-9 block"
        );
        assert!(SimError::NoVma(Gva(0x1000)).to_string().contains("0x1000"));
        assert!(SimError::BadFree(Hpa(0x2000))
            .to_string()
            .contains("0x2000"));
        assert_eq!(
            SimError::UnknownVm(VmId(7)).to_string(),
            "vm7 is not registered"
        );
        assert_eq!(
            SimError::BadTrace {
                line: 3,
                reason: "unknown record tag".into()
            }
            .to_string(),
            "malformed trace at line 3: unknown record tag"
        );
        assert_eq!(
            SimError::TraceVersion {
                found: 9,
                supported: 1
            }
            .to_string(),
            "trace format version 9 is newer than supported version 1"
        );
        assert!(SimError::TraceIo {
            detail: "broken pipe".into()
        }
        .to_string()
        .contains("broken pipe"));
        assert_eq!(
            SimError::UnsupportedSystem("Host-B-VM-B").to_string(),
            "system Host-B-VM-B is not part of this experiment"
        );
    }
}
