//! The structured I/O error taxonomy of the storage layer.
//!
//! Every fallible backend and store operation reports a [`PageIoError`]
//! classifying the failure into one of three [`FaultKind`]s, because the
//! three demand different reactions:
//!
//! * [`FaultKind::Transient`] — the operation may succeed if repeated
//!   (interrupted syscalls, injected flaky-storage faults). The store
//!   retries these itself under its bounded
//!   [`RetryPolicy`](crate::store::RetryPolicy); callers only ever see a
//!   transient error once the retry budget is exhausted.
//! * [`FaultKind::Persistent`] — repeating cannot help (I/O error from the
//!   medium, failed syscall with a non-retryable errno). Surfaced to the
//!   caller immediately.
//! * [`FaultKind::Corrupt`] — the frame transferred fine but failed its
//!   checksum (bit-rot, torn write). The store quarantines the frame so
//!   later reads fail fast instead of re-decoding garbage.
//!
//! See the failure-model section of the [crate docs](crate) for which
//! errors are query-fatal vs service-fatal.

use std::fmt;

/// Classification of a storage failure — see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Retryable: the same operation may succeed if repeated.
    Transient,
    /// Not retryable: the medium or syscall failed for good.
    Persistent,
    /// The frame bytes arrived but failed their integrity check.
    Corrupt,
}

impl FaultKind {
    /// Short lowercase name used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Persistent => "persistent",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// Which storage operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A frame read.
    Read,
    /// A frame write.
    Write,
    /// A durability flush.
    Flush,
}

impl IoOp {
    /// Short lowercase name used in diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Flush => "flush",
        }
    }
}

/// A structured storage-layer error: what failed, on which frame, and
/// whether retrying can help.
///
/// `Clone` so the error can be latched in one place (a reader, a stream)
/// and surfaced in another (a service completion) without consuming it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageIoError {
    /// Failure classification (drives retry / quarantine / fail-fast).
    pub kind: FaultKind,
    /// The operation that failed.
    pub op: IoOp,
    /// The frame index involved, when the failure is frame-specific.
    pub page: Option<u32>,
    /// Human-readable cause (errno text, checksum mismatch, injected-fault
    /// tag).
    pub detail: String,
}

impl PageIoError {
    /// A non-retryable failure.
    pub fn persistent(op: IoOp, page: Option<u32>, detail: impl Into<String>) -> Self {
        PageIoError {
            kind: FaultKind::Persistent,
            op,
            page,
            detail: detail.into(),
        }
    }

    /// An integrity failure (checksum mismatch).
    pub fn corrupt(op: IoOp, page: Option<u32>, detail: impl Into<String>) -> Self {
        PageIoError {
            kind: FaultKind::Corrupt,
            op,
            page,
            detail: detail.into(),
        }
    }

    /// Whether the store's retry policy applies to this error.
    pub fn is_transient(&self) -> bool {
        self.kind == FaultKind::Transient
    }

    /// Classifies a `std::io::Error`: interrupted/timed-out syscalls are
    /// transient, everything else persistent.
    pub fn from_io(op: IoOp, page: Option<u32>, err: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        let kind = match err.kind() {
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                FaultKind::Transient
            }
            _ => FaultKind::Persistent,
        };
        PageIoError {
            kind,
            op,
            page,
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for PageIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} error", self.kind.name(), self.op.name())?;
        if let Some(page) = self.page {
            write!(f, " on frame {page}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

impl std::error::Error for PageIoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_kind_op_and_frame() {
        let e = PageIoError {
            kind: FaultKind::Transient,
            op: IoOp::Read,
            page: Some(7),
            detail: "injected".to_string(),
        };
        assert_eq!(e.to_string(), "transient read error on frame 7: injected");
        assert!(e.is_transient());
        let e = PageIoError::corrupt(IoOp::Read, Some(3), "checksum mismatch");
        assert!(e.to_string().starts_with("corrupt read error on frame 3"));
        assert!(!e.is_transient());
        let e = PageIoError::persistent(IoOp::Flush, None, "disk on fire");
        assert_eq!(e.to_string(), "persistent flush error: disk on fire");
    }

    #[test]
    fn io_error_classification() {
        let interrupted = std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR");
        assert_eq!(
            PageIoError::from_io(IoOp::Read, Some(0), &interrupted).kind,
            FaultKind::Transient
        );
        let denied = std::io::Error::new(std::io::ErrorKind::PermissionDenied, "EACCES");
        assert_eq!(
            PageIoError::from_io(IoOp::Write, Some(0), &denied).kind,
            FaultKind::Persistent
        );
    }
}
