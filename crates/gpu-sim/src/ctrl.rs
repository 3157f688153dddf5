//! Run-supervision primitives: cooperative cancellation.
//!
//! A [`CancelToken`] is the one shared word of truth for "this run must
//! stop": cheap to clone (one `Arc`), cheap to poll (one relaxed atomic
//! load), and safe to signal from any thread — the CLI's signal handler,
//! a deadline watchdog ([`crate::exec::spawn_watchdog`]), or the
//! pipeline itself (`--cancel-after-diag`). Hot paths never read a clock
//! through it: deadlines are enforced by the watchdog thread, and
//! workers only poll [`CancelToken::is_cancelled`] at natural boundaries.
//!
//! The first cancellation wins: its [`CancelCause`] and time stamp are
//! recorded and later calls are no-ops, so "why did this run stop" has
//! exactly one answer. On cancelled teardown the strip scheduler parks a
//! [`StripDiag`] snapshot of its per-strip published/claimed counters in
//! the token, which the pipeline surfaces through its tracing layer as
//! the interruption diagnostic.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Why a run was cancelled. Carried by the winning
/// [`CancelToken::cancel`] call and surfaced as the matching typed
/// pipeline error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CancelCause {
    /// Explicit request (API call, CLI flag, signal).
    Requested,
    /// The run's wall-clock deadline expired.
    DeadlineExceeded {
        /// The deadline budget that expired, in milliseconds.
        budget_ms: u64,
    },
}

/// Diagnostic snapshot of the strip scheduler's coordination state at
/// cancellation, recorded via [`CancelToken::set_strip_diag`] so the
/// pipeline can report *where* an interrupted run stopped.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StripDiag {
    /// Per strip: block rows published to the right neighbour.
    pub published: Vec<usize>,
    /// Per runner: strips claimed (first claim = home, rest = steals).
    pub claims: Vec<u64>,
    /// Per runner: blocks computed.
    pub blocks: Vec<u64>,
    /// Delivery frontier (external diagonal) at teardown.
    pub front: usize,
}

struct Inner {
    cancelled: AtomicBool,
    /// Time stamp (nanoseconds on the supervisor's injected clock) of the
    /// winning cancel, for time-to-cancel latency reporting.
    cancel_stamp_nanos: AtomicU64,
    cause: Mutex<Option<CancelCause>>,
    diag: Mutex<Option<StripDiag>>,
}

/// Clonable cooperative-cancellation handle threaded through the engine,
/// the worker pool, and every pipeline stage.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish_non_exhaustive()
    }
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                cancel_stamp_nanos: AtomicU64::new(0),
                cause: Mutex::new(None),
                diag: Mutex::new(None),
            }),
        }
    }

    /// Has any clone of this token been cancelled? One relaxed load —
    /// safe to poll from hot loops.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Cancel the run for `cause`, stamping the supervisor clock's
    /// current reading (nanoseconds) for latency accounting. The first
    /// call wins and returns `true`; later calls are no-ops.
    pub fn cancel_at(&self, cause: CancelCause, stamp_nanos: u64) -> bool {
        let mut slot = self.inner.cause.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_some() {
            return false;
        }
        *slot = Some(cause);
        self.inner.cancel_stamp_nanos.store(stamp_nanos, Ordering::Relaxed);
        // Publish the flag after the cause so a poller that sees
        // `is_cancelled()` can always read a cause.
        self.inner.cancelled.store(true, Ordering::Release);
        true
    }

    /// [`CancelToken::cancel_at`] without a clock reading (stamp 0).
    pub fn cancel(&self, cause: CancelCause) -> bool {
        self.cancel_at(cause, 0)
    }

    /// The winning cancellation's cause, if any.
    pub fn cause(&self) -> Option<CancelCause> {
        *self.inner.cause.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The winning cancellation's clock stamp (nanoseconds); `None` when
    /// not cancelled.
    pub fn cancel_stamp_nanos(&self) -> Option<u64> {
        self.is_cancelled().then(|| self.inner.cancel_stamp_nanos.load(Ordering::Relaxed))
    }

    /// Park a strip-scheduler diagnostic snapshot (first one wins, so a
    /// stage-1 teardown is not overwritten by later small launches).
    pub fn set_strip_diag(&self, diag: StripDiag) {
        let mut slot = self.inner.diag.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(diag);
        }
    }

    /// Take the parked diagnostic snapshot, if any.
    pub fn take_strip_diag(&self) -> Option<StripDiag> {
        self.inner.diag.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.cause(), None);
        assert_eq!(t.cancel_stamp_nanos(), None);
        assert!(t.cancel_at(CancelCause::DeadlineExceeded { budget_ms: 5 }, 42));
        assert!(!t.cancel(CancelCause::Requested), "second cancel must lose");
        assert!(t.is_cancelled());
        assert_eq!(t.cause(), Some(CancelCause::DeadlineExceeded { budget_ms: 5 }));
        assert_eq!(t.cancel_stamp_nanos(), Some(42));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel(CancelCause::Requested);
        assert!(u.is_cancelled());
        assert_eq!(u.cause(), Some(CancelCause::Requested));
    }

    #[test]
    fn strip_diag_first_write_wins_and_take_drains() {
        let t = CancelToken::new();
        assert!(t.take_strip_diag().is_none());
        t.set_strip_diag(StripDiag { front: 7, ..StripDiag::default() });
        t.set_strip_diag(StripDiag { front: 99, ..StripDiag::default() });
        assert_eq!(t.take_strip_diag().map(|d| d.front), Some(7));
        assert!(t.take_strip_diag().is_none());
    }
}
