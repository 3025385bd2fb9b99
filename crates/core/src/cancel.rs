//! Cooperative cancellation for long-running drivers.
//!
//! The service layer (`sma-serve`) enforces per-frame deadlines: a
//! watchdog thread flips a [`CancelToken`] when a frame's budget runs
//! out, and the driver notices at its next *cancellation point* — once
//! per pixel row in the exact kernels, once per segment in the
//! segmented drivers, between phases in the integral and pruned
//! drivers — and returns
//! [`SmaError::DeadlineExceeded`] instead of finishing the frame.
//!
//! Tokens are installed per *thread* (the worker processing the frame)
//! through a thread-local, so drivers need no signature changes and the
//! disarmed cost is one thread-local read per checkpoint. With no token
//! installed, [`checkpoint`] always succeeds and no behaviour changes —
//! the conformance matrix runs with no token and stays bit-identical.

use sma_fault::SmaError;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// Milliseconds elapsed when the watchdog cancelled (reporting only).
    elapsed_ms: AtomicU64,
    /// The deadline budget in milliseconds (reporting only).
    budget_ms: AtomicU64,
}

/// A shared cancellation flag: cloned into the watchdog, installed on
/// the worker thread.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Flip the token. `elapsed_ms`/`budget_ms` are carried into the
    /// [`SmaError::DeadlineExceeded`] the driver returns.
    pub fn cancel(&self, elapsed_ms: u64, budget_ms: u64) {
        self.inner.elapsed_ms.store(elapsed_ms, Ordering::Relaxed);
        self.inner.budget_ms.store(budget_ms, Ordering::Relaxed);
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The error this token resolves to when cancelled.
    pub fn error(&self) -> SmaError {
        SmaError::DeadlineExceeded {
            elapsed_ms: self.inner.elapsed_ms.load(Ordering::Relaxed),
            budget_ms: self.inner.budget_ms.load(Ordering::Relaxed),
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Install `token` as this thread's active cancellation token until the
/// returned guard drops (the previous token, if any, is restored).
#[must_use = "the token is uninstalled when the guard drops"]
pub fn install(token: CancelToken) -> CancelGuard {
    let prev = CURRENT.with(|c| c.replace(Some(token)));
    CancelGuard { prev }
}

/// Restores the previously installed token on drop.
#[derive(Debug)]
pub struct CancelGuard {
    prev: Option<CancelToken>,
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// The token installed on this thread, if any. Drivers that fan work
/// out (scoped threads such as the pruned driver's row bands) capture
/// it once and poll
/// [`CancelToken::is_cancelled`] inside the fan-out, where the
/// thread-local of the spawning thread may not be visible.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|c| c.borrow().clone())
}

/// A driver cancellation point: `Ok(())` with no token installed or the
/// token still live, the token's [`SmaError::DeadlineExceeded`] once it
/// is cancelled.
///
/// # Errors
/// [`SmaError::DeadlineExceeded`] when the installed token was
/// cancelled.
#[inline]
pub fn checkpoint() -> Result<(), SmaError> {
    CURRENT.with(|c| match c.borrow().as_ref() {
        Some(t) if t.is_cancelled() => Err(t.error()),
        _ => Ok(()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_is_ok_without_a_token() {
        assert!(checkpoint().is_ok());
    }

    #[test]
    fn cancelled_token_trips_checkpoint_and_uninstalls() {
        let token = CancelToken::new();
        {
            let _g = install(token.clone());
            assert!(checkpoint().is_ok());
            token.cancel(12, 5);
            assert_eq!(
                checkpoint(),
                Err(SmaError::DeadlineExceeded {
                    elapsed_ms: 12,
                    budget_ms: 5
                })
            );
        }
        // Guard dropped: the cancelled token no longer applies.
        assert!(checkpoint().is_ok());
    }

    #[test]
    fn nested_installs_restore_the_outer_token() {
        let outer = CancelToken::new();
        let _g = install(outer.clone());
        {
            let inner = CancelToken::new();
            let _g2 = install(inner);
            assert!(checkpoint().is_ok());
        }
        outer.cancel(1, 1);
        assert!(checkpoint().is_err());
        drop(_g);
        assert!(checkpoint().is_ok());
    }

    #[test]
    fn token_is_shared_across_clones_and_threads() {
        let token = CancelToken::new();
        let watchdog = token.clone();
        let handle = std::thread::spawn(move || watchdog.cancel(99, 10));
        handle.join().expect("watchdog thread");
        assert!(token.is_cancelled());
        assert_eq!(
            token.error(),
            SmaError::DeadlineExceeded {
                elapsed_ms: 99,
                budget_ms: 10
            }
        );
    }
}
