//! Spin before park: the bounded poll a thread runs when it has run out
//! of work, before it falls through to parking.
//!
//! Parking is correct but slow to undo. The side that makes the wait
//! condition true pays a `futex` wake, and the sleeper's idle vCPU pays a
//! halt exit before it runs again: 3–4 µs on a 2-vCPU VM, measured as
//! `serve-mem`'s open-loop queue wait (p50 3.7–4.3 µs against a 0.6 µs
//! commit wait). A request that arrives within a short window finds the
//! waiter still polling and pays neither. The poll is only an optimistic
//! pre-check: the caller then parks by its own handshake exactly as it
//! would without it, so no wake-up can be lost.

use std::time::{Duration, Instant};

/// How long a waiter polls before it parks, in nanoseconds.
///
/// The two open-loop gaps the window must cover are `serve-mem`'s 5 µs
/// (200 kops/s) and `serve-durable`'s 20 µs (50 kops/s); 50 µs leaves the
/// slower one 2.5× headroom for a late generator. A longer window buys
/// nothing at those rates and burns more CPU on a server that really has
/// gone idle: each idle episode costs at most this much CPU, of which
/// all but the first [`SPIN_POLLS`] polls is given back through
/// `yield_now` to any thread that wants the core.
pub const SPIN_NS: u64 = 50_000;

/// Polls separated by a bare `spin_loop` hint (≈ 1–2 µs in all) before the
/// wait starts yielding the core between polls, so a waiter that shares
/// its core with the thread it waits for lets that thread run.
const SPIN_POLLS: u32 = 32;

/// Poll `ready` until it holds (`true`), or give up (`false`) once about
/// [`SPIN_NS`] has passed. The clock starts when the pure-spin polls are
/// spent, so a condition that turns true within them costs no clock read.
pub(crate) fn spin_until(mut ready: impl FnMut() -> bool) -> bool {
    let mut polls = 0u32;
    let mut start: Option<Instant> = None;
    loop {
        if ready() {
            return true;
        }
        polls = polls.saturating_add(1);
        if polls <= SPIN_POLLS {
            std::hint::spin_loop();
            continue;
        }
        let since = *start.get_or_insert_with(Instant::now);
        if since.elapsed() >= Duration::from_nanos(SPIN_NS) {
            return false;
        }
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_predicate_that_turns_true_ends_the_spin_at_that_poll() {
        for k in [1, 2, SPIN_POLLS, SPIN_POLLS + 1] {
            let mut polls = 0;
            assert!(spin_until(|| {
                polls += 1;
                polls == k
            }));
            assert_eq!(polls, k, "polled past the poll that held");
        }
    }

    #[test]
    fn a_predicate_that_stays_false_ends_the_spin_after_the_window() {
        let t0 = Instant::now();
        let mut polls = 0u32;
        assert!(!spin_until(|| {
            polls += 1;
            false
        }));
        assert!(t0.elapsed() >= Duration::from_nanos(SPIN_NS));
        assert!(polls > SPIN_POLLS, "{polls} polls: the window was not spent polling");
    }
}
