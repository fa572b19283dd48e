//! Completion board: the per-shard table of ticket slots that the shard
//! thread fills and clients redeem, with no lock or allocation per
//! request.
//!
//! A slot is one cache line: a *slot word* — generation and state, `FREE
//! → PENDING → FILLED → FREE`, or `PENDING → ABANDONED → FREE` when the
//! ticket is dropped first — and the applied version. Every race between
//! the fill and the ticket's poll, wait or drop is settled by a CAS on the
//! slot word. Freeing a slot bumps its generation, so a ticket whose
//! completion was taken reads `None` however often the slot is reused. An
//! error result (rare) waits in a side map keyed by slot. Slots live in
//! chunks that double in size behind `OnceLock`s, so finding one takes no
//! lock; free slots form a lock-free stack with an ABA tag. Only growing
//! the board takes a mutex.
//!
//! A waiter spins for up to [`SPIN_NS`](crate::SPIN_NS), then records its
//! thread in the waiter map and sets `PARKED` by CAS. The fill's CAS
//! either sees the bit and unparks exactly that thread, or fails the
//! waiter's CAS so it takes the value instead of sleeping.

use crate::api::ServeError;
use crate::spin::spin_until;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::Thread;

/// A value alone on its cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Lock a mutex that guards no invariant a panic could break.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Slots in chunk 0; chunk `k ≥ 1` holds slots `[FIRST_CHUNK << (k - 1),
/// FIRST_CHUNK << k)`.
pub(crate) const FIRST_CHUNK: usize = 64;
/// End of the free stack.
const NIL: u32 = u32::MAX;
// Slot word: `generation << GEN_SHIFT | flags`. `PARKED` is set only
// while `PENDING`; `FAILED` means the error is in the side map.
const STATE: u64 = 0b11;
const FREE: u64 = 0;
const PENDING: u64 = 1;
const FILLED: u64 = 2;
const ABANDONED: u64 = 3;
const PARKED: u64 = 1 << 2;
const DURABLE: u64 = 1 << 3;
const FAILED: u64 = 1 << 4;
const GEN_SHIFT: u32 = 8;

#[derive(Debug, Default)]
#[repr(align(64))]
struct Slot {
    word: AtomicU64,
    version: AtomicU64,
    /// Next free slot while on the free stack.
    next: AtomicU32,
}

/// What the shard reports for one request; the ticket adds the rest.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Outcome {
    pub(crate) version: u64,
    pub(crate) durable: bool,
    pub(crate) result: Result<(), ServeError>,
}

/// One shard's completion slots.
#[derive(Debug)]
pub(crate) struct Board {
    /// Free stack head: `tag << 32 | slot`.
    free: Padded<AtomicU64>,
    /// 26 chunks: 2³¹ slots.
    chunks: [OnceLock<Box<[Slot]>>; 26],
    /// Chunks handed out; held while growing.
    grown: Mutex<usize>,
    errors: Mutex<HashMap<u32, ServeError>>,
    waiters: Mutex<HashMap<u32, Thread>>,
}

impl Board {
    pub(crate) fn new() -> Self {
        Self {
            free: Padded(AtomicU64::new(u64::from(NIL))),
            chunks: std::array::from_fn(|_| OnceLock::new()),
            grown: Mutex::new(0),
            errors: Mutex::default(),
            waiters: Mutex::default(),
        }
    }

    /// Chunk `k`'s first slot and length.
    fn span(k: usize) -> (usize, usize) {
        if k == 0 {
            (0, FIRST_CHUNK)
        } else {
            (FIRST_CHUNK << (k - 1), FIRST_CHUNK << (k - 1))
        }
    }

    fn slot(&self, i: u32) -> &Slot {
        let k = (usize::BITS - (i as usize / FIRST_CHUNK).leading_zeros()) as usize;
        let (first, len) = Self::span(k);
        // `grow` initialised the chunk of every slot handed out: this only
        // reads it, and `get_or_init` spares a panic path.
        let chunk = self.chunks[k].get_or_init(|| (0..len).map(|_| Slot::default()).collect());
        &chunk[i as usize - first]
    }

    /// Push the linked chain `first → … → last` onto the free stack.
    fn push(&self, first: u32, last: u32) {
        let _ = self.free.fetch_update(Ordering::Release, Ordering::Relaxed, |h| {
            self.slot(last).next.store(h as u32, Ordering::Relaxed);
            Some(((h >> 32).wrapping_add(1) << 32) | u64::from(first))
        });
    }

    /// Take a free slot for a new request: `(slot, generation)`.
    pub(crate) fn claim(&self) -> (u32, u64) {
        let popped = self.free.fetch_update(Ordering::Acquire, Ordering::Acquire, |h| {
            let i = h as u32;
            let next = || u64::from(self.slot(i).next.load(Ordering::Relaxed));
            (i != NIL).then(|| ((h >> 32).wrapping_add(1) << 32) | next())
        });
        let i = popped.map_or_else(|_| self.grow(), |h| h as u32);
        let word = &self.slot(i).word;
        let generation = word.load(Ordering::Relaxed) >> GEN_SHIFT;
        word.store((generation << GEN_SHIFT) | PENDING, Ordering::Relaxed);
        (i, generation)
    }

    /// Every slot is in flight: add the next chunk, keep its first slot
    /// and free the rest.
    fn grow(&self) -> u32 {
        let mut grown = lock(&self.grown);
        let (first, len) = Self::span(*grown);
        *grown += 1;
        let (first, last) = (first as u32, (first + len - 1) as u32);
        for i in first + 1..last {
            self.slot(i).next.store(i + 1, Ordering::Relaxed);
        }
        self.push(first + 1, last);
        first
    }

    /// Free a slot whose request never reached the queue, or whose
    /// completion was taken: the next claim sees a new generation.
    pub(crate) fn release(&self, i: u32, generation: u64) {
        let word = (generation.wrapping_add(1) << GEN_SHIFT) | FREE;
        self.slot(i).word.store(word, Ordering::Relaxed);
        self.push(i, i);
    }

    /// Complete slot `i`'s request, or free the slot if its ticket was
    /// dropped. Returns whether a parked waiter was woken.
    pub(crate) fn fill(&self, i: u32, generation: u32, outcome: Outcome) -> bool {
        let slot = self.slot(i);
        slot.version.store(outcome.version, Ordering::Relaxed);
        let mut flags = if outcome.durable { FILLED | DURABLE } else { FILLED };
        if let Err(e) = outcome.result {
            lock(&self.errors).insert(i, e);
            flags |= FAILED;
        }
        let filled = slot.word.fetch_update(Ordering::Release, Ordering::Relaxed, |w| {
            debug_assert_eq!((w >> GEN_SHIFT) as u32, generation, "fill of a reused slot");
            (w & STATE == PENDING).then_some((w >> GEN_SHIFT << GEN_SHIFT) | flags)
        });
        match filled {
            Ok(w) => {
                w & PARKED != 0 && lock(&self.waiters).remove(&i).map(|t| t.unpark()).is_some()
            }
            Err(w) => {
                debug_assert_eq!(w & STATE, ABANDONED, "slot filled twice");
                if flags & FAILED != 0 {
                    lock(&self.errors).remove(&i);
                }
                self.release(i, w >> GEN_SHIFT);
                false
            }
        }
    }

    /// Read a filled slot's outcome and free the slot.
    fn take_filled(&self, i: u32, word: u64) -> Outcome {
        let result = match word & FAILED {
            0 => Ok(()),
            _ => lock(&self.errors).remove(&i).map_or(Ok(()), Err),
        };
        let version = self.slot(i).version.load(Ordering::Relaxed);
        self.release(i, word >> GEN_SHIFT);
        Outcome { version, durable: word & DURABLE != 0, result }
    }

    /// Non-blocking: the outcome if slot `i` holds `generation`'s fill.
    pub(crate) fn try_take(&self, i: u32, generation: u64) -> Option<Outcome> {
        let word = self.slot(i).word.load(Ordering::Acquire);
        (word >> GEN_SHIFT == generation && word & STATE == FILLED)
            .then(|| self.take_filled(i, word))
    }

    /// Block until slot `i` is filled and take the outcome. Panics if
    /// `generation`'s completion was already taken by a poll.
    pub(crate) fn take(&self, i: u32, generation: u64) -> Outcome {
        let word = &self.slot(i).word;
        spin_until(|| word.load(Ordering::Relaxed) & STATE != PENDING);
        loop {
            let w = word.load(Ordering::Acquire);
            assert_eq!(w >> GEN_SHIFT, generation, "wait on a ticket whose completion was polled");
            if w & STATE == FILLED {
                return self.take_filled(i, w);
            }
            if w & PARKED == 0 {
                lock(&self.waiters).insert(i, std::thread::current());
                let parked = w | PARKED;
                if word.compare_exchange(w, parked, Ordering::AcqRel, Ordering::Acquire).is_err() {
                    lock(&self.waiters).remove(&i); // filled meanwhile: take it
                    continue;
                }
            }
            std::thread::park();
        }
    }

    /// `generation`'s ticket is gone: free its slot if filled, else mark
    /// it for the fill to free.
    pub(crate) fn abandon(&self, i: u32, generation: u64) {
        let word = &self.slot(i).word;
        let ours = |w: u64| w >> GEN_SHIFT == generation;
        let dropped = word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| {
            (ours(w) && w & STATE == PENDING).then_some((w & !STATE) | ABANDONED)
        });
        if let Err(w) = dropped {
            if ours(w) && w & STATE == FILLED {
                self.take_filled(i, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl Board {
        /// Chunks allocated so far.
        pub(crate) fn chunks(&self) -> usize {
            *lock(&self.grown)
        }
    }

    fn ok(version: u64) -> Outcome {
        Outcome { version, durable: true, result: Ok(()) }
    }

    fn parked(board: &Board, i: u32) -> bool {
        board.slot(i).word.load(Ordering::Relaxed) & PARKED != 0
    }

    #[test]
    fn fill_without_waiter_issues_no_notify() {
        let board = Board::new();
        let (i, g) = board.claim();
        assert!(board.try_take(i, g).is_none());
        assert!(!board.fill(i, g as u32, ok(42)), "nobody parked: no wake-up");
        assert_eq!(board.take(i, g), ok(42), "a late wait finds the value without parking");
        // Poll harvesting never parks either.
        let (i, g) = board.claim();
        assert!(!board.fill(i, g as u32, ok(43)));
        assert_eq!(board.try_take(i, g), Some(ok(43)));
        assert!(board.try_take(i, g).is_none(), "a second poll reads nothing");
    }

    #[test]
    fn fill_wakes_parked_waiter_exactly_once() {
        let board = Arc::new(Board::new());
        let (i, g) = board.claim();
        let waiter = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || board.take(i, g))
        };
        // The bit is set after the waiter recorded its thread, right
        // before it parks: the fill must unpark it.
        while !parked(&board, i) {
            std::thread::yield_now();
        }
        assert!(board.fill(i, g as u32, ok(7)), "parked waiter: exactly one unpark");
        assert_eq!(waiter.join().unwrap().version, 7);
        assert!(!parked(&board, i), "bit cleared by the fill");
        assert!(lock(&board.waiters).is_empty());
    }

    #[test]
    fn dropped_tickets_return_their_slot_before_and_after_the_fill() {
        let board = Board::new();
        // Dropped before the fill: the fill frees the slot.
        let (i, g) = board.claim();
        board.abandon(i, g);
        assert_eq!(board.claim().0, i + 1, "still in flight");
        assert!(!board.fill(i, g as u32, ok(1)));
        assert_eq!(board.claim(), (i, g + 1), "freed by the fill, under a new generation");
        // Dropped after the fill: the drop frees the slot.
        let (j, h) = board.claim();
        board.fill(j, h as u32, ok(2));
        board.abandon(j, h);
        assert_eq!(board.claim(), (j, h + 1));
        assert_eq!(board.chunks(), 1);
    }

    #[test]
    fn a_stale_generation_reads_nothing_after_reuse() {
        let board = Board::new();
        let (i, g) = board.claim();
        board.fill(i, g as u32, ok(5));
        assert_eq!(board.try_take(i, g), Some(ok(5)));
        let (j, h) = board.claim();
        assert_eq!((j, h), (i, g + 1), "LIFO reuse");
        board.fill(j, h as u32, ok(6));
        assert!(board.try_take(i, g).is_none(), "the old ticket cannot see the new fill");
        board.abandon(i, g); // the old ticket's drop leaves the new fill alone
        assert_eq!(board.try_take(j, h), Some(ok(6)));
    }

    #[test]
    fn an_error_round_trips_through_the_side_map() {
        let board = Board::new();
        let failed = Outcome {
            version: 3,
            durable: false,
            result: Err(ServeError::ShardFailed { shard: 2 }),
        };
        let (i, g) = board.claim();
        board.fill(i, g as u32, failed.clone());
        assert_eq!(board.take(i, g), failed);
        // Dropped before and after an error fill: the map empties too.
        let (i, g) = board.claim();
        board.abandon(i, g);
        board.fill(i, g as u32, failed.clone());
        let (i, g) = board.claim();
        board.fill(i, g as u32, failed);
        board.abandon(i, g);
        assert!(lock(&board.errors).is_empty());
    }

    #[test]
    fn the_board_grows_by_doubling_chunks_and_reuses_freed_slots() {
        let board = Board::new();
        let claimed: Vec<_> = (0..4 * FIRST_CHUNK).map(|_| board.claim()).collect();
        assert_eq!(board.chunks(), 3, "64 + 64 + 128 slots");
        let mut slots: Vec<u32> = claimed.iter().map(|&(i, _)| i).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 4 * FIRST_CHUNK, "no slot handed out twice");
        for &(i, g) in &claimed {
            board.release(i, g);
        }
        for _ in 0..4 * FIRST_CHUNK {
            board.claim();
        }
        assert_eq!(board.chunks(), 3);
    }
}
