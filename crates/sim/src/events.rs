//! A priority queue of timestamped events.
//!
//! The queue is generic over the event payload so that every layer of the
//! stack (the OS model, the MapReduce engine, the experiment driver) can use
//! its own event type while sharing the same deterministic ordering rules:
//! events fire in timestamp order, and events with equal timestamps fire in
//! insertion order (FIFO), which keeps simulations reproducible.
//!
//! # Cancellation design
//!
//! Cancellation is slab/generation based rather than tombstone based. Every
//! scheduled event owns a slot in a slab; the slot records a generation
//! counter and holds the payload while the event is pending, and the
//! [`EventId`] handed to the caller packs `(slot, generation)`. Cancelling
//! drops the payload (O(1)); the heap key is discarded lazily when it
//! surfaces, at which point the slot's generation is bumped and the slot is
//! recycled. Consequences:
//!
//! * `cancel()` of an id whose event already fired (or whose slot was
//!   recycled) is a guaranteed no-op — the generation no longer matches, so
//!   nothing leaks and nothing is mis-cancelled;
//! * [`EventQueue::len`] is an exact counter maintained on schedule / cancel /
//!   pop, never an approximation derived from tombstone bookkeeping;
//! * memory for cancelled events is reclaimed as the heap drains, and slots
//!   are reused, so long-running simulations with heavy cancellation churn
//!   (suspend/resume preemption cancels a timer per preemption) stay compact.
//!
//! # Heap layout
//!
//! The heap is a 4-ary min-heap of 16-byte keys, `(at_micros, seq << 24 |
//! slot)`, packed into one `u128` so a comparison is a single integer
//! compare. The payload stays in its slab slot and never moves while the
//! heap reorders, and a node's four children are 64 contiguous bytes, so a
//! sift-down step compares them within one or two cache lines (a binary heap
//! of 56-byte entries touched one line per entry). Sequence numbers are
//! unique, so the slot bits never decide an order: equal timestamps pop in
//! insertion (FIFO) order.

use crate::time::SimTime;

/// Bits of a heap key's low word that hold the slab slot; the sequence
/// number takes the remaining 40.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Exclusive bound on slab slots (events scheduled and not yet popped,
/// including cancelled ones whose key is still in the heap).
const MAX_SLOTS: usize = 1 << SLOT_BITS;
/// Exclusive bound on the sequence number stored above the slot bits.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);
/// Heap arity.
const ARITY: usize = 4;

/// Handle that identifies a scheduled event so it can be cancelled.
///
/// Internally packs a slab slot index and that slot's generation at scheduling
/// time; a stale handle (fired or recycled event) can never affect a newer
/// event that happens to reuse the same slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

impl EventId {
    #[inline]
    fn new(slot: u32, gen: u32) -> Self {
        EventId(u64::from(slot) | (u64::from(gen) << 32))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One slab slot: the current generation and, while the owning event is
/// pending, its payload (`None` once cancelled or popped).
#[derive(Debug)]
struct Slot<E> {
    generation: u32,
    payload: Option<E>,
}

/// A heap key: timestamp in the high word, `seq << SLOT_BITS | slot` in the
/// low word.
type Key = u128;

/// The heap key of the event with sequence number `seq` at `at` in `slot`.
///
/// # Panics
/// Panics if `slot` or `seq` does not fit its bits: a wrapped key would
/// reorder events silently.
#[inline]
fn pack_key(at: SimTime, seq: u64, slot: usize) -> Key {
    assert!(
        slot < MAX_SLOTS,
        "event queue slot index overflow: more than {MAX_SLOTS} events in flight"
    );
    assert!(
        seq < MAX_SEQ,
        "event queue sequence overflow after {MAX_SEQ} events"
    );
    u128::from(at.as_micros()) << 64 | u128::from(seq << SLOT_BITS | slot as u64)
}

#[inline]
fn key_time(key: Key) -> SimTime {
    SimTime::from_micros((key >> 64) as u64)
}

#[inline]
fn key_slot(key: Key) -> usize {
    (key as u64 & SLOT_MASK) as usize
}

/// A deterministic, cancellable event queue keyed by [`SimTime`].
pub struct EventQueue<E> {
    /// 4-ary min-heap of keys; the root is the next event.
    heap: Vec<Key>,
    slots: Vec<Slot<E>>,
    free_slots: Vec<u32>,
    next_seq: u64,
    pending: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for roughly `capacity` in-flight events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            free_slots: Vec::new(),
            next_seq: 0,
            pending: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the last popped event, or
    /// zero if nothing has been popped yet.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `t` without popping anything. Drivers that merge
    /// this queue with computed event sources (e.g. the engine's periodic
    /// heartbeat wheel) use this so `schedule`'s not-in-the-past invariant
    /// keeps holding across events the queue never saw.
    ///
    /// # Panics
    /// Panics if `t` is before [`Self::now`].
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            t >= self.now,
            "cannot rewind the clock to {t:?} from {:?}",
            self.now
        );
        self.now = t;
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before [`Self::now`]); scheduling in the
    /// past would silently reorder history and is always a logic error.
    /// Also panics if more than 2^24 events are scheduled and not yet popped,
    /// or after 2^40 schedules in total: the heap key has no room for a
    /// larger slot index or sequence number, and wrapping would reorder
    /// events silently.
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at:?} before the current time {:?}",
            self.now
        );
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                let entry = &mut self.slots[slot as usize];
                debug_assert!(entry.payload.is_none(), "free slot must not be live");
                entry.payload = Some(payload);
                slot
            }
            None => {
                self.slots.push(Slot {
                    generation: 0,
                    payload: Some(payload),
                });
                (self.slots.len() - 1) as u32
            }
        };
        let key = pack_key(at, self.next_seq, slot as usize);
        self.next_seq += 1;
        self.push_key(key);
        self.pending += 1;
        EventId::new(slot, self.slots[slot as usize].generation)
    }

    /// Cancels a previously scheduled event. Cancelling an event that already
    /// fired (or was already cancelled) is a no-op: the generation encoded in
    /// the id no longer matches the slot, so the handle is simply stale.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(slot) = self.slots.get_mut(id.slot() as usize) {
            if slot.generation == id.generation() && slot.payload.take().is_some() {
                self.pending -= 1;
            }
        }
    }

    /// Recycles the slot of a key that has just been removed from the heap.
    /// Returns the payload if the event was still live (not cancelled).
    #[inline]
    fn retire_slot(&mut self, slot: usize) -> Option<E> {
        let entry = &mut self.slots[slot];
        entry.generation = entry.generation.wrapping_add(1);
        self.free_slots.push(slot as u32);
        entry.payload.take()
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp. Cancelled events are skipped silently.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(key) = self.pop_key() {
            if let Some(payload) = self.retire_slot(key_slot(key)) {
                self.pending -= 1;
                let at = key_time(key);
                self.now = at;
                return Some((at, payload));
            }
        }
        None
    }

    /// The timestamp of the next (non-cancelled) event, if any. Does not
    /// advance the clock.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled events lazily so peek is accurate.
        while let Some(&key) = self.heap.first() {
            if self.slots[key_slot(key)].payload.is_some() {
                return Some(key_time(key));
            }
            self.pop_key();
            self.retire_slot(key_slot(key));
        }
        None
    }

    /// Number of pending (non-cancelled) events. Exact: maintained as a
    /// counter across schedule, cancel and pop, with no tombstone drift.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Inserts `key` and sifts it up to its place.
    fn push_key(&mut self, key: Key) {
        let heap = &mut self.heap;
        let mut i = heap.len();
        heap.push(key);
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if heap[parent] <= key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = key;
    }

    /// Removes and returns the smallest key.
    fn pop_key(&mut self) -> Option<Key> {
        let heap = &mut self.heap;
        let last = heap.pop()?;
        let Some(&top) = heap.first() else {
            return Some(last);
        };
        // Sift the former last key down from the root.
        let len = heap.len();
        let mut i = 0;
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let siblings = &heap[first..(first + ARITY).min(len)];
            let mut child = first;
            let mut child_key = siblings[0];
            for (offset, &key) in siblings.iter().enumerate().skip(1) {
                if key < child_key {
                    child = first + offset;
                    child_key = key;
                }
            }
            if last <= child_key {
                break;
            }
            heap[i] = child_key;
            i = child;
        }
        heap[i] = last;
        Some(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), "c");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(7), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(7));
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        q.cancel(a);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_does_not_undercount_len() {
        // Regression test: the old tombstone design left a permanent entry in
        // the cancelled set when an already-fired id was cancelled, making
        // len() report fewer pending events than actually existed.
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        q.cancel(a); // stale id: must not affect anything
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "c");
        assert_eq!(q.len(), 2, "len must count both pending events");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn stale_id_cannot_cancel_a_recycled_slot() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        // The next schedule reuses slot 0 with a bumped generation.
        let b = q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a); // stale handle into the reused slot
        assert_eq!(q.len(), 1, "the stale cancel must not kill the new event");
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        q.cancel(b); // now b itself is stale too: no-op
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_is_counted_once() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
    }

    #[test]
    fn peek_respects_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(5), ());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..5)
            .map(|i| q.schedule(SimTime::from_secs(i + 1), i))
            .collect();
        q.cancel(ids[0]);
        q.cancel(ids[3]);
        assert_eq!(q.len(), 3);
        let _ = SimDuration::ZERO; // keep the import exercised
    }

    #[test]
    fn keys_round_trip_at_the_largest_slot_and_sequence() {
        let at = SimTime::from_micros(u64::MAX);
        let key = pack_key(at, MAX_SEQ - 1, MAX_SLOTS - 1);
        assert_eq!(key_time(key), at);
        assert_eq!(key_slot(key), MAX_SLOTS - 1);
        // The sequence number, not the slot, orders equal timestamps.
        assert!(pack_key(at, 1, MAX_SLOTS - 1) < pack_key(at, 2, 0));
    }

    #[test]
    #[should_panic(expected = "slot index overflow")]
    fn slot_index_overflow_panics() {
        pack_key(SimTime::ZERO, 0, MAX_SLOTS);
    }

    #[test]
    #[should_panic(expected = "sequence overflow")]
    fn sequence_overflow_panics_instead_of_wrapping() {
        let mut q = EventQueue::new();
        q.next_seq = MAX_SEQ;
        q.schedule(SimTime::ZERO, ());
    }

    #[test]
    fn slots_are_recycled_under_churn() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let id = q.schedule(SimTime::from_secs(round + 1), round);
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                q.pop();
            }
        }
        assert!(
            q.slots.len() < 16,
            "slab must stay compact under schedule/cancel churn, got {} slots",
            q.slots.len()
        );
    }
}
