//! # mrp-sim — discrete-event simulation kernel
//!
//! The foundation shared by every simulated substrate in the
//! `hadoop-os-preempt` workspace: a virtual clock ([`SimTime`] /
//! [`SimDuration`]), a deterministic cancellable event queue
//! ([`EventQueue`]), a seeded random number generator ([`SimRng`]), the
//! statistics helpers ([`Summary`], [`OnlineStats`]) used by the experiment
//! harness to reproduce the paper's figures, the small sorted-vector map
//! ([`VecMap`]) that per-node state is kept in, and the observability
//! primitives ([`MetricsRegistry`], [`TimeSeriesSampler`], [`LoopProfiler`])
//! that the engine threads through its event loop.
//!
//! Determinism is a design goal throughout: same seed, same configuration ⇒
//! bit-identical simulation, which makes the reproduction of the paper's
//! figures and the golden-shape integration tests stable.
//!
//! ```
//! use mrp_sim::{EventQueue, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::from_secs(3), "heartbeat");
//! queue.schedule(SimTime::from_secs(1), "task-finished");
//! assert_eq!(queue.pop(), Some((SimTime::from_secs(1), "task-finished")));
//! assert_eq!(queue.now(), SimTime::from_secs(1));
//! ```

#![warn(missing_docs)]

mod events;
mod metrics;
mod profile;
mod rng;
mod stats;
mod time;
mod vecmap;

pub use events::{EventId, EventQueue};
pub use metrics::{
    CounterId, GaugeId, HistogramId, LogHistogram, MetricsRegistry, SeriesRow, TimeSeriesSampler,
};
pub use profile::{LoopProfiler, ProfileReport, ProfileRow, ACTION_SAMPLE_EVERY};
pub use rng::SimRng;
pub use stats::{percentile, OnlineStats, Summary};
pub use time::{SimDuration, SimTime};
pub use vecmap::VecMap;

/// Number of bytes in one mebibyte; sizes throughout the workspace are plain
/// `u64` byte counts and these constants keep call sites readable.
pub const MIB: u64 = 1024 * 1024;
/// Number of bytes in one gibibyte.
pub const GIB: u64 = 1024 * MIB;

#[cfg(test)]
mod randomized_tests {
    //! Property-style tests driven by the crate's own seeded generator (the
    //! container has no proptest): each test runs many randomized cases from
    //! fixed seeds, so failures are reproducible by construction.

    use super::*;

    /// Reference implementation of the queue's ordering contract: a vector
    /// kept sorted by descending (timestamp, insertion sequence) and popped
    /// from the back, with eager removal on cancellation.
    struct NaiveQueue<E> {
        entries: Vec<(SimTime, u64, u64, E)>, // (at, seq, id, payload)
        next_seq: u64,
        next_id: u64,
    }

    impl<E> NaiveQueue<E> {
        fn new() -> Self {
            NaiveQueue {
                entries: Vec::new(),
                next_seq: 0,
                next_id: 0,
            }
        }

        fn schedule(&mut self, at: SimTime, payload: E) -> u64 {
            let id = self.next_id;
            self.next_id += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            // Sequence numbers only grow, so the new entry pops after every
            // entry at or before `at`: it goes just behind the later ones.
            let i = self.entries.partition_point(|(t, ..)| *t > at);
            self.entries.insert(i, (at, seq, id, payload));
            id
        }

        fn cancel(&mut self, id: u64) {
            if let Some(i) = self.entries.iter().position(|(_, _, eid, _)| *eid == id) {
                self.entries.remove(i);
            }
        }

        fn pop(&mut self) -> Option<(SimTime, E)> {
            let (at, _, _, payload) = self.entries.pop()?;
            Some((at, payload))
        }

        fn len(&self) -> usize {
            self.entries.len()
        }
    }

    /// The event queue produces the identical pop order (timestamp, then
    /// FIFO) as the naive sorted-vec reference across randomized
    /// schedule/cancel/pop interleavings, and its `len()` stays exact.
    #[test]
    fn queue_matches_naive_reference_under_random_interleavings() {
        for case in 0..200u64 {
            let mut rng = SimRng::new(0xE7E7 + case);
            let mut fast = EventQueue::new();
            let mut naive = NaiveQueue::new();
            // Live ids, kept in lockstep between the two implementations.
            let mut live: Vec<(EventId, u64)> = Vec::new();
            let mut floor = SimTime::ZERO;
            let ops = 50 + rng.index(150);
            for _ in 0..ops {
                match rng.index(10) {
                    // Schedule (biased: queues grow more than they shrink).
                    0..=4 => {
                        let at = floor + SimDuration::from_micros(rng.index(1_000) as u64);
                        let fid = fast.schedule(at, live.len());
                        let nid = naive.schedule(at, live.len());
                        live.push((fid, nid));
                    }
                    // Cancel a random live event.
                    5..=6 => {
                        if !live.is_empty() {
                            let i = rng.index(live.len());
                            let (fid, nid) = live.swap_remove(i);
                            fast.cancel(fid);
                            naive.cancel(nid);
                        }
                    }
                    // Cancel an already-dead id (stale handle): must be a no-op.
                    7 => {
                        let fid = fast.schedule(floor, usize::MAX);
                        let nid = naive.schedule(floor, usize::MAX);
                        fast.cancel(fid);
                        naive.cancel(nid);
                        fast.cancel(fid); // double cancel
                    }
                    // Pop: both must agree exactly.
                    _ => {
                        let f = fast.pop();
                        let n = naive.pop();
                        assert_eq!(f, n, "pop mismatch (case {case})");
                        if let Some((at, _)) = f {
                            floor = at;
                            // The popped event's handles stay in `live` on
                            // purpose: a later "cancel" on them exercises the
                            // stale-handle path of both implementations.
                        }
                    }
                }
                assert_eq!(fast.len(), naive.len(), "len drift (case {case})");
            }
            // Drain: the full remaining sequence must match.
            loop {
                let f = fast.pop();
                let n = naive.pop();
                assert_eq!(f, n, "drain mismatch (case {case})");
                if f.is_none() {
                    break;
                }
            }
            assert_eq!(fast.len(), 0);
        }
    }

    /// Large queues: at least 10k live events, in bursts of up to 400 equal
    /// timestamps, so FIFO ties are resolved several levels deep in the
    /// heap. Each case fills the queue, interleaves pops, cancels and new
    /// bursts while it stays above 10k, then drains; every pop and `len()`
    /// must match the naive reference.
    #[test]
    fn large_queue_with_tie_bursts_matches_naive_reference() {
        fn burst(
            fast: &mut EventQueue<u64>,
            naive: &mut NaiveQueue<u64>,
            live: &mut Vec<(EventId, u64)>,
            rng: &mut SimRng,
            floor: SimTime,
        ) {
            // Few distinct timestamps, many events each.
            let at = floor + SimDuration::from_micros(rng.index(64) as u64);
            for _ in 0..1 + rng.index(400) {
                let payload = rng.next_u64();
                live.push((fast.schedule(at, payload), naive.schedule(at, payload)));
            }
        }
        for case in 0..3u64 {
            let mut rng = SimRng::new(0xB16 + case);
            let mut fast = EventQueue::new();
            let mut naive = NaiveQueue::new();
            let mut live: Vec<(EventId, u64)> = Vec::new();
            let mut floor = SimTime::ZERO;
            while fast.len() < 12_000 {
                burst(&mut fast, &mut naive, &mut live, &mut rng, floor);
            }
            let mut low = fast.len();
            for _ in 0..4_000 {
                match rng.index(100) {
                    0 => burst(&mut fast, &mut naive, &mut live, &mut rng, floor),
                    1..=30 => {
                        let (fid, nid) = live.swap_remove(rng.index(live.len()));
                        fast.cancel(fid);
                        naive.cancel(nid);
                    }
                    _ => {
                        let f = fast.pop();
                        assert_eq!(f, naive.pop(), "pop mismatch (case {case})");
                        floor = f.expect("queue stays large").0;
                    }
                }
                assert_eq!(fast.len(), naive.len(), "len drift (case {case})");
                low = low.min(fast.len());
            }
            assert!(low >= 10_000, "queue fell to {low} live events");
            loop {
                let f = fast.pop();
                assert_eq!(f, naive.pop(), "drain mismatch (case {case})");
                if f.is_none() {
                    break;
                }
            }
        }
    }

    /// `VecMap` agrees with `BTreeMap` on every return value and on
    /// iteration order under random insert, replace, remove and lookup
    /// sequences, both as a map and as a set (`VecMap<K, ()>` against
    /// `BTreeSet`).
    #[test]
    fn vec_map_matches_btree_under_random_operations() {
        use std::collections::{BTreeMap, BTreeSet};
        for case in 0..200u64 {
            let mut rng = SimRng::new(0x5E7 + case);
            // Small key spaces make replaces and misses common.
            let keys = 1 + rng.index(40) as u64;
            let mut map = VecMap::new();
            let mut map_ref = BTreeMap::new();
            let mut set = VecMap::new();
            let mut set_ref = BTreeSet::new();
            for step in 0..1 + rng.index(300) {
                let k = rng.next_u64() % keys;
                let v = rng.next_u64();
                match rng.index(6) {
                    0 | 1 => {
                        assert_eq!(map.insert(k, v), map_ref.insert(k, v));
                        assert_eq!(set.insert(k, ()).is_none(), set_ref.insert(k));
                    }
                    2 => {
                        assert_eq!(map.remove(&k), map_ref.remove(&k));
                        assert_eq!(set.remove(&k).is_some(), set_ref.remove(&k));
                    }
                    3 => {
                        if let (Some(a), Some(b)) = (map.get_mut(&k), map_ref.get_mut(&k)) {
                            *a ^= v;
                            *b ^= v;
                        }
                    }
                    _ => {
                        assert_eq!(map.get(&k), map_ref.get(&k));
                        assert_eq!(map.contains_key(&k), map_ref.contains_key(&k));
                        assert_eq!(set.contains_key(&k), set_ref.contains(&k));
                    }
                }
                assert_eq!(map.len(), map_ref.len(), "case {case} step {step}");
                assert_eq!(set.len(), set_ref.len(), "case {case} step {step}");
            }
            assert!(map.iter().eq(map_ref.iter()), "map order (case {case})");
            assert!(map.values().eq(map_ref.values()));
            assert!(
                set.iter().map(|(k, ())| k).eq(set_ref.iter()),
                "set order (case {case})"
            );
        }
    }

    /// Events always come out of the queue in non-decreasing time order,
    /// regardless of the insertion order.
    #[test]
    fn queue_pops_in_nondecreasing_order() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(100 + case);
            let n = 1 + rng.index(200);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(SimTime::from_micros(rng.index(1_000_000) as u64), i);
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                popped += 1;
            }
            assert_eq!(popped, n);
        }
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_is_exact() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(200 + case);
            let n = 1 + rng.index(100);
            let mut q = EventQueue::new();
            let ids: Vec<(EventId, usize)> = (0..n)
                .map(|i| {
                    (
                        q.schedule(SimTime::from_micros(rng.index(1_000_000) as u64), i),
                        i,
                    )
                })
                .collect();
            let mut expected: std::collections::HashSet<usize> = (0..n).collect();
            for (id, payload) in &ids {
                if rng.chance(0.5) {
                    q.cancel(*id);
                    expected.remove(payload);
                }
            }
            let mut seen = std::collections::HashSet::new();
            while let Some((_, p)) = q.pop() {
                seen.insert(p);
            }
            assert_eq!(seen, expected);
        }
    }

    /// Summary invariants: min <= mean <= max and spread is non-negative.
    #[test]
    fn summary_invariants() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(300 + case);
            let n = 1 + rng.index(200);
            let values: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * 2e6).collect();
            let s = Summary::of(&values).unwrap();
            assert!(s.min <= s.mean + 1e-9);
            assert!(s.mean <= s.max + 1e-9);
            assert!(s.std_dev >= 0.0);
            assert_eq!(s.count, values.len());
        }
    }

    /// Percentile is monotone in p and bounded by the data range.
    #[test]
    fn percentile_monotone() {
        for case in 0..50u64 {
            let mut rng = SimRng::new(400 + case);
            let n = 1 + rng.index(100);
            let values: Vec<f64> = (0..n).map(|_| rng.unit() * 1e6).collect();
            let (p1, p2) = (rng.unit() * 100.0, rng.unit() * 100.0);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&values, lo).unwrap();
            let b = percentile(&values, hi).unwrap();
            assert!(a <= b + 1e-9);
            let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(a >= min - 1e-9 && b <= max + 1e-9);
        }
    }

    /// SimTime arithmetic: (t + d) - t == d for representable values.
    #[test]
    fn time_addition_roundtrip() {
        let mut rng = SimRng::new(500);
        for _ in 0..1000 {
            let t = rng.next_u64() % (u64::MAX / 4);
            let d = rng.next_u64() % (u64::MAX / 4);
            let time = SimTime::from_micros(t);
            let dur = SimDuration::from_micros(d);
            assert_eq!((time + dur) - time, dur);
        }
    }
}
