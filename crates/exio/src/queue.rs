//! Bounded producer/consumer queue with byte and work accounting.
//!
//! The streaming extraction pipeline pushes decoded metacell records from the
//! AMC-retrieval thread into a pool of triangulation workers. The queue is
//! deliberately small: its bound is what caps peak memory (the out-of-core
//! promise) and what forces disk and cores to overlap instead of letting the
//! producer buffer the whole active set. Every push is accounted in items,
//! bytes, and caller-supplied *weight* so reports can state the true
//! high-water mark, and blocked time is tracked on both sides so overlap
//! efficiency is measurable.
//!
//! One bound, [`BoundedQueue::weighted`]: admission by total queued weight.
//! A push blocks while the queue's weight budget is spent, except that one
//! item is always admitted into an empty queue (so an item heavier than the
//! whole budget still flows instead of deadlocking). The pipeline weights
//! records by their planner cell estimate, so the bound caps queued *work* —
//! a few dense metacells fill the budget that many sparse ones would share.
//! With unit weights the bound is an item count.
//!
//! Wakes are batched: a push wakes a consumer only if one is blocked, and a
//! pop wakes a blocked producer only once the queue has drained to half its
//! weight budget, so a producer that blocks on a full queue sleeps until it
//! can push a batch instead of being woken for every single slot. A queue
//! emptied by a pop is always at or below half, so a producer blocked behind
//! an over-budget item is woken by the pop that empties the queue and never
//! stranded.

use oociso_obs::Histogram;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Accounting snapshot of a [`BoundedQueue`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Items pushed over the queue's lifetime.
    pub pushed_items: u64,
    /// Payload bytes pushed over the queue's lifetime.
    pub pushed_bytes: u64,
    /// Work weight pushed over the queue's lifetime.
    pub pushed_weight: u64,
    /// Most items ever queued at once.
    pub peak_items: u64,
    /// Most payload bytes ever queued at once.
    pub peak_bytes: u64,
    /// Most work weight ever queued at once.
    pub peak_weight: u64,
    /// Wakes issued to blocked producers (by pops reaching the half bound,
    /// and one per blocked producer at close).
    pub push_wakes: u64,
    /// Wakes issued to blocked consumers (by pushes, and one per blocked
    /// consumer at close).
    pub pop_wakes: u64,
}

/// Wait-time totals, tracked separately from [`QueueStats`] so they can keep
/// accumulating while consumers still hold items.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueWaits {
    /// Total time producers spent blocked on a full queue (backpressure).
    pub push_wait: Duration,
    /// Total time consumers spent blocked on an empty queue, summed across
    /// consumers (includes the final wait for close).
    pub pop_wait: Duration,
}

struct Inner<T> {
    items: VecDeque<(T, u64, u64)>,
    bytes: u64,
    weight: u64,
    closed: bool,
    /// Producers / consumers blocked in `push` / `pop` and not yet woken:
    /// a waiter counts itself in before it sleeps, its waker counts it out.
    /// A spurious wakeup can leave one stale count behind, which costs at
    /// most one needless wake, never a missed one.
    blocked_pushers: u64,
    blocked_poppers: u64,
    stats: QueueStats,
    waits: QueueWaits,
}

/// A blocking MPMC queue bounded by queued weight, with byte and weight
/// accounting.
///
/// Producers [`push`](BoundedQueue::push) until [`close`](BoundedQueue::close);
/// consumers [`pop`](BoundedQueue::pop) until it returns `None` (queue drained
/// *and* closed).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    max_weight: u64,
    // process-wide wait histograms, resolved once per queue so the blocked
    // paths record lock-free
    push_wait_us: Histogram,
    pop_wait_us: Histogram,
}

impl<T> BoundedQueue<T> {
    /// Queue bounded by total queued *weight*: a push blocks while admitting
    /// its item would take the queued weight past `max_weight` (at least 1)
    /// — unless the queue is empty, in which case the item is admitted
    /// regardless, so one over-budget item can never deadlock the pipeline.
    pub fn weighted(max_weight: u64) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                bytes: 0,
                weight: 0,
                closed: false,
                blocked_pushers: 0,
                blocked_poppers: 0,
                stats: QueueStats::default(),
                waits: QueueWaits::default(),
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            max_weight: max_weight.max(1),
            push_wait_us: oociso_obs::global().histogram("queue_push_wait_us"),
            pop_wait_us: oociso_obs::global().histogram("queue_pop_wait_us"),
        }
    }

    /// Weight budget.
    pub fn max_weight(&self) -> u64 {
        self.max_weight
    }

    /// Push an item carrying `bytes` of payload and `weight` units of work,
    /// blocking while the queue's weight budget is spent. Returns the item
    /// back if the queue was closed.
    pub fn push(&self, item: T, bytes: u64, weight: u64) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        let full = |inner: &Inner<T>| {
            !inner.items.is_empty() && inner.weight.saturating_add(weight) > self.max_weight
        };
        while full(&inner) && !inner.closed {
            let t = Instant::now();
            inner.blocked_pushers += 1;
            inner = self.not_full.wait(inner).expect("queue poisoned");
            let waited = t.elapsed();
            inner.waits.push_wait += waited;
            self.push_wait_us.record_duration(waited);
        }
        if inner.closed {
            return Err(item);
        }
        inner.items.push_back((item, bytes, weight));
        inner.bytes += bytes;
        inner.weight += weight;
        inner.stats.pushed_items += 1;
        inner.stats.pushed_bytes += bytes;
        inner.stats.pushed_weight += weight;
        inner.stats.peak_items = inner.stats.peak_items.max(inner.items.len() as u64);
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.bytes);
        inner.stats.peak_weight = inner.stats.peak_weight.max(inner.weight);
        let wake = inner.blocked_poppers > 0;
        if wake {
            inner.blocked_poppers -= 1;
            inner.stats.pop_wakes += 1;
        }
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pop the oldest item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed and drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        while inner.items.is_empty() && !inner.closed {
            let t = Instant::now();
            inner.blocked_poppers += 1;
            inner = self.not_empty.wait(inner).expect("queue poisoned");
            let waited = t.elapsed();
            inner.waits.pop_wait += waited;
            self.pop_wait_us.record_duration(waited);
        }
        match inner.items.pop_front() {
            Some((item, bytes, weight)) => {
                inner.bytes -= bytes;
                inner.weight -= weight;
                // drained to half the budget: wake a blocked producer
                let wake = inner.blocked_pushers > 0 && inner.weight <= self.max_weight / 2;
                if wake {
                    inner.blocked_pushers -= 1;
                    inner.stats.push_wakes += 1;
                }
                drop(inner);
                if wake {
                    self.not_full.notify_one();
                }
                Some(item)
            }
            None => None, // closed and drained
        }
    }

    /// Close the queue: no further pushes succeed; consumers drain what is
    /// left and then observe `None`.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue poisoned");
        inner.closed = true;
        inner.stats.push_wakes += std::mem::take(&mut inner.blocked_pushers);
        inner.stats.pop_wakes += std::mem::take(&mut inner.blocked_poppers);
        drop(inner);
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    /// Lifetime accounting (push totals, high-water marks, wakes issued).
    pub fn stats(&self) -> QueueStats {
        self.inner.lock().expect("queue poisoned").stats
    }

    /// Blocked-time totals on both sides.
    pub fn waits(&self) -> QueueWaits {
        self.inner.lock().expect("queue poisoned").waits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn fifo_order_and_accounting() {
        let q: BoundedQueue<u32> = BoundedQueue::weighted(65);
        for i in 0..10u32 {
            q.push(i, (i + 1) as u64, (i + 2) as u64).unwrap();
        }
        q.close();
        for i in 0..10u32 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        let s = q.stats();
        assert_eq!(s.pushed_items, 10);
        assert_eq!(s.pushed_bytes, 55);
        assert_eq!(s.pushed_weight, 65);
        assert_eq!(s.peak_items, 10);
        assert_eq!(s.peak_bytes, 55);
        assert_eq!(s.peak_weight, 65);
    }

    #[test]
    fn capacity_bounds_peak() {
        let q: BoundedQueue<usize> = BoundedQueue::weighted(3);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            });
            for i in 0..50 {
                q.push(i, 8, 1).unwrap();
            }
            q.close();
            let got = consumer.join().unwrap();
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        });
        let s = q.stats();
        assert!(s.peak_items <= 3, "peak {} over capacity", s.peak_items);
        assert!(s.peak_bytes <= 24);
        assert_eq!(s.pushed_items, 50);
    }

    #[test]
    fn weight_bounds_peak_not_item_count() {
        let q: BoundedQueue<usize> = BoundedQueue::weighted(100);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            });
            // light items: many fit at once (item count is unbounded) …
            for i in 0..40 {
                q.push(i, 8, 10).unwrap();
            }
            // … heavy items: the same budget admits only one at a time
            for i in 40..50 {
                q.push(i, 8, 90).unwrap();
            }
            q.close();
            let got = consumer.join().unwrap();
            assert_eq!(got, (0..50).collect::<Vec<_>>());
        });
        let s = q.stats();
        assert!(
            s.peak_weight <= 100,
            "peak weight {} over budget",
            s.peak_weight
        );
        assert!(s.peak_items <= 10, "light items not bounded by weight");
        assert_eq!(s.pushed_weight, 40 * 10 + 10 * 90);
    }

    #[test]
    fn over_budget_item_admitted_when_empty() {
        // an item heavier than the whole budget must flow, not deadlock
        let q: BoundedQueue<u8> = BoundedQueue::weighted(10);
        q.push(1, 0, 1000).unwrap();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| q.push(2, 0, 1000)); // blocks: budget spent
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop(), Some(1)); // empties the queue, unblocks push
            assert_eq!(q.pop(), Some(2));
            h.join().unwrap().unwrap();
        });
        q.close();
        assert_eq!(q.stats().peak_items, 1);
        assert!(q.waits().push_wait > Duration::ZERO);
    }

    #[test]
    fn zero_weight_items_do_not_block() {
        let q: BoundedQueue<u32> = BoundedQueue::weighted(5);
        for i in 0..100 {
            q.push(i, 0, 0).unwrap();
        }
        q.close();
        assert_eq!(q.stats().peak_items, 100);
        assert_eq!(q.stats().peak_weight, 0);
    }

    #[test]
    fn push_after_close_returns_item() {
        let q: BoundedQueue<&str> = BoundedQueue::weighted(2);
        q.close();
        assert_eq!(q.push("late", 4, 1), Err("late"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_full_producer() {
        let q: BoundedQueue<u8> = BoundedQueue::weighted(1);
        q.push(1, 1, 1).unwrap();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| q.push(2, 1, 1)); // blocks: queue full
            std::thread::sleep(Duration::from_millis(20));
            q.close();
            assert_eq!(h.join().unwrap(), Err(2));
        });
        assert!(q.waits().push_wait > Duration::ZERO);
    }

    #[test]
    fn multiple_consumers_partition_items() {
        let q: BoundedQueue<u64> = BoundedQueue::weighted(4);
        let sum = AtomicU64::new(0);
        let count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    while let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            for i in 1..=100u64 {
                q.push(i, 1, 1).unwrap();
            }
            q.close();
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn blocked_waits_feed_global_histograms() {
        let before = oociso_obs::global()
            .histogram("queue_push_wait_us")
            .snapshot()
            .count;
        let q: BoundedQueue<u8> = BoundedQueue::weighted(1);
        q.push(1, 1, 1).unwrap();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| q.push(2, 1, 1)); // blocks: queue full
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(q.pop(), Some(1));
            h.join().unwrap().unwrap();
        });
        let after = oociso_obs::global()
            .histogram("queue_push_wait_us")
            .snapshot()
            .count;
        assert!(
            after > before,
            "blocked push should record a wait sample ({before} -> {after})"
        );
    }

    /// Push `n` items of `weight` through `q` while one consumer pops them
    /// one at a time; returns what it got, in order.
    fn stream_through(q: &BoundedQueue<u64>, n: u64, weight: u64) -> Vec<u64> {
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            });
            for i in 0..n {
                q.push(i, 1, weight).unwrap();
            }
            q.close();
            consumer.join().unwrap()
        })
    }

    #[test]
    fn producer_blocked_on_a_weighted_queue_is_always_woken() {
        // one-at-a-time pops of light items: the producer waits for the
        // half-bound wake and every item still arrives
        let q: BoundedQueue<u64> = BoundedQueue::weighted(100);
        assert_eq!(
            stream_through(&q, 2_000, 10),
            (0..2_000).collect::<Vec<_>>()
        );
        assert!(q.stats().peak_weight <= 100);
        // items heavier than half the budget: at most one fits beside
        // another, so the producer is woken only by the pop that empties
        // the queue — and must be, every time
        let q: BoundedQueue<u64> = BoundedQueue::weighted(100);
        assert_eq!(stream_through(&q, 500, 60), (0..500).collect::<Vec<_>>());
        assert_eq!(q.stats().peak_items, 1);
        // an item over the whole budget behind one that fills it
        let q: BoundedQueue<u64> = BoundedQueue::weighted(10);
        q.push(0, 1, 10).unwrap();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| q.push(1, 1, 1_000));
            while q.inner.lock().unwrap().blocked_pushers == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(q.pop(), Some(0), "the pop that empties the queue wakes it");
            h.join().unwrap().unwrap();
            assert_eq!(q.pop(), Some(1));
        });
    }

    #[test]
    fn close_wakes_a_producer_blocked_on_a_weighted_queue() {
        let q: BoundedQueue<u64> = BoundedQueue::weighted(100);
        q.push(0, 1, 90).unwrap();
        std::thread::scope(|scope| {
            let h = scope.spawn(|| q.push(1, 1, 90));
            while q.inner.lock().unwrap().blocked_pushers == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            q.close();
            assert_eq!(h.join().unwrap(), Err(1));
        });
        let s = q.stats();
        assert_eq!(s.push_wakes, 1, "close wakes its one blocked producer");
        assert_eq!(s.pushed_items, 1);
    }

    #[test]
    fn a_full_queue_run_wakes_the_producer_per_batch_not_per_pop() {
        // the producer outruns a consumer that pops one item at a time, so
        // it spends the run blocked on a full queue; under the half-bound
        // rule each wake lets it refill half the budget
        let q: BoundedQueue<u64> = BoundedQueue::weighted(64);
        let n = 20_000u64;
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| {
                let mut got = 0u64;
                while let Some(v) = q.pop() {
                    assert_eq!(v, got);
                    got += 1;
                    std::hint::black_box((0..200u64).sum::<u64>());
                }
                got
            });
            for i in 0..n {
                q.push(i, 1, 1).unwrap();
            }
            q.close();
            assert_eq!(consumer.join().unwrap(), n);
        });
        let s = q.stats();
        assert!(
            s.push_wakes * 8 < n,
            "{} producer wakes for {n} pops: not batched",
            s.push_wakes
        );
        assert!(s.pop_wakes <= n);
    }

    #[test]
    fn zero_capacity_clamped_to_one() {
        let q: BoundedQueue<u8> = BoundedQueue::weighted(0);
        assert_eq!(q.max_weight(), 1);
        q.push(7, 1, 1).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7));
    }
}
