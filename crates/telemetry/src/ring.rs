//! Bounded lock-free event rings.
//!
//! One [`EventRing`] backs each telemetry track. The hot path is the
//! producer side: a worker (or the submitting client) pushes one
//! [`JobEvent`] per lifecycle transition and must never block, never
//! allocate, and never spin unboundedly — a full ring *drops* the event
//! and counts the drop instead ([`EventRing::dropped`]), so a slow or
//! absent consumer can only ever cost observability, not throughput.
//!
//! The implementation is the classic bounded queue with per-slot
//! sequence numbers (Vyukov): each slot carries an atomic sequence that
//! encodes whether it is free for the producer or holds data for the
//! consumer, so multiple producers and consumers are safe without locks.
//! In the service each ring has exactly one producer (its worker), but
//! the client track is also pushed to by shard/sweep merge bookkeeping,
//! and paying one extra compare-exchange per event buys an API that
//! cannot be misused across threads.

use crate::event::JobEvent;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Slot {
    /// Free for the producer when `seq == pos`; holds data for the
    /// consumer when `seq == pos + 1` (for the `pos` of the push that
    /// filled it).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<JobEvent>>,
}

/// A bounded lock-free multi-producer multi-consumer ring of
/// [`JobEvent`]s with drop-and-count overflow semantics.
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Power-of-two capacity minus one, for masking positions to slots.
    mask: usize,
    /// Next push position.
    head: AtomicUsize,
    /// Next pop position.
    tail: AtomicUsize,
    /// Events discarded because the ring was full when they were pushed.
    dropped: AtomicU64,
}

// SAFETY: slots are only accessed through the seq protocol below — a
// producer writes a slot's value only after winning the head CAS for a
// position whose slot sequence marked it free, and publishes with a
// release store the consumer acquires before reading.
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl EventRing {
    /// A ring holding up to `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> EventRing {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot]> = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        EventRing {
            slots,
            mask: capacity - 1,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The ring's slot count.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Pushes one event; on a full ring the event is discarded and the
    /// drop counter incremented — the producer never blocks or spins on
    /// a slow consumer. Returns whether the event was stored.
    pub fn push(&self, event: JobEvent) -> bool {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // The slot is free for this position: claim it.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS for `pos` gives this
                        // thread exclusive write access to the slot until
                        // the release store below hands it to a consumer.
                        unsafe { (*slot.value.get()).write(event) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(current) => pos = current,
                }
            } else if (seq as isize).wrapping_sub(pos as isize) < 0 {
                // The slot still holds the value from one lap ago: the
                // ring is full. Drop-and-count.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                // Another producer claimed this position; advance.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops the oldest event, or `None` when the ring is empty.
    pub fn pop(&self) -> Option<JobEvent> {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let expected = pos.wrapping_add(1);
            if seq == expected {
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS for `pos` gives this
                        // thread exclusive read access; the acquire load
                        // of `seq` ordered the producer's write before it.
                        let event = unsafe { (*slot.value.get()).assume_init() };
                        // Mark the slot free for the producer one lap on.
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(event);
                    }
                    Err(current) => pos = current,
                }
            } else if (seq as isize).wrapping_sub(expected as isize) < 0 {
                // The slot has not been published for this lap: empty.
                return None;
            } else {
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains every currently-available event into `out`, returning how
    /// many were moved.
    pub fn drain_into(&self, out: &mut Vec<JobEvent>) -> usize {
        let mut n = 0;
        while let Some(event) = self.pop() {
            out.push(event);
            n += 1;
        }
        n
    }

    /// Events discarded so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, JobEvent};

    fn event(job: u64) -> JobEvent {
        JobEvent {
            at_ns: job * 10,
            kind: EventKind::Queued,
            job,
            track: 0,
        }
    }

    #[test]
    fn fifo_roundtrip() {
        let ring = EventRing::with_capacity(8);
        for i in 0..5 {
            assert!(ring.push(event(i)));
        }
        for i in 0..5 {
            assert_eq!(ring.pop().expect("event present").job, i);
        }
        assert!(ring.pop().is_none());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let ring = EventRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(event(i)));
        }
        // Full: the next pushes are dropped, not queued and not blocking.
        assert!(!ring.push(event(4)));
        assert!(!ring.push(event(5)));
        assert_eq!(ring.dropped(), 2);
        // The stored prefix survives intact.
        let mut out = Vec::new();
        assert_eq!(ring.drain_into(&mut out), 4);
        assert_eq!(out.iter().map(|e| e.job).collect::<Vec<_>>(), [0, 1, 2, 3]);
        // Space freed: pushes succeed again.
        assert!(ring.push(event(6)));
        assert_eq!(ring.pop().expect("stored").job, 6);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(0).capacity(), 2);
        assert_eq!(EventRing::with_capacity(3).capacity(), 4);
        assert_eq!(EventRing::with_capacity(8).capacity(), 8);
        assert_eq!(EventRing::with_capacity(100).capacity(), 128);
    }

    #[test]
    fn wraparound_many_laps() {
        let ring = EventRing::with_capacity(4);
        for lap in 0..100u64 {
            for i in 0..3 {
                assert!(ring.push(event(lap * 3 + i)));
            }
            for i in 0..3 {
                assert_eq!(ring.pop().expect("event").job, lap * 3 + i);
            }
        }
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn concurrent_producers_lose_nothing_but_overflow() {
        use std::sync::Arc;
        let ring = Arc::new(EventRing::with_capacity(1024));
        let producers = 4;
        let per_thread = 10_000u64;
        let mut handles = Vec::new();
        for p in 0..producers {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    ring.push(event(p * per_thread + i));
                }
            }));
        }
        // Concurrent consumer drains while producers push.
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut seen = Vec::new();
                loop {
                    ring.drain_into(&mut seen);
                    if seen.len() as u64 + ring.dropped() >= producers * per_thread {
                        break;
                    }
                    std::thread::yield_now();
                }
                seen
            })
        };
        for handle in handles {
            handle.join().expect("producer");
        }
        let mut seen = consumer.join().expect("consumer");
        ring.drain_into(&mut seen);
        // Every event was either delivered exactly once or counted as
        // dropped — none were lost or duplicated.
        assert_eq!(seen.len() as u64 + ring.dropped(), producers * per_thread);
        let mut jobs: Vec<u64> = seen.iter().map(|e| e.job).collect();
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), seen.len(), "no event delivered twice");
    }
}
