//! The discrete-event calendar at the core of the workload driver.
//!
//! The drive loop used to juggle two time-ordered heaps: a closed-loop slot
//! heap (completion times of requests holding queue slots) and an open-loop
//! outstanding heap (completion times of requests still in flight in simulated
//! time). They held the *same values* — host-completion instants — ordered the
//! same way, and diverged only in when entries were popped. This module
//! collapses them into one [`EventCalendar`]: a single binary heap of
//! completion instants drained earliest-first. The per-chip ready clocks are
//! not events (an op needs *its* chip's availability, not the globally
//! earliest one) and live with each lane instead.
//!
//! Why one heap is enough: every completion pushed is `>=` every value popped
//! before it (a completion ends at or after its issue instant, which is at or
//! after the clock, which is the maximum of everything popped so far). Both
//! consumers therefore remove elements globally smallest-first from the same
//! multiset, so a queue-slot pop ([`EventCalendar::pop_earliest`] when the
//! calendar is at the queue depth) and a retirement sweep
//! ([`EventCalendar::observe_arrival`]) interleave without ever disagreeing
//! about which completion is earliest. After a sweep the calendar holds exactly
//! the completions later than the current issue instant — the quantity behind
//! `peak_queue_depth` and `busy_arrivals` — which is why the calendar can own
//! those statistics too.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vflash_nand::Nanos;

/// The single time-ordered core of the drive loop: pending host completions
/// over one binary heap, and the backlog statistics that fall out of draining
/// them.
#[derive(Debug, Clone)]
pub(crate) struct EventCalendar {
    /// Pending host completions, popped earliest-first.
    events: BinaryHeap<Reverse<Nanos>>,
    /// Largest number of host completions pending right after an arrival was
    /// scheduled — the peak backlog.
    peak_outstanding: usize,
    /// Arrivals that found at least one earlier request still outstanding.
    busy_arrivals: u64,
}

impl EventCalendar {
    /// An empty calendar. `capacity` presizes the heap (the closed-loop queue
    /// depth; open loop passes a guess).
    pub(crate) fn new(capacity: usize) -> Self {
        EventCalendar {
            events: BinaryHeap::with_capacity(capacity),
            peak_outstanding: 0,
            busy_arrivals: 0,
        }
    }

    /// Number of host completions still pending.
    pub(crate) fn outstanding(&self) -> usize {
        self.events.len()
    }

    /// Pops the earliest pending completion, if any. The closed-loop discipline
    /// calls this when all queue slots are taken: the popped instant is when
    /// the next slot frees.
    pub(crate) fn pop_earliest(&mut self) -> Option<Nanos> {
        self.events.pop().map(|Reverse(at)| at)
    }

    /// Observes a request arriving (being issued) at `issue`: retires every
    /// completion at or before that instant, and counts the arrival as *busy*
    /// if any earlier request is still outstanding afterwards.
    pub(crate) fn observe_arrival(&mut self, issue: Nanos) {
        while self.events.peek().is_some_and(|&Reverse(at)| at <= issue) {
            self.events.pop();
        }
        if !self.events.is_empty() {
            self.busy_arrivals += 1;
        }
    }

    /// Schedules a host completion at `at` and tracks the peak backlog.
    pub(crate) fn schedule_completion(&mut self, at: Nanos) {
        self.events.push(Reverse(at));
        if self.events.len() > self.peak_outstanding {
            self.peak_outstanding = self.events.len();
        }
    }

    /// The peak backlog observed so far.
    pub(crate) fn peak_outstanding(&self) -> usize {
        self.peak_outstanding
    }

    /// Arrivals so far that found the system busy.
    pub(crate) fn busy_arrivals(&self) -> u64 {
        self.busy_arrivals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_earliest_first() {
        let mut calendar = EventCalendar::new(4);
        for at in [30u64, 10, 20] {
            calendar.schedule_completion(Nanos(at));
        }
        assert_eq!(calendar.pop_earliest(), Some(Nanos(10)));
        assert_eq!(calendar.pop_earliest(), Some(Nanos(20)));
        assert_eq!(calendar.pop_earliest(), Some(Nanos(30)));
        assert_eq!(calendar.pop_earliest(), None);
    }

    #[test]
    fn observe_arrival_retires_due_completions_and_counts_busy_arrivals() {
        let mut calendar = EventCalendar::new(4);
        calendar.schedule_completion(Nanos(100));
        calendar.schedule_completion(Nanos(200));
        // Arrival at t=100 retires the t=100 completion (<=) but finds t=200
        // still pending: a busy arrival.
        calendar.observe_arrival(Nanos(100));
        assert_eq!(calendar.outstanding(), 1);
        assert_eq!(calendar.busy_arrivals(), 1);
        // Arrival at t=500 drains everything: an idle arrival.
        calendar.observe_arrival(Nanos(500));
        assert_eq!(calendar.outstanding(), 0);
        assert_eq!(calendar.busy_arrivals(), 1);
    }

    #[test]
    fn peak_outstanding_tracks_the_backlog_high_water_mark() {
        let mut calendar = EventCalendar::new(4);
        calendar.schedule_completion(Nanos(10));
        calendar.schedule_completion(Nanos(20));
        calendar.schedule_completion(Nanos(30));
        assert_eq!(calendar.peak_outstanding(), 3);
        calendar.observe_arrival(Nanos(25));
        assert_eq!(calendar.outstanding(), 1);
        assert_eq!(calendar.peak_outstanding(), 3, "the peak never decays");
    }
}
