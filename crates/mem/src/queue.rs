//! Latency-modeling queues used throughout the memory system.

use std::collections::VecDeque;

/// A bounded queue whose entries become visible `latency` cycles after being
/// pushed — the basic latency-insensitive channel between memory-system
/// components.
#[derive(Debug, Clone)]
pub struct TimedQueue<T> {
    q: VecDeque<(u64, T)>,
    latency: u64,
    cap: usize,
}

impl<T> TimedQueue<T> {
    /// Creates a queue with the given delivery latency and capacity.
    #[must_use]
    pub fn new(latency: u64, cap: usize) -> Self {
        TimedQueue {
            q: VecDeque::new(),
            latency,
            cap,
        }
    }

    /// Whether a push would currently succeed.
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.q.len() < self.cap
    }

    /// Enqueues `v` at time `now`; it becomes poppable at `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` when the queue is full.
    pub fn push(&mut self, now: u64, v: T) -> Result<(), T> {
        if self.q.len() >= self.cap {
            return Err(v);
        }
        self.q.push_back((now + self.latency, v));
        Ok(())
    }

    /// Enqueues `v` at time `now` with `extra` cycles of additional latency
    /// on top of the queue's own — used by fault injection to model
    /// congested or retried messages.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` when the queue is full.
    pub fn push_delayed(&mut self, now: u64, extra: u64, v: T) -> Result<(), T> {
        if self.q.len() >= self.cap {
            return Err(v);
        }
        self.q.push_back((now + self.latency + extra, v));
        Ok(())
    }

    /// Removes the head if it has arrived by `now`.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        if matches!(self.q.front(), Some((t, _)) if *t <= now) {
            self.q.pop_front().map(|(_, v)| v)
        } else {
            None
        }
    }

    /// Peeks the head if it has arrived by `now`.
    #[must_use]
    pub fn peek_ready(&self, now: u64) -> Option<&T> {
        match self.q.front() {
            Some((t, v)) if *t <= now => Some(v),
            _ => None,
        }
    }

    /// When the head arrives: the first cycle [`TimedQueue::pop_ready`]
    /// can return something, `None` when empty.
    #[must_use]
    pub fn head_due(&self) -> Option<u64> {
        self.q.front().map(|(t, _)| *t)
    }

    /// The earliest arrival strictly after `now`, `None` when nothing is in
    /// flight.
    #[must_use]
    pub fn next_arrival_after(&self, now: u64) -> Option<u64> {
        self.q.iter().map(|(t, _)| *t).filter(|&t| t > now).min()
    }

    /// Current occupancy (including in-flight entries).
    #[must_use]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether the queue holds no entries at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Iterates over all entries (in-flight included).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.q.iter().map(|(_, v)| v)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.q.clear();
    }
}

// The occupancy: (arrival time, payload) pairs. Latency and capacity are
// configuration and stay with the constructed queue.
cmd_core::snapshot_fields!(TimedQueue<T> where T: cmd_core::snap::Snap { q: at_most(cap) });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_respects_latency() {
        let mut q = TimedQueue::new(3, 4);
        q.push(10, 'a').unwrap();
        assert!(q.pop_ready(12).is_none());
        assert_eq!(q.pop_ready(13), Some('a'));
    }

    #[test]
    fn capacity_enforced() {
        let mut q = TimedQueue::new(0, 2);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        assert_eq!(q.push(0, 3), Err(3));
        assert!(!q.can_push());
        q.pop_ready(0).unwrap();
        assert!(q.can_push());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = TimedQueue::new(1, 8);
        for i in 0..5 {
            q.push(i, i).unwrap();
        }
        let mut out = Vec::new();
        for now in 0..10 {
            while let Some(v) = q.pop_ready(now) {
                out.push(v);
            }
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_latency_visible_same_cycle() {
        let mut q = TimedQueue::new(0, 1);
        q.push(5, 'x').unwrap();
        assert_eq!(q.peek_ready(5), Some(&'x'));
    }
}
