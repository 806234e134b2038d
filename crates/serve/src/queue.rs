//! Bounded, priority-classed admission queue.
//!
//! Three FIFO classes ([`crate::Priority`]); the total population is
//! capped by [`QueueConfig::capacity`]. A push into a full queue either
//! evicts the newest job of a strictly lower class (making room for the
//! higher-priority arrival) or is rejected outright — both are typed
//! [`Admission`] outcomes, so overload can never grow memory without
//! bound or panic.

use crate::catalog::Priority;
use std::collections::VecDeque;

/// Sizing of the admission queue.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Maximum jobs waiting across all classes.
    pub capacity: usize,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig { capacity: 64 }
    }
}

/// The typed outcome of an admission attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission<T> {
    /// The item is queued.
    Admitted,
    /// The item is queued; a lower-priority victim was evicted to make
    /// room and is returned to the caller for a shed response.
    AdmittedEvicting(T),
    /// The queue is full of equal-or-higher-priority work.
    Rejected {
        /// Queue population at rejection.
        depth: usize,
        /// Configured capacity.
        capacity: usize,
    },
}

/// A bounded three-class priority queue.
pub struct BoundedQueue<T> {
    classes: [VecDeque<T>; 3],
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue bounded by `capacity`.
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue { classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()], capacity }
    }

    /// Jobs waiting across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(|c| c.len()).sum()
    }

    /// `true` when nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(|c| c.is_empty())
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Attempts to queue `item` at `priority`. At capacity, the newest
    /// item of the lowest non-empty class *below* `priority` is evicted
    /// to make room; with no lower class populated the push is
    /// rejected. Never exceeds capacity.
    pub fn push(&mut self, item: T, priority: Priority) -> Admission<T> {
        if self.len() < self.capacity {
            self.classes[priority.rank()].push_back(item);
            return Admission::Admitted;
        }
        for lower in 0..priority.rank() {
            if let Some(victim) = self.classes[lower].pop_back() {
                self.classes[priority.rank()].push_back(item);
                return Admission::AdmittedEvicting(victim);
            }
        }
        Admission::Rejected { depth: self.len(), capacity: self.capacity }
    }

    /// Pops the oldest item of the highest populated class.
    pub fn pop(&mut self) -> Option<T> {
        self.classes.iter_mut().rev().find_map(|c| c.pop_front())
    }

    /// Drains every waiting item, highest class first (shutdown path).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_with_priority_pop_order() {
        let mut q = BoundedQueue::new(4);
        assert_eq!(q.push(1, Priority::Low), Admission::Admitted);
        assert_eq!(q.push(2, Priority::Normal), Admission::Admitted);
        assert_eq!(q.push(3, Priority::High), Admission::Admitted);
        assert_eq!(q.push(4, Priority::Normal), Admission::Admitted);
        assert_eq!(q.pop(), Some(3), "high first");
        assert_eq!(q.pop(), Some(2), "then normal, FIFO");
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), Some(1), "low last");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_rejects_equal_priority_and_evicts_lower() {
        let mut q = BoundedQueue::new(2);
        q.push(1, Priority::Normal);
        q.push(2, Priority::Normal);
        // Same class: typed rejection with the observed depth.
        assert_eq!(q.push(3, Priority::Normal), Admission::Rejected { depth: 2, capacity: 2 });
        assert_eq!(q.len(), 2, "rejection does not grow the queue");
        // Higher class: the newest normal item is evicted.
        assert_eq!(q.push(4, Priority::High), Admission::AdmittedEvicting(2));
        assert_eq!(q.len(), 2, "eviction keeps the bound");
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn low_priority_never_evicts() {
        let mut q = BoundedQueue::new(1);
        q.push(1, Priority::Low);
        assert_eq!(q.push(2, Priority::Low), Admission::Rejected { depth: 1, capacity: 1 });
    }

    #[test]
    fn drain_empties_highest_first() {
        let mut q = BoundedQueue::new(8);
        q.push(1, Priority::Low);
        q.push(2, Priority::High);
        q.push(3, Priority::Normal);
        assert_eq!(q.drain(), vec![2, 3, 1]);
        assert!(q.is_empty());
    }
}
