//! A shared deadline queue for bounded worker pools.
//!
//! Extracted from the campaign runner so the same scheduling core can
//! drive both one-shot sweeps ([`crate::campaign`]) and the resident
//! `owl serve` daemon ([`crate::serve`]): a `BinaryHeap` keyed on
//! *due instant* with an enqueue sequence number as tiebreak (equal
//! deadlines pop in submission order), plus the bookkeeping workers
//! need to decide when the pool is finished. No thread ever sleeps
//! while a runnable item is queued: a worker facing a not-yet-due head
//! parks on a condvar bounded by that head's deadline.
//!
//! Lifecycle:
//!
//! * [`DeadlineQueue::push`] admits an item (refused only after an
//!   abort). Admission *policy* — bounds, load shedding — is the
//!   caller's job; the queue itself is unbounded.
//! * [`DeadlineQueue::pop`] blocks until an item is due, the queue is
//!   drained, or it is aborted. A popped item counts as *active* until
//!   the worker calls [`DeadlineQueue::task_done`], because an empty
//!   heap only means "finished" once no worker can still re-enqueue.
//! * [`DeadlineQueue::close`] announces that no new external work will
//!   arrive: once the heap is empty **and** nothing is active, `pop`
//!   returns [`Pop::Drained`]. Workers may still push (retries) until
//!   they call `task_done`.
//! * [`DeadlineQueue::abort`] stops the pool immediately: every
//!   blocked or future `pop` returns [`Pop::Aborted`].
//!
//! All methods take `&self` and are poison-tolerant, matching the
//! journal's discipline — a worker panicking with an armed kill point
//! must not deadlock the survivors.

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One queued item: run `item` no earlier than `due`.
///
/// Ordered for a `BinaryHeap` so the *earliest* due entry is at the
/// top, with the enqueue sequence number as tiebreak.
struct Entry<T> {
    due: Instant,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due
        // (then lowest seq) on top.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

struct Inner<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Workers currently processing a popped item.
    active: usize,
    /// No new external work will arrive; drain when idle.
    closed: bool,
    /// Fatal stop: every pop returns [`Pop::Aborted`].
    aborted: bool,
    next_seq: u64,
}

/// What [`DeadlineQueue::pop`] produced.
pub enum Pop<T> {
    /// A due item; the pop marked it active — the worker must call
    /// [`DeadlineQueue::task_done`] when finished with it. `due` is
    /// the instant the item became runnable (for queue-wait metrics).
    Item {
        /// The dequeued item.
        item: T,
        /// When it was scheduled to run.
        due: Instant,
    },
    /// The queue is closed, empty, and idle — the pool is finished.
    Drained,
    /// The queue was aborted — stop immediately.
    Aborted,
}

/// A thread-safe deadline queue (see the module docs).
pub struct DeadlineQueue<T> {
    inner: Mutex<Inner<T>>,
    /// Signaled whenever the heap or a lifecycle flag changes; idle
    /// workers park here (bounded by the head entry's deadline).
    idle: Condvar,
}

impl<T> Default for DeadlineQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DeadlineQueue<T> {
    /// An empty, open queue.
    pub fn new() -> Self {
        DeadlineQueue {
            inner: Mutex::new(Inner {
                heap: BinaryHeap::new(),
                active: 0,
                closed: false,
                aborted: false,
                next_seq: 0,
            }),
            idle: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues `item` to run no earlier than `due`. Returns `false`
    /// (dropping the item) only after an abort.
    pub fn push(&self, due: Instant, item: T) -> bool {
        let mut q = self.lock();
        if q.aborted {
            return false;
        }
        let seq = q.next_seq;
        q.next_seq += 1;
        q.heap.push(Entry { due, seq, item });
        drop(q);
        self.idle.notify_all();
        true
    }

    /// Blocks until an item is due, the queue drains, or it aborts.
    pub fn pop(&self) -> Pop<T> {
        let mut q = self.lock();
        loop {
            if q.aborted {
                return Pop::Aborted;
            }
            match q.heap.peek().map(|e| e.due) {
                Some(due) => {
                    let now = Instant::now();
                    if due <= now {
                        let e = q.heap.pop().expect("peeked entry exists");
                        q.active += 1;
                        return Pop::Item {
                            item: e.item,
                            due: e.due,
                        };
                    }
                    // The head (earliest deadline in the heap) is not
                    // due: nothing is runnable. Park until it is, or
                    // until a push/close/abort notifies us.
                    let (guard, _timeout) = self
                        .idle
                        .wait_timeout(q, due - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    q = guard;
                }
                None => {
                    if q.closed && q.active == 0 {
                        // Drained: wake any parked peers so they can
                        // see it and exit too.
                        drop(q);
                        self.idle.notify_all();
                        return Pop::Drained;
                    }
                    // A running task may still re-enqueue, or (before
                    // close) new work may still arrive.
                    q = self.idle.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Marks one popped item finished. Every [`Pop::Item`] must be
    /// paired with exactly one `task_done` (after any retry push, so
    /// the queue never looks drained while a re-enqueue is pending).
    pub fn task_done(&self) {
        let mut q = self.lock();
        q.active = q.active.saturating_sub(1);
        drop(q);
        self.idle.notify_all();
    }

    /// Announces that no new external work will arrive; once empty and
    /// idle, `pop` returns [`Pop::Drained`].
    pub fn close(&self) {
        self.lock().closed = true;
        self.idle.notify_all();
    }

    /// Stops the pool: every blocked or future `pop` returns
    /// [`Pop::Aborted`] and pushes are refused.
    pub fn abort(&self) {
        self.lock().aborted = true;
        self.idle.notify_all();
    }

    /// Whether the queue was aborted.
    pub fn is_aborted(&self) -> bool {
        self.lock().aborted
    }

    /// Items queued (not counting active ones).
    pub fn depth(&self) -> usize {
        self.lock().heap.len()
    }

    /// Popped items not yet marked done.
    pub fn active(&self) -> usize {
        self.lock().active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn pops_in_due_then_seq_order() {
        let q = DeadlineQueue::new();
        let now = Instant::now();
        q.push(now + Duration::from_millis(5), "later");
        q.push(now, "first");
        q.push(now, "second");
        q.close();
        let mut seen = Vec::new();
        loop {
            match q.pop() {
                Pop::Item { item, .. } => {
                    seen.push(item);
                    q.task_done();
                }
                Pop::Drained => break,
                Pop::Aborted => panic!("not aborted"),
            }
        }
        assert_eq!(seen, ["first", "second", "later"]);
    }

    #[test]
    fn close_with_active_worker_waits_for_requeue() {
        let q = Arc::new(DeadlineQueue::new());
        q.push(Instant::now(), 1u32);
        q.close();
        let Pop::Item { item, .. } = q.pop() else {
            panic!("one item queued");
        };
        assert_eq!(item, 1);
        // While this worker is active, a second worker must not see
        // Drained — it parks until task_done.
        let q2 = Arc::clone(&q);
        let waiter = std::thread::spawn(move || match q2.pop() {
            Pop::Item { item, .. } => {
                q2.task_done();
                Some(item)
            }
            Pop::Drained => None,
            Pop::Aborted => panic!("not aborted"),
        });
        // Retry push while active, then release.
        assert!(q.push(Instant::now(), 2));
        q.task_done();
        assert_eq!(waiter.join().unwrap(), Some(2));
        assert!(matches!(q.pop(), Pop::Drained));
    }

    #[test]
    fn abort_unblocks_poppers_and_refuses_pushes() {
        let q = Arc::new(DeadlineQueue::<u32>::new());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || matches!(q2.pop(), Pop::Aborted));
        std::thread::sleep(Duration::from_millis(20));
        q.abort();
        assert!(h.join().unwrap());
        assert!(!q.push(Instant::now(), 9), "pushes refused after abort");
    }

    #[test]
    fn future_deadline_is_honored() {
        let q = DeadlineQueue::new();
        let due = Instant::now() + Duration::from_millis(30);
        q.push(due, ());
        q.close();
        let Pop::Item { .. } = q.pop() else {
            panic!("item expected");
        };
        assert!(Instant::now() >= due, "pop waited for the deadline");
        q.task_done();
    }
}
