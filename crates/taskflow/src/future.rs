//! Waitable task results.

use crate::TaskError;
use std::sync::{Arc, Condvar, Mutex};

/// Lifecycle of the shared result slot.
#[derive(Debug)]
enum Slot<T> {
    Pending,
    Ready(Result<T, TaskError>),
    Consumed,
}

#[derive(Debug)]
struct Inner<T> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
}

/// A handle to a task's eventual result.
///
/// Backed by a one-shot slot; `wait` blocks until the worker finishes.
#[derive(Debug)]
pub struct TaskFuture<T> {
    inner: Arc<Inner<T>>,
    /// Id of the cluster whose task fulfills this future.
    cluster: u64,
}

/// Producer side handed to the executing worker. Dropping it without
/// fulfilling signals [`TaskError::ClusterShutDown`] to the waiter.
#[derive(Debug)]
pub(crate) struct TaskPromise<T> {
    inner: Option<Arc<Inner<T>>>,
}

/// Creates a linked (future, promise) pair for a task of cluster
/// `cluster`.
pub(crate) fn oneshot<T>(cluster: u64) -> (TaskFuture<T>, TaskPromise<T>) {
    let inner = Arc::new(Inner {
        slot: Mutex::new(Slot::Pending),
        cv: Condvar::new(),
    });
    (
        TaskFuture {
            inner: Arc::clone(&inner),
            cluster,
        },
        TaskPromise { inner: Some(inner) },
    )
}

impl<T> TaskPromise<T> {
    pub(crate) fn fulfill(mut self, value: Result<T, TaskError>) {
        if let Some(inner) = self.inner.take() {
            let mut slot = inner.slot.lock().unwrap_or_else(|e| e.into_inner());
            if matches!(*slot, Slot::Pending) {
                *slot = Slot::Ready(value);
            }
            drop(slot);
            inner.cv.notify_all();
        }
    }
}

impl<T> Drop for TaskPromise<T> {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let mut slot = inner.slot.lock().unwrap_or_else(|e| e.into_inner());
            if matches!(*slot, Slot::Pending) {
                *slot = Slot::Ready(Err(TaskError::ClusterShutDown));
            }
            drop(slot);
            inner.cv.notify_all();
        }
    }
}

impl<T> TaskFuture<T> {
    /// Blocks until the task completes.
    ///
    /// Called from inside a task of the same cluster, it returns
    /// [`TaskError::SiblingWait`] at once instead: the cluster may run its
    /// workers on fewer threads than it has workers, so a task that blocks
    /// on a sibling can hold the only thread the sibling could run on.
    /// Futures of another cluster wait as usual.
    pub fn wait(self) -> Result<T, TaskError> {
        if crate::sched::on_cluster_thread(self.cluster) {
            return Err(TaskError::SiblingWait);
        }
        let mut slot = self.inner.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match std::mem::replace(&mut *slot, Slot::Consumed) {
                Slot::Ready(v) => return v,
                Slot::Consumed => return Err(TaskError::ClusterShutDown),
                Slot::Pending => {
                    *slot = Slot::Pending;
                    slot = self.inner.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    /// Non-blocking poll; returns `None` while the task is still running.
    pub fn try_wait(&self) -> Option<Result<T, TaskError>> {
        let mut slot = self.inner.slot.lock().unwrap_or_else(|e| e.into_inner());
        match std::mem::replace(&mut *slot, Slot::Consumed) {
            Slot::Ready(v) => Some(v),
            Slot::Consumed => Some(Err(TaskError::ClusterShutDown)),
            Slot::Pending => {
                *slot = Slot::Pending;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fulfilled_future_returns_value() {
        let (fut, prom) = oneshot::<u32>(0);
        prom.fulfill(Ok(42));
        assert_eq!(fut.wait(), Ok(42));
    }

    #[test]
    fn dropped_promise_signals_shutdown() {
        let (fut, prom) = oneshot::<u32>(0);
        drop(prom);
        assert_eq!(fut.wait(), Err(TaskError::ClusterShutDown));
    }

    #[test]
    fn try_wait_polls() {
        let (fut, prom) = oneshot::<&str>(0);
        assert!(fut.try_wait().is_none());
        prom.fulfill(Ok("done"));
        assert_eq!(fut.try_wait(), Some(Ok("done")));
    }

    #[test]
    fn error_propagates() {
        let (fut, prom) = oneshot::<u32>(0);
        prom.fulfill(Err(TaskError::Panicked("boom".into())));
        assert!(matches!(fut.wait(), Err(TaskError::Panicked(_))));
    }

    #[test]
    fn works_across_threads() {
        let (fut, prom) = oneshot::<u64>(0);
        let h = std::thread::spawn(move || prom.fulfill(Ok(7)));
        assert_eq!(fut.wait(), Ok(7));
        h.join().unwrap();
    }

    #[test]
    fn second_try_wait_reports_consumed() {
        let (fut, prom) = oneshot::<u8>(0);
        prom.fulfill(Ok(1));
        assert_eq!(fut.try_wait(), Some(Ok(1)));
        assert_eq!(fut.try_wait(), Some(Err(TaskError::ClusterShutDown)));
    }
}
