//! Waitable task results.

use crate::TaskError;
use std::sync::{Arc, Condvar, Mutex};

#[derive(Debug)]
struct Inner<T> {
    /// `None` until the task's result arrives.
    slot: Mutex<Option<Result<T, TaskError>>>,
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
        slot: Mutex::new(None),
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
            if slot.is_none() {
                *slot = Some(value);
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
            if slot.is_none() {
                *slot = Some(Err(TaskError::ClusterShutDown));
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
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
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
}
