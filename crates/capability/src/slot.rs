//! Where a wrapper keeps the out-of-band accounting ([`crate::IndexReport`],
//! [`crate::StorageReport`]) of the request it is handling until the
//! transport takes it.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};

/// One pending report per calling thread.
///
/// The transport calls [`crate::protocol::WrapperServer::handle`] and then
/// the `take_*_report` methods back to back on one thread, so keying the
/// report by that thread hands every request its own report, however many
/// threads (served workers, parallel lanes) share the wrapper.
pub struct ReportSlot<T> {
    reports: Mutex<HashMap<ThreadId, T>>,
}

impl<T> Default for ReportSlot<T> {
    fn default() -> Self {
        ReportSlot {
            reports: Mutex::new(HashMap::new()),
        }
    }
}

impl<T> ReportSlot<T> {
    /// Files `report` for the calling thread, replacing one it left
    /// untaken.
    pub fn put(&self, report: T) {
        self.lock().insert(thread::current().id(), report);
    }

    /// Takes the report the calling thread filed, if any.
    pub fn take(&self) -> Option<T> {
        self.lock().remove(&thread::current().id())
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<ThreadId, T>> {
        self.reports.lock().unwrap_or_else(|e| e.into_inner())
    }
}
