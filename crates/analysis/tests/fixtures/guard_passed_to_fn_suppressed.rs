//! guard-passed-to-fn suppressed fixture: the guard is deliberately
//! handed to the flushing helper, with the justification on record.
use std::io::Write;
use std::sync::{Mutex, MutexGuard};

pub struct S {
    pub state: Mutex<u32>,
}

impl S {
    pub fn flush_under(&self, g: MutexGuard<u32>, out: &mut std::fs::File) {
        out.flush();
        drop(g);
    }
    pub fn hot(&self, out: &mut std::fs::File) {
        let g = self.state.lock();
        // sbs-lint: allow(lock-across-blocking): shutdown path; the flush must observe the locked state
        self.flush_under(g, out);
    }
}
