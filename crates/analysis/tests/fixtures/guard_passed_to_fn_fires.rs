//! guard-passed-to-fn firing fixture: a live guard moves into a
//! callee whose summary says it blocks before releasing it.  The
//! finding is `lock-across-blocking`'s, at the passing call.
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
        self.flush_under(g, out);
    }
}
