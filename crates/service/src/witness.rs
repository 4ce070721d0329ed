//! The lock witness: the daemon's lock discipline, checked as it runs.
//!
//! Production code takes every lock through [`lock`], under one of three
//! [`Class`]es: the server loop's handler lock, a fleet shard lock, or
//! the fleet's edge lock.  The rules are few:
//!
//! - no class is taken while a lock of the same class is held (one
//!   operation takes one shard; a second handler lock self-deadlocks);
//! - the edge lock is a leaf: no shard lock is taken under it, and it
//!   is not taken under a shard lock;
//! - no file I/O runs under a shard lock ([`assert_no_shard`]: snapshot
//!   writes and loads, the trace sink's open), and nothing at all is
//!   held across the loop's readiness wait ([`assert_unlocked`]).
//!
//! In debug builds (`debug_assertions`, which every `cargo test` run
//! has) each acquisition pushes its class and its `#[track_caller]`
//! site onto a thread-local stack, the guard pops it on drop, and a
//! broken rule panics with both sites.  Because the check runs where
//! the lock is taken, it sees through closures, trait objects and any
//! depth of calls, and one wrong order is enough: the other order need
//! not exist anywhere.  Release builds compile it out: [`Guard`] is
//! then exactly a `MutexGuard`, and the assertions are empty.
//!
//! DESIGN.md "Static checks" has the table of which I/O each class may
//! cover, and why.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which of the daemon's locks a [`Guard`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The server loop's lock around its handler.
    Handler,
    /// One of the fleet's shard locks.
    Shard,
    /// The fleet's edge lock (journal, latency histogram): a leaf.
    Edge,
}

/// A held lock: the `MutexGuard`, plus (in debug builds) its entry on
/// the witness stack, popped when the guard drops.
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    _held: stack::Held,
}

// The witness costs nothing in release: the guard is a bare MutexGuard.
#[cfg(not(debug_assertions))]
const _: () = assert!(
    std::mem::size_of::<Guard<'static, u64>>() == std::mem::size_of::<MutexGuard<'static, u64>>()
);

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Locks `mutex` as a lock of `class`, recovering from poisoning.
///
/// A poisoned lock means some thread panicked mid-request.  Scheduler
/// state is transition-consistent (every mutation in `SchedulerCore`
/// completes or panics before touching state), so the daemon keeps
/// serving rather than cascade the panic.  The witness check runs
/// before the lock is taken, so a double lock panics instead of
/// deadlocking.
#[cfg_attr(debug_assertions, track_caller)]
pub fn lock<T>(mutex: &Mutex<T>, class: Class) -> Guard<'_, T> {
    let held = stack::enter(class);
    Guard {
        inner: mutex.lock().unwrap_or_else(PoisonError::into_inner),
        _held: held,
    }
}

/// Panics (debug builds) when the calling thread holds a shard lock:
/// `what` is about to touch the filesystem.
#[cfg_attr(debug_assertions, track_caller)]
pub fn assert_no_shard(what: &str) {
    stack::assert_free(what, "no I/O under a shard lock", |c| c == Class::Shard);
}

/// Panics (debug builds) when the calling thread holds any lock: `what`
/// blocks for as long as it likes.
#[cfg_attr(debug_assertions, track_caller)]
pub fn assert_unlocked(what: &str) {
    stack::assert_free(what, "nothing blocks with a lock held", |_| true);
}

#[cfg(debug_assertions)]
mod stack {
    use super::Class;
    use std::cell::RefCell;
    use std::panic::Location;

    type Site = &'static Location<'static>;

    thread_local! {
        /// The locks this thread holds, oldest first, with where each
        /// was taken.
        static HELD: RefCell<Vec<(Class, Site)>> = const { RefCell::new(Vec::new()) };
    }

    /// One entry on the stack; dropping it pops the entry.  No class is
    /// ever held twice, so the class alone names the entry.
    pub struct Held(Class);

    impl Drop for Held {
        fn drop(&mut self) {
            // A drop must not panic: no stack during thread teardown,
            // or one already borrowed, means nothing to pop.
            let pop = |held: &RefCell<Vec<(Class, Site)>>| {
                if let Ok(mut held) = held.try_borrow_mut() {
                    if let Some(i) = held.iter().rposition(|&(c, _)| c == self.0) {
                        held.remove(i);
                    }
                }
            };
            HELD.try_with(pop).unwrap_or(());
        }
    }

    /// Why taking `new` while `held` is held breaks the discipline.
    fn conflict(held: Class, new: Class) -> Option<&'static str> {
        match (held, new) {
            (a, b) if a == b => Some("a second lock of one class (one operation, one shard)"),
            (Class::Edge, Class::Shard) => Some("a shard under the edge lock (the edge is a leaf)"),
            (Class::Shard, Class::Edge) => {
                Some("the edge under a shard (take it with no shard held)")
            }
            _ => None,
        }
    }

    /// Pushes `class` taken at the caller's site, after checking it
    /// against every lock already held.
    #[track_caller]
    #[expect(
        clippy::panic,
        reason = "the witness exists to stop a debug build at the first broken lock rule"
    )]
    pub fn enter(class: Class) -> Held {
        let site = Location::caller();
        if !std::thread::panicking() {
            let clash = HELD.with_borrow(|held| {
                held.iter()
                    .find_map(|&(c, at)| conflict(c, class).map(|why| (c, at, why)))
            });
            if let Some((c, at, why)) = clash {
                panic!(
                    "lock witness: {class:?} lock taken at {site} while the {c:?} lock \
                     taken at {at} is held: {why}"
                );
            }
        }
        HELD.with_borrow_mut(|held| held.push((class, site)));
        Held(class)
    }

    /// Panics when a held lock is one `bad` rejects, saying `why`.
    #[track_caller]
    #[expect(
        clippy::panic,
        reason = "the witness exists to stop a debug build at the first broken lock rule"
    )]
    pub fn assert_free(what: &str, why: &str, bad: impl Fn(Class) -> bool) {
        if std::thread::panicking() {
            return;
        }
        let clash = HELD.with_borrow(|held| held.iter().copied().find(|&(c, _)| bad(c)));
        if let Some((c, at)) = clash {
            panic!(
                "lock witness: {what} at {} while the {c:?} lock taken at {at} is held: {why}",
                Location::caller()
            );
        }
    }
}

#[cfg(not(debug_assertions))]
mod stack {
    use super::Class;

    pub struct Held;

    #[inline(always)]
    pub fn enter(_class: Class) -> Held {
        Held
    }

    #[inline(always)]
    pub fn assert_free(_what: &str, _why: &str, _bad: impl Fn(Class) -> bool) {}
}

#[cfg(test)]
#[cfg(debug_assertions)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::panic::{catch_unwind, AssertUnwindSafe, Location};

    /// `file:line:` of the caller: the site the witness reports for a
    /// lock taken on the same line.
    #[track_caller]
    pub(crate) fn here() -> String {
        let at = Location::caller();
        format!("{}:{}:", at.file(), at.line())
    }

    /// The witness's panic message for `f`, which must panic.
    pub(crate) fn witness_panic(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness let it pass");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.starts_with("lock witness: "), "{msg}");
        msg
    }

    pub(crate) fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sbs-witness-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn guards_expire_at_block_end() {
        let m = Mutex::new(0u32);
        {
            let mut g = lock(&m, Class::Shard);
            *g += 1;
        }
        // The block's guard popped its entry: the shard may be taken
        // again, and I/O runs.
        assert_eq!(*lock(&m, Class::Shard), 1);
        assert_no_shard("I/O after the block");
        assert_unlocked("a wait after the block");
    }

    #[test]
    fn an_acquisition_inside_a_callee_is_an_edge_at_the_call() {
        // The helpers are `#[track_caller]`, like `Fleet::edge`: the site
        // reported is the call, not the helper's body.
        #[track_caller]
        fn edge(m: &Mutex<()>) -> Guard<'_, ()> {
            lock(m, Class::Edge)
        }
        let (shard, e) = (Mutex::new(()), Mutex::new(()));
        let call = Cell::new(String::new());
        let msg = witness_panic(|| {
            let _s = lock(&shard, Class::Shard);
            let (_e, ()) = (edge(&e), call.set(here()));
        });
        let call = call.take();
        assert!(msg.contains(&format!("Edge lock taken at {call}")), "{msg}");
    }

    #[test]
    fn the_edge_and_the_handler_may_cover_io_but_not_the_wait() {
        let (handler, edge) = (Mutex::new(()), Mutex::new(()));
        {
            let _h = lock(&handler, Class::Handler);
            let _e = lock(&edge, Class::Edge);
            assert_no_shard("a journal append");
        }
        let msg = witness_panic(|| {
            let _h = lock(&handler, Class::Handler);
            assert_unlocked("wait_ready");
        });
        assert!(msg.contains("wait_ready at"), "{msg}");
        assert!(msg.contains("while the Handler lock taken at"), "{msg}");
    }

    #[test]
    fn a_panicking_thread_is_not_checked_again() {
        // Guards dropped while unwinding from one witness panic must not
        // raise a second one (that would abort the process).
        let m = Mutex::new(());
        witness_panic(|| {
            let _a = lock(&m, Class::Handler);
            let _b = lock(&m, Class::Handler);
        });
        // The unwinding popped every entry.
        assert_unlocked("after the panic");
        // A poisoned lock is recovered, as every helper does.
        let _g = lock(&m, Class::Handler);
    }
}
