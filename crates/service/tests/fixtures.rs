//! The lock rules' fixtures, run against the lock witness.
//!
//! Each rule has a firing fixture and a sanctioned twin.  The firing
//! one breaks the rule through `sbs_service::witness` the way
//! production code would, and the witness must panic, naming both
//! sites.  The twin is the shape the daemon uses instead, and the
//! witness must stay silent.  The witness only exists in debug builds,
//! which every `cargo test` run without `--release` is.
#![cfg(debug_assertions)]

use sbs_service::snapshot::write_atomic;
use sbs_service::witness::{assert_unlocked, lock, Class, Guard};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// A shard-style lock and the fleet's leaf edge lock.
struct S {
    shard: Mutex<u32>,
    edge: Mutex<u32>,
}

fn s() -> S {
    S {
        shard: Mutex::new(0),
        edge: Mutex::new(0),
    }
}

/// The witness's panic message for `f`, which must panic.
fn fires(f: impl FnOnce()) -> String {
    let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the witness stayed silent");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.starts_with("lock witness: "), "{msg}");
    msg
}

/// A fresh file path for one fixture.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbs-witness-fixtures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

// ----- lock-ordering: the edge lock is a leaf ------------------------

fn forward(s: &S) {
    let _shard = lock(&s.shard, Class::Shard);
    let _edge = lock(&s.edge, Class::Edge);
}

fn backward(s: &S) {
    let _edge = lock(&s.edge, Class::Edge);
    let _shard = lock(&s.shard, Class::Shard);
}

#[test]
fn lock_ordering_fires() {
    // Each order fires on its own: the witness needs no second order
    // anywhere to call one wrong.
    let msg = fires(|| forward(&s()));
    assert!(msg.contains("Edge lock taken at"), "{msg}");
    assert!(msg.contains("while the Shard lock taken at"), "{msg}");
    let msg = fires(|| backward(&s()));
    assert!(msg.contains("Shard lock taken at"), "{msg}");
    assert!(msg.contains("while the Edge lock taken at"), "{msg}");
}

#[test]
fn lock_ordering_suppressed() {
    // The fleet's order: the shard is released before the edge is
    // journaled to, and the handler lock sits over both.
    let s = s();
    let handler = Mutex::new(());
    let _h = lock(&handler, Class::Handler);
    {
        let mut shard = lock(&s.shard, Class::Shard);
        *shard += 1;
    }
    *lock(&s.edge, Class::Edge) += 1;
}

// ----- lock-across-blocking: no I/O under a shard lock ---------------

fn hold_across_write(s: &S, path: &Path) {
    let g = lock(&s.shard, Class::Shard);
    write_atomic(path, b"under the shard\n").expect("write");
    drop(g);
}

#[test]
fn lock_across_blocking_fires() {
    let path = scratch("across.json");
    let msg = fires(|| hold_across_write(&s(), &path));
    assert!(msg.contains("write_atomic at"), "{msg}");
    assert!(msg.contains("while the Shard lock taken at"), "{msg}");
    assert!(!path.exists(), "the write never ran");
}

#[test]
fn lock_across_blocking_suppressed() {
    // The named exceptions: the edge covers journal appends and the
    // handler the `snapshot` and `shutdown` writes.  Buffered trace appends under a
    // shard are not asserted.
    let (s, handler) = (s(), Mutex::new(()));
    let path = scratch("exceptions.json");
    {
        let _h = lock(&handler, Class::Handler);
        let _e = lock(&s.edge, Class::Edge);
        write_atomic(&path, b"under the edge\n").expect("write");
    }
    let g = lock(&s.shard, Class::Shard);
    drop(g);
    write_atomic(&path, b"after the shard\n").expect("write");
    assert_eq!(std::fs::read(&path).expect("read"), b"after the shard\n");
}

// ----- double-lock: one operation, one shard --------------------------

fn relock(s: &S) {
    let a = lock(&s.shard, Class::Shard);
    let b = lock(&s.shard, Class::Shard);
    drop(b);
    drop(a);
}

#[test]
fn double_lock_fires() {
    // A self-deadlock with a plain mutex; the witness checks before it
    // locks, so it panics instead of hanging.
    let msg = fires(|| relock(&s()));
    assert!(msg.contains("Shard lock taken at"), "{msg}");
    assert!(msg.contains("one operation, one shard"), "{msg}");
}

#[test]
fn double_lock_suppressed() {
    let s = s();
    let a = lock(&s.shard, Class::Shard);
    drop(a);
    let b = lock(&s.shard, Class::Shard);
    drop(b);
    // Two classes nest in the sanctioned order.
    let handler = Mutex::new(());
    let _h = lock(&handler, Class::Handler);
    let _b = lock(&s.shard, Class::Shard);
}

// ----- guard passed to a function --------------------------------------

fn flush_under(g: Guard<'_, u32>, path: &Path) {
    write_atomic(path, b"flushed\n").expect("write");
    drop(g);
}

fn release_then_flush(g: Guard<'_, u32>, path: &Path) {
    drop(g);
    write_atomic(path, b"flushed\n").expect("write");
}

#[test]
fn guard_passed_to_fn_fires() {
    // The guard moves into the callee; it is still held at the write.
    let path = scratch("passed.json");
    let s = s();
    let msg = fires(|| flush_under(lock(&s.shard, Class::Shard), &path));
    assert!(msg.contains("write_atomic at"), "{msg}");
}

#[test]
fn guard_passed_to_fn_suppressed() {
    let path = scratch("released.json");
    let s = s();
    release_then_flush(lock(&s.shard, Class::Shard), &path);
    assert_unlocked("after the callee");
}

// ----- what the verdicts carry -----------------------------------------

#[test]
fn interprocedural_layer_leaves_intraprocedural_verdicts_unchanged() {
    // The same defect gets the same verdict whether it is written in
    // one function or reached through a callee and a closure.
    fn with_shard(s: &S, f: impl FnOnce()) {
        let _g = lock(&s.shard, Class::Shard);
        f();
    }
    let verdict = |msg: String| msg.split(" at ").next().map(str::to_string);
    let path = scratch("verdicts.json");
    let direct = fires(|| hold_across_write(&s(), &path));
    let s = s();
    let through = fires(|| with_shard(&s, || write_atomic(&path, b"x").expect("write")));
    assert_eq!(verdict(direct), verdict(through));
    let direct = fires(|| relock(&s));
    let through = fires(|| with_shard(&s, || drop(lock(&s.shard, Class::Shard))));
    assert_eq!(verdict(direct), verdict(through));
}

#[test]
fn flow_findings_carry_exact_positions() {
    // The panic names the write's call site and the lock's call site,
    // not a line inside the witness or `write_atomic`.
    let path = scratch("positions.json");
    let s = s();
    let (taken, written) = (Cell::new(0), Cell::new(0));
    let msg = fires(|| {
        taken.set(line!() + 1);
        let _g = lock(&s.shard, Class::Shard);
        written.set(line!() + 1);
        write_atomic(&path, b"x").expect("write");
    });
    let at = |line: &Cell<u32>| format!("{}:{}:", file!(), line.get());
    assert!(
        msg.starts_with(&format!("lock witness: write_atomic at {}", at(&written))),
        "{msg}"
    );
    assert!(
        msg.contains(&format!("the Shard lock taken at {}", at(&taken))),
        "{msg}"
    );
}
