//! Tests: the flow rules the static lock analysis once enforced
//! (`double-lock`, `lock-across-blocking`), restated against the
//! [`crate::witness`] under the names their static tests had.

mod tests {
    use crate::snapshot::write_atomic;
    use crate::witness::tests::{here, scratch, witness_panic};
    use crate::witness::{lock, Class};
    use std::cell::Cell;
    use std::sync::Mutex;

    #[test]
    fn double_lock_same_key_fires() {
        // Without the witness this is a self-deadlock; with it, a panic
        // naming both acquisitions, before the second `lock`.
        let m = Mutex::new(0u32);
        let (first, second) = (Cell::new(String::new()), Cell::new(String::new()));
        let msg = witness_panic(|| {
            let (_a, ()) = (lock(&m, Class::Shard), first.set(here()));
            let (_b, ()) = (lock(&m, Class::Shard), second.set(here()));
        });
        let (first, second) = (first.take(), second.take());
        assert!(
            msg.contains(&format!("Shard lock taken at {second}")),
            "{msg}"
        );
        assert!(
            msg.contains(&format!("the Shard lock taken at {first}")),
            "{msg}"
        );
        assert!(msg.contains("one operation, one shard"), "{msg}");
    }

    #[test]
    fn double_lock_through_a_callee_fires() {
        // Two shards, so no deadlock to hide behind: the second is taken
        // in a callee, through a closure, and still fires.
        let (a, b) = (Mutex::new(0u32), Mutex::new(0u32));
        let bump = |m: &Mutex<u32>| *lock(m, Class::Shard) += 1;
        let outer = Cell::new(String::new());
        let msg = witness_panic(|| {
            let (_a, ()) = (lock(&a, Class::Shard), outer.set(here()));
            bump(&b);
        });
        let outer = outer.take();
        assert!(
            msg.contains(&format!("while the Shard lock taken at {outer}")),
            "{msg}"
        );
        // Released first, the same call is fine.
        bump(&b);
        assert_eq!(*lock(&b, Class::Shard), 1);
    }

    #[test]
    fn blocking_call_under_guard_fires_and_drop_silences() {
        let path = scratch("under-guard.json");
        let m = Mutex::new(());
        let msg = witness_panic(|| {
            let _g = lock(&m, Class::Shard);
            write_atomic(&path, b"held\n").unwrap();
        });
        assert!(msg.contains("write_atomic at"), "{msg}");
        assert!(msg.contains("no I/O under a shard lock"), "{msg}");
        let g = lock(&m, Class::Shard);
        drop(g);
        write_atomic(&path, b"dropped\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"dropped\n");
    }

    #[test]
    fn blocking_reached_through_a_callee_fires_with_the_witness() {
        // The shape the static analysis could not see: the write runs in
        // a closure handed to a function that holds the shard lock.
        fn with_shard(m: &Mutex<u32>, f: impl FnOnce(&mut u32)) {
            let mut g = lock(m, Class::Shard);
            f(&mut g);
        }
        let path = scratch("through-callee.json");
        let m = Mutex::new(0u32);
        let msg = witness_panic(|| {
            with_shard(&m, |n| {
                *n += 1;
                write_atomic(&path, b"inside\n").unwrap();
            });
        });
        assert!(msg.contains("write_atomic at"), "{msg}");
        assert!(msg.contains("while the Shard lock taken at"), "{msg}");
    }
}
