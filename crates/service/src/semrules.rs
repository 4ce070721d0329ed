//! Tests: the `lock-ordering` rule the static lock analysis once
//! enforced, restated against the [`crate::witness`] under the names its
//! static tests had.

mod tests {
    use crate::witness::tests::witness_panic;
    use crate::witness::{lock, Class};
    use std::sync::Mutex;

    #[test]
    fn lock_ordering_flags_inversions_across_files() {
        // Each side of the shard/edge inversion fires on its own: the
        // other order need not exist anywhere.
        let (shard, edge) = (Mutex::new(()), Mutex::new(()));
        let msg = witness_panic(|| {
            let _s = lock(&shard, Class::Shard);
            let _e = lock(&edge, Class::Edge);
        });
        assert!(msg.contains("Edge lock taken at"), "{msg}");
        assert!(msg.contains("while the Shard lock taken at"), "{msg}");
        assert!(msg.contains("the edge under a shard"), "{msg}");
        let msg = witness_panic(|| {
            let _e = lock(&edge, Class::Edge);
            let _s = lock(&shard, Class::Shard);
        });
        assert!(msg.contains("Shard lock taken at"), "{msg}");
        assert!(msg.contains("while the Edge lock taken at"), "{msg}");
        assert!(msg.contains("the edge is a leaf"), "{msg}");
    }

    #[test]
    fn lock_ordering_silent_on_consistent_order() {
        // The daemon's one order: handler, then a shard, released before
        // the edge is taken; the handler over the edge.
        let (handler, shard, edge) = (Mutex::new(()), Mutex::new(()), Mutex::new(()));
        for _ in 0..2 {
            let _h = lock(&handler, Class::Handler);
            drop(lock(&shard, Class::Shard));
            let _e = lock(&edge, Class::Edge);
        }
    }
}
