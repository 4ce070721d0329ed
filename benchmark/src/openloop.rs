//! Open-loop schedule arithmetic.
//!
//! An open loop sends request `i` at `i / rate` seconds after the phase
//! starts whether or not earlier requests were answered.  Latency is
//! timed from that *due* time, not from the actual send, so a stall in
//! the server (or in the generator) is charged to every request it
//! delayed; how late the generator itself ran is reported separately.

/// Nanoseconds after the phase start at which request `i` is due at
/// `rate` requests per second.
pub fn due_ns(i: u64, rate: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rate.max(1))) as u64
}

/// How many of `total` requests are due at or before `elapsed_ns`.
pub fn due_count(elapsed_ns: u64, rate: u64, total: u64) -> u64 {
    // due_ns(i) = floor(i * 1e9 / rate) <= elapsed exactly when
    // i < (elapsed + 1) * rate / 1e9, so the count is that bound's
    // ceiling: the exact inverse of `due_ns`, truncation included.
    let upto = ((u128::from(elapsed_ns) + 1) * u128::from(rate)).div_ceil(1_000_000_000);
    upto.min(u128::from(total)) as u64
}

/// Generator lateness: how long after its due time a request was
/// actually handed to the socket (0 when sent on time).
pub fn lateness_ns(sent_ns: u64, due_ns: u64) -> u64 {
    sent_ns.saturating_sub(due_ns)
}

/// Latency from the due time to the response (0 if the clock reads
/// earlier than the due time, which a correct generator never produces).
pub fn latency_from_due_ns(received_ns: u64, due_ns: u64) -> u64 {
    received_ns.saturating_sub(due_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_and_exact() {
        assert_eq!(due_ns(0, 500), 0);
        assert_eq!(due_ns(1, 500), 2_000_000);
        assert_eq!(due_ns(500, 500), 1_000_000_000);
        // 10,000/s: every 100 us, no drift after a million requests.
        assert_eq!(due_ns(1_000_000, 10_000), 100_000_000_000);
        // Non-dividing rate truncates each due time independently.
        assert_eq!(due_ns(1, 3), 333_333_333);
        assert_eq!(due_ns(3, 3), 1_000_000_000);
    }

    #[test]
    fn due_count_is_the_inverse_of_due_ns() {
        for rate in [3u64, 500, 10_000] {
            for i in [0u64, 1, 2, 17, 999] {
                let t = due_ns(i, rate);
                assert!(due_count(t, rate, u64::MAX) > i, "request {i} due at {t}");
                if t > 0 {
                    assert!(due_count(t - 1, rate, u64::MAX) <= i, "not before");
                }
            }
        }
        assert_eq!(due_count(0, 500, 10), 1, "request 0 is due at once");
        assert_eq!(due_count(u64::MAX / 2, 500, 10), 10, "capped at the total");
    }

    #[test]
    fn a_stall_is_charged_to_every_request_it_delayed() {
        // Requests due at 0, 2, 4 ms; the generator stalls until 5 ms
        // and all three responses land at 6 ms.
        let rate = 500;
        let sent = 5_000_000;
        let received = 6_000_000;
        let lat: Vec<u64> = (0..3)
            .map(|i| latency_from_due_ns(received, due_ns(i, rate)))
            .collect();
        assert_eq!(lat, vec![6_000_000, 4_000_000, 2_000_000]);
        let late: Vec<u64> = (0..3).map(|i| lateness_ns(sent, due_ns(i, rate))).collect();
        assert_eq!(late, vec![5_000_000, 3_000_000, 1_000_000]);
        assert_eq!(lateness_ns(1, 2), 0, "early is not negative lateness");
    }
}
