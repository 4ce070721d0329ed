//! Per-tenant admission control: a queue-depth cap plus fairshare.
//!
//! Every tenant carries a [`TenantQuota`].  A hard cap bounds the queue
//! depth a single tenant may hold; the fairshare check compares a
//! tenant's pending demand against its equal share of the *fleet-wide*
//! pending demand — the multi-tenant analogue of the per-user fairness
//! accumulators in `sbs-metrics` (demand shares feeding Jain's index).
//!
//! All checks are integer-only and side-effect free: the fleet computes
//! the inputs under one shard lock plus two atomics, so admission never
//! takes a second lock.

/// Admission limits for one tenant.  Zero always means "unlimited" /
/// "disabled", so `TenantQuota::default()` admits everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most jobs allowed to wait in the tenant's queue (0 = unlimited).
    pub max_queue: usize,
    /// Slack multiplier for the fairshare check, in percent: a tenant
    /// may hold up to `entitlement × fair_slack_percent / 100` pending
    /// node-seconds, its entitlement being the fleet's pending demand
    /// split equally over the tenants (0 = fairshare check disabled).
    pub fair_slack_percent: u64,
}

/// Why a submission was refused admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuotaDenied {
    /// The tenant's queue is at its depth cap.
    QueueFull {
        /// Jobs currently waiting.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The tenant is over its share of fleet-wide demand.
    FairShare {
        /// Node-seconds already pending for this tenant.
        pending: u64,
        /// The tenant's entitled node-seconds (slack included).
        entitled: u64,
    },
}

impl std::fmt::Display for QuotaDenied {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaDenied::QueueFull { depth, cap } => {
                write!(f, "quota: queue depth {depth} at cap {cap}")
            }
            QuotaDenied::FairShare { pending, entitled } => write!(
                f,
                "fairshare: {pending} node-seconds pending exceeds entitlement {entitled}"
            ),
        }
    }
}

/// The fleet-wide inputs to a fairshare decision, sampled from atomics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FleetDemand {
    /// Pending node-seconds summed over every tenant.
    pub total_pending: u64,
    /// Live tenants.
    pub tenants: u64,
}

impl TenantQuota {
    /// Decides whether one more job (adding `add` node-seconds to a
    /// queue currently `depth` deep with `pending` node-seconds) may be
    /// admitted.  The fairshare check only engages when the tenant
    /// already holds work — a tenant's first waiting job always admits,
    /// so an idle tenant can never be starved by busier neighbours.
    pub fn admit(
        &self,
        depth: usize,
        pending: u64,
        add: u64,
        fleet: FleetDemand,
    ) -> Result<(), QuotaDenied> {
        if self.max_queue > 0 && depth >= self.max_queue {
            return Err(QuotaDenied::QueueFull {
                depth,
                cap: self.max_queue,
            });
        }
        if self.fair_slack_percent > 0 && depth > 0 && fleet.tenants > 0 && fleet.total_pending > 0
        {
            let entitlement = u128::from(fleet.total_pending / fleet.tenants);
            #[expect(
                clippy::cast_possible_truncation,
                reason = "saturated at u64::MAX just above"
            )]
            let entitled = (entitlement * u128::from(self.fair_slack_percent) / 100)
                .min(u128::from(u64::MAX)) as u64;
            if pending.saturating_add(add) > entitled {
                return Err(QuotaDenied::FairShare { pending, entitled });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_quota_admits_everything() {
        let q = TenantQuota::default();
        assert!(q
            .admit(10_000, u64::MAX / 2, u64::MAX / 2, FleetDemand::default())
            .is_ok());
    }

    #[test]
    fn queue_depth_cap_is_hard() {
        let q = TenantQuota {
            max_queue: 2,
            ..Default::default()
        };
        assert!(q.admit(1, 0, 100, FleetDemand::default()).is_ok());
        let err = q.admit(2, 0, 100, FleetDemand::default()).unwrap_err();
        assert!(matches!(err, QuotaDenied::QueueFull { depth: 2, cap: 2 }));
        assert!(err.to_string().contains("queue depth"));
    }

    #[test]
    fn fairshare_rejects_only_over_entitled_tenants_with_work() {
        let q = TenantQuota {
            fair_slack_percent: 200,
            ..Default::default()
        };
        // Fleet of 4 tenants, 4000 pending: entitlement 1000, slack
        // 200% -> 2000 allowed.
        let fleet = FleetDemand {
            total_pending: 4_000,
            tenants: 4,
        };
        assert!(q.admit(3, 1_500, 400, fleet).is_ok());
        let err = q.admit(3, 1_900, 200, fleet).unwrap_err();
        assert!(matches!(
            err,
            QuotaDenied::FairShare {
                entitled: 2_000,
                ..
            }
        ));
        // An idle tenant (depth 0) always admits its first job.
        assert!(q.admit(0, 0, 1_000_000, fleet).is_ok());
        // Slack 0 disables the check entirely.
        assert!(TenantQuota::default().admit(3, 1_000_000, 1, fleet).is_ok());
    }
}
