//! The common service template.
//!
//! §5.1: "one of the key design decisions we made is to enforce service
//! uniformity through a common template ... all services share the same
//! pub/sub modules, health check module, and APIs." The template bundles the
//! dual store with uniform health and resource accounting — the surface
//! Figure 11's CPU/memory CDFs sample.

use crate::store::DualStore;

/// Health as reported by the shared health-check module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServiceHealth {
    /// Serving normally.
    #[default]
    Healthy,
    /// Serving but with reconciliation backlog.
    Degraded,
    /// Not serving.
    Unhealthy,
}

/// Uniform per-task resource/operation counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// RPCs served.
    pub rpcs: u64,
    /// Busy time accumulated, in µs (CPU proxy: utilization = busy/elapsed).
    pub busy_us: u64,
    /// Reconcile loop iterations.
    pub reconcile_rounds: u64,
}

/// A Centralium service instance (one replica/task of one job).
#[derive(Debug, Default)]
pub struct ServiceTemplate {
    /// Service name, e.g. `"nsdb"`, `"switch-agent"`, `"path-selection-app"`.
    pub name: String,
    /// The two contrasting network views.
    pub store: DualStore,
    /// Health state.
    pub health: ServiceHealth,
    /// Uniform counters.
    pub stats: ServiceStats,
}

impl ServiceTemplate {
    /// New healthy service.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceTemplate {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Record an RPC taking `busy_us` of work.
    pub fn record_rpc(&mut self, busy_us: u64) {
        self.stats.rpcs += 1;
        self.stats.busy_us += busy_us;
    }

    /// Record one reconcile round taking `busy_us` of work, updating health
    /// from the out-of-sync backlog.
    pub fn record_reconcile(&mut self, busy_us: u64) {
        self.stats.reconcile_rounds += 1;
        self.stats.busy_us += busy_us;
        self.health = if self.store.out_of_sync().is_empty() {
            ServiceHealth::Healthy
        } else {
            ServiceHealth::Degraded
        };
    }

    /// Memory proxy in bytes (Figure 11): the service's state superset plus
    /// a fixed baseline for the binary itself.
    pub fn approx_memory_bytes(&self) -> usize {
        /// Baseline footprint of a running task before any state.
        const BASELINE: usize = 256 * 1024 * 1024;
        BASELINE + self.store.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;
    use crate::store::View;
    use serde_json::json;

    #[test]
    fn reconcile_updates_health() {
        let mut svc = ServiceTemplate::new("switch-agent");
        svc.store
            .set(View::Intended, Path::parse("/d/x/rpa"), json!("v2"));
        svc.record_reconcile(10);
        assert_eq!(svc.health, ServiceHealth::Degraded);
        svc.store
            .set(View::Current, Path::parse("/d/x/rpa"), json!("v2"));
        svc.record_reconcile(10);
        assert_eq!(svc.health, ServiceHealth::Healthy);
        assert_eq!(svc.stats.reconcile_rounds, 2);
    }

    #[test]
    fn rpc_accounting() {
        let mut svc = ServiceTemplate::new("nsdb");
        svc.record_rpc(100);
        svc.record_rpc(50);
        assert_eq!(svc.stats.rpcs, 2);
        assert_eq!(svc.stats.busy_us, 150);
    }

    #[test]
    fn memory_includes_baseline_and_state() {
        let mut svc = ServiceTemplate::new("nsdb");
        let empty = svc.approx_memory_bytes();
        svc.store.set(
            View::Current,
            Path::parse("/big"),
            json!("x".repeat(10_000)),
        );
        assert!(svc.approx_memory_bytes() > empty);
        assert!(empty >= 256 * 1024 * 1024);
    }
}
