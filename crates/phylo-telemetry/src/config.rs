//! Configuration of the telemetry subsystem.

/// What a [`crate::Telemetry`] instance records.
///
/// The default records everything with a bounded event log; disabling
/// telemetry altogether is not a config option but the *absence* of a
/// recorder ([`crate::Telemetry::disabled`]), which costs one pointer check
/// per instrumentation site.
///
/// ```
/// use phylo_telemetry::{Telemetry, TelemetryConfig};
///
/// let config = TelemetryConfig::default().probes(false);
/// assert!(!config.record_probes);
///
/// let telemetry = Telemetry::new(config);
/// telemetry.optimizer_round(1, -1234.5);
/// let snapshot = telemetry.snapshot();
/// assert_eq!(snapshot.counters.optimizer_rounds, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Maximum number of events retained in the log; once full, further
    /// events are counted (`events_dropped`) but not stored, so a long run
    /// cannot grow memory without bound.
    pub event_capacity: usize,
    /// Record per-probe optimizer events (one Newton/Brent probe per
    /// iteration can dominate the event log on large runs).
    pub record_probes: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            event_capacity: 65_536,
            record_probes: true,
        }
    }
}

impl TelemetryConfig {
    /// Sets the event-log capacity.
    pub fn event_capacity(mut self, capacity: usize) -> Self {
        self.event_capacity = capacity;
        self
    }

    /// Enables or disables per-probe optimizer events.
    pub fn probes(mut self, record: bool) -> Self {
        self.record_probes = record;
        self
    }
}
