//! Helpers shared by the service integration tests.

use ulp_service::ServiceStats;
use ulp_telemetry::Telemetry;

/// Asserts that every [`ServiceStats`] counter field equals the
/// `service_<field>` counter in `telemetry`'s snapshot: the stats are a
/// read of the registry, so the two can never disagree. The destructure
/// names every field, so a counter added to `ServiceStats` without a
/// line here fails to compile.
pub fn assert_stats_match_registry(stats: &ServiceStats, telemetry: &Telemetry) {
    let ServiceStats {
        workers: _,
        jobs_run,
        steals,
        jobs_stolen,
        steal_batch_max,
        rejections,
        platform_cache_hits,
        platforms_built,
        checkpoints_taken,
        jobs_migrated,
        workers_died,
        latency: _,
        wall: _,
    } = stats;
    let snapshot = telemetry.snapshot_json();
    for (field, value) in [
        ("jobs_run", jobs_run),
        ("steals", steals),
        ("jobs_stolen", jobs_stolen),
        ("steal_batch_max", steal_batch_max),
        ("rejections", rejections),
        ("platform_cache_hits", platform_cache_hits),
        ("platforms_built", platforms_built),
        ("checkpoints_taken", checkpoints_taken),
        ("jobs_migrated", jobs_migrated),
        ("workers_died", workers_died),
    ] {
        let key = format!("\"service_{field}\":");
        let at = snapshot
            .find(&key)
            .unwrap_or_else(|| panic!("snapshot lacks service_{field}: {snapshot}"));
        let digits: String = snapshot[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        assert_eq!(
            digits.parse::<u64>().ok(),
            Some(*value),
            "ServiceStats::{field} disagrees with service_{field}"
        );
    }
}
