//! The metric names the benchmark prints, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A printed metric: name and unit, exactly as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed with `--trace 0`.
pub const END_TO_END: &[Metric] = &[
    m("core_cycles_per_s", "1/s"),
    m("sim_cycles_per_s", "1/s"),
    m("samples_per_s", "1/s"),
    m("jobs_per_s", "1/s"),
    m("job_latency_p50_ms", "ms"),
    m("job_latency_p90_ms", "ms"),
    m("sim_cycles", "cycles"),
    m("ops_per_cycle", "ops/cycle"),
    m("im_accesses_per_op", "accesses/op"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Printed with `--trace 1`.
pub const PER_LAYER: &[Metric] = &[
    m("kernels.codegen_us", "us"),
    m("isa.assemble_us", "us"),
    m("isa.program_words", "count"),
    m("biosignal.ecg_gen_us", "us"),
    m("biosignal.golden_us", "us"),
    m("platform.build_us", "us"),
    m("platform.reset_load_us", "us"),
    m("platform.run_us", "us"),
    m("platform.host_ns_per_core_cycle", "ns"),
    m("platform.snapshot_us", "us"),
    m("platform.snapshot_bytes", "bytes"),
    m("cpu.active_fraction", "ratio"),
    m("cpu.fetch_stall_fraction", "ratio"),
    m("cpu.mem_stall_fraction", "ratio"),
    m("cpu.sync_stall_fraction", "ratio"),
    m("cpu.sleep_fraction", "ratio"),
    m("mem.im_accesses", "count"),
    m("mem.im_broadcast_extra", "count"),
    m("mem.dm_accesses", "count"),
    m("mem.ixbar_conflict_cycles", "cycles"),
    m("mem.dxbar_conflict_cycles", "cycles"),
    m("mem.dxbar_lock_stalls", "count"),
    m("sync.lockstep_width", "cores"),
    m("sync.busy_cycles", "cycles"),
    m("sync.merged_requests", "count"),
    m("service.submit_us", "us"),
    m("service.overhead_us", "us"),
    m("service.queue_wait_ms", "ms"),
    m("service.steals", "count"),
    m("service.cache_hit_ratio", "ratio"),
    m("service.platforms_built", "count"),
    m("shard.halo_ratio", "ratio"),
    m("trace.overhead_ratio", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `metrics` with its unit.
///
/// # Errors
///
/// Names a metric of `metrics` that `values` lacks or holds as a
/// non-finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &Values,
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, metric) in metrics.iter().enumerate() {
        let value = values
            .get(metric.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is {value}", metric.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries of one array section of `BENCHMARK.json`, read with
    /// plain string scanning.
    fn section<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &json[start..];
        let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
        body.split('{').skip(1).collect()
    }

    fn field(entry: &str, key: &str) -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("entry without {key}: {entry}"));
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closing quote");
        rest[open..close].to_string()
    }

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark")
    }

    fn sorted(metrics: &[Metric]) -> Vec<(String, String)> {
        let mut v: Vec<_> = metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let json = benchmark_json();
        for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let mut listed: Vec<(String, String)> = section(&json, key)
                .into_iter()
                .map(|entry| (field(entry, "name"), field(entry, "unit")))
                .collect();
            listed.sort();
            assert_eq!(listed, sorted(metrics), "{key}");
        }
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|entry| field(entry, "name"))
            .collect();
        let known: Vec<&str> = crate::jobs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, known);
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let name = metric.name;
            assert!(!name.is_empty() && name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')),
                "{name}"
            );
            assert!(seen.insert(name), "{name} listed twice");
        }
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let metrics = &END_TO_END[..2];
        let mut values = Values::new();
        values.insert("core_cycles_per_s", 1.5e7);
        assert!(result_line(true, 1, 0, metrics, &values).is_err());
        values.insert("sim_cycles_per_s", 0.125);
        let line = result_line(true, 3, 0, metrics, &values).expect("complete");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"core_cycles_per_s\": {\"value\": 15000000, \"unit\": \"1/s\"}, \
             \"sim_cycles_per_s\": {\"value\": 0.125, \"unit\": \"1/s\"}}}"
        );
        values.insert("sim_cycles_per_s", f64::NAN);
        assert!(result_line(true, 3, 0, metrics, &values).is_err());
    }
}
