//! Helpers shared by the integration tests.

use fastrak_telemetry::Registry;

/// Every series `reg` holds as `name{label keys}`, label values dropped:
/// sorted, each once.
pub fn schema(reg: &Registry) -> Vec<String> {
    let names = (reg.counters().map(|c| c.0))
        .chain(reg.gauges().map(|g| g.0))
        .chain(reg.hists().map(|h| h.0));
    let mut schema: Vec<String> = names.map(schema_of).collect();
    schema.sort_unstable();
    schema.dedup();
    schema
}

/// `name{label keys}` of a rendered series.
fn schema_of(series: &str) -> String {
    let Some((name, labels)) = series.split_once('{') else {
        return series.to_string();
    };
    let keys: Vec<&str> = labels
        .trim_end_matches('}')
        .split(',')
        .map(|kv| kv.split_once('=').map_or(kv, |(k, _)| k))
        .collect();
    format!("{name}{{{}}}", keys.join(","))
}
