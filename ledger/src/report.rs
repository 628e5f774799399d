//! The ledger's output: one `name value unit` line per number, then the
//! machine-readable summary as the last line of standard output.

use tdsigma_jobs::Json;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a legal metric name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The human-readable line for one number.
pub fn line(m: &Metric) -> String {
    format!("{} {} {}", m.name, m.value, m.unit)
}

/// The summary line: `correct`, `attempted`, `failed` and the metrics
/// keyed by name.
pub fn summary(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .to_text()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{layer_metric_units, E2E_METRICS};

    #[test]
    fn names_are_validated() {
        assert!(valid_name("layout.place.share"));
        assert!(valid_name("op_ms"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    fn declared(json: &Json, key: &str) -> Vec<(String, String)> {
        let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the ledger");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> = E2E_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared(&json, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = layer_metric_units()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared(&json, "per_layer"), layers);
    }

    #[test]
    fn every_emitted_name_is_valid_and_unique() {
        let mut names: Vec<String> = E2E_METRICS.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(layer_metric_units().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn summary_parses_back() {
        let text = summary(
            true,
            12,
            0,
            &[
                Metric::new("op_ms", 3_456.789_012_3, "ms"),
                Metric::new("setup_s", 0.004_1, "s"),
            ],
        );
        let v = Json::parse(&text).expect("summary is JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0));
        let m = v.get("metrics").and_then(|m| m.get("op_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(3_456.789_012_3)
        );
        assert_eq!(
            m.and_then(|m| m.get("unit")).and_then(Json::as_str),
            Some("ms")
        );
        assert!(!text.contains('\n'));
    }
}
