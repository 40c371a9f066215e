//! The metric declarations in `BENCHMARK.json`, compiled in, and the check
//! that a run emits exactly the declared metrics.

use crate::json::{quote, Json};
use std::sync::OnceLock;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// The compiled-in `BENCHMARK.json`.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| parse(SPEC_JSON).expect("BENCHMARK.json is well-formed"))
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let metrics = |key: &str| -> Result<Vec<Metric>, String> {
        let list = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("missing {key}"))?;
        list.iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or(format!("{key} entry without {k}"))
                };
                Ok(Metric {
                    name: text("name")?,
                    unit: text("unit")?,
                    lower_is_better: text("better")? == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing workloads")?
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or("workload without a name")?;
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("missing run_seconds")? as u64,
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Renders `values` as the `metrics` object, in declaration order, with
/// each metric's declared unit. Fails when a declared metric is missing,
/// an undeclared one is present, or a value is not a finite number.
pub fn render(values: &[(&str, f64)], declared: &[Metric]) -> Result<String, String> {
    if let Some((name, _)) = values
        .iter()
        .find(|(n, _)| !declared.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {name} is not declared in BENCHMARK.json"));
    }
    let mut fields = Vec::with_capacity(declared.len());
    for m in declared {
        let Some(&(_, value)) = values.iter().find(|(n, _)| *n == m.name) else {
            return Err(format!("declared metric {} was not measured", m.name));
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        fields.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            quote(&m.name),
            quote(&m.unit)
        ));
    }
    Ok(format!("{{{}}}", fields.join(",")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn declarations_are_well_formed() {
        let s = spec();
        assert_eq!(s.workloads, crate::workload::NAMES);
        let all: Vec<&Metric> = s.end_to_end.iter().chain(&s.per_layer).collect();
        for m in &all {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names are unique");
        for m in &s.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s");
        assert!(setup.is_some_and(|m| m.unit == "s" && m.lower_is_better));
    }

    #[test]
    fn render_requires_exactly_the_declared_metrics() {
        let declared = [
            Metric {
                name: "a_s".into(),
                unit: "s".into(),
                lower_is_better: true,
                bound: Some(0.1),
            },
            Metric {
                name: "b".into(),
                unit: "count".into(),
                lower_is_better: false,
                bound: None,
            },
        ];
        assert_eq!(
            render(&[("b", 3.0), ("a_s", 0.25)], &declared).as_deref(),
            Ok(r#"{"a_s":{"value":0.25,"unit":"s"},"b":{"value":3,"unit":"count"}}"#)
        );
        assert!(render(&[("a_s", 0.25)], &declared).is_err());
        assert!(render(&[("a_s", 0.25), ("b", 1.0), ("c", 1.0)], &declared).is_err());
        assert!(render(&[("a_s", f64::NAN), ("b", 1.0)], &declared).is_err());
    }
}
