//! Schema-versioned run reports and the regression-diff logic.
//!
//! A [`RunReport`] is the machine-readable record of one pipeline run
//! (one `scv verify`, one bench-harness experiment): a name, static
//! parameters, a verdict, and a flat metric map. Reports are emitted as
//! JSONL (`{"type":"run_report","schema":1,...}` — one per line), so a
//! file of successive runs is an append-only perf trajectory that
//! [`diff_reports`] (and the `report_diff` binary in `scv-bench`) can
//! compare across commits.

use crate::json::{Json, JsonError};

/// Version of every JSONL record this crate emits. Bump on any
/// backwards-incompatible field change; `report_diff` refuses to compare
/// across versions.
pub const SCHEMA_VERSION: u32 = 1;

/// The machine-readable record of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Report name (protocol, experiment id, …) — the diff join key.
    pub name: String,
    /// Static parameters (`threads`, `batch`, protocol sizes, …).
    pub params: Vec<(String, String)>,
    /// Outcome label (`verified`, `violation`, `bounded`, `ok`, …).
    pub verdict: String,
    /// Flat metric map; keys are dotted names (`mc.states_admitted`,
    /// `search.total_ns`, …).
    pub metrics: Vec<(String, f64)>,
}

impl RunReport {
    /// Start a report.
    pub fn new(name: impl Into<String>) -> Self {
        RunReport {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Add a static parameter.
    pub fn param(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.params.push((key.into(), value.to_string()));
        self
    }

    /// Add a metric.
    pub fn metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.push((key.into(), value));
        self
    }

    /// Set the verdict.
    pub fn with_verdict(mut self, verdict: impl Into<String>) -> Self {
        self.verdict = verdict.into();
        self
    }

    /// Look up a metric by name.
    pub fn get_metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// The JSONL object form.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("type".to_string(), Json::Str("run_report".to_string())),
            ("schema".to_string(), Json::Num(SCHEMA_VERSION as f64)),
            ("name".to_string(), Json::Str(self.name.clone())),
            ("verdict".to_string(), Json::Str(self.verdict.clone())),
            (
                "params".to_string(),
                Json::obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
                ),
            ),
            (
                "metrics".to_string(),
                Json::obj(self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
        ])
    }

    /// Parse one report back from its JSON object form.
    pub fn from_json(j: &Json) -> Result<RunReport, String> {
        if j.get("type").and_then(Json::as_str) != Some("run_report") {
            return Err("not a run_report record".to_string());
        }
        let schema = j
            .get("schema")
            .and_then(Json::as_num)
            .ok_or("missing schema field")? as u32;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "schema version {schema} != supported {SCHEMA_VERSION}"
            ));
        }
        let name = j
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name")?
            .to_string();
        let verdict = j
            .get("verdict")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let mut params = Vec::new();
        if let Some(m) = j.get("params").and_then(Json::as_obj) {
            for (k, v) in m {
                params.push((k.clone(), v.as_str().unwrap_or_default().to_string()));
            }
        }
        let mut metrics = Vec::new();
        if let Some(m) = j.get("metrics").and_then(Json::as_obj) {
            for (k, v) in m {
                metrics.push((k.clone(), v.as_num().ok_or("non-numeric metric")?));
            }
        }
        Ok(RunReport {
            name,
            params,
            verdict,
            metrics,
        })
    }
}

/// Parse every `run_report` record out of JSONL text, skipping other
/// event types; any malformed line is an error.
pub fn parse_reports(jsonl: &str) -> Result<Vec<RunReport>, String> {
    let mut out = Vec::new();
    for (lineno, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e: JsonError| format!("line {}: {e}", lineno + 1))?;
        if j.get("type").and_then(Json::as_str) == Some("run_report") {
            out.push(RunReport::from_json(&j).map_err(|e| format!("line {}: {e}", lineno + 1))?);
        }
    }
    Ok(out)
}

/// How a metric's change should be judged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Growth beyond the threshold is a regression (times, probe
    /// lengths, idle spins).
    LowerIsBetter,
    /// Shrinkage beyond the threshold is a regression (throughput).
    HigherIsBetter,
    /// Informational only — never flags (state counts, depths).
    Neutral,
}

/// The judging direction for a metric name. Times (`*_ns`, `*_secs`,
/// `*.elapsed*`) and waste counters regress when they grow; `*per_sec*`
/// throughput regresses when it shrinks; everything else is
/// informational.
pub fn direction_of(name: &str) -> Direction {
    if name.contains("per_sec") {
        return Direction::HigherIsBetter;
    }
    if name.ends_with("_ns")
        || name.ends_with("_secs")
        || name.contains("elapsed")
        || name.ends_with("probe_len")
        || name.ends_with("idle_spins")
        || name.ends_with("peak_rss_bytes")
    {
        return Direction::LowerIsBetter;
    }
    Direction::Neutral
}

/// One metric compared across two reports.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDelta {
    /// Metric name.
    pub name: String,
    /// Value in the old report.
    pub old: f64,
    /// Value in the new report.
    pub new: f64,
    /// Percent change relative to old (`None` when old == 0).
    pub pct: Option<f64>,
    /// Judging direction applied.
    pub direction: Direction,
    /// Did this metric regress beyond the threshold?
    pub regression: bool,
}

/// Compare two same-named reports metric by metric. `threshold_pct` is
/// the tolerated adverse change (e.g. `10.0` = 10%); only metrics present
/// in both reports are compared.
pub fn diff_reports(old: &RunReport, new: &RunReport, threshold_pct: f64) -> Vec<MetricDelta> {
    let mut out = Vec::new();
    for (name, old_v) in &old.metrics {
        let Some(new_v) = new.get_metric(name) else {
            continue;
        };
        let pct = (*old_v != 0.0).then(|| (new_v - old_v) / old_v.abs() * 100.0);
        let direction = direction_of(name);
        let regression = match (direction, pct) {
            (Direction::LowerIsBetter, Some(p)) => p > threshold_pct,
            (Direction::HigherIsBetter, Some(p)) => p < -threshold_pct,
            _ => false,
        };
        out.push(MetricDelta {
            name: name.clone(),
            old: *old_v,
            new: new_v,
            pct,
            direction,
            regression,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport::new("msi")
            .param("threads", 4)
            .param("batch", 128)
            .with_verdict("bounded")
            .metric("mc.states_admitted", 60_000.0)
            .metric("search.total_ns", 1.25e9)
            .metric("mc.states_per_sec", 48_000.0)
    }

    #[test]
    fn report_roundtrips_through_jsonl() {
        let r = sample();
        let line = r.to_json().to_string_compact();
        assert!(line.contains("\"type\":\"run_report\""));
        assert!(line.contains("\"schema\":1"));
        let back = parse_reports(&line).unwrap();
        assert_eq!(back.len(), 1);
        let b = &back[0];
        assert_eq!(b.name, "msi");
        assert_eq!(b.verdict, "bounded");
        assert_eq!(b.get_metric("search.total_ns"), Some(1.25e9));
        assert_eq!(
            b.params
                .iter()
                .find(|(k, _)| k == "threads")
                .map(|(_, v)| v.as_str()),
            Some("4")
        );
    }

    #[test]
    fn parse_skips_non_report_events_but_rejects_bad_schema() {
        let mixed = format!(
            "{}\n{}\n",
            "{\"type\":\"phase\",\"schema\":1,\"phase\":\"search\"}",
            sample().to_json().to_string_compact()
        );
        assert_eq!(parse_reports(&mixed).unwrap().len(), 1);
        let future = "{\"type\":\"run_report\",\"schema\":999,\"name\":\"x\"}";
        assert!(parse_reports(future).is_err());
        assert!(parse_reports("not json").is_err());
    }

    #[test]
    fn diff_flags_only_adverse_moves_beyond_threshold() {
        let old = sample();
        let new = RunReport::new("msi")
            .metric("mc.states_admitted", 90_000.0) // neutral: no flag
            .metric("search.total_ns", 1.5e9) // +20% time: regression at 10%
            .metric("mc.states_per_sec", 50_000.0); // improved: no flag
        let deltas = diff_reports(&old, &new, 10.0);
        let by_name = |n: &str| deltas.iter().find(|d| d.name == n).unwrap();
        assert!(!by_name("mc.states_admitted").regression);
        assert!(by_name("search.total_ns").regression);
        assert!(!by_name("mc.states_per_sec").regression);
        // Same threshold, smaller growth: tolerated.
        let ok = RunReport::new("msi").metric("search.total_ns", 1.3e9); // +4%
        assert!(diff_reports(&old, &ok, 10.0).iter().all(|d| !d.regression));
        // Throughput collapse is flagged.
        let slow = RunReport::new("msi").metric("mc.states_per_sec", 10_000.0);
        assert!(diff_reports(&old, &slow, 10.0).iter().any(|d| d.regression));
    }

    #[test]
    fn directions_follow_naming_convention() {
        assert_eq!(direction_of("search.total_ns"), Direction::LowerIsBetter);
        assert_eq!(direction_of("mc.states_per_sec"), Direction::HigherIsBetter);
        assert_eq!(direction_of("mc.states_admitted"), Direction::Neutral);
        assert_eq!(direction_of("seen.probe_len"), Direction::LowerIsBetter);
    }
}
