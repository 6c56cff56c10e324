//! Comparison-row machinery: each experiment emits [`Row`]s pairing the
//! paper's published value with the value measured on the simulated
//! testbed, grouped into an [`Artifact`] (one table or figure). An
//! experiment declares them before any world runs, as an [`ArtifactSpec`]
//! of [`RowSpec`]s that read cells' outcomes by label.

use std::fmt::Write as _;

/// One reported value.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name (e.g. "throughput").
    pub metric: String,
    /// Configuration label (e.g. "OVS+Tunneling @ 1448B").
    pub config: String,
    /// The paper's published value, if the text/figure gives one.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Row {
    /// Build a row.
    pub fn new(
        metric: impl Into<String>,
        config: impl Into<String>,
        paper: Option<f64>,
        measured: f64,
        unit: &'static str,
    ) -> Row {
        Row {
            metric: metric.into(),
            config: config.into(),
            paper,
            measured,
            unit,
        }
    }

    /// Serialize to a JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        crate::json::object([
            ("metric", crate::json::quote(&self.metric)),
            ("config", crate::json::quote(&self.config)),
            ("paper", crate::json::opt_num(self.paper)),
            ("measured", crate::json::num(self.measured)),
            ("unit", crate::json::quote(self.unit)),
        ])
    }
}

/// One regenerated table/figure.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Identifier, e.g. "fig3d" or "table2".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Qualitative shape statement being tested, from the paper's text.
    pub shape: String,
    /// The rows.
    pub rows: Vec<Row>,
    /// Free-form notes (scaling, substitutions).
    pub notes: Vec<String>,
}

impl Artifact {
    /// New empty artifact.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        shape: impl Into<String>,
    ) -> Artifact {
        Artifact {
            id: id.into(),
            title: title.into(),
            shape: shape.into(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Add a row.
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Add a note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Serialize to a JSON object (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        crate::json::object([
            ("id", crate::json::quote(&self.id)),
            ("title", crate::json::quote(&self.title)),
            ("shape", crate::json::quote(&self.shape)),
            (
                "rows",
                crate::json::array(self.rows.iter().map(Row::to_json)),
            ),
            (
                "notes",
                crate::json::array(self.notes.iter().map(|n| crate::json::quote(n))),
            ),
        ])
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} — {} ===", self.id, self.title);
        let _ = writeln!(out, "shape target: {}", self.shape);
        let w_metric = self
            .rows
            .iter()
            .map(|r| r.metric.len())
            .chain(["metric".len()])
            .max()
            .unwrap_or(6);
        let w_config = self
            .rows
            .iter()
            .map(|r| r.config.len())
            .chain(["config".len()])
            .max()
            .unwrap_or(6);
        let _ = writeln!(
            out,
            "{:w_metric$}  {:w_config$}  {:>12}  {:>12}  unit",
            "metric", "config", "paper", "measured"
        );
        for r in &self.rows {
            let paper = match r.paper {
                Some(v) => format_val(v),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:w_metric$}  {:w_config$}  {:>12}  {:>12}  {}",
                r.metric,
                r.config,
                paper,
                format_val(r.measured),
                r.unit
            );
        }
        for n in &self.notes {
            let _ = writeln!(out, "note: {n}");
        }
        out
    }
}

/// How a row's value is read from the outcomes of the cells it reads.
type Reader<O> = Box<dyn Fn(&[&O]) -> f64>;

/// A row as an experiment declares it, before any world runs: the row
/// without its measured value, the cells it reads (by label) and how its
/// value is read from their outcomes.
pub(crate) struct RowSpec<O> {
    head: Row,
    /// The labels of the cells `read` takes, in order.
    pub(crate) reads: Vec<String>,
    read: Reader<O>,
    /// A unit read from the outcomes, in place of `head`'s.
    unit_of: Option<fn(&[&O]) -> &'static str>,
}

impl<O> RowSpec<O> {
    /// A row read from the outcomes of the cells labelled `reads`.
    pub(crate) fn new<S: Into<String>>(
        metric: impl Into<String>,
        config: impl Into<String>,
        paper: Option<f64>,
        unit: &'static str,
        reads: impl IntoIterator<Item = S>,
        read: impl Fn(&[&O]) -> f64 + 'static,
    ) -> RowSpec<O> {
        RowSpec {
            head: Row::new(metric, config, paper, f64::NAN, unit),
            reads: reads.into_iter().map(Into::into).collect(),
            read: Box::new(read),
            unit_of: None,
        }
    }

    /// The same row, its unit read from the outcomes.
    pub(crate) fn unit_of(self, unit_of: fn(&[&O]) -> &'static str) -> RowSpec<O> {
        RowSpec {
            unit_of: Some(unit_of),
            ..self
        }
    }

    fn row(&self, outcomes: &[(&str, O)]) -> Row {
        let outcome = |label: &String| {
            let (_, got) = (outcomes.iter().find(|(l, _)| l == label))
                .unwrap_or_else(|| panic!("no cell is labelled '{label}'"));
            got
        };
        let read: Vec<&O> = self.reads.iter().map(outcome).collect();
        Row {
            measured: (self.read)(&read),
            unit: self.unit_of.map_or(self.head.unit, |f| f(&read)),
            ..self.head.clone()
        }
    }
}

/// A metric read from one cell's outcome: one row per cell it is applied to.
pub(crate) struct Col<O> {
    metric: &'static str,
    unit: &'static str,
    read: fn(&O) -> f64,
}

impl<O: 'static> Col<O> {
    pub(crate) const fn new(
        metric: &'static str,
        unit: &'static str,
        read: fn(&O) -> f64,
    ) -> Col<O> {
        Col { metric, unit, read }
    }

    /// The row of the cell `label`, which is also its config; no paper value.
    pub(crate) fn at(&self, label: &str) -> RowSpec<O> {
        self.at_as(label, label, None)
    }

    /// The row of the cell `label`, reported as `config` beside `paper`.
    pub(crate) fn at_as(&self, label: &str, config: &str, paper: Option<f64>) -> RowSpec<O> {
        let read = self.read;
        RowSpec::new(self.metric, config, paper, self.unit, [label], move |o| {
            read(o[0])
        })
    }
}

/// An artifact as an experiment declares it: id, title, shape and notes,
/// and its rows as [`RowSpec`]s.
pub(crate) struct ArtifactSpec<O> {
    pub(crate) head: Artifact,
    pub(crate) rows: Vec<RowSpec<O>>,
}

impl<O> ArtifactSpec<O> {
    pub(crate) fn new(id: &str, title: &str, shape: &str) -> ArtifactSpec<O> {
        ArtifactSpec {
            head: Artifact::new(id, title, shape),
            rows: Vec::new(),
        }
    }

    /// Add a row.
    pub(crate) fn push(&mut self, row: RowSpec<O>) {
        self.rows.push(row);
    }

    /// Add a row read from the cells labelled `reads` ([`RowSpec::new`]).
    pub(crate) fn row<S: Into<String>>(
        &mut self,
        metric: impl Into<String>,
        config: impl Into<String>,
        paper: Option<f64>,
        unit: &'static str,
        reads: impl IntoIterator<Item = S>,
        read: impl Fn(&[&O]) -> f64 + 'static,
    ) {
        self.push(RowSpec::new(metric, config, paper, unit, reads, read));
    }

    /// Add a note.
    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.head.note(s);
    }

    /// The artifact, its rows read from the cells' outcomes by label.
    pub(crate) fn render(&self, outcomes: &[(&str, O)]) -> Artifact {
        let mut art = self.head.clone();
        art.rows = self.rows.iter().map(|r| r.row(outcomes)).collect();
        art
    }
}

fn format_val(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v.abs() >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v.abs() >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else if v.abs() < 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut a = Artifact::new("t1", "Test", "x beats y");
        a.push(Row::new("tps", "VIF", Some(106_574.0), 95_000.0, "tps"));
        a.push(Row::new("latency", "SR-IOV", None, 190.5, "us"));
        a.note("scaled run");
        let s = a.render();
        assert!(s.contains("t1"));
        assert!(s.contains("106.6k"));
        assert!(s.contains("190.5"));
        assert!(s.contains("scaled run"));
        assert!(s.contains('-'), "missing paper values render as '-'");
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_val(9.4e9), "9.40G");
        assert_eq!(format_val(34_000.0), "34.0k");
        assert_eq!(format_val(2.5), "2.50");
        assert_eq!(format_val(331.0), "331.0");
    }
}
