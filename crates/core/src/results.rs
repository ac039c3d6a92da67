//! Result containers for regenerated tables and figures.

use std::fmt::Write as _;

/// One labeled curve of a figure.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (e.g. "RC-1000us-delay").
    pub label: String,
    /// `(x, y)` points in axis units.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at the given x, if sampled.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points
            .iter()
            .find(|(px, _)| (*px - x).abs() < 1e-9)
            .map(|&(_, y)| y)
    }

    /// Maximum y value (peak bandwidth etc.).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|&(_, y)| y).fold(0.0, f64::max)
    }
}

/// A regenerated table or figure.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Identifier matching the paper ("fig5a", "table1", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label (the paper's units, e.g. "MillionBytes/s").
    pub y_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text table: one row per x, one column per
    /// series — the same rows the paper's plots report.
    pub fn to_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# y: {}", self.y_label);
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, " {:>16}", s.label);
        }
        out.push('\n');
        for x in xs {
            let _ = write!(out, "{:>14}", format_x(x));
            for s in &self.series {
                match s.y_at(x) {
                    Some(y) => {
                        let _ = write!(out, " {:>16}", format_y(y));
                    }
                    None => {
                        let _ = write!(out, " {:>16}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Serialize to JSON (for EXPERIMENTS.md regeneration).
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// The JSON value tree `to_json` renders.
    pub fn to_value(&self) -> minijson::Value {
        use minijson::{obj, Value};
        obj([
            ("id", Value::from(self.id.clone())),
            ("title", Value::from(self.title.clone())),
            ("x_label", Value::from(self.x_label.clone())),
            ("y_label", Value::from(self.y_label.clone())),
            (
                "series",
                Value::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            obj([
                                ("label", Value::from(s.label.clone())),
                                (
                                    "points",
                                    Value::Arr(
                                        s.points
                                            .iter()
                                            .map(|&(x, y)| {
                                                Value::Arr(vec![Value::Num(x), Value::Num(y)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse the JSON layout produced by [`Figure::to_json`].
    pub fn from_json(json: &str) -> Result<Figure, String> {
        Figure::from_value(&minijson::Value::parse(json)?)
    }

    /// Read a figure out of the value tree [`Figure::to_value`] builds.
    /// Members other than the figure's own (a provenance block) are ignored.
    pub fn from_value(v: &minijson::Value) -> Result<Figure, String> {
        let text = |key: &str| {
            v.get(key)
                .and_then(|f| f.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("figure: missing string field {key:?}"))
        };
        let series = v
            .get("series")
            .and_then(|s| s.as_array())
            .ok_or_else(|| "figure: missing series array".to_string())?
            .iter()
            .map(|s| {
                let label = s
                    .get("label")
                    .and_then(|l| l.as_str())
                    .ok_or_else(|| "series: missing label".to_string())?
                    .to_string();
                let points = s
                    .get("points")
                    .and_then(|p| p.as_array())
                    .ok_or_else(|| "series: missing points".to_string())?
                    .iter()
                    .map(|p| match p.as_array() {
                        Some([x, y]) => match (x.as_f64(), y.as_f64()) {
                            (Some(x), Some(y)) => Ok((x, y)),
                            _ => Err("series: non-numeric point".to_string()),
                        },
                        _ => Err("series: point is not an [x, y] pair".to_string()),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Series { label, points })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Figure {
            id: text("id")?,
            title: text("title")?,
            x_label: text("x_label")?,
            y_label: text("y_label")?,
            series,
        })
    }
}

fn format_y(y: f64) -> String {
    if y != 0.0 && y.abs() < 0.1 {
        format!("{y:.4}")
    } else {
        format!("{y:.2}")
    }
}

fn format_x(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_series() {
        let mut f = Figure::new("figX", "demo", "size", "MB/s");
        let mut a = Series::new("no-delay");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("10ms");
        b.push(2.0, 5.0);
        f.series.push(a);
        f.series.push(b);
        let t = f.to_table();
        assert!(t.contains("no-delay"));
        assert!(t.contains("10ms"));
        assert!(t.lines().count() >= 5);
        // x=1 has no 10ms sample: a dash.
        let row1 = t.lines().find(|l| l.trim_start().starts_with('1')).unwrap();
        assert!(row1.contains('-'));
    }

    #[test]
    fn tiny_values_keep_precision() {
        let mut f = Figure::new("t", "t", "x", "y");
        let mut s = Series::new("rate");
        s.push(1.0, 0.0042);
        f.series.push(s);
        assert!(f.to_table().contains("0.0042"));
    }

    #[test]
    fn series_helpers() {
        let mut s = Series::new("x");
        s.push(1.0, 3.0);
        s.push(2.0, 7.0);
        assert_eq!(s.y_at(2.0), Some(7.0));
        assert_eq!(s.y_at(9.0), None);
        assert_eq!(s.peak(), 7.0);
    }

    #[test]
    fn json_round_trip() {
        let mut f = Figure::new("t", "t", "x", "y");
        let mut s = Series::new("s");
        s.push(1.0, 2.5);
        f.series.push(s);
        let j = f.to_json();
        let back = Figure::from_json(&j).unwrap();
        assert_eq!(back.id, "t");
        assert_eq!(back.series("s").unwrap().points, vec![(1.0, 2.5)]);
    }
}
