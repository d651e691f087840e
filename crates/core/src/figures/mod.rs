//! One entry point per paper figure and table.
//!
//! Every function takes an [`crate::effort::Effort`] so the bench
//! binaries (paper scale) and the integration tests (quick scale) share
//! the exact experiment code. Each returns typed data with a `render()`
//! method producing the text report recorded in EXPERIMENTS.md.

mod closedloop;
mod correlation;
mod extensions;
mod metrics;
mod openloop;
mod resilience;
mod system;

pub use closedloop::*;
pub use correlation::*;
pub use extensions::*;
pub use metrics::*;
pub use openloop::*;
pub use resilience::*;
pub use system::*;

/// A labeled series of (x, y) points — the common figure currency.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Series label (e.g. `"tr=2"`).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

impl Curve {
    /// Render as aligned text columns.
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", self.label);
        for (x, y) in &self.points {
            out.push_str(&format!("{x:<12.4} {y:.4}\n"));
        }
        out
    }

    /// y value at the smallest x (zero-load end of a latency curve).
    pub fn first_y(&self) -> Option<f64> {
        self.points.first().map(|&(_, y)| y)
    }

    /// Largest x whose y is finite — a crude saturation estimate for
    /// latency curves where unstable points are filtered out upstream.
    pub fn last_x(&self) -> Option<f64> {
        self.points.last().map(|&(x, _)| x)
    }
}

/// Render several curves under one heading.
pub fn render_curves(title: &str, curves: &[Curve]) -> String {
    let mut out = format!("== {title} ==\n");
    for c in curves {
        out.push_str(&c.render());
        out.push('\n');
    }
    out.push_str(&plot_curves("", curves));
    out
}

/// ASCII plot of several curves (terminal visualization).
pub fn plot_curves(title: &str, curves: &[Curve]) -> String {
    let series: Vec<crate::plot::Series<'_>> =
        curves.iter().map(|c| crate::plot::Series { label: &c.label, points: &c.points }).collect();
    crate::plot::ascii_plot(title, &series, 64, 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_render_and_accessors() {
        let c = Curve { label: "x".into(), points: vec![(0.1, 10.0), (0.2, 12.0)] };
        assert_eq!(c.first_y(), Some(10.0));
        assert_eq!(c.last_x(), Some(0.2));
        let r = c.render();
        assert!(r.contains("# x"));
        assert_eq!(r.lines().count(), 3);
        let all = render_curves("t", &[c]);
        assert!(all.starts_with("== t =="));
    }
}
