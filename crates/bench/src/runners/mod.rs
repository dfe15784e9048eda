//! One runner per paper artifact; each returns the rendered report string
//! so the bench targets stay one-line mains and the integration tests can
//! smoke-run everything at a small scale.

pub mod ablation;
pub mod bound;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;

/// Standard report header naming the artifact and the scale it ran at.
#[must_use]
pub(crate) fn header(artifact: &str, scale: f64) -> String {
    format!(
        "== {artifact} ==\n(workload scale {scale}; GUST_SCALE=1 reproduces the paper's sizes)\n\n"
    )
}
