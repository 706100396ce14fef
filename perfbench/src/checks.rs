//! Output checks behind `check_fail_frac`, and the reference values
//! recorded for each workload's reference seed (`reference.json`).

use std::sync::OnceLock;

use mb_telemetry::Json;

/// Counts checks attempted and failed, keeping the first failures for
/// the report.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// `actual` must equal the reference recorded under
    /// `workload.key`; a missing reference is a failed check.
    pub fn reference(&mut self, workload: &str, key: &str, actual: &str) {
        let expected = reference(workload, key);
        self.check(expected.as_deref() == Some(actual), || match &expected {
            Some(e) => format!("{workload}.{key}: got {actual}, reference {e}"),
            None => format!("{workload}.{key}: no reference recorded (got {actual})"),
        });
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

const REFERENCE: &str = include_str!("../reference.json");

fn reference_doc() -> &'static Json {
    static DOC: OnceLock<Json> = OnceLock::new();
    DOC.get_or_init(|| mb_telemetry::json::parse(REFERENCE).expect("reference.json is valid JSON"))
}

/// The seed whose outputs `reference.json` records for `workload`.
pub fn reference_seed(workload: &str) -> Option<u64> {
    reference_doc()
        .get(workload)?
        .get("seed")?
        .as_f64()
        .map(|s| s as u64)
}

fn reference(workload: &str, key: &str) -> Option<String> {
    reference_doc()
        .get(workload)?
        .get(key)?
        .as_str()
        .map(str::to_string)
}

/// FNV-1a over a sequence of `f64` bit patterns, as fixed-width hex.
pub fn fingerprint(tag: &str, values: impl IntoIterator<Item = f64>) -> String {
    let mut f = mb_telemetry::Fnv::new();
    f.write_str(tag);
    for v in values {
        f.write_f64(v);
    }
    format!("{:016x}", f.finish())
}
