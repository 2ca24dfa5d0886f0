//! `run.sh compare A B`: judges result set B against result set A, metric
//! by metric and workload by workload, by the bounds of `BENCHMARK.json`
//! and nothing else.

use crate::workloads::Kind;
use serde_json::Value;
use std::fmt;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The spread between reps is wider than the bound, so a difference
    /// of the size of the bound cannot be told from noise.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One side of a comparison: the median over reps and their spread
/// (distance between the quartiles as a share of the median).
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// How much worse `b` is than `a`, as a share of `a`; negative is better.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    if a.spread.max(b.spread) > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.median, b.median, lower_is_better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_object()?.get(key)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn side(result: &Value, metric: &str) -> Option<Side> {
    let m = field(field(result, "end_to_end")?, metric)?;
    let median = number(field(m, "value")?)?;
    let spread = field(m, "reps")
        .and_then(|r| {
            let (q1, q3) = (number(field(r, "q1")?)?, number(field(r, "q3")?)?);
            Some(if median == 0.0 {
                0.0
            } else {
                (q3 - q1) / median.abs()
            })
        })
        .unwrap_or(0.0);
    Some(Side { median, spread })
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints one row per metric × workload. Returns the number of `worse`.
pub fn compare(benchmark: &Path, a: &Path, b: &Path) -> Result<usize, String> {
    let spec = read_json(benchmark)?;
    let metrics = field(&spec, "end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut worse = 0;
    println!(
        "{:<12} {:<22} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse%", "bound%", "spread%"
    );
    for kind in Kind::ALL {
        let file = format!("{}.json", kind.name());
        let (Ok(ra), Ok(rb)) = (read_json(&a.join(&file)), read_json(&b.join(&file))) else {
            println!("{:<12} (not in both result sets)", kind.name());
            continue;
        };
        for spec in metrics {
            let name = field(spec, "name").and_then(Value::as_str).unwrap_or("");
            let lower = field(spec, "better").and_then(Value::as_str) == Some("lower");
            let bound = field(spec, "bound").and_then(number).unwrap_or(0.0);
            let (Some(sa), Some(sb)) = (side(&ra, name), side(&rb, name)) else {
                continue;
            };
            let verdict = judge(sa, sb, lower, bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<12} {:<22} {:>14.6} {:>14.6} {:>+8.2} {:>7.1} {:>7.2}  {verdict}",
                kind.name(),
                name,
                sa.median,
                sb.median,
                100.0 * worsening(sa.median, sb.median, lower),
                100.0 * bound,
                100.0 * sa.spread.max(sb.spread),
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: +12 % is worse at a 10 % bound, +8 % is not.
        assert_eq!(
            judge(s(100.0, 0.02), s(112.0, 0.02), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(s(100.0, 0.02), s(108.0, 0.02), true, 0.10),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(s(100.0, 0.02), s(85.0, 0.02), true, 0.10),
            Verdict::Better
        );
        // Higher is better: the same numbers flip.
        assert_eq!(
            judge(s(100.0, 0.02), s(112.0, 0.02), false, 0.10),
            Verdict::Better
        );
        assert_eq!(
            judge(s(100.0, 0.02), s(85.0, 0.02), false, 0.10),
            Verdict::Worse
        );
        // A spread wider than the bound on either side decides nothing.
        assert_eq!(
            judge(s(100.0, 0.02), s(150.0, 0.12), true, 0.10),
            Verdict::Unresolved
        );
    }
}
