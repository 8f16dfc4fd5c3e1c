//! Summary statistics, metric records and the one-line JSON result.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// The median of `values` (mean of the middle pair for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`: the
/// smallest sample with at least `p` % of the samples at or below it;
/// `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `num / den`, or 0 when the base is empty (a layer the workload never
/// exercised).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Non-finite values are refused by the caller's checks, never printed.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.5), Some(1.0));
        // Unsorted input, fewer samples than percentile steps.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 99.0), Some(5.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(0.0, 0.0), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "wall_s",
            "route.a.busy_s",
            "serve.p50_ms.result_hit",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "a b",
            "a/b",
            "wall(s)",
            "é",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            16,
            0,
            &[
                Metric::new("wall_s", "s", 1.25),
                Metric::new("overflow_edges", "count", 751.0),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 16, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"overflow_edges\": {\"value\": 751.0, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
