//! Reading values back out of Prometheus-style exposition text, the
//! only form in which the shard barrier and session jitter histograms
//! are public.

/// The value of the series written exactly `series` (labels included).
pub fn series(text: &str, series: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.trim().parse().ok())?
    })
}

/// Mean of a histogram from its `_sum` and `_count` series.
pub fn histogram_mean(text: &str, name: &str) -> f64 {
    let sum = series(text, &format!("{name}_sum")).unwrap_or(0.0);
    let count = series(text, &format!("{name}_count")).unwrap_or(0.0);
    if count > 0.0 {
        sum / count
    } else {
        0.0
    }
}

/// Upper bound of the bucket holding quantile `q` of an unlabelled
/// histogram; the largest finite bound if it falls in `+Inf`.
pub fn histogram_quantile_bound(text: &str, name: &str, q: f64) -> f64 {
    let prefix = format!("{name}_bucket{{le=\"");
    let buckets: Vec<(f64, f64)> = text
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (le, cumulative) = rest.split_once("\"} ")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, cumulative.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    let need = (total * q).ceil();
    let largest_finite = buckets
        .iter()
        .map(|b| b.0)
        .filter(|b| b.is_finite())
        .fold(0.0, f64::max);
    buckets
        .iter()
        .find(|b| b.1 >= need)
        .map_or(0.0, |b| b.0.min(largest_finite))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "# TYPE h histogram\n\
        h_bucket{le=\"1000\"} 90\n\
        h_bucket{le=\"4000\"} 99\n\
        h_bucket{le=\"+Inf\"} 100\n\
        h_sum 250000\n\
        h_count 100\n\
        c{shard=\"1\"} 7\n";

    #[test]
    fn reads_series_means_and_quantile_bounds() {
        assert_eq!(series(TEXT, "c{shard=\"1\"}"), Some(7.0));
        assert_eq!(series(TEXT, "c"), None);
        assert_eq!(histogram_mean(TEXT, "h"), 2500.0);
        assert_eq!(histogram_mean(TEXT, "absent"), 0.0);
        assert_eq!(histogram_quantile_bound(TEXT, "h", 0.5), 1000.0);
        assert_eq!(histogram_quantile_bound(TEXT, "h", 0.99), 4000.0);
        assert_eq!(histogram_quantile_bound(TEXT, "h", 1.0), 4000.0);
    }
}
