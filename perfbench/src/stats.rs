//! Small statistics, digest and host-context helpers.

use std::time::Instant;

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of `v`: the highest percentile that still has at least ten
/// samples beyond it, as `(value, percentile, sample count)`. With ten
/// samples or fewer no such percentile exists and the maximum is
/// returned under percentile 100.
pub fn tail(v: &[f64]) -> (f64, f64, usize) {
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if n <= 10 {
        return (s[n - 1], 100.0, n);
    }
    // Rank n-10 (1-based) has exactly ten samples above it.
    let rank = n - 10;
    (s[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Geometric mean of positive values (0 when empty or any value is not
/// positive).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// 64-bit FNV-1a hash of `s`: the digest of a result's `Debug` text.
pub fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where and how a run was made, printed with every result.
#[derive(Debug, Clone)]
pub struct Context {
    /// Output of `nproc` (CPUs this process may run on).
    pub nproc: String,
    /// `std::thread::available_parallelism`.
    pub available_parallelism: usize,
    /// Worker threads the grids ran on.
    pub jobs: usize,
    /// Workload seed.
    pub seed: u64,
    /// Scale preset name and its sizing.
    pub scale: String,
    /// Git revision of the source tree, or `unknown` outside a git
    /// checkout.
    pub git_rev: String,
    /// Compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Context {
    /// Gathers the host facts around `jobs`, `seed` and `scale`.
    pub fn gather(jobs: usize, seed: u64, scale: String) -> Self {
        let nproc = std::process::Command::new("nproc")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Self {
            nproc,
            available_parallelism: std::thread::available_parallelism().map_or(0, |n| n.get()),
            jobs,
            seed,
            scale,
            git_rev: git_rev(),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_parallelism\": {}, \"jobs\": {}, \"seed\": {}, \"scale\": {}, \"git_rev\": {}, \"rustc\": {}}}",
            json_str(&self.nproc),
            self.available_parallelism,
            self.jobs,
            self.seed,
            json_str(&self.scale),
            json_str(&self.git_rev),
            json_str(self.rustc),
        )
    }
}

/// Reads `HEAD` of the git checkout holding this package, without
/// running git.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&v);
        assert_eq!((value, n), (30.0, 40));
        assert!((pct - 75.0).abs() < 1e-9);
        assert_eq!(tail(&[1.0, 5.0]), (5.0, 100.0, 2));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).0, 1.0, "ten samples lie beyond the lowest");
    }

    #[test]
    fn geomean_and_digest() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_ne!(fnv64("a"), fnv64("b"));
    }
}
