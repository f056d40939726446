//! Host facts for the run fingerprint, peak memory, and the order
//! statistics the metrics are reported as.

use crate::digest::Fnv64;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Logical CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The first `model name` of `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`), KiB.
pub fn peak_rss_kib() -> Option<f64> {
    std::fs::read_to_string("/proc/self/status")
        .ok()?
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The checkout the benchmark was built from: its package's parent.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
}

/// The commit of the checkout, read straight from its `.git` (never from
/// a repository further up the tree); `none` outside a git checkout.
pub fn git_sha() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(name)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a-64 over the engine's sources (`Cargo.toml` and `*.rs` under
/// `crates/`, path and contents, in sorted order): identifies the code
/// measured even where there is no git metadata.
pub fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs")
                || p.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = Fnv64::default();
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f);
        h.bytes(rel.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(&f) {
            h.bytes(&bytes);
        }
    }
    h.finish()
}

/// Host seconds for one pass of a fixed reference kernel, the median of
/// eleven passes. A pass makes 200 000 small heap allocations of 1 to 16
/// words, writes them, and frees them in a scattered order while about a
/// thousand stay live: allocator and cache traffic like the engine's own.
/// It runs on as many threads at once as the pool has, and a pass lasts
/// until the slowest of them is done, as a fanned-out wave does.
///
/// A shared host runs this program up to half again slower for tens of
/// seconds at a time. Pure arithmetic does not slow with it; this kernel
/// does, by the same factor (correlation 0.78 with run time over 49 room
/// runs), so a run's seconds over the kernel's seconds around it stay put
/// while the host's speed swings. The kernel never changes between
/// versions of the engine, so the ratio moves only with the engine.
pub fn reference_s() -> f64 {
    fn pass() -> f64 {
        let t = Instant::now();
        let mut live: Vec<Vec<u64>> = Vec::with_capacity(1001);
        for i in 0..200_000u64 {
            live.push(vec![i; (i % 16) as usize + 1]);
            if live.len() > 1000 {
                live.swap_remove((i as usize * 7919) % 1000);
            }
        }
        std::hint::black_box(&live);
        t.elapsed().as_secs_f64()
    }
    let threads = braidio_pool::thread_count();
    let mut passes = [0.0; 11];
    for p in &mut passes {
        *p = if threads <= 1 {
            pass()
        } else {
            std::thread::scope(|s| {
                let others: Vec<_> = (1..threads).map(|_| s.spawn(pass)).collect();
                let own = pass();
                others
                    .into_iter()
                    .map(|h| h.join().expect("reference pass panicked"))
                    .fold(own, f64::max)
            })
        };
    }
    median(&passes)
}

/// Median of `xs` (mean of the middle two for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank `p`-quantile of an ascending slice; 0 if empty.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.5), 2.0);
        assert_eq!(quantile_sorted(&s, 0.99), 4.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }
}
