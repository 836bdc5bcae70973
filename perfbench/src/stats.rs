//! Percentiles and host facts for the report.

/// Nearest-rank `pct`-th percentile of `v`; 0 when empty.
pub fn percentile(v: &[f64], pct: u32) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (u64::from(pct) * s.len() as u64).div_ceil(100).max(1) as usize;
    s[rank - 1]
}

/// The highest whole percentile whose nearest-rank value leaves at least
/// ten of `n` samples above it; `None` below eleven samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 11 {
        return None;
    }
    Some((100 * (n - 10) / n) as u32)
}

/// Peak resident set of this process in MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Returns the allocator's free memory to the kernel, so every pass starts
/// from the same resident set and `peak_rss_mb` does not grow with the
/// fragmentation earlier passes left behind. A no-op off glibc.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's malloc_trim takes no pointers, only releases
        // free heap pages, and is safe to call from any thread at any time.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// The host a result was measured on: `nproc`, CPU model, compiler and
/// commit, so results from different hosts are labelled as such.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\" git={}", git_sha())
}

/// The commit of the working directory's checkout, or `"unknown"`. Only
/// `./.git` is consulted, so the lookup never reads above the checkout.
pub fn git_sha() -> String {
    let sha = if std::path::Path::new(".git/HEAD").is_file() {
        cmm_bench::journal::git_sha()
    } else {
        None
    };
    sha.unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        for n in 11..500 {
            let p = tail_percentile(n).unwrap();
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let at = percentile(&v, p);
            assert!(v.iter().filter(|&&x| x > at).count() >= 10, "n={n} p={p}");
            // One percent higher would leave fewer than ten.
            if p < 99 {
                let higher = percentile(&v, p + 1);
                assert!(v.iter().filter(|&&x| x > higher).count() < 10 || higher == at);
            }
        }
        assert_eq!(tail_percentile(10), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 50), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 100), 4.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }
}
