//! Small helpers shared by the workloads: host facts, order statistics,
//! a fixed-size parallel map and a digest.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

pub type Res<T> = Result<T, String>;

/// An error from any layer, as the message the run reports.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Worker threads every workload runs at: the host's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process in MiB (`VmRSS`), or 0.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the peak resident set (`VmHWM`) to the current resident set,
/// after handing freed heap back to the system, so that `peak_rss_mb`
/// covers only what the process does after this call. False when the
/// kernel does not allow the reset.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only returns free heap pages to the
    // system; it takes no pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// Quantile `q` in [0, 1] by linear interpolation between order
/// statistics; NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Applies `f` to every item on `threads` scoped worker threads, handing
/// out items one at a time; results come back in item order.
pub fn par_map<I: Sync, T: Send>(
    items: &[I],
    threads: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut out: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("parallel map worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, t)| t).collect()
}

/// A 128-bit digest of a stream of 64-bit words: two multiplicative
/// hash streams with different seeds and multipliers. For a fixed rest
/// of the stream each step is a bijection of the state, so streams that
/// differ in one word always differ in digest. It guards against wrong
/// outputs, not against adversaries.
pub struct Digest(u64, u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325, 0x6C62_272E_07BB_0142)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01B3);
        self.1 = (self.1 ^ w.rotate_left(31)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
        self.word(b.len() as u64);
    }

    pub fn finish(&self) -> u128 {
        (u128::from(self.0) << 64) | u128::from(self.1)
    }
}

/// SplitMix64: the benchmark's own deterministic stream, used to derive
/// generator seeds and the serve request order from the workload seed.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_tells_streams_apart() {
        let d = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.word(w));
            d.finish()
        };
        assert_eq!(d(&[1, 2, 3]), d(&[1, 2, 3]));
        assert_ne!(d(&[1, 2, 3]), d(&[1, 2, 4]));
        assert_ne!(d(&[1, 2, 3]), d(&[2, 1, 3]));
        let b = |bytes: &[u8]| {
            let mut d = Digest::default();
            d.bytes(bytes);
            d.finish()
        };
        assert_ne!(b(b"ab"), b(b"ab\0"));
    }

    #[test]
    fn par_map_keeps_order() {
        let items: Vec<u32> = (0..50).collect();
        assert_eq!(
            par_map(&items, 3, |x| x * 2),
            (0..50).map(|x| x * 2).collect::<Vec<_>>()
        );
    }
}
