//! This machine's measured ceilings: STREAM-triad bandwidth and f32
//! multiply-add peak, each at one thread and at `nproc` threads. Layer
//! rates in the traced run are reported as fractions of these.

use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Ceilings {
    pub llc_bytes: usize,
    /// Bytes of one triad array; three are live at once.
    pub array_bytes: usize,
    pub threads: usize,
    pub triad_gbs_1t: f64,
    pub triad_gbs_nt: f64,
    pub fma_gflops_1t: f64,
    pub fma_gflops_nt: f64,
}

/// Size of the last-level cache from sysfs, or 32 MiB when unknown.
pub fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let level = std::fs::read_to_string(format!("{dir}/level"))
            .ok()
            .and_then(|s| s.trim().parse::<u32>().ok());
        let size = std::fs::read_to_string(format!("{dir}/size"))
            .ok()
            .and_then(|s| parse_size(s.trim()));
        if let (Some(level), Some(size)) = (level, size) {
            if level >= best.0 {
                best = (level, size);
            }
        }
    }
    if best.1 == 0 {
        32 << 20
    } else {
        best.1
    }
}

fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// `a = b + s * c` over `threads` contiguous slices; returns GB/s counting
/// 24 bytes per element (two reads, one write), as STREAM does.
fn triad(a: &mut [f64], b: &[f64], c: &[f64], threads: usize, reps: usize) -> f64 {
    let per = a.len().div_ceil(threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                s.spawn(move || {
                    let scalar = black_box(3.0f64);
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + scalar * z;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        black_box(&a[a.len() / 2]);
    }
    (a.len() * 24) as f64 / best / 1e9
}

const LANES: usize = 128;

/// Independent multiply-add chains, wide enough to fill the vector units.
fn fma_chains(iters: u64) -> f32 {
    let mut acc = [0.0f32; LANES];
    let (m, k) = (black_box(0.999_9f32), black_box(1e-4f32));
    for _ in 0..iters {
        for x in acc.iter_mut() {
            *x = *x * m + k;
        }
    }
    acc.iter().sum()
}

/// f32 multiply-add GFLOP/s (two flops per lane per iteration).
fn fma_peak(threads: usize, iters: u64, reps: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(move || black_box(fma_chains(black_box(iters))));
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (threads as u64 * iters * LANES as u64 * 2) as f64 / best / 1e9
}

/// Measures every ceiling; takes about a second and `~4x LLC` of memory,
/// which is released before returning.
pub fn measure() -> Ceilings {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = llc_bytes();
    // The three arrays together span at least 4x the last-level cache.
    let array_bytes = (4 * llc).div_ceil(3).max(16 << 20);
    let n = array_bytes / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let triad_gbs_1t = triad(&mut a, &b, &c, 1, 4);
    let triad_gbs_nt = triad(&mut a, &b, &c, threads, 4);
    drop((a, b, c));
    let iters = 400_000;
    Ceilings {
        llc_bytes: llc,
        array_bytes,
        threads,
        triad_gbs_1t,
        triad_gbs_nt,
        fma_gflops_1t: fma_peak(1, iters, 3),
        fma_gflops_nt: fma_peak(threads, iters, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
    }

    #[test]
    fn kernels_report_positive_rates() {
        let (mut a, b, c) = (vec![0.0; 1 << 16], vec![1.0; 1 << 16], vec![2.0; 1 << 16]);
        assert!(triad(&mut a, &b, &c, 2, 1) > 0.0);
        assert_eq!(a[7], 7.0);
        assert!(fma_peak(1, 1000, 1) > 0.0);
    }
}
