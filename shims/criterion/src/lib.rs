//! Offline stand-in for `criterion`.
//!
//! The five paper-figure benches in `wbft-bench` are plain `fn main`
//! programs (`harness = false`) and do not use criterion today; this shim
//! exists so future statistical microbenchmarks can be written against the
//! familiar API (`criterion_group!`/`criterion_main!`, `bench_function`,
//! `iter`, `black_box`) and upgraded in place once registry access exists.
//! It reports a simple mean over a fixed iteration count — no warmup,
//! outlier analysis, or HTML reports.

use std::time::Instant;

pub struct Criterion {
    iterations: u32,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { iterations: 100 }
    }
}

impl Criterion {
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher { iterations: self.iterations, total_ns: 0, iters_run: 0 };
        f(&mut b);
        let mean = if b.iters_run > 0 { b.total_ns / b.iters_run as u128 } else { 0 };
        println!("{name:<40} {mean:>12} ns/iter ({} iters)", b.iters_run);
        self
    }
}

pub struct Bencher {
    iterations: u32,
    total_ns: u128,
    iters_run: u64,
}

impl Bencher {
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        for _ in 0..self.iterations {
            let t = Instant::now();
            black_box(f());
            self.total_ns += t.elapsed().as_nanos();
            self.iters_run += 1;
        }
    }
}

/// Identity function that defeats constant-propagation of its argument.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn bench_function_runs_closure() {
        let mut c = super::Criterion { iterations: 3 };
        let mut ran = 0u32;
        c.bench_function("smoke", |b| {
            b.iter(|| ran += 1);
        });
        assert_eq!(ran, 3);
    }
}
