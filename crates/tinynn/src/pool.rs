//! There is no worker pool (DESIGN.md §16 records why). `benchmark/src/{main,
//! probes}.rs` were written against one and may not be edited, so these
//! stateless shims keep them linking until the next `benchmark` PR.
#![doc(hidden)]

pub fn set_threads(_n: usize) {}

pub fn threads() -> usize {
    1
}

pub fn default_threads() -> usize {
    1
}

pub fn run_chunks(n_chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    (0..n_chunks).for_each(f);
}
