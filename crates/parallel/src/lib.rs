//! # seizure-parallel
//!
//! Dependency-free data parallelism for the record-level feature engines
//! and forest fitting.
//!
//! The build environment has no crates.io access, so instead of `rayon` the
//! batch paths fan out over [`std::thread::scope`]: a flat row-major output
//! buffer is split into contiguous row blocks, one per worker, and each
//! worker processes its block with a private scratch workspace. This is
//! exactly the shape the feature extractors need — disjoint output rows,
//! shared read-only input — so a full work-stealing pool would buy nothing
//! on these regular workloads. [`par_map_init`] fans the trainer's trees out
//! the same way. Batch prediction runs on the calling thread.
//!
//! The worker count is the machine's available parallelism unless the
//! `SEIZURE_NUM_THREADS` environment variable pins it. The variable is read
//! once, on the first fan-out, and the value holds for the rest of the
//! process.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of worker threads to fan out across: the machine's available
/// parallelism, overridable (and capped to 1) with the
/// `SEIZURE_NUM_THREADS` environment variable. Read on first use and cached
/// for the life of the process, so a fan-out never touches the environment.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        if let Ok(value) = std::env::var("SEIZURE_NUM_THREADS") {
            if let Ok(n) = value.trim().parse::<usize>() {
                return n.max(1);
            }
        }
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Minimum number of rows per worker below which threading overhead is not
/// worth paying and the work runs on the calling thread.
const MIN_ROWS_PER_WORKER: usize = 8;

/// Processes a flat row-major buffer in parallel.
///
/// `data` is interpreted as rows of `row_len` values. The buffer is split
/// into contiguous blocks of rows, and `f` is invoked once per block with the
/// index of the block's first row and the mutable block slice. Workers run on
/// scoped threads; the first error (in row order) is returned.
///
/// `f` typically creates one scratch workspace per invocation, so per-window
/// state is allocated once per worker rather than once per row.
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `data.len()`.
pub fn par_process_rows<E, F>(data: &mut [f64], row_len: usize, f: F) -> Result<(), E>
where
    F: Fn(usize, &mut [f64]) -> Result<(), E> + Sync,
    E: Send,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(
        data.len() % row_len,
        0,
        "buffer length must be a multiple of row_len"
    );
    let rows = data.len() / row_len;
    let workers = num_threads().min(rows / MIN_ROWS_PER_WORKER.max(1)).max(1);
    if workers <= 1 {
        return f(0, data);
    }
    let rows_per_block = rows.div_ceil(workers);
    let block_len = rows_per_block * row_len;
    let mut results: Vec<Option<Result<(), E>>> = Vec::new();
    results.resize_with(workers, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (block_idx, block) in data.chunks_mut(block_len).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || (block_idx, f(block_idx * rows_per_block, block))));
        }
        for handle in handles {
            let (block_idx, result) = handle.join().expect("parallel worker panicked");
            results[block_idx] = Some(result);
        }
    });
    for result in results.into_iter().flatten() {
        result?;
    }
    Ok(())
}

/// Maps `f` over the indices `0..count` in parallel, with one lazily created
/// per-worker state shared by all indices a worker processes.
///
/// The index range is split into contiguous blocks, one per scoped worker
/// thread; each worker builds its state once with `make_state` and then maps
/// its block in order. Results come back in index order. The first error (in
/// index order, whether from `make_state` or from `f`) is returned.
///
/// This is the task-parallel sibling of [`par_process_rows`]: instead of
/// disjoint rows of one flat `f64` buffer, each index produces an owned value
/// (e.g. one fitted decision tree), so the training engine can fan tree
/// fitting out across cores while every tree keeps its own deterministic RNG
/// stream.
///
/// `min_per_worker` controls the serial cutoff: when fewer than that many
/// indices would land on each worker, everything runs on the calling thread.
pub fn par_map_init<S, T, E, MS, F>(
    count: usize,
    min_per_worker: usize,
    make_state: MS,
    f: F,
) -> Result<Vec<T>, E>
where
    MS: Fn() -> Result<S, E> + Sync,
    F: Fn(&mut S, usize) -> Result<T, E> + Sync,
    T: Send,
    E: Send,
{
    let run_block = |range: std::ops::Range<usize>| -> Result<Vec<T>, E> {
        if range.is_empty() {
            return Ok(Vec::new());
        }
        let mut state = make_state()?;
        let mut out = Vec::with_capacity(range.len());
        for i in range {
            out.push(f(&mut state, i)?);
        }
        Ok(out)
    };
    let workers = num_threads().min(count / min_per_worker.max(1)).max(1);
    if workers <= 1 {
        return run_block(0..count);
    }
    let per_block = count.div_ceil(workers);
    let mut results: Vec<Option<Result<Vec<T>, E>>> = Vec::new();
    results.resize_with(workers, || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for block_idx in 0..workers {
            let run_block = &run_block;
            let start = block_idx * per_block;
            let end = (start + per_block).min(count);
            handles.push(scope.spawn(move || (block_idx, run_block(start..end))));
        }
        for handle in handles {
            let (block_idx, result) = handle.join().expect("parallel worker panicked");
            results[block_idx] = Some(result);
        }
    });
    let mut out = Vec::with_capacity(count);
    for result in results.into_iter().flatten() {
        out.extend(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_every_row_exactly_once() {
        let rows = 1000;
        let row_len = 3;
        let mut data = vec![0.0; rows * row_len];
        par_process_rows::<std::convert::Infallible, _>(&mut data, row_len, |start, block| {
            for (r, row) in block.chunks_mut(row_len).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (start + r) as f64 * 10.0 + c as f64;
                }
            }
            Ok(())
        })
        .unwrap();
        for r in 0..rows {
            for c in 0..row_len {
                assert_eq!(data[r * row_len + c], r as f64 * 10.0 + c as f64);
            }
        }
    }

    #[test]
    fn small_batches_run_serially() {
        let mut data = vec![0.0; 4];
        par_process_rows::<std::convert::Infallible, _>(&mut data, 1, |start, block| {
            assert_eq!(start, 0);
            assert_eq!(block.len(), 4);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn first_error_in_row_order_wins() {
        let mut data = vec![0.0; 64];
        let err = par_process_rows(&mut data, 1, |start, _block| {
            if start == 0 {
                Err("first")
            } else {
                Err("later")
            }
        });
        // Serial fallback or parallel: the reported error must be the one
        // from the earliest failing block.
        assert_eq!(err.unwrap_err(), "first");
    }

    #[test]
    fn par_map_init_preserves_index_order() {
        let results = par_map_init::<u32, usize, &str, _, _>(
            97,
            1,
            || Ok(0u32),
            |state, i| {
                *state += 1;
                Ok(i * 3)
            },
        )
        .unwrap();
        assert_eq!(results.len(), 97);
        for (i, v) in results.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn par_map_init_handles_empty_and_errors() {
        let empty = par_map_init::<(), usize, &str, _, _>(0, 1, || Ok(()), |_, i| Ok(i)).unwrap();
        assert!(empty.is_empty());
        let err = par_map_init::<(), usize, _, _, _>(
            64,
            1,
            || Ok(()),
            |_, i| if i >= 10 { Err(i) } else { Ok(i) },
        );
        // First error in index order wins regardless of worker count.
        assert_eq!(err.unwrap_err(), 10);
    }

    #[test]
    #[should_panic(expected = "multiple of row_len")]
    fn rejects_misaligned_buffer() {
        let mut data = vec![0.0; 5];
        let _ = par_process_rows::<std::convert::Infallible, _>(&mut data, 2, |_, _| Ok(()));
    }
}
