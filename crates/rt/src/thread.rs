//! Scoped-thread fan-out built on [`std::thread::scope`].
//!
//! The workspace's parallelism is embarrassingly simple: N workers over
//! borrowed read-only state, join all, merge. This module packages that
//! shape so call sites never touch `std::thread` plumbing (and so no
//! external scoped-thread crate is needed).

/// Runs `f(0), f(1), …, f(tasks - 1)` on `tasks` scoped threads and
/// returns the results **in task order** (not completion order) — callers
/// that reduce floating-point partials get a deterministic reduction
/// order for free.
///
/// `tasks == 0` returns an empty vector; `tasks == 1` runs inline on the
/// caller's thread (no spawn overhead for the sequential case).
///
/// # Panics
///
/// Propagates the panic of any worker.
pub fn fan_out<R, F>(tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    match tasks {
        0 => Vec::new(),
        1 => vec![f(0)],
        _ => std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..tasks).map(|t| scope.spawn(move || f(t))).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(r) => r,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        }),
    }
}

/// Splits `items` across up to `threads` workers, applies `f` to every
/// item, and returns one result per item **in item order**. The
/// assignment of items to workers is static (contiguous chunks), so runs
/// are reproducible for any thread count.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let threads = threads.max(1).min(items.len());
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut items = items;
    // Drain front-to-back so chunk i holds items [i*chunk, (i+1)*chunk).
    while !items.is_empty() {
        let rest = items.split_off(chunk.min(items.len()));
        chunks.push(std::mem::replace(&mut items, rest));
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

/// A sensible worker count: the machine's parallelism, with a fallback.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_preserves_task_order() {
        let r = fan_out(8, |t| t * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn fan_out_zero_and_one() {
        assert!(fan_out(0, |t| t).is_empty());
        assert_eq!(fan_out(1, |t| t + 5), vec![5]);
    }

    #[test]
    fn fan_out_borrows_environment() {
        let data = [1u64, 2, 3, 4];
        let sums = fan_out(2, |t| data.iter().skip(t * 2).take(2).sum::<u64>());
        assert_eq!(sums, vec![3, 7]);
    }

    #[test]
    #[should_panic(expected = "worker 3 exploded")]
    fn fan_out_propagates_panics() {
        fan_out(5, |t| {
            if t == 3 {
                panic!("worker {t} exploded");
            }
            t
        });
    }

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(items.clone(), 7, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_more_threads_than_items() {
        assert_eq!(parallel_map(vec![1, 2], 16, |x| x + 1), vec![2, 3]);
        assert!(parallel_map(Vec::<u64>::new(), 4, |x| x).is_empty());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
