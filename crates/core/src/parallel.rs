//! Parallel decoding across PSB-delimited shards.
//!
//! "With the help of packet stream boundary (PSB) packets, which are served
//! as sync points for the decoder, this process can be done in parallel to
//! further accelerate the decoding" (§5.3). The slow path decodes each
//! shard independently on the reusable [`WorkerPool`]; its sequential
//! stitch pass keeps the result bit-identical to a serial decode.

use crate::pool::WorkerPool;

/// Fans `spans` of `buf` out across the pool, applying `work` to each span
/// in a strided distribution, and returns the results in span order.
///
/// The slow path's fan-out: the spans are PSB-delimited shards and `work`
/// is a full flow decode of one shard.
pub(crate) fn run_sharded<T, F>(
    pool: &WorkerPool,
    buf: &[u8],
    spans: &[(usize, usize)],
    work: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &[u8]) -> T + Sync,
{
    let workers = spans.len().min(pool.size());
    if workers <= 1 {
        return spans.iter().enumerate().map(|(i, &(s, e))| work(i, &buf[s..e])).collect();
    }
    let work = &work;
    let tasks: Vec<_> = (0..workers)
        .map(|w| {
            move || {
                spans
                    .iter()
                    .enumerate()
                    .skip(w)
                    .step_by(workers)
                    .map(|(i, &(s, e))| (i, work(i, &buf[s..e])))
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let mut results: Vec<(usize, T)> = pool.run(tasks).into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, t)| t).collect()
}
