//! The engine's fleet scheduler.
//!
//! A fleet is known up front, and it is usually *skewed*: a handful of
//! 500-edge networks among thousands of 2-link Pigou instances. Equal-count
//! chunks leave whichever thread drew the big scenarios running long after
//! the others went idle. Instead:
//!
//! 1. **Cost model.** Every scenario gets an a-priori cost estimate from
//!    its size, class, and task ([`scenario_cost`]): the parallel-link
//!    equalizer is near-linear in links, Frank–Wolfe networks pay per-edge
//!    per-iteration, curve tasks multiply by their α samples.
//! 2. **Heaviest first.** The fleet is sorted by descending cost (stable,
//!    so equal costs keep input order) and every worker claims the next
//!    job from one shared atomic index. The long jobs start first; the
//!    cheap ones fill in around them, so all workers finish close together.
//!
//! Results are pushed to the caller's sink **on the calling thread** as
//! they complete (workers send over a channel), so sinks need neither
//! `Send` nor locking, and a million-scenario run holds at most the
//! in-flight window in memory. Barring cancellation, the sink is invoked
//! exactly once per input index; a scenario whose solve panics is
//! delivered as [`SoptError::WorkerPanic`], and its worker survives to take
//! the next job.

use std::cmp::Reverse;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use parking_lot::Mutex;

use super::super::error::SoptError;
use super::super::report::Report;
use super::super::scenario::{Scenario, ScenarioClass};
use super::super::solve::{run_with, run_with_memo, SolveOptions, Task};
use super::cache::{SolveCache, SubMemo};
use super::fingerprint::Fingerprint;
use super::EngineStats;

/// Per-worker bound of the worker→sink channel: the largest number of
/// completed-but-undelivered reports the engine holds for a slow sink.
const SINK_WINDOW: usize = 64;

/// Estimated solve cost of one scenario under the engine's cost model:
/// `size × class weight × task weight`, in arbitrary units. Only relative
/// magnitudes matter — the scheduler uses this to start heavy jobs first.
/// Saturating throughout: it runs before [`SolveOptions`] are validated.
fn scenario_cost(scenario: &Scenario, options: &SolveOptions) -> u64 {
    let m = scenario.size().max(1) as u64;
    // Class weight: the parallel-link equalizer bisects in ~linear work per
    // solve; network classes run Frank–Wolfe, whose per-iteration shortest
    // paths and line searches scale superlinearly with edges.
    let class = match scenario.class() {
        ScenarioClass::Parallel => m,
        ScenarioClass::Network => m.saturating_mul(m),
        ScenarioClass::Multi => 2u64.saturating_mul(m).saturating_mul(m),
    };
    let steps = options.steps as u64;
    // Task weight: how many equilibrium-grade solves the task performs.
    let task = match options.task {
        Task::Beta => 4,
        Task::Curve => steps.saturating_add(1).saturating_mul(2),
        Task::Equilib => 2,
        Task::Tolls => 3,
        Task::Llf => 2,
        // Candidate/grid evaluations plus the revenue-vs-β sweep, each an
        // equilibrium-grade induced solve.
        Task::Pricing => (options.price_steps as u64)
            .saturating_add(steps)
            .saturating_add(2),
    };
    class.saturating_mul(task).max(1)
}

/// Per-run report-table traffic, counted by the scheduler itself so the
/// numbers stay exact even when several concurrent runs share one
/// [`SolveCache`] (whose own counters are cumulative across runs).
#[derive(Default)]
pub(crate) struct RunCounters {
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
}

/// Solves one scenario, consulting and feeding the memo cache. Shared by
/// the fleet scheduler below and the serve pool
/// ([`super::super::serve`]), so both paths hit (and persist through) the
/// same first- and second-level caches.
pub(crate) fn cached_solve(
    scenario: Scenario,
    options: &SolveOptions,
    cache: Option<&SolveCache>,
    counters: &RunCounters,
) -> Result<Report, SoptError> {
    let fp = cache.and_then(|_| Fingerprint::of(&scenario, options));
    if let (Some(cache), Some(fp)) = (cache, &fp) {
        if let Some(found) = cache.get_report(fp) {
            counters.hits.fetch_add(1, Ordering::Relaxed);
            return found;
        }
        counters.misses.fetch_add(1, Ordering::Relaxed);
        let memo = SubMemo {
            cache,
            spec: &fp.spec,
        };
        let result = run_with_memo(scenario, options, Some(&memo));
        cache.put_report(fp.clone(), result.clone());
        return result;
    }
    run_with(scenario, options)
}

/// Solves one job with per-scenario panic containment.
fn solve_job(
    index: usize,
    scenario: Scenario,
    options: &SolveOptions,
    cache: Option<&SolveCache>,
    counters: &RunCounters,
) -> (usize, Result<Report, SoptError>) {
    let result = catch_unwind(AssertUnwindSafe(|| {
        cached_solve(scenario, options, cache, counters)
    }))
    .unwrap_or(Err(SoptError::WorkerPanic { index }));
    (index, result)
}

/// The fleet as `(input index, scenario)` jobs in claim order: heaviest
/// first by [`scenario_cost`], equal costs in input order. Each scenario
/// sits in its own slot so exactly one worker can take it out.
fn claim_order(
    scenarios: Vec<Scenario>,
    options: &SolveOptions,
) -> Vec<(usize, Mutex<Option<Scenario>>)> {
    let mut jobs: Vec<(u64, usize, Scenario)> = scenarios
        .into_iter()
        .enumerate()
        .map(|(index, scenario)| (scenario_cost(&scenario, options), index, scenario))
        .collect();
    jobs.sort_by_key(|&(cost, ..)| Reverse(cost)); // stable
    jobs.into_iter()
        .map(|(_, index, scenario)| (index, Mutex::new(Some(scenario))))
        .collect()
}

/// Runs a fleet through the scheduler, delivering every result to `sink`
/// as `(input index, result)` in completion order on the calling thread.
///
/// `cancel` (when provided) is polled between jobs: once set, workers stop
/// taking new jobs and the run winds down without delivering the remainder.
/// Absent cancellation, every index in `0..scenarios.len()` is delivered
/// exactly once.
pub(crate) fn execute<F>(
    scenarios: Vec<Scenario>,
    options: &SolveOptions,
    threads: usize,
    cache: Option<&SolveCache>,
    cancel: Option<&AtomicBool>,
    mut sink: F,
) -> EngineStats
where
    F: FnMut(usize, Result<Report, SoptError>),
{
    let n = scenarios.len();
    let mut stats = EngineStats {
        scenarios: n,
        ..EngineStats::default()
    };
    if n == 0 {
        return stats;
    }
    let before = cache.map(|c| c.counters()).unwrap_or_default();
    let threads = threads.clamp(1, n);
    let cancelled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let counters = RunCounters::default();

    if threads == 1 {
        // Sequential fast path: no channel — and completion order equals
        // input order, which the streaming tests rely on.
        for (index, scenario) in scenarios.into_iter().enumerate() {
            if cancelled() {
                break;
            }
            let (index, result) = solve_job(index, scenario, options, cache, &counters);
            stats.delivered += 1;
            sink(index, result);
        }
    } else {
        let jobs = claim_order(scenarios, options);
        // Relaxed suffices: the read-modify-write hands each position to
        // exactly one worker, the job list was built before the workers
        // spawned, and each scenario is handed over through its own lock.
        let next = AtomicUsize::new(0);
        // Bounded: a sink that stalls (a blocked downstream pipe, a
        // consumer that stops pulling) blocks the workers instead of
        // buffering the fleet's reports — the engine's streaming memory
        // contract. The bound is the in-flight window per worker.
        let (tx, rx) =
            mpsc::sync_channel::<(usize, Result<Report, SoptError>)>(threads * SINK_WINDOW);
        let mut delivered = vec![false; n];
        crossbeam::thread::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (jobs, next, counters) = (&jobs, &next, &counters);
                s.spawn(move |_| {
                    while !cancelled() {
                        let Some((index, slot)) = jobs.get(next.fetch_add(1, Ordering::Relaxed))
                        else {
                            break;
                        };
                        let scenario = slot.lock().take().expect("each job is claimed once");
                        let done = solve_job(*index, scenario, options, cache, counters);
                        if tx.send(done).is_err() {
                            break; // receiver gone: the run was abandoned
                        }
                    }
                });
            }
            drop(tx); // the workers hold the remaining senders
            for (index, result) in rx {
                delivered[index] = true;
                stats.delivered += 1;
                sink(index, result);
            }
        })
        .expect("engine workers contain panics per scenario");
        // Belt and braces: should a worker thread die outside the per-job
        // catch, its undelivered indices still reach the sink.
        if !cancelled() {
            for (index, seen) in delivered.iter().enumerate() {
                if !seen {
                    stats.delivered += 1;
                    sink(index, Err(SoptError::WorkerPanic { index }));
                }
            }
        }
    }

    // Report-table traffic is counted per run (exact under concurrent
    // sharing); the equilibrium numbers are before/after deltas of the
    // cache's cumulative counters, so they include any traffic a
    // concurrently-running engine put on the same shared cache.
    stats.cache_hits = counters.hits.load(Ordering::Relaxed);
    stats.cache_misses = counters.misses.load(Ordering::Relaxed);
    if let Some(c) = cache {
        let after = c.counters();
        stats.eq_hits = after.eq_hits - before.eq_hits;
        stats.eq_misses = after.eq_misses - before.eq_misses;
        stats.net_profile_hits = after.net_hits - before.net_hits;
        stats.net_profile_misses = after.net_misses - before.net_misses;
        stats.disk_hits = after.disk_hits - before.disk_hits;
        stats.profile_evictions = after.profile_evictions - before.profile_evictions;
        stats.report_evictions = after.report_evictions - before.report_evictions;
    }
    stats
}

/// A closable, blocking max-priority queue — the serve daemon's work
/// source. Higher [`priority`](PriorityQueue::push) pops first; ties pop
/// in arrival order (FIFO), so equal-priority requests are never starved
/// or reordered. Unlike the fleet path above (whole fleet known up front,
/// sorted once by cost), serve work arrives over time, so ordering lives in
/// a heap that grows as requests are pushed.
pub(crate) struct PriorityQueue<T> {
    inner: std::sync::Mutex<QueueInner<T>>,
    cv: std::sync::Condvar,
}

struct QueueInner<T> {
    heap: std::collections::BinaryHeap<QueueEntry<T>>,
    seq: u64,
    closed: bool,
}

struct QueueEntry<T> {
    priority: i64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for QueueEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl<T> Eq for QueueEntry<T> {}
impl<T> PartialOrd for QueueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for QueueEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: highest priority first, then lowest sequence (FIFO).
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> Default for PriorityQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PriorityQueue<T> {
    pub(crate) fn new() -> Self {
        PriorityQueue {
            inner: std::sync::Mutex::new(QueueInner {
                heap: std::collections::BinaryHeap::new(),
                seq: 0,
                closed: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    /// Enqueues `item`. Pushing to a closed queue is a no-op (the item is
    /// dropped) — callers close only after the last push.
    pub(crate) fn push(&self, priority: i64, item: T) {
        let mut q = self.inner.lock().expect("queue lock poisoned");
        if q.closed {
            return;
        }
        let seq = q.seq;
        q.seq += 1;
        q.heap.push(QueueEntry {
            priority,
            seq,
            item,
        });
        drop(q);
        self.cv.notify_one();
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained; `None` means no item will ever arrive again.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut q = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(entry) = q.heap.pop() {
                return Some(entry.item);
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).expect("queue lock poisoned");
        }
    }

    /// Marks the queue closed: pending items still pop; blocked and future
    /// `pop`s return `None` once the heap drains.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.cv.notify_all();
    }

    /// Items currently queued (diagnostic; racy by nature).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_model_orders_classes_and_sizes() {
        let opts = SolveOptions::default();
        let tiny = Scenario::parse("x, 1.0").unwrap();
        let big = Scenario::parse(&vec!["x"; 64].join(", ")).unwrap();
        let net = Scenario::parse("nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0").unwrap();
        assert!(scenario_cost(&big, &opts) > scenario_cost(&tiny, &opts));
        assert!(scenario_cost(&net, &opts) > scenario_cost(&tiny, &opts));
        let curve = SolveOptions {
            task: Task::Curve,
            steps: 100,
            ..SolveOptions::default()
        };
        assert!(scenario_cost(&tiny, &curve) > scenario_cost(&tiny, &opts));
        // Costs are computed before the knobs are validated, so absurd step
        // counts must saturate rather than overflow.
        for task in [Task::Curve, Task::Pricing] {
            let huge = SolveOptions {
                task,
                steps: usize::MAX,
                price_steps: usize::MAX,
                ..SolveOptions::default()
            };
            assert_eq!(scenario_cost(&net, &huge), u64::MAX);
        }
    }

    #[test]
    fn claim_order_is_heaviest_first_and_stable() {
        let opts = SolveOptions::default();
        let fleet: Vec<Scenario> = [
            "x, 1.0",
            "x, x, x",
            "x, 2x",
            "nodes=2; 0->1: x; 0->1: 1.0; demand 0->1: 1.0",
            "x, 1.0 @ 2",
            "x, 2x, 3x",
        ]
        .iter()
        .map(|s| Scenario::parse(s).unwrap())
        .collect();
        let order: Vec<usize> = claim_order(fleet.clone(), &opts)
            .iter()
            .map(|(index, _)| *index)
            .collect();
        // The network first, then the 3-link pair, then the 2-link trio —
        // each tie in input order.
        assert_eq!(order, vec![3, 1, 5, 0, 2, 4]);
        // Every index is claimed and delivered exactly once.
        let mut seen = vec![0usize; fleet.len()];
        let stats = execute(fleet, &opts, 3, None, None, |i, r| {
            assert!(r.is_ok(), "{r:?}");
            seen[i] += 1;
        });
        assert_eq!(seen, vec![1; 6]);
        assert_eq!((stats.delivered, stats.steals), (6, 0));
    }

    #[test]
    fn lpt_seeding_balances_skew() {
        // One huge job (last in input order) + 7 tiny on 2 workers. Claiming
        // heaviest first from one shared index is list scheduling in LPT
        // order: replay it on the cost model, and the huge job must sit alone.
        let opts = SolveOptions::default();
        let mut fleet = vec![Scenario::parse("x, 1.0").unwrap(); 7];
        fleet.push(Scenario::parse(&vec!["x"; 64].join(", ")).unwrap());
        let (huge, tiny) = (
            scenario_cost(&fleet[7], &opts),
            scenario_cost(&fleet[0], &opts),
        );
        assert!(huge > 7 * tiny, "{huge} vs {tiny}");
        let order = claim_order(fleet.clone(), &opts);
        assert_eq!(order[0].0, 7, "the huge job is claimed first");
        // Each next position goes to whichever worker frees up first.
        let mut loads = [0u64; 2];
        for (index, _) in &order {
            let w = if loads[0] <= loads[1] { 0 } else { 1 };
            loads[w] += scenario_cost(&fleet[*index], &opts);
        }
        assert!(loads.contains(&huge), "{loads:?}");
        assert!(loads.contains(&(7 * tiny)), "{loads:?}");
    }

    #[test]
    fn stealing_drains_a_lopsided_queue() {
        // A lopsided fleet: one worker sits on the heavy network while the
        // other must drain every cheap job through the shared index.
        let opts = SolveOptions::default();
        let mut fleet = vec![Scenario::parse("x, 1.0").unwrap(); 9];
        fleet.push(
            Scenario::parse("nodes=3; 0->1: x; 1->2: x; 0->2: 1.0; demand 0->2: 1.0").unwrap(),
        );
        let mut seen = vec![0usize; fleet.len()];
        let stats = execute(fleet, &opts, 2, None, None, |i, r| {
            assert!(r.is_ok(), "{r:?}");
            seen[i] += 1;
        });
        assert_eq!(seen, vec![1; 10]);
        assert_eq!((stats.delivered, stats.steals), (10, 0));
    }

    #[test]
    fn priority_queue_orders_by_priority_then_fifo() {
        let q: PriorityQueue<&'static str> = PriorityQueue::new();
        q.push(0, "first-default");
        q.push(0, "second-default");
        q.push(5, "urgent");
        q.push(-3, "background");
        q.close();
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some("urgent"));
        assert_eq!(q.pop(), Some("first-default"));
        assert_eq!(q.pop(), Some("second-default"));
        assert_eq!(q.pop(), Some("background"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None); // closed stays closed
        q.push(9, "late"); // push-after-close is dropped
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn priority_queue_unblocks_waiting_workers() {
        let q = std::sync::Arc::new(PriorityQueue::<u32>::new());
        let q2 = std::sync::Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = q2.pop() {
                got.push(v);
            }
            got
        });
        q.push(1, 10);
        q.push(2, 20);
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got.iter().sum::<u32>(), 30);
    }
}
