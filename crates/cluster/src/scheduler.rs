//! Slot-wave scheduling of job DAGs over `nodes × slots`, with locality
//! preference, retry on task failure, and node-failure handling.
//!
//! The scheduler is a discrete-event simulation. When a task is assigned to
//! a slot its logic executes *immediately* (real or phantom math against
//! the shared tile store), producing a receipt; the hardware model turns
//! the receipt into a simulated duration and a completion event is
//! scheduled. Simulated time therefore advances only through the event
//! queue and is fully deterministic for a given seed.
//!
//! ## Lookahead speculation (host parallelism)
//!
//! With `threads > 1`, Real-mode task *compute* runs ahead of simulated
//! time on a persistent worker pool (`SpecPool`, created once per run).
//! The moment a job's dependencies complete, all its tasks are enqueued;
//! workers execute each one against a recording [`TaskCtx`] that logs every
//! context interaction ([`crate::job::TaskOp`]) without touching the DFS.
//! When the DES loop later assigns the task to a slot, the recorded log is
//! *replayed* against a fresh context bound to the real node: replayed
//! reads recompute canonical receipts from DFS metadata alone and are
//! validated by the content version each recorded read observed (a file's
//! first block id, a generated matrix's registration serial), so the DES
//! loop never touches tile data; a stale version or a read error discards
//! the speculation and the task runs inline at canonical time, which is
//! always sound. Replay preserves the exact operation order — including
//! f64 accumulation order — so results, receipts, reports, and placement
//! RNG draws are bitwise-identical at any thread count.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::TileStore;
use cumulon_trace::{JobSpan, PhaseBreakdown, TaskSpan, Trace, TraceEvent};

use crate::billing::{billed_hours, cluster_cost, BillingPolicy};
use crate::cluster::ClusterSpec;
use crate::des::{EventQueue, SimTime};
use crate::error::{ClusterError, Result};
use crate::hw::HardwareModel;
use crate::job::{ExecMode, JobDag, StagedWrite, TaskCtx, TaskFn, TaskOp, TaskReceipt};
use crate::metrics::{FaultStats, JobStats, RunReport, TaskStat};

/// Process-wide default worker-thread count, used when
/// [`SchedulerConfig::threads`] is `0`. Starts at `1` (sequential) so
/// library embedders opt into parallelism explicitly; binaries set it once
/// at startup via [`set_default_threads`].
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default worker-thread count that
/// [`SchedulerConfig::threads`]` == 0` resolves to. Passing `0` selects the
/// host's available parallelism.
pub fn set_default_threads(n: usize) {
    let n = if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    };
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The current process-wide default worker-thread count.
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::Relaxed).max(1)
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Maximum attempts per task before the run fails (Hadoop default: 4).
    pub max_attempts: u32,
    /// Hadoop-style speculative execution: when slots would otherwise idle,
    /// launch a backup copy of a straggling task; the first copy to finish
    /// wins and the other is killed.
    pub speculative: bool,
    /// A task is a straggler candidate once it has run longer than this
    /// factor times the mean duration of its job's completed tasks.
    pub speculation_factor: f64,
    /// Disable locality-aware task placement (ablation switch).
    pub ignore_locality: bool,
    /// Worker threads for task compute. `1` runs task logic inline in the
    /// DES loop (the legacy path); `N > 1` speculates task logic ahead of
    /// simulated time on a persistent pool of `N` workers, replaying each
    /// recording at canonical assignment time, which keeps the run
    /// bitwise-identical to a sequential one; `0` resolves to the
    /// process-wide default (see [`set_default_threads`]).
    pub threads: usize,
    /// Run lookahead speculation on the process-wide *shared* worker pool
    /// ([`shared_spec_pool`]) instead of a private per-run pool. Multiple
    /// concurrent runs then compete for the same workers, scheduled by
    /// [`SchedulerConfig::lane_priority`]. Results stay bitwise-identical
    /// either way: speculation is a cache of work the canonical replay
    /// validates, so pool contention only shifts *when* lookahead happens,
    /// never what the run computes.
    pub shared_pool: bool,
    /// Priority lane on the shared pool (higher runs first; FIFO within a
    /// lane). Ignored for private pools. A multi-tenant service maps
    /// tenant priorities here.
    pub lane_priority: u8,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_attempts: 4,
            speculative: false,
            speculation_factor: 1.5,
            ignore_locality: false,
            threads: 0,
            shared_pool: false,
            lane_priority: 0,
        }
    }
}

impl SchedulerConfig {
    /// Default config with speculative execution enabled.
    pub fn with_speculation() -> Self {
        SchedulerConfig {
            speculative: true,
            ..Default::default()
        }
    }

    /// Returns the config with an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A correlated bulk revocation: the spot market reclaims a set of nodes
/// at once, optionally after a warning. During the warning window the
/// scheduler stops assigning new tasks to the doomed nodes (in-flight
/// attempts drain normally) and the DFS proactively copies blocks that
/// live *only* on doomed nodes to survivors, within the byte budget the
/// lead window allows. Whatever cannot be drained is lost at `at_s` and
/// recovered via lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct Revocation {
    /// Simulated time the nodes are reclaimed.
    pub at_s: f64,
    /// Node ids reclaimed together. Out-of-range or already-dead ids are
    /// skipped (a market model may name nodes a shrunken cluster no
    /// longer has).
    pub nodes: Vec<u32>,
    /// Seconds of warning before `at_s` (0 = no warning, no drain).
    pub warning_lead_s: f64,
}

/// Failure injection plan.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    /// Independent probability that any task attempt fails.
    pub task_failure_prob: f64,
    /// `(time_s, node)` pairs: the node dies at that simulated time.
    pub node_failures: Vec<(f64, u32)>,
    /// Correlated bulk spot revocations (see [`Revocation`]).
    pub revocations: Vec<Revocation>,
    /// Seed for the failure coin flips.
    pub seed: u64,
}

impl FailurePlan {
    fn attempt_fails(&self, job: usize, task: usize, attempt: u32) -> bool {
        if self.task_failure_prob <= 0.0 {
            return false;
        }
        let key = self
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add((job as u64) << 32)
            .wrapping_add((task as u64) << 4)
            .wrapping_add(attempt as u64);
        let mut rng = StdRng::seed_from_u64(key);
        rng.random_range(0.0f64..1.0) < self.task_failure_prob
    }
}

/// Structured description of a failed run: what broke, what was lost, and
/// what still completed — enough for a lineage-based recovery driver to
/// decide which producer jobs to re-execute instead of giving up.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// The terminal error that stopped the run.
    pub error: ClusterError,
    /// `(job name, task index)` of the task that exhausted its attempts,
    /// when the failure was task-level.
    pub failed: Option<(String, usize)>,
    /// Distinct DFS paths whose blocks were observed lost by task attempts.
    pub lost_blocks: Vec<String>,
    /// Nodes that died during this run.
    pub dead_nodes: Vec<u32>,
    /// Jobs that fully completed before the failure (their outputs exist).
    pub completed_jobs: Vec<JobStats>,
    /// Simulated time consumed before the run aborted.
    pub makespan_s: f64,
    /// Fault counters accumulated up to the failure.
    pub faults: FaultStats,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} jobs completed, {} blocks lost, {} nodes dead)",
            self.error,
            self.completed_jobs.len(),
            self.lost_blocks.len(),
            self.dead_nodes.len()
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// `(job, task, attempt, epoch, node, slot, ok)`
    TaskFinish {
        job: usize,
        task: usize,
        attempt: u32,
        epoch: u64,
        node: u32,
        slot: u32,
        ok: bool,
    },
    NodeFailure {
        node: u32,
    },
    /// Warning lead of `failures.revocations[idx]`: stop assigning to the
    /// doomed nodes and drain their sole-replica blocks.
    RevocationWarning {
        idx: usize,
    },
    /// `failures.revocations[idx]` takes effect: the nodes are reclaimed.
    Revocation {
        idx: usize,
    },
}

#[derive(Clone, Copy)]
struct Running {
    job: usize,
    task: usize,
    epoch: u64,
    started: SimTime,
    input_local: bool,
}

struct JobState {
    pending: VecDeque<usize>,
    attempts: Vec<u32>,
    task_done: Vec<bool>,
    /// Whether a backup copy has already been launched for the task.
    speculated: Vec<bool>,
    remaining_deps: usize,
    unfinished_tasks: usize,
    stats: JobStats,
    done: bool,
}

impl JobState {
    /// Mean duration of this job's completed tasks (None before the first
    /// completion — speculation needs a baseline).
    fn mean_completed_s(&self) -> Option<f64> {
        if self.stats.tasks.is_empty() {
            return None;
        }
        Some(
            self.stats
                .tasks
                .iter()
                .map(TaskStat::duration_s)
                .sum::<f64>()
                / self.stats.tasks.len() as f64,
        )
    }
}

/// The DAG scheduler. One-shot: build, then [`Scheduler::run`].
pub struct Scheduler {
    spec: ClusterSpec,
    store: TileStore,
    hw: HardwareModel,
    billing: BillingPolicy,
}

impl Scheduler {
    /// Creates a scheduler bound to a cluster.
    pub fn new(
        spec: ClusterSpec,
        store: TileStore,
        hw: HardwareModel,
        billing: BillingPolicy,
    ) -> Self {
        Scheduler {
            spec,
            store,
            hw,
            billing,
        }
    }

    /// Executes the DAG, returning the run report. Failures are collapsed
    /// to their terminal [`ClusterError`]; use [`Scheduler::try_run`] when
    /// the caller wants the structured failure for recovery.
    pub fn run(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> Result<RunReport> {
        self.try_run(dag, mode, config, failures)
            .map_err(|f| f.error)
    }

    /// Executes the DAG. On failure, returns a [`RunFailure`] describing
    /// which task broke, which DFS blocks were observed lost, which nodes
    /// died, and which jobs still completed — the inputs a lineage-based
    /// recovery driver needs.
    // The fat Err is the point: RunFailure carries the whole diagnostic
    // payload lineage recovery needs, and failures are rare.
    #[allow(clippy::result_large_err)]
    pub fn try_run(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> std::result::Result<RunReport, RunFailure> {
        self.try_run_traced(dag, mode, config, failures, &Trace::disabled())
    }

    /// [`Scheduler::try_run`] with span recording: every task attempt,
    /// job, node failure and speculation outcome is recorded into
    /// `trace` (a [`Trace::disabled`] handle records nothing and costs
    /// one branch per site). Recording is strictly observational — it
    /// never reads results back into scheduling decisions — so a traced
    /// run is bitwise-identical to an untraced one.
    #[allow(clippy::result_large_err)]
    pub fn try_run_traced(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
        trace: &Trace,
    ) -> std::result::Result<RunReport, RunFailure> {
        let threads = match config.threads {
            0 => default_threads(),
            n => n,
        };
        trace.set_run_meta(
            self.spec.instance.name,
            self.spec.nodes as usize,
            self.spec.slots_per_node as usize,
        );
        // The store counts tile-cache hits/misses into the current run's
        // trace; reset to disabled afterwards so driver-side reads
        // (result downloads, later untraced runs) stop counting.
        self.store.set_trace(trace.clone());
        let mut exec = Exec::new(self, dag, mode, config, failures, threads, trace.clone());
        let mut queue: EventQueue<Event> = EventQueue::new();
        for &(t, node) in &failures.node_failures {
            queue.schedule(SimTime(t), Event::NodeFailure { node });
        }
        for (idx, rev) in failures.revocations.iter().enumerate() {
            if rev.warning_lead_s > 0.0 {
                let warn_at = (rev.at_s - rev.warning_lead_s).max(0.0);
                queue.schedule(SimTime(warn_at), Event::RevocationWarning { idx });
            }
            queue.schedule(SimTime(rev.at_s.max(0.0)), Event::Revocation { idx });
        }
        let outcome = exec.drive(&mut queue);
        self.store.set_trace(Trace::disabled());
        match outcome {
            Ok(()) => Ok(exec.report()),
            Err(error) => Err(exec.into_failure(error)),
        }
    }
}

/// A task assignment made at slot-fill time. Carries everything the
/// executor and finalizer need so task *compute* can run off-thread while
/// all bookkeeping stays with the DES loop, applied in canonical
/// (assignment) order.
struct WaveEntry {
    job: usize,
    task: usize,
    /// Attempt number this assignment will become. Written back to
    /// `JobState::attempts` only at finalize so entries of an aborted pass
    /// leave no trace, exactly like a sequential run that never reached
    /// them.
    attempt: u32,
    epoch: u64,
    node: u32,
    slot: u32,
    is_backup: bool,
}

/// What one task attempt produced: its receipt (sans deferred write I/O),
/// staged tile writes, and the logic error if any.
struct ExecOutcome {
    receipt: TaskReceipt,
    staged: Vec<StagedWrite>,
    error: Option<ClusterError>,
}

/// A task execution recorded ahead of simulated time: the operation log to
/// replay at canonical finalize time, plus the logic error if the task
/// failed while recording (in which case the log is discarded and the task
/// re-runs inline — an errored recording may have stopped mid-logic).
struct Recorded {
    ops: Vec<TaskOp>,
    error: Option<ClusterError>,
}

/// One unit of lookahead work: everything a worker needs to run a task's
/// logic against a recording context, detached from any node or slot.
/// Keyed by `(lease, job, task)` so concurrent runs sharing one pool
/// never collide.
struct SpecJob {
    lease: u64,
    job: usize,
    task: usize,
    priority: u8,
    seq: u64,
    run: TaskFn,
    store: TileStore,
    mode: ExecMode,
}

/// Result slot for one speculated task. `Running` means a worker has
/// claimed it; `take` waits on the condvar until it flips to `Done`.
enum SpecSlot {
    Running,
    Done(std::thread::Result<Recorded>),
}

struct SpecState {
    queue: Vec<SpecJob>,
    results: HashMap<(u64, usize, usize), SpecSlot>,
    next_seq: u64,
    shutdown: bool,
}

impl SpecState {
    /// Index of the next job a worker should claim: highest priority lane
    /// first, FIFO (enqueue order) within a lane.
    fn best(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| (j.priority, std::cmp::Reverse(j.seq)))
            .map(|(i, _)| i)
    }
}

/// Persistent worker pool for lookahead speculation.
///
/// A run leases the pool (crate-internal `lease`); every speculated task is
/// keyed by the lease id, so many concurrent runs (e.g. a multi-tenant
/// service, see `cumulon-serve`) can share one pool without their results
/// colliding. The queue is priority-ordered: higher
/// [`SchedulerConfig::lane_priority`] lanes are claimed first, FIFO within
/// a lane. Workers park on a condvar between jobs, so feeding a task costs
/// a queue push, not a thread spawn.
///
/// Sharing never affects results: speculation is a cache the canonical
/// DES-loop replay validates read-for-read, so a starved lane merely falls
/// back to inline execution, which is bitwise-equivalent by construction.
pub struct SpecPool {
    state: Arc<(Mutex<SpecState>, Condvar)>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_lease: AtomicU64,
}

/// One run's lease on a [`SpecPool`]. Dropping the lease withdraws any of
/// the run's still-queued work and discards its unclaimed results.
struct SpecLease {
    pool: Arc<SpecPool>,
    lease: u64,
    priority: u8,
}

impl Drop for SpecLease {
    fn drop(&mut self) {
        self.pool.retire(self.lease);
    }
}

impl SpecPool {
    /// Creates a pool with `threads` worker threads.
    pub fn new(threads: usize) -> Self {
        let state = Arc::new((
            Mutex::new(SpecState {
                queue: Vec::new(),
                results: HashMap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let workers = (0..threads)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || Self::worker(state))
            })
            .collect();
        SpecPool {
            state,
            workers,
            next_lease: AtomicU64::new(0),
        }
    }

    /// Worker threads currently serving the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    fn lease(self: &Arc<Self>, priority: u8) -> SpecLease {
        SpecLease {
            pool: Arc::clone(self),
            lease: self.next_lease.fetch_add(1, Ordering::Relaxed),
            priority,
        }
    }

    fn worker(state: Arc<(Mutex<SpecState>, Condvar)>) {
        // Lookahead executions run ahead of simulated time and may be
        // discarded; only the canonical DES-loop replay may record trace
        // state (e.g. tile-cache counters), so suppress recording for
        // this worker thread's entire lifetime.
        let _quiet = cumulon_trace::suppress();
        let (lock, cvar) = &*state;
        loop {
            let job = {
                let mut st = lock.lock();
                loop {
                    if let Some(i) = st.best() {
                        let job = st.queue.swap_remove(i);
                        // Marked Running under the same lock as the pop, so
                        // `take` always sees a job as queued or slotted,
                        // never in between.
                        st.results
                            .insert((job.lease, job.job, job.task), SpecSlot::Running);
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = cvar.wait(st);
                }
            };
            let recorded = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = TaskCtx::new_recording(job.store.clone(), job.mode);
                let error = (job.run)(&mut ctx).err();
                Recorded {
                    ops: ctx.into_ops(),
                    error,
                }
            }));
            let mut st = lock.lock();
            st.results
                .insert((job.lease, job.job, job.task), SpecSlot::Done(recorded));
            cvar.notify_all();
        }
    }

    /// Enqueues `(job, task, logic)` triples under a lease, stamping lane
    /// priority and FIFO sequence numbers.
    fn enqueue(
        &self,
        lease: &SpecLease,
        tasks: Vec<(usize, usize, TaskFn)>,
        store: &TileStore,
        mode: ExecMode,
    ) {
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        for (job, task, run) in tasks {
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(SpecJob {
                lease: lease.lease,
                job,
                task,
                priority: lease.priority,
                seq,
                run,
                store: store.clone(),
                mode,
            });
        }
        cvar.notify_all();
    }

    /// Claims the speculative result for `(job, task)` under a lease. A
    /// finished recording is returned; a running one is waited for; a
    /// still-queued one is withdrawn and `None` returned (the caller
    /// executes inline). Each recording is consumed at most once — retries
    /// and backup copies find nothing and fall back to inline execution,
    /// which must re-run the logic anyway for side effects a new attempt
    /// would redo.
    fn take(&self, lease: &SpecLease, job: usize, task: usize) -> Option<Recorded> {
        let key = (lease.lease, job, task);
        let (lock, cvar) = &*self.state;
        let mut st = lock.lock();
        loop {
            match st.results.get(&key) {
                Some(SpecSlot::Done(_)) => {
                    let Some(SpecSlot::Done(recorded)) = st.results.remove(&key) else {
                        unreachable!("matched Done above");
                    };
                    drop(st);
                    match recorded {
                        Ok(rec) => return Some(rec),
                        Err(panic) => resume_unwind(panic),
                    }
                }
                Some(SpecSlot::Running) => st = cvar.wait(st),
                None => {
                    if let Some(pos) = st
                        .queue
                        .iter()
                        .position(|q| (q.lease, q.job, q.task) == key)
                    {
                        st.queue.swap_remove(pos);
                    }
                    return None;
                }
            }
        }
    }

    /// Withdraws a finished run's queued work and unclaimed results.
    /// In-flight recordings are left to complete (workers hold no lock
    /// while executing); their slots are reaped here or on the next
    /// retire, so a crashed run can never wedge the pool.
    fn retire(&self, lease: u64) {
        let (lock, _) = &*self.state;
        let mut st = lock.lock();
        st.queue.retain(|q| q.lease != lease);
        st.results
            .retain(|&(l, _, _), slot| l != lease || matches!(slot, SpecSlot::Running));
    }
}

impl Drop for SpecPool {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.state;
            let mut st = lock.lock();
            st.shutdown = true;
            st.queue.clear();
            cvar.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The process-wide shared speculation pool
/// ([`SchedulerConfig::shared_pool`]). Created on first use with
/// `threads` workers; later calls return the same pool regardless of the
/// requested size (worker count is a process-level resource, fixed once).
/// A multi-tenant service creates it at startup so every admitted run
/// competes for the same workers under lane priorities instead of
/// spawning a private pool per request.
pub fn shared_spec_pool(threads: usize) -> Arc<SpecPool> {
    static SHARED: OnceLock<Arc<SpecPool>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(SpecPool::new(threads.max(1)))))
}

/// One in-flight DAG execution: all mutable scheduler state, so the run
/// loop, slot fill, worker pool, and commit logic can share it through
/// methods instead of a macro over locals.
struct Exec<'a> {
    sched: &'a Scheduler,
    dag: &'a JobDag,
    mode: ExecMode,
    config: SchedulerConfig,
    failures: &'a FailurePlan,
    /// This run's lease on a lookahead worker pool (private or shared);
    /// `None` when the run is single-threaded (inline legacy execution).
    pool: Option<SpecLease>,
    /// Per-job flag: its tasks were handed to the pool (set once, the
    /// first `fill_slots` after the job's dependencies complete).
    spec_enqueued: Vec<bool>,
    jobs: Vec<JobState>,
    /// `dependents[j]`: jobs whose deps include `j`.
    dependents: Vec<Vec<usize>>,
    slot_state: Vec<Option<Running>>,
    node_alive: Vec<bool>,
    /// Nodes under a revocation warning: alive, in-flight attempts drain
    /// to completion, but no new work is assigned to them.
    doomed: Vec<bool>,
    next_epoch: u64,
    completed_jobs: usize,
    faults: FaultStats,
    lost_blocks: Vec<String>,
    dead_nodes: Vec<u32>,
    finished: Vec<JobStats>,
    makespan: SimTime,
    /// Span recorder (disabled = no-op). Purely observational.
    trace: Trace,
    /// Per-epoch span metadata stashed at finalize time (phases, byte
    /// counts, wave) and consumed when the matching completion event
    /// fires or the attempt is killed. Empty when tracing is disabled.
    epoch_meta: HashMap<u64, SpanMeta>,
    /// Monotone `fill_slots` pass counter; attempts assigned in the same
    /// pass share a wave number in the trace.
    wave: u64,
}

/// Trace metadata for one in-flight attempt, keyed by its epoch.
struct SpanMeta {
    attempt: u32,
    is_backup: bool,
    wave: u64,
    phases: PhaseBreakdown,
    read_bytes: u64,
    read_local_bytes: u64,
    write_bytes: u64,
    io_ops: u64,
}

impl<'a> Exec<'a> {
    fn new(
        sched: &'a Scheduler,
        dag: &'a JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &'a FailurePlan,
        threads: usize,
        trace: Trace,
    ) -> Self {
        let n_jobs = dag.jobs.len();
        let jobs: Vec<JobState> = dag
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| JobState {
                pending: (0..job.tasks.len()).collect(),
                attempts: vec![0; job.tasks.len()],
                task_done: vec![false; job.tasks.len()],
                speculated: vec![false; job.tasks.len()],
                remaining_deps: dag.deps[j].len(),
                unfinished_tasks: job.tasks.len(),
                stats: JobStats {
                    name: job.name.clone(),
                    op_label: job.op_label.clone(),
                    start_s: f64::INFINITY,
                    end_s: 0.0,
                    tasks: Vec::with_capacity(job.tasks.len()),
                    receipt: Default::default(),
                },
                done: false,
            })
            .collect();
        // Dependents index for completion propagation.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_jobs];
        for (j, deps) in dag.deps.iter().enumerate() {
            for &d in deps {
                dependents[d].push(j);
            }
        }
        let nodes = sched.spec.nodes;
        let slots = sched.spec.slots_per_node;
        // Nodes share ids with DFS datanodes; a node killed by an earlier
        // run on the same cluster stays dead for recovery re-runs.
        let node_alive: Vec<bool> = (0..nodes)
            .map(|n| sched.store.dfs().is_node_live(NodeId(n)))
            .collect();
        let pool = (threads > 1 || (config.shared_pool && threads > 0)).then(|| {
            let pool = if config.shared_pool {
                shared_spec_pool(threads)
            } else {
                Arc::new(SpecPool::new(threads))
            };
            pool.lease(config.lane_priority)
        });
        Exec {
            sched,
            dag,
            mode,
            config,
            failures,
            pool,
            spec_enqueued: vec![false; n_jobs],
            jobs,
            dependents,
            slot_state: vec![None; (nodes * slots) as usize],
            node_alive,
            doomed: vec![false; nodes as usize],
            next_epoch: 0,
            completed_jobs: 0,
            faults: FaultStats::default(),
            lost_blocks: Vec::new(),
            dead_nodes: Vec::new(),
            finished: Vec::new(),
            makespan: SimTime::ZERO,
            trace,
            epoch_meta: HashMap::new(),
            wave: 0,
        }
    }

    /// The main DES loop. Any `Err` is the terminal error of the run; the
    /// caller wraps it into a [`RunFailure`] with the accumulated state.
    fn drive(&mut self, queue: &mut EventQueue<Event>) -> Result<()> {
        self.dag.validate()?;
        self.zero_task_scan(SimTime::ZERO);
        self.fill_slots(queue)?;
        while self.completed_jobs < self.dag.jobs.len() {
            let Some((now, event)) = queue.pop() else {
                // No events but jobs remain: the cluster has no live nodes
                // or a dependency can never complete.
                return Err(ClusterError::InvalidDag(
                    "scheduler stalled: no runnable tasks but jobs remain (all nodes dead?)"
                        .to_string(),
                ));
            };
            self.makespan = now;
            match event {
                Event::TaskFinish {
                    job,
                    task,
                    attempt,
                    epoch,
                    node,
                    slot,
                    ok,
                } => self.on_task_finish(now, job, task, attempt, epoch, node, slot, ok, queue)?,
                Event::NodeFailure { node } => self.on_node_failure(node, queue)?,
                Event::RevocationWarning { idx } => self.on_revocation_warning(idx, queue)?,
                Event::Revocation { idx } => self.on_revocation(idx, queue)?,
            }
        }
        Ok(())
    }

    /// Jobs with zero tasks complete the moment they become ready.
    fn zero_task_scan(&mut self, at: SimTime) {
        loop {
            let mut progressed = false;
            for j in 0..self.dag.jobs.len() {
                if !self.jobs[j].done
                    && self.jobs[j].remaining_deps == 0
                    && self.jobs[j].unfinished_tasks == 0
                {
                    self.jobs[j].done = true;
                    self.jobs[j].stats.start_s = at.secs();
                    self.jobs[j].stats.end_s = at.secs();
                    if self.trace.is_enabled() {
                        self.trace.record_job(JobSpan {
                            index: j,
                            name: self.jobs[j].stats.name.clone(),
                            op_label: self.jobs[j].stats.op_label.clone(),
                            start_s: at.secs(),
                            end_s: at.secs(),
                            round: 0,
                        });
                    }
                    self.finished.push(self.jobs[j].stats.clone());
                    self.completed_jobs += 1;
                    for &dep in &self.dependents[j] {
                        self.jobs[dep].remaining_deps -= 1;
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Picks the next task for a node: scan ready jobs in index order; within
    /// a job prefer a pending task whose dominant input is local to `node`
    /// (unless locality-aware placement is disabled).
    fn pick_task(&self, node: NodeId) -> Option<(usize, usize)> {
        for (j, state) in self.jobs.iter().enumerate() {
            if state.done || state.remaining_deps > 0 || state.pending.is_empty() {
                continue;
            }
            if !self.config.ignore_locality {
                // Locality pass.
                for &t in &state.pending {
                    if let Some((m, ti, tj)) = &self.dag.jobs[j].tasks[t].locality_hint {
                        if self.sched.store.tile_is_local(m, *ti, *tj, node) {
                            return Some((j, t));
                        }
                    } else {
                        // No hint: any slot is as good as any other.
                        return Some((j, t));
                    }
                }
            }
            // No local task: take the oldest pending one.
            return state.pending.front().map(|&t| (j, t));
        }
        None
    }

    /// Task choice for one free slot: a pending task, or — when slots would
    /// otherwise idle — a speculative backup of a straggler.
    fn pick_for_slot(&self, node: u32, now: SimTime) -> Option<(usize, usize, bool)> {
        if let Some((j, t)) = self.pick_task(NodeId(node)) {
            return Some((j, t, false));
        }
        if !self.config.speculative {
            return None;
        }
        self.slot_state
            .iter()
            .flatten()
            .filter(|r| {
                let js = &self.jobs[r.job];
                !js.task_done[r.task]
                    && !js.speculated[r.task]
                    && js.pending.is_empty()
                    && js.mean_completed_s().is_some_and(|mean| {
                        now.secs() - r.started.secs() > self.config.speculation_factor * mean
                    })
            })
            .max_by(|a, b| {
                let ea = now.secs() - a.started.secs();
                let eb = now.secs() - b.started.secs();
                ea.partial_cmp(&eb).expect("finite elapsed")
            })
            .map(|r| (r.job, r.task, true))
    }

    /// Assigns a task to a free slot: pending-queue/speculation bookkeeping,
    /// epoch allocation, and slot occupation. Attempt numbers and fault
    /// counters are only *computed* here — they are written back at
    /// finalize, so a wave aborted mid-commit leaves no counters from
    /// entries a sequential run would never have reached.
    fn assign(&mut self, node: u32, slot: u32, now: SimTime) -> Option<WaveEntry> {
        let (j, t, is_backup) = self.pick_for_slot(node, now)?;
        if is_backup {
            self.jobs[j].speculated[t] = true;
        } else {
            // Remove t from job j's pending queue.
            let pos = self.jobs[j]
                .pending
                .iter()
                .position(|&x| x == t)
                .expect("picked task is pending");
            self.jobs[j].pending.remove(pos);
        }
        let attempt = self.jobs[j].attempts[t] + 1;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let input_local = self.dag.jobs[j].tasks[t]
            .locality_hint
            .as_ref()
            .map(|(m, ti, tj)| self.sched.store.tile_is_local(m, *ti, *tj, NodeId(node)))
            .unwrap_or(true);
        let idx = (node * self.sched.spec.slots_per_node + slot) as usize;
        self.slot_state[idx] = Some(Running {
            job: j,
            task: t,
            epoch,
            started: now,
            input_local,
        });
        Some(WaveEntry {
            job: j,
            task: t,
            attempt,
            epoch,
            node,
            slot,
            is_backup,
        })
    }

    /// Runs one task attempt's logic inline, at canonical time, writing
    /// straight through to the store. This is the reference semantics:
    /// the `threads == 1` path, and the fallback whenever a speculative
    /// recording is missing, errored, or fails replay validation.
    fn execute(&self, e: &WaveEntry) -> ExecOutcome {
        let mut ctx = TaskCtx::new(self.sched.store.clone(), NodeId(e.node), self.mode);
        let result = (self.dag.jobs[e.job].tasks[e.task].run)(&mut ctx);
        let (receipt, staged) = ctx.into_parts();
        ExecOutcome {
            receipt,
            staged,
            error: result.err(),
        }
    }

    /// Hands every task of every newly-ready job to the lookahead pool.
    /// A job is enqueued exactly once, the first `fill_slots` after its
    /// dependencies complete — at which point all its inputs are durable
    /// in the DFS, so workers can read them ahead of simulated time.
    fn spec_enqueue_ready(&mut self) {
        let Some(lease) = &self.pool else { return };
        let mut batch = Vec::new();
        for j in 0..self.dag.jobs.len() {
            if self.spec_enqueued[j] || self.jobs[j].done || self.jobs[j].remaining_deps > 0 {
                continue;
            }
            self.spec_enqueued[j] = true;
            for (t, task) in self.dag.jobs[j].tasks.iter().enumerate() {
                batch.push((j, t, Arc::clone(&task.run)));
            }
        }
        if !batch.is_empty() {
            lease
                .pool
                .enqueue(lease, batch, &self.sched.store, self.mode);
        }
    }

    /// Replays a recorded operation log against a fresh context bound to
    /// the assignment's real node, reproducing the exact receipts and
    /// accumulation order an inline run would produce. Reads are charged
    /// from DFS metadata ([`TaskCtx::replay_read`]) and validated by the
    /// content version the recording saw, never by reading tile data; a
    /// stale version or a read error returns `None` and the caller falls
    /// back to inline execution.
    fn try_replay(&self, e: &WaveEntry, ops: Vec<TaskOp>) -> Option<ExecOutcome> {
        let mut ctx = TaskCtx::new_deferred(self.sched.store.clone(), NodeId(e.node), self.mode);
        for op in ops {
            match op {
                TaskOp::Read {
                    matrix,
                    ti,
                    tj,
                    source,
                    stored_bytes,
                    cells,
                } => {
                    if !ctx.replay_read(&matrix, ti, tj, source, stored_bytes, cells) {
                        return None;
                    }
                }
                TaskOp::Write {
                    matrix,
                    ti,
                    tj,
                    tile,
                } => ctx.write_tile(&matrix, ti, tj, tile).ok()?,
                TaskOp::Charge(w) => ctx.charge(w),
                TaskOp::ChargeMem(mb) => ctx.charge_mem_mb(mb),
                TaskOp::ChargeReadIo(io) => ctx.charge_read_io(io),
                TaskOp::ChargeWriteIo(io) => ctx.charge_write_io(io),
                TaskOp::ChargeSeconds(s) => ctx.charge_seconds(s),
                TaskOp::ChargeIoOps(n) => ctx.charge_io_ops(n),
            }
        }
        let (receipt, staged) = ctx.into_parts();
        Some(ExecOutcome {
            receipt,
            staged,
            error: None,
        })
    }

    /// The outcome for one assignment: a validated replay of its lookahead
    /// recording when available, else an inline run. Both paths produce
    /// bitwise-identical outcomes, so which one is taken — a host-timing
    /// artifact — is unobservable in the simulation.
    fn obtain_outcome(&self, e: &WaveEntry) -> ExecOutcome {
        if let Some(lease) = &self.pool {
            if let Some(rec) = lease.pool.take(lease, e.job, e.task) {
                if rec.error.is_none() {
                    if let Some(outcome) = self.try_replay(e, rec.ops) {
                        return outcome;
                    }
                }
            }
        }
        self.execute(e)
    }

    /// Applies one executed entry's effects, in canonical order: commit
    /// staged writes (replaying the DFS placement RNG draws a sequential
    /// run would make), book attempts and fault counters, resolve injected
    /// failures, charge stats, and schedule the completion event.
    fn finalize(
        &mut self,
        e: &WaveEntry,
        outcome: ExecOutcome,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        let ExecOutcome {
            mut receipt,
            staged,
            mut error,
        } = outcome;
        for w in staged {
            // A task that errored mid-logic still committed everything it
            // wrote before the error in a sequential run; writes staged
            // before the error point replay that.
            match self.sched.store.write_tile_arc(
                &w.matrix,
                w.ti,
                w.tj,
                w.tile,
                Some(NodeId(e.node)),
            ) {
                Ok(io) => receipt.write = receipt.write.add(io),
                Err(commit_err) => {
                    if error.is_none() {
                        error = Some(commit_err.into());
                    }
                    break;
                }
            }
        }
        self.jobs[e.job].attempts[e.task] = e.attempt;
        self.faults.task_attempts += 1;
        if e.is_backup {
            self.faults.speculative_launches += 1;
        } else if e.attempt > 1 {
            self.faults.retries += 1;
        }
        let injected_failure = self.failures.attempt_fails(e.job, e.task, e.attempt);
        let ok = error.is_none() && !injected_failure;
        if let Some(err) = &error {
            if let ClusterError::BlockLost { path, .. } = err {
                if !self.lost_blocks.contains(path) {
                    self.lost_blocks.push(path.clone());
                    self.faults.lost_block_events += 1;
                }
            }
            if e.attempt >= self.config.max_attempts {
                return Err(ClusterError::TaskFailed {
                    job: self.dag.jobs[e.job].name.clone(),
                    task: e.task,
                    attempts: e.attempt,
                    last_error: err.to_string(),
                });
            }
        }
        let duration = self
            .sched
            .hw
            .task_seconds(
                &self.sched.spec.instance,
                self.sched.spec.slots_per_node,
                &receipt,
                e.job,
                e.task,
                e.attempt - 1,
            )
            .max(1e-9);
        // Rework accounting: retries and backup copies re-execute work the
        // first attempt already did (DES-ordered accumulation, so the f64
        // sums are identical at any thread count).
        self.faults.total_task_s += duration;
        if e.attempt > 1 || e.is_backup {
            self.faults.rework_task_s += duration;
        }
        if self.trace.is_enabled() {
            // Phase fractions come from the noise-free model split and are
            // rescaled to the attempt's actual (noisy) duration, so phase
            // sums reproduce span durations — and hence the makespan —
            // exactly.
            let phases = self
                .sched
                .hw
                .task_phases(
                    &self.sched.spec.instance,
                    self.sched.spec.slots_per_node,
                    &receipt,
                )
                .scaled_to(duration);
            self.epoch_meta.insert(
                e.epoch,
                SpanMeta {
                    attempt: e.attempt,
                    is_backup: e.is_backup,
                    wave: self.wave,
                    phases,
                    read_bytes: receipt.read.bytes,
                    read_local_bytes: receipt.read.local_bytes,
                    write_bytes: receipt.write.bytes,
                    io_ops: receipt.io_ops,
                },
            );
        }
        self.jobs[e.job].stats.start_s = self.jobs[e.job].stats.start_s.min(queue.now().secs());
        self.jobs[e.job].stats.receipt = self.jobs[e.job].stats.receipt.add(receipt);
        queue.schedule_in(
            duration,
            Event::TaskFinish {
                job: e.job,
                task: e.task,
                attempt: e.attempt,
                epoch: e.epoch,
                node: e.node,
                slot: e.slot,
                ok,
            },
        );
        Ok(())
    }

    /// Fills every free slot with the best pending task. Each assignment
    /// is resolved (replayed from its lookahead recording or executed
    /// inline) and finalized on the spot, in slot order — exactly the
    /// `threads == 1` interleaving, which is the canonical semantics.
    /// Assignment decisions are insensitive to same-pass commits: a ready
    /// job's inputs come from jobs that finished before this pass, so
    /// locality lookups see the same placement either way.
    fn fill_slots(&mut self, queue: &mut EventQueue<Event>) -> Result<()> {
        self.spec_enqueue_ready();
        self.wave += 1;
        let nodes = self.sched.spec.nodes;
        let slots = self.sched.spec.slots_per_node;
        let now = queue.now();
        for node in 0..nodes {
            if !self.node_alive[node as usize] || self.doomed[node as usize] {
                continue;
            }
            for slot in 0..slots {
                let idx = (node * slots + slot) as usize;
                if self.slot_state[idx].is_some() {
                    continue;
                }
                let Some(entry) = self.assign(node, slot, now) else {
                    continue;
                };
                let outcome = self.obtain_outcome(&entry);
                self.finalize(&entry, outcome, queue)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn on_task_finish(
        &mut self,
        now: SimTime,
        job: usize,
        task: usize,
        attempt: u32,
        epoch: u64,
        node: u32,
        slot: u32,
        ok: bool,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        let idx = (node * self.sched.spec.slots_per_node + slot) as usize;
        let valid = matches!(self.slot_state[idx], Some(r) if r.epoch == epoch);
        if !valid {
            return Ok(()); // superseded by a node failure
        }
        let running = self.slot_state[idx].take().expect("checked above");
        if self.jobs[job].task_done[task] {
            // A speculative twin already completed this task; just free
            // the slot.
            return self.fill_slots(queue);
        }
        if ok {
            self.jobs[job].task_done[task] = true;
            if self.doomed[node as usize] {
                // The attempt beat the revocation deadline: gracefully
                // drained rather than lost.
                self.faults.drained_tasks += 1;
            }
            // Kill any still-running copies of this task. If a killed twin
            // started earlier, the completing copy is the backup — a
            // speculative win.
            let mut killed: Vec<(usize, Running)> = Vec::new();
            for (other_idx, other) in self.slot_state.iter_mut().enumerate() {
                if matches!(other, Some(r) if r.job == job && r.task == task) {
                    let twin = other.take().expect("matched Some above");
                    if twin.started < running.started {
                        self.faults.speculative_wins += 1;
                    }
                    killed.push((other_idx, twin));
                }
            }
            if self.trace.is_enabled() {
                let slots = self.sched.spec.slots_per_node as usize;
                for (twin_idx, twin) in &killed {
                    if twin.started < running.started {
                        self.trace.record_event(TraceEvent::SpeculativeWin {
                            t_s: now.secs(),
                            job,
                            task,
                        });
                    }
                    if let Some(m) = self.epoch_meta.remove(&twin.epoch) {
                        self.trace.record_task(TaskSpan {
                            job,
                            task,
                            attempt: m.attempt,
                            node: twin_idx / slots,
                            slot: twin_idx % slots,
                            start_s: twin.started.secs(),
                            end_s: now.secs(),
                            ok: false,
                            backup: m.is_backup,
                            killed: true,
                            wave: m.wave,
                            round: 0,
                            phases: m.phases.scaled_to(now.secs() - twin.started.secs()),
                            read_bytes: m.read_bytes,
                            read_local_bytes: m.read_local_bytes,
                            write_bytes: m.write_bytes,
                            io_ops: m.io_ops,
                        });
                    }
                }
                if let Some(m) = self.epoch_meta.remove(&epoch) {
                    self.trace.record_task(TaskSpan {
                        job,
                        task,
                        attempt,
                        node: node as usize,
                        slot: slot as usize,
                        start_s: running.started.secs(),
                        end_s: now.secs(),
                        ok: true,
                        backup: m.is_backup,
                        killed: false,
                        wave: m.wave,
                        round: 0,
                        phases: m.phases,
                        read_bytes: m.read_bytes,
                        read_local_bytes: m.read_local_bytes,
                        write_bytes: m.write_bytes,
                        io_ops: m.io_ops,
                    });
                }
            }
            self.jobs[job].stats.tasks.push(TaskStat {
                task,
                node,
                start_s: running.started.secs(),
                end_s: now.secs(),
                attempts: attempt,
                input_local: running.input_local,
            });
            self.jobs[job].unfinished_tasks -= 1;
            if self.jobs[job].unfinished_tasks == 0 && !self.jobs[job].done {
                self.jobs[job].done = true;
                self.jobs[job].stats.end_s = now.secs();
                if self.trace.is_enabled() {
                    self.trace.record_job(JobSpan {
                        index: job,
                        name: self.jobs[job].stats.name.clone(),
                        op_label: self.jobs[job].stats.op_label.clone(),
                        start_s: self.jobs[job].stats.start_s,
                        end_s: now.secs(),
                        round: 0,
                    });
                }
                self.finished.push(self.jobs[job].stats.clone());
                self.completed_jobs += 1;
                for &dep in &self.dependents[job] {
                    self.jobs[dep].remaining_deps -= 1;
                }
                self.zero_task_scan(now);
            }
        } else {
            if self.trace.is_enabled() {
                if let Some(m) = self.epoch_meta.remove(&epoch) {
                    self.trace.record_task(TaskSpan {
                        job,
                        task,
                        attempt,
                        node: node as usize,
                        slot: slot as usize,
                        start_s: running.started.secs(),
                        end_s: now.secs(),
                        ok: false,
                        backup: m.is_backup,
                        killed: false,
                        wave: m.wave,
                        round: 0,
                        phases: m.phases,
                        read_bytes: m.read_bytes,
                        read_local_bytes: m.read_local_bytes,
                        write_bytes: m.write_bytes,
                        io_ops: m.io_ops,
                    });
                }
            }
            if attempt >= self.config.max_attempts {
                return Err(ClusterError::TaskFailed {
                    job: self.dag.jobs[job].name.clone(),
                    task,
                    attempts: attempt,
                    last_error: "injected task failure".to_string(),
                });
            }
            // Requeue unless a twin copy is still in flight.
            let twin_running = self
                .slot_state
                .iter()
                .flatten()
                .any(|r| r.job == job && r.task == task);
            if !twin_running {
                self.jobs[job].pending.push_front(task);
            }
        }
        self.fill_slots(queue)
    }

    fn on_node_failure(&mut self, node: u32, queue: &mut EventQueue<Event>) -> Result<()> {
        // A plan may name a node this cluster doesn't have (e.g. a market
        // model sized for a larger fleet, or an elastic shrink between
        // iterations); ignore it rather than index out of bounds.
        if (node as usize) >= self.node_alive.len() || !self.node_alive[node as usize] {
            return Ok(());
        }
        self.node_alive[node as usize] = false;
        self.doomed[node as usize] = false;
        self.faults.node_deaths += 1;
        self.dead_nodes.push(node);
        // Storage consequences (re-replication of survivors).
        match self.sched.store.dfs().kill_node(NodeId(node)) {
            Ok(receipt) => {
                self.faults.rereplicated_bytes += receipt.bytes;
                self.trace.record_event(TraceEvent::NodeFailure {
                    t_s: queue.now().secs(),
                    node: node as usize,
                    rereplicated_bytes: receipt.bytes,
                });
            }
            Err(e) => return Err(ClusterError::from(e)),
        }
        self.evict_running(node, queue.now(), false);
        if !self.node_alive.iter().any(|&a| a) {
            return Err(ClusterError::InvalidDag(
                "all nodes failed; run cannot complete".to_string(),
            ));
        }
        self.fill_slots(queue)
    }

    /// Kills every attempt in flight on `node`: traces the truncated spans
    /// and requeues tasks that are neither done nor running elsewhere.
    /// `revoked` attributes the loss to a spot revocation in the counters.
    fn evict_running(&mut self, node: u32, now: SimTime, revoked: bool) {
        let slots = self.sched.spec.slots_per_node;
        for slot in 0..slots {
            let idx = (node * slots + slot) as usize;
            if let Some(r) = self.slot_state[idx].take() {
                if revoked {
                    self.faults.lost_tasks += 1;
                }
                if self.trace.is_enabled() {
                    if let Some(m) = self.epoch_meta.remove(&r.epoch) {
                        let cut = now.secs();
                        self.trace.record_task(TaskSpan {
                            job: r.job,
                            task: r.task,
                            attempt: m.attempt,
                            node: node as usize,
                            slot: slot as usize,
                            start_s: r.started.secs(),
                            end_s: cut,
                            ok: false,
                            backup: m.is_backup,
                            killed: true,
                            wave: m.wave,
                            round: 0,
                            phases: m.phases.scaled_to(cut - r.started.secs()),
                            read_bytes: m.read_bytes,
                            read_local_bytes: m.read_local_bytes,
                            write_bytes: m.write_bytes,
                            io_ops: m.io_ops,
                        });
                    }
                }
                let twin_running = self
                    .slot_state
                    .iter()
                    .flatten()
                    .any(|o| o.job == r.job && o.task == r.task);
                if !self.jobs[r.job].task_done[r.task] && !twin_running {
                    self.jobs[r.job].pending.push_front(r.task);
                }
            }
        }
    }

    /// Revocation warning: mark the victims doomed (no new assignments;
    /// in-flight attempts drain) and spend the lead window proactively
    /// copying blocks that live only on doomed nodes to survivors, within
    /// the byte budget the victims' aggregate NIC bandwidth allows.
    fn on_revocation_warning(&mut self, idx: usize, queue: &mut EventQueue<Event>) -> Result<()> {
        let rev = &self.failures.revocations[idx];
        let lead_s = rev.warning_lead_s;
        let mut victims: Vec<NodeId> = Vec::new();
        for &node in &rev.nodes {
            let n = node as usize;
            if n >= self.node_alive.len() || !self.node_alive[n] || self.doomed[n] {
                continue;
            }
            self.doomed[n] = true;
            victims.push(NodeId(node));
        }
        if victims.is_empty() {
            return Ok(());
        }
        let budget =
            (lead_s * self.sched.spec.instance.net_mbs * 1e6 * victims.len() as f64) as u64;
        let receipt = self
            .sched
            .store
            .dfs()
            .drain_nodes(&victims, budget)
            .map_err(ClusterError::from)?;
        self.faults.drained_bytes += receipt.bytes;
        self.trace.record_event(TraceEvent::RevocationWarning {
            t_s: queue.now().secs(),
            nodes: victims.iter().map(|n| n.0 as usize).collect(),
            drained_bytes: receipt.bytes,
        });
        Ok(())
    }

    /// A bulk revocation takes effect: every still-live victim dies at the
    /// same instant (one correlated DFS event, so re-replication cannot
    /// lean on co-revoked peers), their in-flight attempts are lost, and
    /// survivors pick up the requeued work.
    fn on_revocation(&mut self, idx: usize, queue: &mut EventQueue<Event>) -> Result<()> {
        let rev = &self.failures.revocations[idx];
        let mut victims: Vec<u32> = Vec::new();
        for &node in &rev.nodes {
            let n = node as usize;
            if n >= self.node_alive.len() || !self.node_alive[n] {
                continue;
            }
            if !victims.contains(&node) {
                victims.push(node);
            }
        }
        if victims.is_empty() {
            return Ok(());
        }
        self.faults.revocations += 1;
        self.faults.revoked_nodes += victims.len() as u64;
        for &node in &victims {
            self.node_alive[node as usize] = false;
            self.doomed[node as usize] = false;
            self.dead_nodes.push(node);
        }
        let ids: Vec<NodeId> = victims.iter().map(|&n| NodeId(n)).collect();
        match self.sched.store.dfs().kill_nodes(&ids) {
            Ok(receipt) => {
                self.faults.rereplicated_bytes += receipt.bytes;
                self.trace.record_event(TraceEvent::Revocation {
                    t_s: queue.now().secs(),
                    nodes: victims.iter().map(|&n| n as usize).collect(),
                    rereplicated_bytes: receipt.bytes,
                });
            }
            Err(e) => return Err(ClusterError::from(e)),
        }
        for &node in &victims {
            self.evict_running(node, queue.now(), true);
        }
        if !self.node_alive.iter().any(|&a| a) {
            return Err(ClusterError::InvalidDag(
                "all nodes failed; run cannot complete".to_string(),
            ));
        }
        self.fill_slots(queue)
    }

    /// The run report of a completed execution.
    fn report(self) -> RunReport {
        let makespan_s = self.makespan.secs();
        // Round-local makespan: the trace shifts it by the active round
        // offset onto the global timeline.
        self.trace.set_makespan(makespan_s);
        let spec = self.sched.spec;
        RunReport {
            instance: spec.instance.name.to_string(),
            nodes: spec.nodes,
            slots: spec.slots_per_node,
            jobs: self.finished,
            makespan_s,
            billed_hours: billed_hours(self.sched.billing, makespan_s),
            cost_dollars: cluster_cost(
                self.sched.billing,
                spec.nodes,
                spec.instance.price_per_hour,
                makespan_s,
            ),
            faults: self.faults,
        }
    }

    /// Wraps a terminal error with the state accumulated up to it.
    fn into_failure(self, error: ClusterError) -> RunFailure {
        self.trace.set_makespan(self.makespan.secs());
        let failed = match &error {
            ClusterError::TaskFailed { job, task, .. } => Some((job.clone(), *task)),
            _ => None,
        };
        RunFailure {
            error,
            failed,
            lost_blocks: self.lost_blocks,
            dead_nodes: self.dead_nodes,
            completed_jobs: self.finished,
            makespan_s: self.makespan.secs(),
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::job::{Job, Task};
    use cumulon_matrix::ops::Work;
    use cumulon_matrix::{MatrixMeta, Tile};

    fn cluster(nodes: u32, slots: u32) -> Cluster {
        let mut c =
            Cluster::provision(ClusterSpec::named("m1.large", nodes, slots).unwrap()).unwrap();
        c.set_billing(BillingPolicy::HourlyCeil);
        c
    }

    /// A job of `n` cpu-burning tasks, each charging `flops`.
    fn burn_job(name: &str, n: usize, flops: f64) -> Job {
        let tasks = (0..n)
            .map(|_| {
                Task::new(move |ctx| {
                    ctx.charge(Work {
                        flops,
                        bytes_in: 0.0,
                        bytes_out: 0.0,
                    });
                    Ok(())
                })
            })
            .collect();
        Job::new(name, "burn", tasks)
    }

    #[test]
    fn single_job_runs_in_waves() {
        let c = cluster(2, 2); // 4 slots
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 8, 1e9), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.total_tasks(), 8);
        let job = &r.jobs[0];
        assert_eq!(job.tasks.len(), 8);
        // 8 tasks over 4 slots = 2 waves; makespan ≈ 2 × task time.
        let mean = job.mean_task_s();
        assert!(
            r.makespan_s > 1.5 * mean && r.makespan_s < 3.0 * mean,
            "makespan {} vs mean task {mean}",
            r.makespan_s
        );
    }

    #[test]
    fn dependencies_serialize_jobs() {
        let c = cluster(2, 2);
        let mut dag = JobDag::new();
        let a = dag.push(burn_job("a", 4, 1e9), vec![]);
        dag.push(burn_job("b", 4, 1e9), vec![a]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        let ja = r.job("a").unwrap();
        let jb = r.job("b").unwrap();
        assert!(jb.start_s >= ja.end_s, "dependent job must wait");
    }

    #[test]
    fn independent_jobs_share_slots() {
        let c = cluster(4, 2);
        let mut dag = JobDag::new();
        dag.push(burn_job("a", 4, 1e9), vec![]);
        dag.push(burn_job("b", 4, 1e9), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        let ja = r.job("a").unwrap();
        let jb = r.job("b").unwrap();
        // 8 slots, 8 tasks total: both jobs run in the first wave.
        assert!(jb.start_s < ja.end_s);
    }

    #[test]
    fn more_nodes_shorter_makespan() {
        let mut times = Vec::new();
        for nodes in [1, 2, 4] {
            let c = cluster(nodes, 2);
            let mut dag = JobDag::new();
            dag.push(burn_job("b", 16, 2e9), vec![]);
            times.push(c.run(&dag, ExecMode::Real).unwrap().makespan_s);
        }
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
    }

    #[test]
    fn zero_task_jobs_complete() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        let a = dag.push(Job::new("empty", "nop", vec![]), vec![]);
        let b = dag.push(burn_job("b", 1, 1e8), vec![a]);
        let c2 = dag.push(Job::new("tail", "nop", vec![]), vec![b]);
        assert_eq!(c2, 2);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.jobs.len(), 3);
    }

    #[test]
    fn task_error_retries_then_fails_run() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        let tasks = vec![Task::new(|_| {
            Err(ClusterError::Kernel("always broken".into()))
        })];
        dag.push(Job::new("bad", "x", tasks), vec![]);
        let err = c.run(&dag, ExecMode::Real).unwrap_err();
        assert!(
            matches!(err, ClusterError::TaskFailed { attempts: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn injected_failures_retry_and_succeed() {
        let c = cluster(2, 2);
        let mut dag = JobDag::new();
        dag.push(burn_job("flaky", 12, 1e9), vec![]);
        let failures = FailurePlan {
            task_failure_prob: 0.3,
            seed: 5,
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        let job = &r.jobs[0];
        assert_eq!(job.tasks.len(), 12, "every task eventually succeeds");
        assert!(
            job.retries() > 0,
            "with p=0.3 over 12 tasks some retries are expected"
        );
    }

    #[test]
    fn certain_failure_exhausts_attempts() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("doomed", 1, 1e8), vec![]);
        let failures = FailurePlan {
            task_failure_prob: 1.0,
            seed: 1,
            ..Default::default()
        };
        let err = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap_err();
        assert!(matches!(err, ClusterError::TaskFailed { .. }));
    }

    #[test]
    fn node_failure_requeues_and_completes() {
        let c = cluster(3, 1);
        // Long tasks so the failure lands mid-flight.
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 6, 5e10), vec![]);
        let probe = c.run(&dag, ExecMode::Real).unwrap();
        let mid = probe.makespan_s / 3.0;
        let failures = FailurePlan {
            node_failures: vec![(mid, 2)],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r.jobs[0].tasks.len(), 6);
        assert!(
            r.jobs[0]
                .tasks
                .iter()
                .all(|t| t.node != 2 || t.end_s <= mid),
            "no task may finish on the dead node after the failure"
        );
        assert!(
            r.makespan_s > probe.makespan_s,
            "losing a node must cost time"
        );
    }

    #[test]
    fn all_nodes_dead_errors() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 4, 1e11), vec![]);
        let failures = FailurePlan {
            node_failures: vec![(1.0, 0)],
            ..Default::default()
        };
        let err = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidDag(_)), "{err}");
    }

    #[test]
    fn bulk_revocation_drains_and_completes() {
        let c = cluster(4, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 8, 5e10), vec![]);
        let probe = c.run(&dag, ExecMode::Real).unwrap();
        let mid = probe.makespan_s / 2.0;
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: mid,
                nodes: vec![2, 3],
                warning_lead_s: mid / 2.0,
            }],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r.faults.revocations, 1);
        assert_eq!(r.faults.revoked_nodes, 2);
        assert_eq!(r.jobs[0].tasks.len(), 8);
        assert!(
            r.jobs[0]
                .tasks
                .iter()
                .all(|t| (t.node != 2 && t.node != 3) || t.end_s <= mid),
            "no task may finish on a revoked node after the revocation"
        );
        assert!(
            r.makespan_s > probe.makespan_s,
            "losing half the fleet must cost time"
        );
        // The warning stopped new assignments to doomed nodes, so any task
        // still running there at revocation counts as lost, and work that
        // beat the deadline counts as drained.
        assert!(r.faults.drained_tasks + r.faults.lost_tasks > 0);
    }

    #[test]
    fn revocation_without_warning_still_completes() {
        let c = cluster(3, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 6, 5e10), vec![]);
        let probe = c.run(&dag, ExecMode::Real).unwrap();
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: probe.makespan_s / 3.0,
                nodes: vec![0],
                warning_lead_s: 0.0,
            }],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r.faults.revocations, 1);
        assert_eq!(r.faults.revoked_nodes, 1);
        // No lead window: nothing was drained ahead of the kill.
        assert_eq!(r.faults.drained_bytes, 0);
        assert_eq!(r.jobs[0].tasks.len(), 6);
    }

    #[test]
    fn out_of_range_revocation_and_failure_nodes_are_ignored() {
        let c = cluster(2, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 4, 1e10), vec![]);
        let failures = FailurePlan {
            node_failures: vec![(1.0, 99)],
            revocations: vec![Revocation {
                at_s: 2.0,
                nodes: vec![7, 99],
                warning_lead_s: 1.0,
            }],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        // The revocation reclaimed nothing real, so it does not count (the
        // same rule keeps re-fired revocations from double-counting in
        // recovery rounds).
        assert_eq!(r.faults.revocations, 0);
        assert_eq!(r.faults.revoked_nodes, 0);
        assert_eq!(r.faults.node_deaths, 0);
        assert_eq!(r.jobs[0].tasks.len(), 4);
    }

    #[test]
    fn revoking_every_node_errors() {
        let c = cluster(2, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 4, 1e11), vec![]);
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: 1.0,
                nodes: vec![0, 1],
                warning_lead_s: 0.5,
            }],
            ..Default::default()
        };
        let err = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidDag(_)), "{err}");
    }

    #[test]
    fn revocation_is_deterministic_across_threads() {
        let mk = || {
            let c = cluster(4, 2);
            let mut dag = JobDag::new();
            dag.push(burn_job("a", 10, 2e10), vec![]);
            dag.push(burn_job("b", 6, 1e10), vec![0]);
            (c, dag)
        };
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: 30.0,
                nodes: vec![1, 2],
                warning_lead_s: 10.0,
            }],
            ..Default::default()
        };
        let (c1, dag1) = mk();
        let r1 = c1
            .run_with(
                &dag1,
                ExecMode::Real,
                SchedulerConfig {
                    threads: 1,
                    ..Default::default()
                },
                &failures,
            )
            .unwrap();
        let (cn, dagn) = mk();
        let rn = cn
            .run_with(
                &dagn,
                ExecMode::Real,
                SchedulerConfig {
                    threads: 4,
                    ..Default::default()
                },
                &failures,
            )
            .unwrap();
        assert_eq!(r1.fingerprint(), rn.fingerprint());
    }

    #[test]
    fn billing_in_report() {
        let c = cluster(2, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 2, 1e9), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.billed_hours, 1.0);
        let price = crate::instances::by_name("m1.large")
            .unwrap()
            .price_per_hour;
        assert!((r.cost_dollars - 2.0 * price).abs() < 1e-9);
    }

    #[test]
    fn tile_tasks_move_real_data() {
        let c = cluster(2, 2);
        let meta = MatrixMeta::new(4, 4, 4);
        c.store().register("in", meta).unwrap();
        c.store()
            .write_tile(
                "in",
                0,
                0,
                &Tile::dense(cumulon_matrix::DenseTile::identity(4)),
                None,
            )
            .unwrap();
        c.store().register("out", meta).unwrap();
        let mut dag = JobDag::new();
        let task = Task::new(|ctx| {
            let t = ctx.read_tile("in", 0, 0)?;
            let doubled = t.elementwise(&t, cumulon_matrix::tile::ElemOp::Add)?;
            ctx.write_tile("out", 0, 0, &doubled)?;
            Ok(())
        })
        .with_locality("in", 0, 0);
        dag.push(Job::new("double", "elem", vec![task]), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.jobs[0].tasks.len(), 1);
        let out = c.store().get_local("out").unwrap();
        assert_eq!(out.sum(), 8.0);
        assert!(r.jobs[0].receipt.read.bytes > 0);
        assert!(r.jobs[0].receipt.write.bytes > 0);
    }

    /// Triple-plane equivalence at the executor level: the same faulty
    /// tile workload on the handle plane, the materialize-bytes plane,
    /// and the handle plane under a memory budget tight enough to force
    /// constant eviction must produce the same report fingerprint and
    /// the same output bits, at one worker thread and at several. Only
    /// the budgeted arms may touch the spill path.
    #[test]
    fn spill_pressure_and_payload_planes_share_one_fingerprint() {
        use cumulon_matrix::tile::ElemOp;

        // (threads, budget bytes, materialize) -> (fingerprint+output, evictions)
        let run = |threads: usize, budget: u64, materialize: bool| {
            let c = cluster(3, 2);
            c.store().set_materialize_bytes(materialize);
            if budget > 0 {
                c.store()
                    .set_memory_budget(&cumulon_dfs::SpillConfig::budgeted(budget))
                    .unwrap();
            }
            let meta = MatrixMeta::new(16, 16, 4);
            c.store().register("A", meta).unwrap();
            for ti in 0..4 {
                for tj in 0..4 {
                    let t = cumulon_matrix::DenseTile::from_fn(4, 4, |i, j| {
                        (ti * 64 + tj * 16 + i * 4 + j) as f64 * 0.25 - 3.0
                    });
                    c.store()
                        .write_tile("A", ti, tj, &Tile::dense(t), None)
                        .unwrap();
                }
            }
            c.store().register("B", meta).unwrap();
            c.store().register("C", MatrixMeta::new(4, 16, 4)).unwrap();
            let mut dag = JobDag::new();
            let doubles = (0..16usize)
                .map(|i| {
                    let (ti, tj) = (i / 4, i % 4);
                    Task::new(move |ctx| {
                        ctx.charge(Work {
                            flops: 2e10,
                            bytes_in: 0.0,
                            bytes_out: 0.0,
                        });
                        let t = ctx.read_tile("A", ti, tj)?;
                        let d = t.elementwise(&t, ElemOp::Add)?;
                        ctx.write_tile("B", ti, tj, &d)?;
                        Ok(())
                    })
                    .with_locality("A", ti, tj)
                })
                .collect();
            dag.push(Job::new("double", "elem", doubles), vec![]);
            let folds = (0..4usize)
                .map(|tj| {
                    Task::new(move |ctx| {
                        ctx.charge(Work {
                            flops: 1e10,
                            bytes_in: 0.0,
                            bytes_out: 0.0,
                        });
                        let mut acc = Tile::dense(cumulon_matrix::DenseTile::zeros(4, 4));
                        for ti in 0..4 {
                            let t = ctx.read_tile("B", ti, tj)?;
                            acc = t.elementwise(&acc, ElemOp::Add)?;
                        }
                        ctx.write_tile("C", 0, tj, &acc)?;
                        Ok(())
                    })
                })
                .collect();
            dag.push(Job::new("fold", "elem", folds), vec![0]);
            let failures = FailurePlan {
                revocations: vec![Revocation {
                    at_s: 25.0,
                    nodes: vec![2],
                    warning_lead_s: 5.0,
                }],
                ..Default::default()
            };
            let r = c
                .run_with(
                    &dag,
                    ExecMode::Real,
                    SchedulerConfig {
                        threads,
                        ..Default::default()
                    },
                    &failures,
                )
                .unwrap();
            let out = c.store().get_local("C").unwrap();
            let evictions = c.store().dfs().spill_stats().map_or(0, |s| s.evictions);
            (
                format!("{} out={:016x}", r.fingerprint(), out.sum().to_bits()),
                evictions,
            )
        };

        // ~150 wire bytes per 4x4 dense tile, 36 tiles in flight: a 600 B
        // budget keeps only a handful resident and evicts continuously.
        let (base, ev) = run(1, 0, false);
        assert_eq!(ev, 0, "no budget, no spill plane");
        for (threads, budget, materialize) in [
            (4, 0, false),
            (1, 0, true),
            (4, 0, true),
            (1, 600, false),
            (4, 600, false),
        ] {
            let (fp, ev) = run(threads, budget, materialize);
            assert_eq!(
                fp, base,
                "plane divergence at threads={threads} budget={budget} materialize={materialize}"
            );
            if budget > 0 {
                assert!(
                    ev > 0,
                    "tight budget must actually evict (threads={threads})"
                );
            } else {
                assert_eq!(ev, 0);
            }
        }
    }

    #[test]
    fn try_run_reports_lost_blocks() {
        use cumulon_dfs::DfsConfig;
        // Replication 1: killing the tile's only holder loses the block.
        let c = Cluster::provision_with(
            ClusterSpec::named("m1.large", 3, 1).unwrap(),
            HardwareModel::default(),
            DfsConfig {
                replication: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let meta = MatrixMeta::new(2, 2, 2);
        c.store().register("A", meta).unwrap();
        c.store()
            .write_tile("A", 0, 0, &Tile::zeros(2, 2), Some(NodeId(2)))
            .unwrap();
        c.store().dfs().kill_node(NodeId(2)).unwrap();
        let mut dag = JobDag::new();
        let task = Task::new(|ctx| {
            ctx.read_tile("A", 0, 0)?;
            Ok(())
        });
        dag.push(Job::new("r#0", "read", vec![task]), vec![]);
        let failure = c
            .try_run_with(
                &dag,
                ExecMode::Real,
                SchedulerConfig::default(),
                &FailurePlan::default(),
            )
            .unwrap_err();
        assert!(
            matches!(failure.error, ClusterError::TaskFailed { .. }),
            "{failure}"
        );
        assert_eq!(failure.failed, Some(("r#0".to_string(), 0)));
        assert_eq!(failure.lost_blocks, vec!["/matrix/A/0_0".to_string()]);
        assert_eq!(failure.faults.lost_block_events, 1);
        assert!(failure.completed_jobs.is_empty());
    }

    #[test]
    fn fault_counters_in_report() {
        let c = cluster(2, 2);
        let mut dag = JobDag::new();
        dag.push(burn_job("flaky", 12, 1e9), vec![]);
        let failures = FailurePlan {
            task_failure_prob: 0.3,
            seed: 5,
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert!(r.faults.retries > 0);
        assert_eq!(r.faults.retries, r.jobs[0].retries() as u64);
        assert_eq!(
            r.faults.task_attempts,
            12 + r.faults.retries,
            "attempts = tasks + retries with no speculation"
        );
        assert!(r.summary().contains("retries"));
    }

    #[test]
    fn dead_node_stays_dead_across_runs() {
        let c = cluster(3, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 6, 5e10), vec![]);
        let failures = FailurePlan {
            node_failures: vec![(1.0, 2)],
            ..Default::default()
        };
        let r1 = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r1.faults.node_deaths, 1);
        // A second run on the same cluster must not place work on node 2.
        let r2 = c.run(&dag, ExecMode::Real).unwrap();
        assert!(
            r2.jobs[0].tasks.iter().all(|t| t.node != 2),
            "node 2 is dead; nothing may run there"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let c = cluster(3, 2);
            let mut dag = JobDag::new();
            dag.push(burn_job("b", 10, 3e9), vec![]);
            c.run(&dag, ExecMode::Real).unwrap().makespan_s
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};
    use crate::hw::{HardwareModel, NoiseModel};
    use crate::job::{ExecMode, Job, JobDag, Task};
    use cumulon_dfs::DfsConfig;
    use cumulon_matrix::ops::Work;

    fn noisy_cluster(nodes: u32, slots: u32, sigma: f64, seed: u64) -> Cluster {
        let hw = HardwareModel {
            noise: NoiseModel { sigma, seed },
            ..HardwareModel::default()
        };
        Cluster::provision_with(
            ClusterSpec::named("m1.large", nodes, slots).unwrap(),
            hw,
            DfsConfig::default(),
        )
        .unwrap()
    }

    fn burn_dag(tasks: usize, flops: f64) -> JobDag {
        let mut dag = JobDag::new();
        let tasks = (0..tasks)
            .map(|_| {
                Task::new(move |ctx| {
                    ctx.charge(Work {
                        flops,
                        bytes_in: 0.0,
                        bytes_out: 0.0,
                    });
                    Ok(())
                })
            })
            .collect();
        dag.push(Job::new("burn", "burn", tasks), vec![]);
        dag
    }

    #[test]
    fn speculation_cuts_the_straggler_tail() {
        // Heavy-tailed task noise, single wave: the slowest draw dominates
        // the makespan unless a backup with a fresh draw overtakes it.
        let mut improved = 0;
        let mut regressed = 0;
        for seed in 0..8u64 {
            let dag = burn_dag(8, 2e10);
            let base = noisy_cluster(4, 2, 0.8, seed)
                .run_with(
                    &dag,
                    ExecMode::Real,
                    SchedulerConfig::default(),
                    &FailurePlan::default(),
                )
                .unwrap()
                .makespan_s;
            let spec = noisy_cluster(4, 2, 0.8, seed)
                .run_with(
                    &dag,
                    ExecMode::Real,
                    SchedulerConfig::with_speculation(),
                    &FailurePlan::default(),
                )
                .unwrap()
                .makespan_s;
            if spec < base * 0.999 {
                improved += 1;
            }
            if spec > base * 1.001 {
                regressed += 1;
            }
        }
        assert!(
            improved >= 4,
            "speculation should usually help: improved {improved}/8"
        );
        assert_eq!(
            regressed, 0,
            "first-copy-wins means speculation never hurts"
        );
    }

    #[test]
    fn speculation_preserves_task_accounting() {
        let dag = burn_dag(6, 1e10);
        let report = noisy_cluster(3, 2, 1.0, 42)
            .run_with(
                &dag,
                ExecMode::Real,
                SchedulerConfig::with_speculation(),
                &FailurePlan::default(),
            )
            .unwrap();
        // Exactly one completion per task, even when twins were launched.
        let mut seen: Vec<usize> = report.jobs[0].tasks.iter().map(|t| t.task).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn speculation_off_by_default() {
        let config = SchedulerConfig::default();
        assert!(!config.speculative);
        assert!(!config.ignore_locality);
        assert_eq!(config.speculation_factor, 1.5);
    }

    #[test]
    fn ignore_locality_reduces_local_reads() {
        use cumulon_dfs::dfs::NodeId;
        use cumulon_matrix::{MatrixMeta, Tile};

        let run = |ignore: bool| {
            let c = noisy_cluster(4, 1, 0.0, 0);
            // One tile per node, single replica, so locality is scarce.
            let meta = MatrixMeta::new(8, 8, 2); // 4x4 grid = 16 tiles
            let store = c.store();
            store.register("A", meta).unwrap();
            for (i, (ti, tj)) in meta.grid().iter().enumerate() {
                let writer = NodeId((i % 4) as u32);
                // Replication 3 by default; tighten by writing through a
                // replication-1 path is not available, so rely on hints.
                store
                    .write_tile("A", ti, tj, &Tile::zeros(2, 2), Some(writer))
                    .unwrap();
            }
            let mut dag = JobDag::new();
            let tasks = meta
                .grid()
                .iter()
                .map(|(ti, tj)| {
                    Task::new(move |ctx| {
                        ctx.read_tile("A", ti, tj)?;
                        Ok(())
                    })
                    .with_locality("A", ti, tj)
                })
                .collect();
            dag.push(Job::new("readers", "read", tasks), vec![]);
            let config = SchedulerConfig {
                ignore_locality: ignore,
                ..Default::default()
            };
            let report = c
                .run_with(&dag, ExecMode::Real, config, &FailurePlan::default())
                .unwrap();
            report.jobs[0].locality_rate()
        };
        let with_locality = run(false);
        let without = run(true);
        assert!(
            with_locality >= without,
            "locality-aware placement can only help: {with_locality} vs {without}"
        );
        assert!(
            with_locality > 0.9,
            "locality scheduling should place most tasks locally"
        );
    }
}

/// Data-free replay: a recorded read is charged from DFS metadata and
/// accepted only while the content version it saw still holds. Each test
/// hands the DES loop a recording made before some store change, so the
/// replay meets that change deterministically at assignment.
#[cfg(test)]
mod replay_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::job::{Job, Task};
    use cumulon_dfs::{DfsConfig, SpillConfig};
    use cumulon_matrix::{DenseTile, LocalMatrix, MatrixMeta, Tile};

    /// Three single-slot nodes at the given replication, with a 4x4 `A`
    /// whose one tile lives on node 2, and an empty `B` of the same shape.
    fn setup(replication: usize) -> Cluster {
        let c = Cluster::provision_with(
            ClusterSpec::named("m1.large", 3, 1).unwrap(),
            HardwareModel::default(),
            DfsConfig {
                replication,
                ..Default::default()
            },
        )
        .unwrap();
        let meta = MatrixMeta::new(4, 4, 4);
        c.store().register("A", meta).unwrap();
        let a = DenseTile::from_fn(4, 4, |i, j| (i * 4 + j) as f64 - 5.5);
        c.store()
            .write_tile("A", 0, 0, &Tile::dense(a), Some(NodeId(2)))
            .unwrap();
        c.store().register("B", meta).unwrap();
        c
    }

    /// One task: `B = 2A`, counting how often its logic runs.
    fn doubler(runs: &Arc<AtomicUsize>) -> JobDag {
        let runs = Arc::clone(runs);
        let task = Task::new(move |ctx| {
            runs.fetch_add(1, Ordering::Relaxed);
            let a = ctx.read_tile("A", 0, 0)?;
            let mut b = (*a).clone();
            b.scale(2.0);
            ctx.write_tile("B", 0, 0, b)?;
            Ok(())
        });
        let mut dag = JobDag::new();
        dag.push(Job::new("double", "scale", vec![task]), vec![]);
        dag
    }

    /// Records job 0 / task 0 against the store as it is now, exactly as
    /// a lookahead worker would.
    fn record(c: &Cluster, dag: &JobDag) -> Vec<TaskOp> {
        let mut ctx = TaskCtx::new_recording(c.store().clone(), ExecMode::Real);
        (dag.jobs[0].tasks[0].run)(&mut ctx).unwrap();
        ctx.into_ops()
    }

    /// Runs `dag` at two worker threads with `ops` as job 0 / task 0's
    /// lookahead recording: the DES loop replays exactly this log.
    #[allow(clippy::result_large_err)]
    fn run_with_recording(
        c: &Cluster,
        dag: &JobDag,
        ops: Vec<TaskOp>,
    ) -> std::result::Result<RunReport, RunFailure> {
        let sched = Scheduler::new(c.spec(), c.store().clone(), *c.hardware(), c.billing());
        let failures = FailurePlan::default();
        let config = SchedulerConfig::default().with_threads(2);
        let mut exec = Exec::new(
            &sched,
            dag,
            ExecMode::Real,
            config,
            &failures,
            2,
            Trace::disabled(),
        );
        let lease = exec.pool.as_ref().expect("two threads lease a pool");
        lease.pool.state.0.lock().results.insert(
            (lease.lease, 0, 0),
            SpecSlot::Done(Ok(Recorded { ops, error: None })),
        );
        // Job 0 counts as handed to the pool, so no worker records it anew.
        exec.spec_enqueued[0] = true;
        match exec.drive(&mut EventQueue::new()) {
            Ok(()) => Ok(exec.report()),
            Err(error) => Err(exec.into_failure(error)),
        }
    }

    #[allow(clippy::result_large_err)]
    fn run_sequential(c: &Cluster, dag: &JobDag) -> std::result::Result<RunReport, RunFailure> {
        c.try_run_with(
            dag,
            ExecMode::Real,
            SchedulerConfig::default().with_threads(1),
            &FailurePlan::default(),
        )
    }

    fn output(c: &Cluster) -> LocalMatrix {
        c.store().get_local("B").unwrap()
    }

    /// A file rewritten between recording and replay is refused even when
    /// its content is unchanged (a checkpoint), and when it is not (an
    /// overwrite): the task runs inline and matches the sequential run.
    #[test]
    fn rewritten_file_refuses_replay_and_runs_inline() {
        let rewrite = |c: &Cluster, what: &str| {
            if what == "checkpoint" {
                c.store().checkpoint_matrix("A", 3).unwrap();
            } else {
                let t = Tile::dense(DenseTile::from_fn(4, 4, |i, j| (i + j) as f64));
                c.store()
                    .write_tile("A", 0, 0, &t, Some(NodeId(1)))
                    .unwrap();
            }
        };
        for what in ["checkpoint", "overwrite"] {
            let runs = Arc::new(AtomicUsize::new(0));
            let dag = doubler(&runs);
            let c = setup(2);
            let ops = record(&c, &dag);
            rewrite(&c, what);
            let replayed = run_with_recording(&c, &dag, ops).unwrap();
            assert_eq!(
                runs.load(Ordering::Relaxed),
                2,
                "{what}: the refused replay fell back to one inline run"
            );
            let reference = setup(2);
            rewrite(&reference, what);
            let sequential = run_sequential(&reference, &dag).unwrap();
            assert_eq!(replayed.fingerprint(), sequential.fingerprint(), "{what}");
            assert_eq!(output(&c), output(&reference), "{what}");
        }
    }

    /// Replaying a read of a tile the budget has demoted to disk charges
    /// it without re-admitting it; the sequential run does re-admit.
    #[test]
    fn demoted_tile_replays_without_readmission() {
        let runs = Arc::new(AtomicUsize::new(0));
        let dag = doubler(&runs);
        let run = |replay: bool| {
            let c = setup(2);
            let ops = record(&c, &dag);
            c.store()
                .set_memory_budget(&SpillConfig::budgeted(1))
                .unwrap();
            assert!(c.store().dfs().is_spilled("/matrix/A/0_0"));
            let before = c.store().dfs().spill_stats().unwrap().readmissions;
            let report = if replay {
                run_with_recording(&c, &dag, ops)
            } else {
                run_sequential(&c, &dag)
            }
            .unwrap();
            let readmitted = c.store().dfs().spill_stats().unwrap().readmissions - before;
            (report.fingerprint(), readmitted, output(&c))
        };
        let (fp, readmitted, out) = run(true);
        assert_eq!(runs.load(Ordering::Relaxed), 1, "the replay was accepted");
        assert_eq!(readmitted, 0, "replay must not re-admit the demoted tile");
        let (seq_fp, seq_readmitted, seq_out) = run(false);
        assert_eq!(seq_readmitted, 1, "an inline read does re-admit it");
        assert_eq!(fp, seq_fp);
        assert_eq!(out, seq_out);
    }

    /// A block lost between recording and replay surfaces during replay
    /// as on a real read: the task falls back inline and the run fails
    /// with the same error, lost blocks and fault counters as a
    /// sequential run.
    #[test]
    fn lost_block_during_replay_matches_sequential_failure() {
        let key = |f: &RunFailure| {
            format!(
                "{} {:?} {:?} {:?} {:016x} {:?}",
                f.error,
                f.failed,
                f.lost_blocks,
                f.dead_nodes,
                f.makespan_s.to_bits(),
                f.faults
            )
        };
        let runs = Arc::new(AtomicUsize::new(0));
        let dag = doubler(&runs);
        // Replication 1: killing node 2 loses A's only replica.
        let c = setup(1);
        let ops = record(&c, &dag);
        c.store().dfs().kill_node(NodeId(2)).unwrap();
        let replayed = run_with_recording(&c, &dag, ops).unwrap_err();
        let replay_runs = runs.swap(0, Ordering::Relaxed);

        let reference = setup(1);
        reference.store().dfs().kill_node(NodeId(2)).unwrap();
        let sequential = run_sequential(&reference, &dag).unwrap_err();
        assert_eq!(
            replay_runs,
            1 + runs.load(Ordering::Relaxed),
            "only the recording ran beyond the sequential attempts"
        );
        assert!(matches!(replayed.error, ClusterError::TaskFailed { .. }));
        assert_eq!(replayed.lost_blocks, vec!["/matrix/A/0_0".to_string()]);
        assert_eq!(key(&replayed), key(&sequential));
    }
}
