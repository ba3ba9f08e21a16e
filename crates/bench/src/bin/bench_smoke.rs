//! CI bench smoke and regression gate: GEMM kernel timings (the packed
//! production path vs the retired blocked reference, n=128..1024), a
//! parallel GEMM end-to-end row, and one end-to-end Real-mode run
//! executed at 1 worker thread and at N, verifying the two runs are
//! bitwise-identical and that the parallel executor clears committed
//! speed thresholds.
//!
//! Emits `BENCH_gemm.json`, `BENCH_e2e.json` and `BENCH_spill.json` in
//! the working directory (machine-readable), plus `BENCH_trace.json` —
//! the sequential run's Chrome trace_event timeline, loadable in
//! Perfetto — and prints a human summary. Exit is non-zero if:
//!
//! * the packed GEMM at n=1024 falls below [`MIN_GEMM_GFLOPS`] *and*
//!   below [`MIN_GEMM_SPEEDUP`]x the in-process reference kernel, on a
//!   host whose dense kernel dispatched to an FMA SIMD clone (soft
//!   warning on generic hosts, where the floor is unattainable; the
//!   ratio fallback keeps ambient VM contention — which slows both
//!   kernels alike — from tripping the gate);
//! * the parallel run diverges bitwise from the sequential one (any host);
//! * the e2e speedup at [`E2E_THREADS`] threads falls below
//!   [`MIN_SPEEDUP`] on a host with at least [`E2E_THREADS`] cores;
//! * the speedup falls below [`OVERHEAD_FLOOR`] on any host — parallel
//!   execution must never be materially slower than sequential (the
//!   regression class this gate exists for: the pre-lookahead executor
//!   ran at 0.49x on a single-core host);
//! * the e2e phase accounting identity `compute + read + write +
//!   startup + overhead + idle = makespan` drifts (the phases come from
//!   the traced run's critical path, wall-clock-attributed — *not*
//!   slot-seconds summed across idle speculative workers, which once
//!   reported 12.2 s of "overhead" on a 0.84 s run);
//! * an out-of-core run (same Gram workload under a resident-tile budget
//!   far below its working set) diverges bitwise from the unbounded run,
//!   fails to actually spill, or costs more than [`MAX_SPILL_SLOWDOWN`]x
//!   the unbounded wall in its best paired round;
//! * the GEMM fan-out under [`FAN_SPILL_BUDGET`] diverges bitwise from
//!   its unbounded run, fails to spill, or costs more than
//!   [`MAX_FAN_SPILL_SLOWDOWN`]x the unbounded wall in its best paired
//!   round.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use cumulon::cluster::instances::catalog;
use cumulon::cluster::{
    set_default_threads, Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig,
    Trace, TraceLog,
};
use cumulon::core::calibrate::{CostModel, OpCoefficients};
use cumulon::core::{InputDesc, Optimizer, ProgramBuilder, RecoveryConfig};
use cumulon::dfs::{DfsConfig, SpillStats};
use cumulon::matrix::gen::Generator;
use cumulon::matrix::{DenseTile, LocalMatrix, MatrixMeta, SimdLevel};

const E2E_THREADS: usize = 4;
/// Committed single-core floor for the packed GEMM at n=1024, ≥3x the
/// 7.8 GF/s the retired blocked kernel managed on the same host class.
/// Enforced only where the microkernel dispatched to an FMA SIMD clone;
/// the generic clone (no fused multiply-add) can't reach it.
const MIN_GEMM_GFLOPS: f64 = 23.0;
/// Fallback gate when ambient contention (VM steal, noisy neighbors)
/// slows the whole host below [`MIN_GEMM_GFLOPS`]: the packed kernel
/// must still beat the in-process reference measurement — taken under
/// the same conditions, so the ratio is contention-invariant — by this
/// factor. Missing *both* is a genuine kernel regression.
const MIN_GEMM_SPEEDUP: f64 = 3.0;
/// Committed e2e speedup floor at `E2E_THREADS` threads, enforced only on
/// hosts with at least that many cores (wall-clock parallel speedup is
/// unattainable on fewer).
const MIN_SPEEDUP: f64 = 1.5;
/// Committed overhead floor on hosts with at least [`E2E_THREADS`]
/// cores: the parallel executor may never run materially slower than the
/// sequential one.
const OVERHEAD_FLOOR: f64 = 0.8;
/// Overhead floor when the host has fewer cores than [`E2E_THREADS`]
/// (threads time-slice one core). Looser than [`OVERHEAD_FLOOR`]: the
/// packed SIMD kernels are cache-resident, so context switches between
/// oversubscribed workers evict each other's panels and cost up to ~25%
/// against the sequential run — physics, not executor overhead. Still
/// tight enough to catch the 0.49x regression class this gate exists for.
const OVERSUBSCRIBED_FLOOR: f64 = 0.65;
const META: MatrixMeta = MatrixMeta {
    rows: 1536,
    cols: 1536,
    tile_size: 256,
};
/// Resident-tile budgets for the out-of-core smoke. The Gram run writes
/// 36 output tiles of 512 KiB (~18 MB through the spill plane): 2 MiB
/// holds four of them, 512 KiB exactly one — every write evicts.
const SPILL_BUDGETS: [u64; 2] = [2 << 20, 512 << 10];
/// Paired (unbounded, budgeted) rounds of every spill row; the gates read
/// the best per-round ratio, as the e2e row does for seq/par.
const SPILL_ROUNDS: usize = 3;
/// A budgeted run pays host-side encode, digest and disk work the
/// unbounded run skips; this bounds how much. Generous because CI walls
/// are noisy and the runs are sub-second, but still low enough to catch a
/// spill path that re-encodes or re-reads tiles quadratically.
const MAX_SPILL_SLOWDOWN: f64 = 6.0;
/// The spill-heavy row: the GEMM fan-out at 1024^2 (tile 128) moves six
/// 8 MiB matrices (two inputs, the product and three consumers) through a
/// 2 MiB resident budget, so nearly every tile is demoted and read back.
const FAN_META: MatrixMeta = MatrixMeta {
    rows: 1024,
    cols: 1024,
    tile_size: 128,
};
const FAN_SPILL_BUDGET: u64 = 2 << 20;
/// Bound on the fan row's best paired budgeted/unbounded wall ratio. On
/// a 2-core AVX-512 host, 8 runs of this row measured 3.5–4.3x (worst
/// single round 5.5x); with an LZSS pass on every demotion the same row
/// measured 13–16x. The bound sits between the two, so a codec-class
/// cost on the spill path trips it while host noise does not.
const MAX_FAN_SPILL_SLOWDOWN: f64 = 8.0;

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    gemm_smoke();
    e2e_smoke();
    spill_smoke();
}

/// Best-of-`reps` wall seconds for one `f(c, a, b)` call.
fn time_gemm(
    f: impl Fn(&mut DenseTile, &DenseTile, &DenseTile),
    a: &DenseTile,
    b: &DenseTile,
    reps: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut c = DenseTile::zeros(a.rows(), b.cols());
        let t0 = Instant::now();
        f(&mut c, a, b);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn gemm_smoke() {
    let simd = cumulon::matrix::simd_level();
    println!("dense microkernel dispatch: {}", simd.name());
    let mut json = String::from("[");
    let mut packed_1024_gflops = 0.0;
    let mut speedup_1024 = 0.0;
    for (i, n) in [128usize, 192, 256, 512, 1024].into_iter().enumerate() {
        let a = cumulon::matrix::gen::dense_uniform_tile(1, 0, 0, n, n, -1.0, 1.0);
        let b = cumulon::matrix::gen::dense_uniform_tile(2, 0, 0, n, n, -1.0, 1.0);
        // Best-of-reps: CI hosts are noisy and the floor gate below must
        // not trip on a scheduler hiccup.
        let reps = (512 / n).max(3);
        let flops = 2.0 * (n as f64).powi(3);
        // The production dispatcher (packed SIMD path at these sizes).
        let secs = time_gemm(
            |c, a, b| DenseTile::gemm_acc(c, a, b).unwrap(),
            &a,
            &b,
            reps,
        );
        let gflops = flops / 1e9 / secs;
        // The seed's blocked kernel, kept as the comparison baseline.
        let ref_secs = time_gemm(
            |c, a, b| DenseTile::gemm_acc_blocked(c, a, b).unwrap(),
            &a,
            &b,
            reps.min(3),
        );
        let ref_gflops = flops / 1e9 / ref_secs;
        if n == 1024 {
            packed_1024_gflops = gflops;
            speedup_1024 = ref_secs / secs;
        }
        println!(
            "gemm n={n}: packed {:.1}ms ({gflops:.2} GF/s), reference {:.1}ms ({ref_gflops:.2} GF/s)",
            secs * 1e3,
            ref_secs * 1e3
        );
        if i > 0 {
            json.push(',');
        }
        let _ = write!(
            json,
            "{{\"kernel\":\"gemm_packed\",\"n\":{n},\"simd\":\"{}\",\
             \"seconds\":{secs:.6},\"gflops\":{gflops:.3}}},\
             {{\"kernel\":\"gemm_blocked\",\"n\":{n},\
             \"seconds\":{ref_secs:.6},\"gflops\":{ref_gflops:.3}}}",
            simd.name()
        );
    }
    // Parallel-GEMM smoke: the same multiply driven through the cluster
    // executor with threads = 0 (all host cores), exercising the lookahead
    // pool end to end.
    let (secs, n) = gemm_parallel_e2e();
    let gflops = 2.0 * (n as f64).powi(3) / 1e9 / secs;
    println!(
        "gemm e2e n={n} threads=0: {:.1}ms ({gflops:.2} GF/s)",
        secs * 1e3
    );
    let _ = write!(
        json,
        ",{{\"kernel\":\"gemm_parallel_e2e\",\"n\":{n},\"threads\":0,\
         \"seconds\":{secs:.6},\"gflops\":{gflops:.3}}}"
    );
    json.push(']');
    std::fs::write("BENCH_gemm.json", json).expect("write BENCH_gemm.json");
    // Committed floor: the packed kernel must hold ≥3x the seed's rate at
    // n=1024 wherever the microkernel found an FMA SIMD clone to run.
    // When ambient contention drags the absolute number under the floor,
    // the contention-invariant speedup over the in-process reference
    // measurement must still hold — only missing both is a regression.
    if packed_1024_gflops < MIN_GEMM_GFLOPS {
        if simd == SimdLevel::Generic {
            println!(
                "warn: packed gemm n=1024 at {packed_1024_gflops:.2} GF/s below \
                 {MIN_GEMM_GFLOPS} floor — not enforced on generic (no-FMA) hosts"
            );
        } else if speedup_1024 >= MIN_GEMM_SPEEDUP {
            println!(
                "warn: packed gemm n=1024 at {packed_1024_gflops:.2} GF/s below the \
                 {MIN_GEMM_GFLOPS} floor, but {speedup_1024:.2}x the in-process \
                 reference — host contention, not a kernel regression"
            );
        } else {
            eprintln!(
                "GATE FAIL: packed gemm n=1024 at {packed_1024_gflops:.2} GF/s \
                 (floor {MIN_GEMM_GFLOPS} on {} hosts) and only {speedup_1024:.2}x \
                 the in-process reference (floor {MIN_GEMM_SPEEDUP}x)",
                simd.name()
            );
            std::process::exit(1);
        }
    }
}

/// One Real-mode C = A x B at 1024^2 (4x4 tile grid) on all host cores.
/// Returns (wall seconds, n).
fn gemm_parallel_e2e() -> (f64, usize) {
    const N: usize = 1024;
    set_default_threads(0);
    let meta = MatrixMeta {
        rows: N,
        cols: N,
        tile_size: 256,
    };
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    let store = cluster.store();
    store
        .register_generated("A", meta, Generator::DenseGaussian { seed: 11 })
        .unwrap();
    store
        .register_generated("B", meta, Generator::DenseGaussian { seed: 13 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let bb = b.input("B");
    let c = b.mul(a, bb);
    b.output("C", c);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    for name in ["A", "B"] {
        inputs.insert(
            name.to_string(),
            InputDesc {
                meta,
                density: 1.0,
                sparse: false,
                generated: true,
            },
        );
    }
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    let t0 = Instant::now();
    opt.execute_on(&cluster, &program, &inputs, "gemm_par", ExecMode::Real)
        .unwrap();
    (t0.elapsed().as_secs_f64(), N)
}

/// Run fingerprint: the canonical [`RunReport::fingerprint`] (shared with
/// `cumulon check`) plus the bit pattern of every output's norm.
fn fingerprint(report: &RunReport, outputs: &[LocalMatrix]) -> String {
    let mut s = report.fingerprint();
    for m in outputs {
        let _ = writeln!(s, "out {:016x}", m.frob_norm().to_bits());
    }
    s
}

fn e2e_once(threads: usize) -> (f64, String, LocalMatrix, TraceLog) {
    set_default_threads(threads);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    cluster
        .store()
        .register_generated("A", META, Generator::DenseGaussian { seed: 7 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let at = b.transpose(a);
    let g = b.mul(at, a);
    b.output("G", g);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "A".to_string(),
        InputDesc {
            meta: META,
            density: 1.0,
            sparse: false,
            generated: true,
        },
    );
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    // Traced at every thread count: the fingerprint equality below doubles
    // as a check that recording spans never perturbs results.
    let trace = Trace::enabled();
    let t0 = Instant::now();
    let report = opt
        .execute_on_traced(
            &cluster,
            &program,
            &inputs,
            "smoke",
            ExecMode::Real,
            SchedulerConfig::default(),
            &FailurePlan::default(),
            RecoveryConfig::default(),
            &trace,
        )
        .unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let out = cluster.store().get_local("G").unwrap();
    let fp = fingerprint(&report, std::slice::from_ref(&out));
    (wall, fp, out, trace.snapshot().expect("trace enabled"))
}

fn e2e_smoke() {
    let cores = host_cores();
    // Two *paired* rounds of (sequential, parallel), gating on the best
    // per-round ratio: CI hosts see multi-second ambient contention
    // windows, and pairing keeps a window from slowing only one side of
    // the ratio (best-of-N per side, measured minutes apart, still
    // tripped the overhead gate on a noisy 1-core host). Each round also
    // re-asserts bitwise determinism against the first.
    let (mut seq_s, mut par_s, mut speedup) = (f64::INFINITY, f64::INFINITY, 0.0_f64);
    let mut kept: Option<(String, LocalMatrix, TraceLog, String, LocalMatrix)> = None;
    for _ in 0..2 {
        let (s_s, s_fp, s_out, s_log) = e2e_once(1);
        let (p_s, p_fp, p_out, _) = e2e_once(E2E_THREADS);
        speedup = speedup.max(s_s / p_s);
        seq_s = seq_s.min(s_s);
        par_s = par_s.min(p_s);
        match &kept {
            None => kept = Some((s_fp, s_out, s_log, p_fp, p_out)),
            Some((fp0, _, _, pfp0, _)) => {
                assert_eq!(fp0, &s_fp, "sequential e2e nondeterministic across rounds");
                assert_eq!(pfp0, &p_fp, "parallel e2e nondeterministic across rounds");
            }
        }
    }
    let (seq_fp, seq_out, seq_log, par_fp, par_out) = kept.expect("two rounds ran");
    let identical = seq_fp == par_fp && seq_out == par_out;
    println!(
        "e2e G=A'A {}x{} t{}: 1 thread {seq_s:.2}s, {E2E_THREADS} threads {par_s:.2}s \
         ({speedup:.2}x on {cores} core(s)), bitwise identical: {identical}",
        META.rows, META.cols, META.tile_size,
    );
    // The sequential run's timeline (deterministic span order at 1 thread).
    std::fs::write("BENCH_trace.json", seq_log.to_chrome_json()).expect("write BENCH_trace.json");
    // Phase attribution comes from the critical path, so the reported
    // seconds are wall-clock: phases + idle reproduce the makespan.
    // (`phase_totals()` sums slot-seconds across every worker — idle
    // speculative slots once inflated "overhead" to 14x the wall time.)
    // `phase_startup_s` is the fixed task-launch cost on the path, kept
    // out of `phase_overhead_s`: this one-wave plan's critical path is a
    // single task, so its constant ~2s launch once read as 66% executor
    // "overhead" on a 3.6s run.
    let cp = seq_log.critical_path();
    let accounting_drift = (cp.accounted_s() - cp.makespan_s).abs();
    let json = format!(
        "{{\"experiment\":\"e2e_gram_1536\",\"seq_seconds\":{seq_s:.4},\
         \"par_seconds\":{par_s:.4},\"threads\":{E2E_THREADS},\
         \"speedup\":{speedup:.3},\"host_cores\":{cores},\
         \"bitwise_identical\":{identical},\
         \"makespan_s\":{:.4},\
         \"phase_compute_s\":{:.4},\"phase_read_s\":{:.4},\
         \"phase_write_s\":{:.4},\"phase_startup_s\":{:.4},\
         \"phase_overhead_s\":{:.4},\"phase_idle_s\":{:.4}}}",
        cp.makespan_s,
        cp.phases.compute_s,
        cp.phases.read_s,
        cp.phases.write_s,
        cp.phases.startup_s,
        cp.phases.overhead_s,
        cp.idle_s,
    );
    std::fs::write("BENCH_e2e.json", json).expect("write BENCH_e2e.json");
    if accounting_drift > 1e-6 * cp.makespan_s.max(1.0) {
        eprintln!(
            "GATE FAIL: phase accounting identity broken: phases {:.6}s + idle {:.6}s \
             != makespan {:.6}s",
            cp.phases.total_s(),
            cp.idle_s,
            cp.makespan_s
        );
        std::process::exit(1);
    }
    if !identical {
        eprintln!("GATE FAIL: parallel run diverged from sequential run");
        eprintln!("--- sequential ---\n{seq_fp}\n--- parallel ---\n{par_fp}");
        std::process::exit(1);
    }
    let floor = if cores >= E2E_THREADS {
        OVERHEAD_FLOOR
    } else {
        OVERSUBSCRIBED_FLOOR
    };
    if speedup < floor {
        eprintln!(
            "GATE FAIL: parallel executor overhead: speedup {speedup:.3} \
             below floor {floor} (host has {cores} core(s))"
        );
        std::process::exit(1);
    }
    if cores >= E2E_THREADS && speedup < MIN_SPEEDUP {
        eprintln!(
            "GATE FAIL: e2e speedup {speedup:.3} below committed threshold \
             {MIN_SPEEDUP} at {E2E_THREADS} threads on {cores} cores"
        );
        std::process::exit(1);
    }
}

/// One Gram run at `E2E_THREADS` worker threads under a resident-tile
/// budget (0 = unbounded). `get_local` at the end drags every spilled
/// output tile back through the blob store, so the wall time prices the
/// full evict/readmit round trip. Returns (wall seconds, fingerprint,
/// spill counters).
fn spill_once(budget: u64) -> (f64, String, Option<SpillStats>) {
    set_default_threads(E2E_THREADS);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    if budget > 0 {
        cluster
            .store()
            .set_memory_budget(&cumulon::dfs::SpillConfig::budgeted(budget))
            .unwrap();
    }
    cluster
        .store()
        .register_generated("A", META, Generator::DenseGaussian { seed: 7 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let at = b.transpose(a);
    let g = b.mul(at, a);
    b.output("G", g);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "A".to_string(),
        InputDesc {
            meta: META,
            density: 1.0,
            sparse: false,
            generated: true,
        },
    );
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let opt = Optimizer::new(model);
    let t0 = Instant::now();
    let report = opt
        .execute_on(&cluster, &program, &inputs, "spill", ExecMode::Real)
        .unwrap();
    let out = cluster.store().get_local("G").unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let fp = fingerprint(&report, std::slice::from_ref(&out));
    (wall, fp, cluster.store().dfs().spill_stats())
}

/// [`SPILL_ROUNDS`] paired (unbounded, budgeted) runs of one spill row.
struct PairedSpill {
    /// Budgeted ÷ unbounded wall, one per round.
    ratios: Vec<f64>,
    unbounded_best: f64,
    spill_best: f64,
    /// Every budgeted run matched its round's unbounded fingerprint.
    identical: bool,
    /// Spill counters of the last budgeted run.
    stats: SpillStats,
}

impl PairedSpill {
    /// Runs `once(0)` then `once(budget)` per round, so an ambient
    /// contention window slows both sides of a round's ratio.
    fn measure(budget: u64, once: fn(u64) -> (f64, String, Option<SpillStats>)) -> Self {
        let mut ratios = Vec::with_capacity(SPILL_ROUNDS);
        let (mut unbounded_best, mut spill_best) = (f64::INFINITY, f64::INFINITY);
        let mut identical = true;
        let mut last = None;
        for _ in 0..SPILL_ROUNDS {
            let (base_s, base_fp, none) = once(0);
            assert!(none.is_none(), "no spill plane expected without a budget");
            let (spill_s, fp, stats) = once(budget);
            identical &= fp == base_fp;
            ratios.push(spill_s / base_s);
            unbounded_best = unbounded_best.min(base_s);
            spill_best = spill_best.min(spill_s);
            last = stats;
        }
        PairedSpill {
            ratios,
            unbounded_best,
            spill_best,
            identical,
            stats: last.expect("budgeted run installs a spill plane"),
        }
    }

    /// The gated ratio: the best round.
    fn slowdown(&self) -> f64 {
        self.ratios.iter().copied().fold(f64::INFINITY, f64::min)
    }

    fn worst(&self) -> f64 {
        self.ratios.iter().copied().fold(0.0, f64::max)
    }

    /// One summary line for `label`.
    fn print(&self, label: &str, bound: f64) {
        println!(
            "{label}: {:.2}s vs unbounded {:.2}s, best paired ratio {:.2}x (worst {:.2}x, \
             bound {bound}x), {} eviction(s), {} readmission(s), {} B spilled, \
             {} B read back, bitwise identical: {}",
            self.spill_best,
            self.unbounded_best,
            self.slowdown(),
            self.worst(),
            self.stats.evictions,
            self.stats.readmissions,
            self.stats.spilled_bytes_total,
            self.stats.readback_bytes_total,
            self.identical,
        );
    }

    /// The JSON fields every spill row shares.
    fn json_fields(&self, budget: u64, bound: f64) -> String {
        let ratios: Vec<String> = self.ratios.iter().map(|r| format!("{r:.3}")).collect();
        format!(
            "\"budget_bytes\":{budget},\"rounds\":{SPILL_ROUNDS},\
             \"unbounded_seconds\":{:.4},\"spill_seconds\":{:.4},\
             \"paired_ratios\":[{}],\"slowdown\":{:.3},\"bound\":{bound},\
             \"bitwise_identical\":{},\"evictions\":{},\"readmissions\":{},\
             \"spilled_bytes\":{},\"readback_bytes\":{},\"blob_segments\":{}",
            self.unbounded_best,
            self.spill_best,
            ratios.join(","),
            self.slowdown(),
            self.identical,
            self.stats.evictions,
            self.stats.readmissions,
            self.stats.spilled_bytes_total,
            self.stats.readback_bytes_total,
            self.stats.blob.segments,
        )
    }

    /// Applies the row's gates: bitwise identity, non-vacuity (a zero
    /// eviction counter would make the row vacuous) and the wall bound on
    /// the best round. Returns whether any failed.
    fn gate(&self, label: &str, bound: f64) -> bool {
        let mut failed = false;
        if !self.identical {
            eprintln!("GATE FAIL: {label} diverged from its unbounded run");
            failed = true;
        }
        if self.stats.evictions == 0 || self.stats.spilled_bytes_total == 0 {
            eprintln!(
                "GATE FAIL: {label} never spilled ({} evictions, {} B) — the gate is vacuous",
                self.stats.evictions, self.stats.spilled_bytes_total
            );
            failed = true;
        }
        if self.slowdown() > bound {
            eprintln!(
                "GATE FAIL: {label} ran {:.2}x the unbounded wall in its best paired \
                 round (bound {bound}x)",
                self.slowdown()
            );
            failed = true;
        }
        failed
    }
}

/// Out-of-core gate: the same Gram workload under budgets ~9x and ~36x
/// below its working set must reproduce the unbounded run bitwise (the
/// spill plane costs zero *simulated* time by construction), must
/// actually evict, and may not exceed [`MAX_SPILL_SLOWDOWN`] in its best
/// paired round. The GEMM fan-out row follows under
/// [`MAX_FAN_SPILL_SLOWDOWN`].
fn spill_smoke() {
    let mut rows = Vec::with_capacity(SPILL_BUDGETS.len());
    let mut failed = false;
    for budget in SPILL_BUDGETS {
        let label = format!("spill gram budget {} KiB", budget >> 10);
        let row = PairedSpill::measure(budget, spill_once);
        row.print(&label, MAX_SPILL_SLOWDOWN);
        rows.push(format!(
            "{{{}}}",
            row.json_fields(budget, MAX_SPILL_SLOWDOWN)
        ));
        failed |= row.gate(&label, MAX_SPILL_SLOWDOWN);
    }
    let label = format!(
        "spill fan {}^2 t{} budget {} KiB",
        FAN_META.rows,
        FAN_META.tile_size,
        FAN_SPILL_BUDGET >> 10
    );
    // Spill wall-time gate on the GEMM fan-out: its budgeted runs move
    // six matrices through the plane, so it bounds the readback path.
    let fan = PairedSpill::measure(FAN_SPILL_BUDGET, fan_spill_once);
    fan.print(&label, MAX_FAN_SPILL_SLOWDOWN);
    failed |= fan.gate(&label, MAX_FAN_SPILL_SLOWDOWN);
    let json = format!(
        "{{\"experiment\":\"spill_gram_1536\",\"threads\":{E2E_THREADS},\
         \"runs\":[{}],\"fan\":{{\"experiment\":\"spill_fan_{}\",\
         \"threads\":{E2E_THREADS},{}}}}}",
        rows.join(","),
        FAN_META.rows,
        fan.json_fields(FAN_SPILL_BUDGET, MAX_FAN_SPILL_SLOWDOWN),
    );
    std::fs::write("BENCH_spill.json", json).expect("write BENCH_spill.json");
    if failed {
        std::process::exit(1);
    }
}

/// Provisions a cluster under a resident-tile budget (0 = unbounded) and
/// runs the GEMM fan-out on it at [`FAN_META`]: C = AB feeding P = C + A,
/// Q = C - B and R = 0.5C, in Real mode at `E2E_THREADS` threads.
fn fan_run(budget: u64) -> (Cluster, RunReport) {
    let meta = FAN_META;
    set_default_threads(E2E_THREADS);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 4, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    if budget > 0 {
        cluster
            .store()
            .set_memory_budget(&cumulon::dfs::SpillConfig::budgeted(budget))
            .unwrap();
    }
    let mut inputs = BTreeMap::new();
    for (name, seed) in [("A", 3), ("B", 5)] {
        cluster
            .store()
            .register_generated(name, meta, Generator::DenseGaussian { seed })
            .unwrap();
        inputs.insert(
            name.to_string(),
            InputDesc {
                meta,
                density: 1.0,
                sparse: false,
                generated: true,
            },
        );
    }
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let bb = b.input("B");
    let c = b.mul(a, bb);
    let p = b.add(c, a);
    b.output("P", p);
    let q = b.sub(c, bb);
    b.output("Q", q);
    let r = b.scale(c, 0.5);
    b.output("R", r);
    let program = b.build();
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let report = Optimizer::new(model)
        .execute_on_traced(
            &cluster,
            &program,
            &inputs,
            "fan",
            ExecMode::Real,
            SchedulerConfig::default().with_threads(E2E_THREADS),
            &FailurePlan::default(),
            RecoveryConfig::default(),
            &Trace::disabled(),
        )
        .unwrap();
    (cluster, report)
}

/// One fan-out run at [`FAN_META`] under `budget` (0 = unbounded), timed
/// from execution through the readback of all three outputs (which drags
/// every spilled output tile back through the blob store). Returns (wall
/// seconds, fingerprint over the outputs, spill counters).
fn fan_spill_once(budget: u64) -> (f64, String, Option<SpillStats>) {
    let t0 = Instant::now();
    let (cluster, report) = fan_run(budget);
    let outputs: Vec<LocalMatrix> = ["P", "Q", "R"]
        .iter()
        .map(|name| cluster.store().get_local(name).unwrap())
        .collect();
    let wall = t0.elapsed().as_secs_f64();
    let fp = fingerprint(&report, &outputs);
    (wall, fp, cluster.store().dfs().spill_stats())
}
