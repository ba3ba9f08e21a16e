//! The three batch workloads: `gram_real` and `fan_spill` go through the
//! path `cumulon run --real` takes (DSL compile, provision, register the
//! generated inputs, `Optimizer::execute_on_traced` in Real mode, read
//! every output back), `gnmf_real` through `Gnmf::run`.
//!
//! One "program" is one execute plus the readback of every output, on a
//! freshly provisioned cluster; provisioning is outside its time.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use cumulon::cluster::{
    set_default_threads, Cluster, ClusterSpec, ExecMode, FailurePlan, RunReport, SchedulerConfig,
};
use cumulon::core::{InputDesc, Optimizer, Program, RecoveryConfig, Trace};
use cumulon::dfs::{SpillConfig, SpillStats};
use cumulon::lang::{compile_source, InputSpec};
use cumulon::matrix::gen::Generator;
use cumulon::matrix::tile::ElemOp;
use cumulon::matrix::{LocalMatrix, MatrixMeta, Tile, TileData};
use cumulon::workloads::gnmf::Gnmf;
use cumulon::workloads::Workload;

use crate::report::{Kind, Outcome};
use crate::setup::{self, isolate_peak_rss};
use crate::util::{err, median, nproc, par_map, peak_rss_mb, timed, Digest, Res, SplitMix};
use crate::Args;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Which {
    Gram,
    Gnmf,
    Fan,
}

/// Instance type, nodes and slots of every batch cluster.
const INSTANCE: &str = "m1.large";
const NODES: u32 = 4;
const SLOTS: u32 = 2;
/// Fewest timed programs a run makes, however short `--seconds` is.
const MIN_PROGRAMS: usize = 3;

const GRAM: &str = "G = A' * A;";
const FAN: &str = "C = A * B;\nP = C + A;\nQ = C - B;\nR = 0.5 * C;\nout P, Q, R;";

/// Where spill segments and spans go, inside the working directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// A DSL program as `cumulon run` takes it: the source, the compiled
/// program, one `n x n` input spec per input, and the output names.
struct Script {
    source: &'static str,
    program: Program,
    specs: Vec<InputSpec>,
    outputs: Vec<String>,
}

impl Script {
    fn new(source: &'static str, n: usize, tile: usize) -> Res<Script> {
        let compiled = compile_source(source).map_err(err)?;
        let specs = compiled
            .inputs
            .iter()
            .map(|name| InputSpec::parse(&format!("{name}={n}x{n}:{tile}")))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let outputs = compiled.outputs().iter().map(|s| s.to_string()).collect();
        Ok(Script {
            source,
            program: compiled.program,
            specs,
            outputs,
        })
    }

    fn descs(&self) -> BTreeMap<String, InputDesc> {
        self.specs
            .iter()
            .map(|s| (s.name.clone(), s.desc()))
            .collect()
    }
}

/// A workload's inputs and program, fixed by its seed.
pub struct Batch {
    pub which: Which,
    /// The DSL program (gram_real, fan_spill); `None` runs `gnmf`.
    script: Option<Script>,
    gnmf: Gnmf,
    iters: usize,
    /// Input generator seeds, derived from the workload seed.
    seeds: Vec<u64>,
    /// Resident-tile budget in bytes; 0 = unbounded.
    pub budget: u64,
    optimizer: Optimizer,
}

/// One program's outcome.
pub struct Run {
    pub wall_s: f64,
    pub exec_s: f64,
    pub get_local_s: f64,
    pub reports: Vec<RunReport>,
    pub outputs: Vec<LocalMatrix>,
    pub spill: Option<SpillStats>,
    pub cache: (u64, u64),
}

impl Run {
    pub fn fingerprint(&self) -> String {
        self.reports.iter().map(RunReport::fingerprint).collect()
    }
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl Batch {
    pub fn new(which: Which, seed: u64, quick: bool) -> Res<Batch> {
        let mut rng = SplitMix(seed);
        let seeds = vec![rng.next_u64() >> 16, rng.next_u64() >> 16];
        let script = match (which, quick) {
            (Which::Gram, false) => Some(Script::new(GRAM, 3072, 512)?),
            (Which::Fan, false) => Some(Script::new(FAN, 1024, 128)?),
            (Which::Gram, true) => Some(Script::new(GRAM, 96, 16)?),
            (Which::Fan, true) => Some(Script::new(FAN, 96, 16)?),
            (Which::Gnmf, _) => None,
        };
        // fan_spill's budget holds one n x n matrix (8 MiB at n = 1024):
        // about 8x below the working set of A, B, C, the three outputs
        // and the partial products.
        let budget = match (which, &script) {
            (Which::Fan, Some(s)) => s.specs[0].meta().elements() * 8,
            _ => 0,
        };
        let gnmf = if quick {
            Gnmf {
                m: 120,
                n: 100,
                rank: 4,
                tile_size: 20,
                density: 0.2,
                seed: seeds[0],
            }
        } else {
            Gnmf {
                m: 10_000,
                n: 10_000,
                rank: 50,
                tile_size: 500,
                density: 0.01,
                seed: seeds[0],
            }
        };
        Ok(Batch {
            which,
            script,
            gnmf,
            iters: if quick { 3 } else { 10 },
            seeds,
            budget,
            optimizer: Optimizer::new(cumulon::idealized_cost_model()),
        })
    }

    /// Input matrices: name, shape and generator.
    pub fn inputs(&self) -> Vec<(String, MatrixMeta, Generator)> {
        match &self.script {
            Some(s) => s
                .specs
                .iter()
                .zip(&self.seeds)
                .map(|(s, seed)| (s.name.clone(), s.meta(), s.generator(*seed)))
                .collect(),
            None => {
                // As `Gnmf::setup` registers them.
                let g = &self.gnmf;
                vec![
                    (
                        "V".into(),
                        MatrixMeta::new(g.m, g.n, g.tile_size),
                        Generator::SparseUniform {
                            seed: g.seed,
                            density: g.density,
                        },
                    ),
                    (
                        Gnmf::w_name(0),
                        MatrixMeta::new(g.m, g.rank, g.tile_size),
                        Generator::DenseUniform {
                            seed: g.seed ^ 0x57,
                            lo: 0.05,
                            hi: 1.0,
                        },
                    ),
                    (
                        Gnmf::h_name(0),
                        MatrixMeta::new(g.rank, g.n, g.tile_size),
                        Generator::DenseUniform {
                            seed: g.seed ^ 0x48,
                            lo: 0.05,
                            hi: 1.0,
                        },
                    ),
                ]
            }
        }
    }

    pub fn output_names(&self) -> Vec<String> {
        match &self.script {
            Some(s) => s.outputs.clone(),
            None => vec![Gnmf::w_name(self.iters), Gnmf::h_name(self.iters)],
        }
    }

    /// Provisions a cluster and registers the generated inputs, with the
    /// given resident-tile budget (0 = unbounded).
    pub fn provision(&self, budget: u64) -> Res<Cluster> {
        let cluster = Cluster::provision(ClusterSpec::named(INSTANCE, NODES, SLOTS).map_err(err)?)
            .map_err(err)?;
        if budget > 0 {
            let dir = out_dir().join("spill").join(format!(
                "{}-{}",
                std::process::id(),
                SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            cluster
                .store()
                .set_memory_budget(&SpillConfig {
                    dir: Some(dir),
                    ..SpillConfig::budgeted(budget)
                })
                .map_err(err)?;
        }
        match &self.script {
            Some(_) => {
                for (name, meta, gen) in self.inputs() {
                    cluster
                        .store()
                        .register_generated(&name, meta, gen)
                        .map_err(err)?;
                }
            }
            None => self.gnmf.setup(cluster.store()).map_err(err)?,
        }
        Ok(cluster)
    }

    /// Executes the program on `cluster` in `mode`, recording into `trace`.
    pub fn execute(&self, cluster: &Cluster, mode: ExecMode, trace: &Trace) -> Res<Vec<RunReport>> {
        let run = |program: &Program, descs: &BTreeMap<String, InputDesc>, prefix: &str| {
            self.optimizer
                .execute_on_traced(
                    cluster,
                    program,
                    descs,
                    prefix,
                    mode,
                    SchedulerConfig::default(),
                    &FailurePlan::default(),
                    RecoveryConfig::default(),
                    trace,
                )
                .map_err(err)
        };
        match &self.script {
            Some(s) => Ok(vec![run(&s.program, &s.descs(), "cli")?]),
            // `Gnmf::run` takes no trace handle, so a traced run
            // repeats its loop with the same programs and prefixes.
            None if trace.is_enabled() => (0..self.iters)
                .map(|i| {
                    run(
                        &self.gnmf.program(i),
                        &self.gnmf.inputs(i),
                        &format!("gnmf{i}"),
                    )
                })
                .collect(),
            None => self
                .gnmf
                .run(&self.optimizer, cluster, self.iters, mode)
                .map_err(err),
        }
    }

    pub fn read_outputs(&self, cluster: &Cluster) -> Res<Vec<LocalMatrix>> {
        self.output_names()
            .iter()
            .map(|name| cluster.store().get_local(name).map_err(err))
            .collect()
    }

    /// One Real-mode program at `threads` worker threads on a fresh
    /// cluster under `budget`: execute plus output readback.
    pub fn run_once(&self, budget: u64, threads: usize, traced: bool) -> Res<Run> {
        set_default_threads(threads);
        let cluster = self.provision(budget)?;
        let trace = if traced {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let t0 = Instant::now();
        let reports = self.execute(&cluster, ExecMode::Real, &trace)?;
        let t1 = Instant::now();
        let outputs = self.read_outputs(&cluster)?;
        let t2 = Instant::now();
        let cache = trace
            .snapshot()
            .map_or((0, 0), |log| (log.cache_hits, log.cache_misses));
        Ok(Run {
            wall_s: (t2 - t0).as_secs_f64(),
            exec_s: (t1 - t0).as_secs_f64(),
            get_local_s: (t2 - t1).as_secs_f64(),
            reports,
            outputs,
            spill: cluster.store().dfs().spill_stats(),
            cache,
        })
    }

    /// The DSL source, for the workloads that have one.
    pub fn source(&self) -> Option<&str> {
        self.script.as_ref().map(|s| s.source)
    }

    pub fn optimizer(&self) -> &Optimizer {
        &self.optimizer
    }

    /// Every program one run executes, with its input descriptions.
    pub fn programs(&self) -> Vec<(Program, BTreeMap<String, InputDesc>)> {
        match &self.script {
            Some(s) => vec![(s.program.clone(), s.descs())],
            None => (0..self.iters)
                .map(|i| (self.gnmf.program(i), self.gnmf.inputs(i)))
                .collect(),
        }
    }

    pub fn iters(&self) -> usize {
        self.iters
    }

    pub fn rank(&self) -> usize {
        self.gnmf.rank
    }
}

/// Calls `f` with the entries of each tile, row-major within the tile,
/// tiles in grid order.
fn for_each_tile(m: &LocalMatrix, mut f: impl FnMut(&[f64]) -> Res<()>) -> Res<()> {
    for (_, tile) in m.iter_tiles() {
        match tile.as_dense() {
            Ok(d) => f(d.data())?,
            Err(_) => f(tile.to_dense().map_err(err)?.data())?,
        }
    }
    Ok(())
}

/// Digest of a matrix's shape and entries, bit for bit.
fn bits_digest(m: &LocalMatrix) -> Res<u128> {
    let mut d = Digest::default();
    d.word(m.meta().rows as u64);
    d.word(m.meta().cols as u64);
    for_each_tile(m, |xs| {
        xs.iter().for_each(|x| d.word(x.to_bits()));
        Ok(())
    })?;
    Ok(d.finish())
}

fn text_digest(s: &str) -> u128 {
    let mut d = Digest::default();
    d.bytes(s.as_bytes());
    d.finish()
}

/// `‖V − W H‖_F` from the factors, without forming `W H`:
/// `‖V‖² − 2 Σ_{v_ij ≠ 0} v_ij (W H)_ij + Σ (WᵀW) ⊙ (H Hᵀ)`.
pub fn gnmf_objective(
    v: &LocalMatrix,
    w: &LocalMatrix,
    h: &LocalMatrix,
    threads: usize,
) -> Res<f64> {
    let (m, r, n) = (w.meta().rows, w.meta().cols, h.meta().cols);
    let wd = w.to_dense_vec().map_err(err)?;
    let hd = h.to_dense_vec().map_err(err)?;
    let mut ht = vec![0.0; n * r];
    for k in 0..r {
        for j in 0..n {
            ht[j * r + k] = hd[k * n + j];
        }
    }
    let ts = v.meta().tile_size;
    let tiles: Vec<((usize, usize), &Tile)> = v.iter_tiles().collect();
    let parts = par_map(&tiles, threads, |((ti, tj), tile)| {
        let (mut vv, mut cross) = (0.0, 0.0);
        let mut visit = |i: usize, j: usize, x: f64| {
            let (gi, gj) = (ti * ts + i, tj * ts + j);
            let dot: f64 = wd[gi * r..gi * r + r]
                .iter()
                .zip(&ht[gj * r..gj * r + r])
                .map(|(a, b)| a * b)
                .sum();
            vv += x * x;
            cross += x * dot;
        };
        match tile.payload() {
            TileData::Sparse(s) => s.iter().for_each(|(i, j, x)| visit(i, j, x)),
            _ => {
                let d = tile.to_dense().expect("generated tiles are materialized");
                for i in 0..d.rows() {
                    for j in 0..d.cols() {
                        visit(i, j, d.get(i, j));
                    }
                }
            }
        }
        (vv, cross)
    });
    let (vv, cross) = parts.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let mut gram = 0.0;
    for a in 0..r {
        for b in 0..r {
            let wtw: f64 = (0..m).map(|i| wd[i * r + a] * wd[i * r + b]).sum();
            let hht: f64 = (0..n).map(|j| ht[j * r + a] * ht[j * r + b]).sum();
            gram += wtw * hht;
        }
    }
    Ok((vv - 2.0 * cross + gram).max(0.0).sqrt())
}

/// Tolerance of the `LocalMatrix` reference check: the largest
/// |difference| over the root mean square of the reference.
const REL_TOL: f64 = 1e-9;

static REF_SEQ: AtomicU64 = AtomicU64::new(0);

/// What a correct program must produce, built outside every timed region.
/// It is kept out of the measuring process's memory, so that it cannot
/// set `peak_rss_mb`: entries checked within `REL_TOL` live in a file,
/// outputs checked bit for bit as digests. It lives in a directory, so
/// the set-up processes load the same reference.
pub struct Reference {
    dir: PathBuf,
    /// The process that built the reference removes its directory.
    owner: bool,
    /// Shape and RMS of each output whose entries `close.f64` holds.
    close: Vec<(usize, usize, f64)>,
    /// Digest of each output's bits, and the run they come from.
    exact: Vec<u128>,
    exact_of: String,
    /// Digest of the concatenated `RunReport` fingerprints, if checked.
    fingerprint: Option<u128>,
}

impl Drop for Reference {
    fn drop(&mut self) {
        if self.owner {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

impl Reference {
    fn create() -> Res<Reference> {
        let dir = out_dir().join(format!(
            "ref-{}-{}",
            std::process::id(),
            REF_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(Reference {
            dir,
            owner: true,
            close: Vec::new(),
            exact: Vec::new(),
            exact_of: String::new(),
            fingerprint: None,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes the entries of `ms` to `close.f64`.
    fn write_close(&mut self, ms: &[LocalMatrix]) -> Res<()> {
        let file = File::create(self.dir.join("close.f64")).map_err(err)?;
        let mut w = BufWriter::new(file);
        for m in ms {
            for_each_tile(m, |xs| {
                xs.iter()
                    .try_for_each(|x| w.write_all(&x.to_le_bytes()))
                    .map_err(err)
            })?;
            let rms = m.frob_norm() / (m.meta().elements() as f64).sqrt();
            self.close.push((m.meta().rows, m.meta().cols, rms));
        }
        w.flush().map_err(err)
    }

    fn write_exact(&mut self, ms: &[LocalMatrix], of: &str) -> Res<()> {
        self.exact = ms.iter().map(bits_digest).collect::<Res<_>>()?;
        self.exact_of = of.to_string();
        Ok(())
    }

    /// Writes everything but the entries to `reference.txt`.
    fn save(&self) -> Res<()> {
        let mut s = String::new();
        for (rows, cols, rms) in &self.close {
            s += &format!("close {rows} {cols} {:016x}\n", rms.to_bits());
        }
        for d in &self.exact {
            s += &format!("exact {d:032x}\n");
        }
        s += &format!("exact_of {}\n", self.exact_of);
        if let Some(d) = self.fingerprint {
            s += &format!("fingerprint {d:032x}\n");
        }
        std::fs::write(self.dir.join("reference.txt"), s).map_err(err)
    }

    /// The reference another process saved in `dir`.
    pub fn load(dir: &Path) -> Res<Reference> {
        let text = std::fs::read_to_string(dir.join("reference.txt")).map_err(err)?;
        let mut r = Reference {
            dir: dir.to_path_buf(),
            owner: false,
            close: Vec::new(),
            exact: Vec::new(),
            exact_of: String::new(),
            fingerprint: None,
        };
        let hex = |v: &str| u128::from_str_radix(v, 16).map_err(err);
        for line in text.lines() {
            let (key, v) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "close" => {
                    let f: Vec<&str> = v.split(' ').collect();
                    let [rows, cols, rms] = f[..] else {
                        return Err(format!("bad reference line '{line}'"));
                    };
                    r.close.push((
                        rows.parse().map_err(err)?,
                        cols.parse().map_err(err)?,
                        f64::from_bits(u64::from_str_radix(rms, 16).map_err(err)?),
                    ));
                }
                "exact" => r.exact.push(hex(v)?),
                "exact_of" => r.exact_of = v.to_string(),
                "fingerprint" => r.fingerprint = Some(hex(v)?),
                _ => return Err(format!("bad reference line '{line}'")),
            }
        }
        Ok(r)
    }

    /// Relative error of each output against the entries in `close.f64`.
    fn close_errors(&self, outputs: &[LocalMatrix]) -> Res<Vec<f64>> {
        let file = File::open(self.dir.join("close.f64")).map_err(err)?;
        let mut file = BufReader::new(file);
        let mut buf = Vec::new();
        let mut errors = Vec::new();
        for (m, &(rows, cols, rms)) in outputs.iter().zip(&self.close) {
            if (m.meta().rows, m.meta().cols) != (rows, cols) {
                errors.push(f64::INFINITY);
                break;
            }
            let mut max = 0.0_f64;
            for_each_tile(m, |got| {
                buf.resize(got.len() * 8, 0);
                file.read_exact(&mut buf).map_err(err)?;
                for (g, w) in got.iter().zip(buf.chunks_exact(8)) {
                    let w = f64::from_le_bytes(w.try_into().expect("8-byte chunk"));
                    let d = (g - w).abs();
                    // A NaN entry makes the error NaN, which fails.
                    if d > max || d.is_nan() {
                        max = d;
                    }
                }
                Ok(())
            })?;
            errors.push(max / rms.max(f64::MIN_POSITIVE));
        }
        Ok(errors)
    }

    /// Checks one program's outputs (named `names`) and its concatenated
    /// fingerprint; the reason on failure.
    pub fn check(
        &self,
        names: &[String],
        outputs: &[LocalMatrix],
        fingerprint: &str,
    ) -> Result<(), String> {
        if outputs.len() != names.len() {
            return Err(format!(
                "{} outputs, expected {}",
                outputs.len(),
                names.len()
            ));
        }
        if !self.close.is_empty() {
            for (name, e) in names.iter().zip(self.close_errors(outputs)?) {
                if e > REL_TOL || e.is_nan() {
                    return Err(format!("{name}: relative error {e:e} above {REL_TOL:e}"));
                }
            }
        }
        if let Some(want) = self.fingerprint {
            if text_digest(fingerprint) != want {
                return Err(format!(
                    "RunReport fingerprint differs from {}",
                    self.exact_of
                ));
            }
        }
        for (name, (m, want)) in names.iter().zip(outputs.iter().zip(&self.exact)) {
            if bits_digest(m)? != *want {
                return Err(format!("{name}: not bitwise equal to {}", self.exact_of));
            }
        }
        Ok(())
    }
}

impl Batch {
    /// Builds the reference. `corrupt` perturbs it on purpose, so every
    /// check against it fails (the benchmark's self-test).
    pub fn reference(&self, out: &mut Outcome, corrupt: bool) -> Res<Reference> {
        let threads = nproc();
        let mut r = Reference::create()?;
        let local = |name: &str| {
            self.inputs()
                .into_iter()
                .find(|(n, ..)| n == name)
                .map(|(_, meta, gen)| LocalMatrix::generate(meta, &gen))
                .ok_or_else(|| format!("no input {name}"))
        };
        let perturb = |mut ms: Vec<LocalMatrix>| {
            if corrupt {
                ms[0].scale(1.0 + 1e-6);
            }
            ms
        };
        match self.which {
            Which::Gram => {
                let a = local("A")?;
                let g = a.transpose().matmul(&a).map_err(err)?;
                drop(a);
                r.write_close(&perturb(vec![g]))?;
            }
            Which::Fan => {
                let (a, b) = (local("A")?, local("B")?);
                let c = a.matmul(&b).map_err(err)?;
                let p = c.elementwise(&a, ElemOp::Add).map_err(err)?;
                let q = c.elementwise(&b, ElemOp::Sub).map_err(err)?;
                let mut rr = c;
                rr.scale(0.5);
                drop((a, b));
                r.write_close(&perturb(vec![p, q, rr]))?;
                let unbounded = self.run_once(0, threads, false)?;
                let verdict = r.check(&self.output_names(), &unbounded.outputs, "");
                out.check(verdict.is_ok(), || {
                    format!("unbounded fan-out: {}", verdict.unwrap_err())
                });
                r.write_exact(&unbounded.outputs, "the unbounded run")?;
            }
            Which::Gnmf => {
                set_default_threads(1);
                let cluster = self.provision(0)?;
                let reports = self.execute(&cluster, ExecMode::Real, &Trace::disabled())?;
                let fingerprint: String = reports.iter().map(RunReport::fingerprint).collect();
                let v = cluster.store().get_local("V").map_err(err)?;
                let mut objective = Vec::new();
                for i in 0..=self.iters {
                    let w = cluster.store().get_local(&Gnmf::w_name(i)).map_err(err)?;
                    let h = cluster.store().get_local(&Gnmf::h_name(i)).map_err(err)?;
                    objective.push(gnmf_objective(&v, &w, &h, threads)?);
                }
                let monotone = objective.iter().all(|o| o.is_finite())
                    && objective.windows(2).all(|p| p[1] <= p[0] * (1.0 + 1e-9));
                out.check(monotone, || {
                    format!("GNMF objective not finite and non-increasing: {objective:?}")
                });
                out.notes.push(format!(
                    "gnmf objective ‖V−WH‖: {:.6} -> {:.6} over {} iterations",
                    objective[0], objective[self.iters], self.iters
                ));
                r.fingerprint = Some(text_digest(&fingerprint));
                r.write_exact(&perturb(self.read_outputs(&cluster)?), "the 1-thread run")?;
            }
        }
        r.save()?;
        Ok(r)
    }

    /// Checks one program's outputs; the reason on failure.
    pub fn verify(&self, run: &Run, reference: &Reference) -> Result<(), String> {
        reference.check(&self.output_names(), &run.outputs, &run.fingerprint())
    }
}

/// One cold set-up in a process of its own: compile, provision, register
/// the inputs and run one program, then check it against the reference
/// the timed run saved.
pub fn cold_setup(which: Which, a: &Args) -> Res<(f64, Vec<Result<(), String>>)> {
    let dir = a
        .reference
        .as_deref()
        .ok_or("a batch set-up needs --reference")?;
    let t0 = Instant::now();
    let batch = Batch::new(which, a.seed, a.quick)?;
    let run = batch.run_once(batch.budget, nproc(), false)?;
    let secs = t0.elapsed().as_secs_f64();
    let reference = Reference::load(dir)?;
    Ok((secs, vec![batch.verify(&run, &reference)]))
}

/// The timed run: the reference, `SETUPS` cold set-up processes, then,
/// with the peak resident set reset, one untimed warm-up program and
/// programs back to back for `a.seconds`.
pub fn measure(which: Which, a: &Args) -> Res<Outcome> {
    let batch = Batch::new(which, a.seed, a.quick)?;
    let threads = nproc();
    let mut out = Outcome::default();
    let (reference, ref_s) = timed(|| batch.reference(&mut out, a.corrupt));
    let reference = reference?;
    out.notes.push(format!(
        "reference built in {ref_s:.3} s, outside every timed region"
    ));
    isolate_peak_rss(&mut out);
    let setups = setup::cold_setups(&a.setup_args(Some(reference.dir())), &mut out)?;
    match batch.run_once(batch.budget, threads, false) {
        Ok(run) => {
            let verdict = batch.verify(&run, &reference);
            out.check(verdict.is_ok(), || {
                format!("warm-up: {}", verdict.unwrap_err())
            });
        }
        Err(e) => out.fail(format!("warm-up: {e}")),
    }
    // Each program is timed twice: `wall_s` is execute plus readback,
    // `busy` adds provisioning and teardown, for the throughput.
    let (mut walls, mut busy) = (Vec::new(), 0.0);
    let start = Instant::now();
    let mut programs = 0;
    while start.elapsed().as_secs_f64() < a.seconds || programs < MIN_PROGRAMS {
        programs += 1;
        let (run, secs) = timed(|| batch.run_once(batch.budget, threads, false));
        busy += secs;
        match run {
            Ok(run) => {
                let verdict = batch.verify(&run, &reference);
                if out.check(verdict.is_ok(), || verdict.clone().unwrap_err()) {
                    walls.push(run.wall_s);
                }
            }
            Err(e) => out.fail(e),
        }
    }
    let p50 = median(&walls);
    out.notes.push(format!("set-up seconds: {setups:.3?}"));
    out.notes.push(format!(
        "program seconds ({:.1} s window): {walls:.3?}",
        start.elapsed().as_secs_f64()
    ));
    out.push("setup_s", "s", median(&setups), setups.len(), Kind::Timing);
    out.push("p50_ms", "ms", p50 * 1e3, walls.len(), Kind::Timing);
    out.push(
        "ops_per_s",
        "1/s",
        walls.len() as f64 / busy,
        walls.len(),
        Kind::Timing,
    );
    out.push("peak_rss_mb", "MiB", peak_rss_mb(), 1, Kind::Timing);
    out.push("program_p50_s", "s", p50, walls.len(), Kind::Timing);
    if which == Which::Gram {
        let n = batch.inputs()[0].1.rows as f64;
        out.push(
            "gflops",
            "GF/s",
            2.0 * n * n * n / p50 / 1e9,
            walls.len(),
            Kind::Timing,
        );
    }
    drop(reference);
    let _ = std::fs::remove_dir_all(out_dir().join("spill"));
    Ok(out)
}
