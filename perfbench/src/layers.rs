//! The traced run of a batch workload: attributes the program's wall
//! time to the repo's layers from outside, by timing each layer's public
//! entry points and by replays, with a span around every call.

use std::time::Instant;

use cumulon::cluster::{set_default_threads, ExecMode};
use cumulon::core::{Constraint, SearchSpace, Trace};
use cumulon::lang::compile_source;

use crate::batch::{out_dir, Batch, Run, Which};
use crate::replay::{codec_rates, Replay};
use crate::report::{Kind, Outcome};
use crate::spans::Spans;
use crate::util::{err, median, nproc, Res};
use crate::Args;

/// Repetitions of each measurement; medians are reported.
const REPS: usize = 3;

/// Work counters of one program, summed over its reports.
fn counters(run: &Run) -> [u64; 3] {
    let tasks = run.reports.iter().map(|r| r.total_tasks() as u64).sum();
    let jobs = run.reports.iter().map(|r| r.jobs.len() as u64).sum();
    let attempts = run.reports.iter().map(|r| r.faults.task_attempts).sum();
    [tasks, jobs, attempts]
}

/// Pushes a counter declared exact-repeat, demoting it (with a note) if
/// its values across identical runs disagree.
fn push_exact(out: &mut Outcome, name: &str, unit: &'static str, values: &[u64]) {
    let kind = if values.windows(2).all(|w| w[0] == w[1]) {
        Kind::Exact
    } else {
        out.notes.push(format!(
            "{name} is declared exact-repeat but varied: {values:?}"
        ));
        Kind::HostTiming
    };
    out.push(name, unit, values[0] as f64, values.len(), kind);
}

fn push_host(out: &mut Outcome, name: &str, unit: &'static str, values: &[u64]) {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    out.push(name, unit, median(&v), values.len(), Kind::HostTiming);
    if values.iter().min() != values.iter().max() {
        out.notes.push(format!(
            "{name} (host-timing-dependent) ranged {}..{} over identical runs",
            values.iter().min().unwrap_or(&0),
            values.iter().max().unwrap_or(&0)
        ));
    }
}

/// One program with spans around its two layer calls.
fn traced_program(batch: &Batch, spans: &Spans, threads: usize, with_trace: bool) -> Res<Run> {
    let op = spans.op();
    let (run, _) = spans.time(op, "program", |ctx| {
        set_default_threads(threads);
        let cluster = spans
            .time(ctx, "cluster.provision", |_| batch.provision(batch.budget))
            .0?;
        let trace = if with_trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        let t0 = Instant::now();
        let (reports, exec_s) = spans.time(ctx, "cluster.execute_on", |_| {
            batch.execute(&cluster, ExecMode::Real, &trace)
        });
        let reports = reports?;
        let (outputs, get_local_s) =
            spans.time(ctx, "dfs.get_local", |_| batch.read_outputs(&cluster));
        let wall_s = t0.elapsed().as_secs_f64();
        Ok::<Run, String>(Run {
            wall_s,
            exec_s,
            get_local_s,
            reports,
            outputs: outputs?,
            spill: cluster.store().dfs().spill_stats(),
            cache: trace
                .snapshot()
                .map_or((0, 0), |log| (log.cache_hits, log.cache_misses)),
        })
    });
    run
}

pub fn traced(which: Which, a: &Args) -> Res<Outcome> {
    let batch = Batch::new(which, a.seed, a.quick)?;
    let threads = nproc();
    let spans = Spans::default();
    let mut out = Outcome::default();
    let reference = batch.reference(&mut out, a.corrupt)?;
    let check = |out: &mut Outcome, run: &Run, what: &str| {
        let verdict = batch.verify(run, &reference);
        out.check(verdict.is_ok(), || {
            format!("{what}: {}", verdict.unwrap_err())
        });
    };

    // Warm-up, as in the timed run's set-up.
    let warm = batch.run_once(batch.budget, threads, false)?;
    check(&mut out, &warm, "warm-up");

    // lang and core, on the workload's own program.
    let probe = batch.provision(0)?;
    if let Some(src) = batch.source() {
        let s = spans.median_of(REPS, "lang.compile_source", |_| {
            compile_source(src).map(|_| ()).map_err(err)
        })?;
        out.push("lang.compile_ms", "ms", s * 1e3, REPS, Kind::Timing);
    }
    let opt = batch.optimizer();
    let lower_s = spans.median_of(REPS, "core.build_physical", |_| {
        for (i, (program, descs)) in batch.programs().iter().enumerate() {
            opt.build_physical(&probe, program, descs, &format!("lw{i}"))
                .map_err(err)?;
        }
        Ok(())
    })?;
    out.push("core.lower_ms", "ms", lower_s * 1e3, REPS, Kind::Timing);
    let (program0, descs0) = batch.programs().swap_remove(0);
    let s = spans.median_of(REPS, "core.estimate_on", |_| {
        opt.estimate_on(&probe, &program0, &descs0)
            .map(|_| ())
            .map_err(err)
    })?;
    out.push("core.estimate_ms", "ms", s * 1e3, REPS, Kind::Timing);
    let s = spans.median_of(REPS, "core.optimize", |_| {
        opt.optimize(
            &program0,
            &descs0,
            SearchSpace::quick(),
            Constraint::Deadline(3_600.0),
        )
        .map(|_| ())
        .map_err(err)
    })?;
    out.push("core.optimize_ms", "ms", s * 1e3, REPS, Kind::Timing);
    drop(probe);

    // cluster: the same program in Simulated mode (lowering plus the DES
    // loop, phantom tiles).
    set_default_threads(threads);
    let des_s = spans.median_of(REPS, "cluster.execute_on.simulated", |_| {
        let cluster = batch.provision(0)?;
        batch
            .execute(&cluster, ExecMode::Simulated, &Trace::disabled())
            .map(|_| ())
    })?;
    out.push("cluster.des_s", "s", des_s, REPS, Kind::Timing);

    // Real runs, tracing off and on in alternation, then at 1 thread.
    let (mut plain, mut traced, mut single) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let run = traced_program(&batch, &spans, threads, false)?;
        check(&mut out, &run, "untraced program");
        plain.push(run);
        let run = traced_program(&batch, &spans, threads, true)?;
        check(&mut out, &run, "traced program");
        traced.push(run);
    }
    for _ in 0..REPS.min(2) {
        let run = traced_program(&batch, &spans, 1, false)?;
        check(&mut out, &run, "1-thread program");
        single.push(run);
    }
    let walls = |runs: &[Run]| median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let program_s = walls(&plain);
    let exec_s = median(&plain.iter().map(|r| r.exec_s).collect::<Vec<_>>());
    let get_local_s = median(&plain.iter().map(|r| r.get_local_s).collect::<Vec<_>>());
    out.push("program_s", "s", program_s, REPS, Kind::Timing);
    out.push("cluster.exec_s", "s", exec_s, REPS, Kind::Timing);
    out.push("dfs.get_local_s", "s", get_local_s, REPS, Kind::Timing);
    out.push(
        "cluster.speedup",
        "x",
        walls(&single) / program_s,
        single.len(),
        Kind::Timing,
    );
    out.push(
        "trace.overhead_frac",
        "ratio",
        walls(&traced) / program_s - 1.0,
        REPS,
        Kind::Timing,
    );
    let all: Vec<&Run> = plain.iter().chain(&traced).chain(&single).collect();
    let c: Vec<[u64; 3]> = all.iter().map(|r| counters(r)).collect();
    push_exact(
        &mut out,
        "cluster.tasks",
        "count",
        &c.iter().map(|x| x[0]).collect::<Vec<_>>(),
    );
    push_exact(
        &mut out,
        "cluster.jobs",
        "count",
        &c.iter().map(|x| x[1]).collect::<Vec<_>>(),
    );
    push_exact(
        &mut out,
        "cluster.task_attempts",
        "count",
        &c.iter().map(|x| x[2]).collect::<Vec<_>>(),
    );
    let hits: Vec<u64> = traced.iter().map(|r| r.cache.0).collect();
    let misses: Vec<u64> = traced.iter().map(|r| r.cache.1).collect();
    push_host(&mut out, "dfs.cache_hits", "count", &hits);
    push_host(&mut out, "dfs.cache_misses", "count", &misses);
    let (h, m) = (median_u(&hits), median_u(&misses));
    out.push(
        "dfs.cache_hit_ratio",
        "ratio",
        h / (h + m).max(1.0),
        REPS,
        Kind::HostTiming,
    );

    // matrix: regenerate the inputs and replay the tile products.
    let replay = spans
        .time(spans.op(), "matrix.generate", |_| {
            Replay::new(&batch, threads)
        })
        .0;
    out.push("matrix.gen_s", "s", replay.gen_s, 1, Kind::Timing);
    let kernel_s = spans.median_of(REPS, "matrix.kernels", |_| {
        replay.kernels(threads);
        Ok(())
    })?;
    out.push("matrix.kernel_s", "s", kernel_s, REPS, Kind::Timing);
    out.push(
        "matrix.kernel_gflops",
        "GF/s",
        replay.flops / kernel_s / 1e9,
        REPS,
        Kind::Timing,
    );
    out.push(
        "matrix.kernel_share",
        "ratio",
        kernel_s / program_s,
        REPS,
        Kind::Timing,
    );
    drop(replay);

    // dfs: under a budget, pair the run with unbounded runs and replay
    // the codec on the run's own tiles.
    let (mut compress_s, mut codec_s, mut readback_s) = (0.0, 0.0, 0.0);
    if batch.budget > 0 {
        let mut free = Vec::new();
        for _ in 0..REPS {
            let (run, _) = spans.time(spans.op(), "program.unbounded", |_| {
                batch.run_once(0, threads, false)
            });
            let run = run?;
            check(&mut out, &run, "unbounded program");
            free.push(run);
        }
        out.push(
            "dfs.spill_s",
            "s",
            program_s - walls(&free),
            REPS,
            Kind::Timing,
        );
        readback_s = get_local_s - median(&free.iter().map(|r| r.get_local_s).collect::<Vec<_>>());
        let stats: Vec<_> = plain.iter().filter_map(|r| r.spill).collect();
        let field =
            |f: fn(&cumulon::dfs::SpillStats) -> u64| stats.iter().map(f).collect::<Vec<u64>>();
        push_host(&mut out, "dfs.evictions", "count", &field(|s| s.evictions));
        push_host(
            &mut out,
            "dfs.readmissions",
            "count",
            &field(|s| s.readmissions),
        );
        push_exact(
            &mut out,
            "dfs.spilled_bytes",
            "B",
            &field(|s| s.spilled_bytes_total),
        );
        push_host(
            &mut out,
            "dfs.readback_bytes",
            "B",
            &field(|s| s.readback_bytes_total),
        );
        let ratio = stats
            .iter()
            .map(|s| s.blob.compression_ratio())
            .collect::<Vec<_>>();
        out.push(
            "dfs.compression_ratio",
            "x",
            median(&ratio),
            ratio.len(),
            Kind::HostTiming,
        );
        let (rates, _) = spans.time(spans.op(), "matrix.codec_replay", |_| {
            codec_rates(&warm.outputs)
        });
        let spilled = median_u(&field(|s| s.spilled_bytes_total));
        let readback = median_u(&field(|s| s.readback_bytes_total));
        compress_s = rates.compress * spilled + rates.decompress * readback;
        codec_s = rates.encode * spilled + rates.decode * readback;
        out.notes.push(format!(
            "codec replay on the output tiles: maybe_compress {:.2} ms/MiB at {:.3}x, encode {:.3} ms/MiB, decode {:.3} ms/MiB",
            rates.compress * 1048576e3,
            rates.ratio,
            rates.encode * 1048576e3,
            rates.decode * 1048576e3
        ));
    }
    out.push("dfs.readback_s", "s", readback_s, REPS, Kind::Timing);
    out.push("matrix.compress_s", "s", compress_s, REPS, Kind::Timing);
    out.push(
        "matrix.compress_share",
        "ratio",
        compress_s / program_s,
        REPS,
        Kind::Timing,
    );
    out.push("matrix.codec_s", "s", codec_s, REPS, Kind::Timing);

    // What the layers above do not explain. The Simulated run stands for
    // lowering plus the DES loop.
    let attributed = des_s.max(lower_s)
        + kernel_s
        + out.get("matrix.gen_s").unwrap_or(0.0)
        + compress_s
        + codec_s
        + (get_local_s - readback_s);
    out.push(
        "unattributed_s",
        "s",
        program_s - attributed,
        REPS,
        Kind::Timing,
    );

    let path = out_dir().join(format!("spans-{}-seed{}.json", a.workload, a.seed));
    spans.write_json(&path).map_err(err)?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.snapshot().len(),
        path.display()
    ));
    let _ = std::fs::remove_dir_all(out_dir().join("spill"));
    Ok(out)
}

fn median_u(v: &[u64]) -> f64 {
    median(&v.iter().map(|&x| x as f64).collect::<Vec<_>>())
}
