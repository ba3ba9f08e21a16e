//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <gram_real|gnmf_real|fan_spill|serve_mix|all> --seed N
//!           --seconds S --trace <0|1> [--quick] [--corrupt-reference]
//! ```
//!
//! `--trace 0` is the timed run: it prints every end-to-end metric of
//! the workload (tracing off) and checks every output. `--trace 1` is
//! the separate traced run that attributes the workload's wall time to
//! the repo's layers. Both print a table (metric, value, unit, sample
//! count, evidence class) and end with one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--workload all` runs the four workloads one after another, each in a
//! process of its own.
//! `--quick` shrinks every shape and `--corrupt-reference` perturbs the
//! reference, both for the benchmark's own tests. `--setup` (with
//! `--reference DIR` for a batch workload) is how a timed run starts its
//! cold set-up processes; see `setup`.

mod batch;
mod layers;
mod replay;
mod report;
mod serve_mix;
mod setup;
mod spans;
mod util;

use std::path::{Path, PathBuf};

use batch::Which;
use report::Outcome;
use util::Res;

pub const WORKLOADS: [&str; 4] = ["gram_real", "gnmf_real", "fan_spill", "serve_mix"];

/// End-to-end metrics every timed run reports, with units.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("program_s", "s"),
    ("unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("lang.compile_ms", "ms"),
    ("core.lower_ms", "ms"),
    ("core.estimate_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("cluster.des_s", "s"),
    ("cluster.exec_s", "s"),
    ("cluster.speedup", "x"),
    ("cluster.tasks", "count"),
    ("cluster.jobs", "count"),
    ("cluster.task_attempts", "count"),
    ("matrix.gen_s", "s"),
    ("matrix.kernel_s", "s"),
    ("matrix.kernel_gflops", "GF/s"),
    ("matrix.kernel_share", "ratio"),
    ("matrix.compress_s", "s"),
    ("matrix.compress_share", "ratio"),
    ("matrix.codec_s", "s"),
    ("dfs.get_local_s", "s"),
    ("dfs.cache_hits", "count"),
    ("dfs.cache_misses", "count"),
    ("dfs.cache_hit_ratio", "ratio"),
    ("dfs.spill_s", "s"),
    ("dfs.readback_s", "s"),
    ("dfs.evictions", "count"),
    ("dfs.readmissions", "count"),
    ("dfs.spilled_bytes", "B"),
    ("dfs.readback_bytes", "B"),
    ("dfs.compression_ratio", "x"),
    ("serve.handle_ms.plan", "ms"),
    ("serve.handle_ms.optimize", "ms"),
    ("serve.handle_ms.run", "ms"),
    ("serve.client_ms.plan", "ms"),
    ("serve.client_ms.optimize", "ms"),
    ("serve.client_ms.run", "ms"),
    ("serve.client_wire_ms.plan", "ms"),
    ("serve.client_wire_ms.optimize", "ms"),
    ("serve.client_wire_ms.run", "ms"),
    ("serve.oneshot_ms.plan", "ms"),
    ("serve.oneshot_ms.optimize", "ms"),
    ("serve.oneshot_ms.run", "ms"),
    ("serve.plan.p50_ms", "ms"),
    ("serve.optimize.p50_ms", "ms"),
    ("serve.run.p50_ms", "ms"),
    ("serve.plan.p90_ms", "ms"),
    ("serve.optimize.p90_ms", "ms"),
    ("serve.run.p90_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("serve.rejected", "count"),
];

#[derive(Debug, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Perturbs the reference on purpose, so every check fails (the
    /// benchmark's self-test).
    pub corrupt: bool,
    /// Run one cold set-up and report it (the set-up processes).
    pub setup: bool,
    /// The reference directory a set-up process checks against.
    pub reference: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <gram_real|gnmf_real|fan_spill|serve_mix|all> \
                     --seed N --seconds S --trace <0|1> [--quick] [--corrupt-reference]";

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        corrupt: false,
        setup: false,
        reference: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => a.quick = true,
            "--corrupt-reference" => a.corrupt = true,
            "--setup" => a.setup = true,
            "--reference" => a.reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(WORKLOADS.contains(&a.workload.as_str()) || a.workload == "all" && !a.setup) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    Ok(a)
}

impl Args {
    /// The batch workload this run names, if it names one.
    pub fn batch(&self) -> Option<Which> {
        match self.workload.as_str() {
            "gram_real" => Some(Which::Gram),
            "gnmf_real" => Some(Which::Gnmf),
            "fan_spill" => Some(Which::Fan),
            _ => None,
        }
    }

    /// The arguments of a set-up process for this run, checking against
    /// `reference` when given.
    pub fn setup_args(&self, reference: Option<&Path>) -> Vec<String> {
        let mut v = vec![
            "--setup".to_string(),
            "--workload".to_string(),
            self.workload.clone(),
            "--seed".to_string(),
            self.seed.to_string(),
        ];
        if let Some(dir) = reference {
            v.push("--reference".into());
            v.push(dir.display().to_string());
        }
        if self.quick {
            v.push("--quick".into());
        }
        if self.corrupt {
            v.push("--corrupt-reference".into());
        }
        v
    }
}

/// Runs one workload, timed or traced as `a` says.
pub fn run(a: &Args) -> Res<Outcome> {
    let mut out = match (a.batch(), a.trace) {
        (Some(w), false) => batch::measure(w, a)?,
        (Some(w), true) => layers::traced(w, a)?,
        (None, false) => serve_mix::measure(a)?,
        (None, true) => serve_mix::traced(a)?,
    };
    if a.trace {
        for (name, unit) in PER_LAYER {
            if out.get(name).is_none() {
                out.push(name, unit, 0.0, 0, report::Kind::Timing);
            }
        }
    }
    Ok(out)
}

pub fn contract(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Runs every workload with the same arguments, one process each so that
/// each has its own peak resident set; the exit code is 1 if any failed.
fn run_all(args: &[String]) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        let mut named = args.to_vec();
        if let Some(i) = named.iter().position(|x| x == "--workload") {
            named[i + 1] = w.to_string();
        }
        match std::process::Command::new(&exe).args(&named).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: {w} exited with {status}");
                code = 1;
            }
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if a.workload == "all" {
        std::process::exit(run_all(&args));
    }
    if a.setup {
        let done = match a.batch() {
            Some(w) => batch::cold_setup(w, &a),
            None => serve_mix::cold_setup(&a),
        };
        match done {
            Ok((secs, checks)) => setup::report(secs, &checks),
            Err(e) => {
                eprintln!("perfbench: {} set-up failed: {e}", a.workload);
                std::process::exit(1);
            }
        }
        return;
    }
    let out = match run(&a) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", a.workload);
            std::process::exit(1);
        }
    };
    let title = format!(
        "{} seed={} {} threads={}",
        a.workload,
        a.seed,
        if a.trace { "traced" } else { "timed" },
        util::nproc()
    );
    print!("{}", out.table(&title));
    match out.json_line(contract(a.trace)) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let ok: Vec<String> = "--workload fan_spill --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&ok).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert_eq!(a.batch(), Some(Which::Fan));
        assert!(parse_args(&["--workload".into(), "all".into()]).is_ok());
        for bad in [
            "--workload nope",
            "--workload all --setup",
            "--workload gram_real --trace 2",
            "--bogus 1",
            "",
        ] {
            let v: Vec<String> = bad.split_whitespace().map(String::from).collect();
            assert!(parse_args(&v).is_err(), "{bad}");
        }
    }

    /// A set-up process parses its own arguments back.
    #[test]
    fn setup_args_round_trip() {
        let a = Args {
            workload: "gnmf_real".into(),
            seed: 9,
            seconds: 1.0,
            trace: false,
            quick: true,
            corrupt: true,
            setup: false,
            reference: None,
        };
        let b = parse_args(&a.setup_args(Some(Path::new("ref-dir")))).unwrap();
        assert!(b.setup && b.quick && b.corrupt);
        assert_eq!((b.workload.as_str(), b.seed), ("gnmf_real", 9));
        assert_eq!(b.reference, Some(PathBuf::from("ref-dir")));
    }
}
