//! Cold set-ups. `setup_s` is the median of `SETUPS` set-ups, each in a
//! fresh process of the benchmark's own binary (`--setup`), so the costs
//! a process pays once (thread pools, lazy tables, first page faults,
//! the first program's cold caches) stay in every sample. A set-up
//! process prints its seconds and one line per check; the timed run
//! counts those checks in its `attempted` and `failed`.

use std::process::{Command, Stdio};

use crate::report::Outcome;
use crate::util::{err, reset_peak_rss, rss_mb, Res};

/// Set-up processes per timed run.
pub const SETUPS: usize = 3;

/// Runs `SETUPS` set-up processes one after another with `args` and
/// returns their seconds.
pub fn cold_setups(args: &[String], out: &mut Outcome) -> Res<Vec<f64>> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut secs = Vec::new();
    for _ in 0..SETUPS {
        let child = Command::new(&exe)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(err)?;
        if !child.status.success() {
            out.fail(format!("set-up process exited with {}", child.status));
            continue;
        }
        for line in String::from_utf8_lossy(&child.stdout).lines() {
            match line.split_once(' ').unwrap_or((line, "")) {
                ("setup_s", v) => secs.push(v.parse::<f64>().map_err(err)?),
                ("ok", _) => {
                    out.check(true, String::new);
                }
                ("failed", why) => out.fail(format!("set-up: {why}")),
                _ => return Err(format!("set-up process printed '{line}'")),
            }
        }
    }
    Ok(secs)
}

/// What a set-up process prints.
pub fn report(secs: f64, checks: &[Result<(), String>]) {
    println!("setup_s {secs:?}");
    for c in checks {
        match c {
            Ok(()) => println!("ok"),
            Err(why) => println!("failed {}", why.replace('\n', " ")),
        }
    }
}

/// Resets the peak resident set once the reference is built, so that
/// `peak_rss_mb` covers the workload's own runs.
pub fn isolate_peak_rss(out: &mut Outcome) {
    if reset_peak_rss() {
        out.notes.push(format!(
            "peak_rss_mb reset after the reference, at {:.1} MiB resident",
            rss_mb()
        ));
    } else {
        out.notes
            .push("peak_rss_mb could not be reset; it covers the whole process".into());
    }
}
