//! `serve_mix`: an in-process `cumulon_serve::Server` on loopback driven
//! by a closed loop of `nproc` clients, each using the shipped `Client`
//! and waiting for every reply. One round is one `plan`, one `optimize`
//! and one `run` in an order drawn from the workload seed.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use cumulon::cluster::{set_default_threads, Cluster, ClusterSpec, ExecMode};
use cumulon::core::{Constraint, InputDesc, Optimizer, Program, SearchSpace};
use cumulon::lang::{compile_source, InputSpec};
use cumulon::serve::protocol::Request;
use cumulon::serve::quota::QuotaConfig;
use cumulon::serve::{engine, Client, Server, Service, ServiceConfig};
use cumulon::trace::json::{parse, JsonValue};

use crate::batch::out_dir;
use crate::report::{Kind, Outcome};
use crate::setup::{self, isolate_peak_rss};
use crate::spans::Spans;
use crate::util::{err, median, nproc, peak_rss_mb, quantile, Res, SplitMix};
use crate::Args;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    Plan,
    Optimize,
    Run,
}

pub const ACTIONS: [Action; 3] = [Action::Plan, Action::Optimize, Action::Run];

impl Action {
    pub fn name(self) -> &'static str {
        match self {
            Action::Plan => "plan",
            Action::Optimize => "optimize",
            Action::Run => "run",
        }
    }
}

/// The one request shape of each action.
struct Shape {
    script: &'static str,
    inputs: &'static [&'static str],
    nodes: u32,
}

const GRAM: &str = "G = A' * A;";
const GNMF: &str = "WtV = W' * V; WtW = W' * W; H1 = H .* WtV ./ (WtW * H); \
                    W1 = W .* (V * H1') ./ (W * (H1 * H1')); out H1, W1;";

fn shape(action: Action, quick: bool) -> Shape {
    match (action, quick) {
        (Action::Plan, false) => Shape {
            script: GRAM,
            inputs: &["A=20000x10000"],
            nodes: 8,
        },
        (Action::Optimize, false) => Shape {
            script: GNMF,
            inputs: &[
                "V=200000x200000@0.01:1000",
                "W=200000x50:1000",
                "H=50x200000:1000",
            ],
            nodes: 4,
        },
        (Action::Run, false) => Shape {
            script: GRAM,
            inputs: &["A=200000x20000"],
            nodes: 16,
        },
        (Action::Plan, true) => Shape {
            script: GRAM,
            inputs: &["A=2000x1000"],
            nodes: 4,
        },
        (Action::Optimize, true) => Shape {
            script: GNMF,
            inputs: &["V=2000x2000@0.01:500", "W=2000x10:500", "H=10x2000:500"],
            nodes: 4,
        },
        (Action::Run, true) => Shape {
            script: GRAM,
            inputs: &["A=96x48:16"],
            nodes: 4,
        },
    }
}

fn line(action: Action, quick: bool, id: &str, tenant: &str) -> String {
    let s = shape(action, quick);
    let inputs = s
        .inputs
        .iter()
        .map(|i| format!("\"{i}\""))
        .collect::<Vec<_>>()
        .join(",");
    let extra = match action {
        Action::Run => ",\"wait\":true",
        _ => "",
    };
    format!(
        "{{\"schema\":\"cumulon-serve-v1\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\
         \"action\":\"{}\",\"script\":\"{}\",\"inputs\":[{inputs}],\
         \"instance\":\"m1.large\",\"nodes\":{}{extra}}}",
        action.name(),
        s.script,
        s.nodes
    )
}

/// What each reply must say, from direct engine calls.
pub struct Expected {
    plan_jobs: f64,
    optimize: (String, f64),
    run_fingerprint: String,
}

impl Expected {
    pub fn new(quick: bool, corrupt: bool) -> Res<Expected> {
        let req = |a| Request::parse(&line(a, quick, "ref", "ref"));
        let plan = engine::plan(&req(Action::Plan)?).map_err(err)?;
        let best = engine::optimize(&req(Action::Optimize)?).map_err(err)?;
        let run = engine::run(&req(Action::Run)?, 1, false).map_err(err)?;
        let mut fingerprint = run.report.fingerprint();
        if corrupt {
            fingerprint.push('x');
        }
        Ok(Expected {
            plan_jobs: plan.jobs as f64,
            optimize: (best.instance, best.nodes as f64),
            run_fingerprint: fingerprint,
        })
    }

    /// Checks one reply; the reason on failure.
    fn verify(&self, action: Action, reply: &JsonValue) -> Result<(), String> {
        if reply.get("ok").and_then(JsonValue::as_bool) != Some(true) {
            let code = reply
                .get("error")
                .and_then(JsonValue::as_str)
                .unwrap_or("no-code");
            return Err(format!("{} refused: {code}", action.name()));
        }
        let num = |k| reply.get(k).and_then(JsonValue::as_f64);
        let ok = match action {
            Action::Plan => num("plan_jobs") == Some(self.plan_jobs),
            Action::Optimize => {
                reply.get("instance").and_then(JsonValue::as_str) == Some(self.optimize.0.as_str())
                    && num("nodes") == Some(self.optimize.1)
            }
            Action::Run => {
                reply.get("fingerprint").and_then(JsonValue::as_str)
                    == Some(self.run_fingerprint.as_str())
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} reply differs from the direct engine call",
                action.name()
            ))
        }
    }
}

fn config() -> ServiceConfig {
    let n = nproc();
    ServiceConfig {
        queue_depth: 4 * n,
        run_workers: n,
        threads: n,
        // Admit everything: the mix measures service time, not throttling.
        quota: QuotaConfig {
            capacity: 1e9,
            refill_per_s: 1e9,
            ..QuotaConfig::default()
        },
        ..ServiceConfig::default()
    }
}

/// Latencies and verdicts of one closed loop.
#[derive(Default)]
struct Loop {
    per_action: BTreeMap<&'static str, Vec<f64>>,
    rounds: Vec<f64>,
    requests_ok: u64,
    attempted: u64,
    failures: Vec<String>,
    rejected: BTreeMap<String, u64>,
    elapsed_s: f64,
}

/// One round's action order, drawn from the client's seeded stream.
fn order(rng: &mut SplitMix) -> [Action; 3] {
    let mut a = ACTIONS;
    for i in (1..3).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        a.swap(i, j);
    }
    a
}

/// Drives `clients` (one per thread) in closed loops until `seconds`
/// pass, recording spans per request when `spans` is given.
fn closed_loop(
    clients: Vec<Client>,
    seed: u64,
    seconds: f64,
    quick: bool,
    expected: &Expected,
    spans: Option<&Spans>,
) -> Loop {
    let start = Instant::now();
    let results: Vec<Loop> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    let mut rng = SplitMix(seed ^ (0x00C1_1E47 + c as u64));
                    let mut mine = Loop::default();
                    let tenant = format!("tenant-{c}");
                    let mut round = 0;
                    while start.elapsed().as_secs_f64() < seconds || round == 0 {
                        let op = spans.map(Spans::op);
                        let t0 = Instant::now();
                        let mut all_ok = true;
                        for action in order(&mut rng) {
                            let req = line(
                                action,
                                quick,
                                &format!("{c}-{round}-{}", action.name()),
                                &tenant,
                            );
                            let mut send = || client.request(&req);
                            let t = Instant::now();
                            let reply = match (spans, op) {
                                (Some(sp), Some(op)) => {
                                    sp.time(op, &format!("serve.client.{}", action.name()), |_| {
                                        send()
                                    })
                                    .0
                                }
                                _ => send(),
                            };
                            let lat = t.elapsed().as_secs_f64();
                            mine.attempted += 1;
                            let verdict = reply.map_err(err).and_then(|v| {
                                let r = expected.verify(action, &v);
                                if let Some(code) = v.get("error").and_then(JsonValue::as_str) {
                                    *mine.rejected.entry(code.to_string()).or_default() += 1;
                                }
                                r
                            });
                            match verdict {
                                Ok(()) => {
                                    mine.requests_ok += 1;
                                    mine.per_action.entry(action.name()).or_default().push(lat);
                                }
                                Err(e) => {
                                    all_ok = false;
                                    mine.failures.push(e);
                                }
                            }
                        }
                        if all_ok {
                            mine.rounds.push(t0.elapsed().as_secs_f64());
                        }
                        round += 1;
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Loop {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..Loop::default()
    };
    for r in results {
        for (k, v) in r.per_action {
            total.per_action.entry(k).or_default().extend(v);
        }
        total.rounds.extend(r.rounds);
        total.requests_ok += r.requests_ok;
        total.attempted += r.attempted;
        total.failures.extend(r.failures);
        for (k, v) in r.rejected {
            *total.rejected.entry(k).or_default() += v;
        }
    }
    total
}

fn absorb(out: &mut Outcome, l: &Loop) {
    out.attempted += l.attempted;
    out.failed += l.failures.len() as u64;
    out.failures.extend(l.failures.iter().take(20).cloned());
}

/// A warm-up round's replies, unchecked.
type Replies = Vec<(Action, Res<JsonValue>)>;

/// Starts a server and connects the clients; each client sends one
/// warm-up round.
fn start(quick: bool) -> Res<(Server, Vec<Client>, Replies)> {
    let server = Server::start("127.0.0.1:0", config()).map_err(err)?;
    let (mut clients, mut replies) = (Vec::new(), Vec::new());
    for c in 0..nproc() {
        let mut client = Client::connect(server.addr()).map_err(err)?;
        for action in ACTIONS {
            let reply = client.request(&line(
                action,
                quick,
                &format!("warm-{c}"),
                &format!("tenant-{c}"),
            ));
            replies.push((action, reply.map_err(err)));
        }
        clients.push(client);
    }
    Ok((server, clients, replies))
}

fn check_replies(expected: &Expected, replies: Replies) -> Vec<Result<(), String>> {
    replies
        .into_iter()
        .map(|(action, reply)| reply.and_then(|v| expected.verify(action, &v)))
        .collect()
}

/// Starts a server with checked warm-up rounds.
fn start_checked(
    quick: bool,
    expected: &Expected,
    out: &mut Outcome,
) -> Res<(Server, Vec<Client>)> {
    let (server, clients, replies) = start(quick)?;
    for verdict in check_replies(expected, replies) {
        out.check(verdict.is_ok(), || {
            format!("warm-up: {}", verdict.unwrap_err())
        });
    }
    Ok((server, clients))
}

/// One cold set-up in a process of its own: server start, client
/// connects and one warm-up round per client. The replies are checked
/// afterwards against direct engine calls.
pub fn cold_setup(a: &Args) -> Res<(f64, Vec<Result<(), String>>)> {
    let t0 = Instant::now();
    let (server, clients, replies) = start(a.quick)?;
    let secs = t0.elapsed().as_secs_f64();
    drop(clients);
    server.stop();
    let expected = Expected::new(a.quick, a.corrupt)?;
    Ok((secs, check_replies(&expected, replies)))
}

/// The timed run: direct engine replies, `SETUPS` cold set-up processes,
/// then, with the peak resident set reset, the closed loop for
/// `a.seconds`.
pub fn measure(a: &Args) -> Res<Outcome> {
    let mut out = Outcome::default();
    let expected = Expected::new(a.quick, a.corrupt)?;
    isolate_peak_rss(&mut out);
    let setups = setup::cold_setups(&a.setup_args(None), &mut out)?;
    let (server, clients) = start_checked(a.quick, &expected, &mut out)?;
    let l = closed_loop(clients, a.seed, a.seconds, a.quick, &expected, None);
    server.stop();
    absorb(&mut out, &l);
    let req_per_s = l.requests_ok as f64 / l.elapsed_s;
    out.notes.push(format!("set-up seconds: {setups:.3?}"));
    out.push("setup_s", "s", median(&setups), setups.len(), Kind::Timing);
    out.push(
        "p50_ms",
        "ms",
        median(&l.rounds) * 1e3,
        l.rounds.len(),
        Kind::Timing,
    );
    out.push(
        "ops_per_s",
        "1/s",
        req_per_s,
        l.requests_ok as usize,
        Kind::Timing,
    );
    out.push("peak_rss_mb", "MiB", peak_rss_mb(), 1, Kind::Timing);
    for a in ACTIONS {
        let v = l.per_action.get(a.name()).cloned().unwrap_or_default();
        out.push(
            &format!("{}.p50_ms", a.name()),
            "ms",
            median(&v) * 1e3,
            v.len(),
            Kind::Timing,
        );
        out.push(
            &format!("{}.p90_ms", a.name()),
            "ms",
            quantile(&v, 0.9) * 1e3,
            v.len(),
            Kind::Timing,
        );
    }
    out.push(
        "req_per_s",
        "1/s",
        req_per_s,
        l.requests_ok as usize,
        Kind::Timing,
    );
    Ok(out)
}

/// Registers a request shape's inputs on a cluster of its size, as the
/// engine does (generator seed = position + 1).
fn provision(action: Action, quick: bool) -> Res<(Cluster, Program, BTreeMap<String, InputDesc>)> {
    let s = shape(action, quick);
    let compiled = compile_source(s.script).map_err(err)?;
    let cluster = Cluster::provision(ClusterSpec::named("m1.large", s.nodes, 2).map_err(err)?)
        .map_err(err)?;
    let mut descs = BTreeMap::new();
    for (i, spec) in s.inputs.iter().enumerate() {
        let spec = InputSpec::parse(spec).map_err(err)?;
        cluster
            .store()
            .register_generated(&spec.name, spec.meta(), spec.generator(i as u64 + 1))
            .map_err(err)?;
        descs.insert(spec.name.clone(), spec.desc());
    }
    Ok((cluster, compiled.program, descs))
}

/// Sends `line` over a raw socket, written in one call.
fn oneshot(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> Res<JsonValue> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(err)?;
    let mut resp = String::new();
    reader.read_line(&mut resp).map_err(err)?;
    parse(&resp).map_err(err)
}

/// The traced run: the layers under each request shape, the three-way
/// wire split, and the closed loop with spans on and off.
pub fn traced(a: &Args) -> Res<Outcome> {
    let (seed, seconds, quick) = (a.seed, a.seconds, a.quick);
    let mut out = Outcome::default();
    let spans = Spans::default();
    let expected = Expected::new(quick, a.corrupt)?;
    let threads = nproc();
    set_default_threads(threads);
    let opt = Optimizer::new(cumulon::idealized_cost_model());

    // lang, core and the DES loop on the request shapes.
    let compile_s = spans.median_of(5, "lang.compile_source", |_| {
        ACTIONS.iter().try_for_each(|&a| {
            compile_source(shape(a, quick).script)
                .map(|_| ())
                .map_err(err)
        })
    })?;
    out.push("lang.compile_ms", "ms", compile_s * 1e3, 5, Kind::Timing);
    let (plan_cluster, plan_prog, plan_descs) = provision(Action::Plan, quick)?;
    let s = spans.median_of(5, "core.estimate_on", |_| {
        opt.estimate_on(&plan_cluster, &plan_prog, &plan_descs)
            .map(|_| ())
            .map_err(err)
    })?;
    out.push("core.estimate_ms", "ms", s * 1e3, 5, Kind::Timing);
    let (_, opt_prog, opt_descs) = provision(Action::Optimize, quick)?;
    let s = spans.median_of(3, "core.optimize", |_| {
        let space = SearchSpace::default();
        opt.optimize(&opt_prog, &opt_descs, space, Constraint::Deadline(3_600.0))
            .map(|_| ())
            .map_err(err)
    })?;
    out.push("core.optimize_ms", "ms", s * 1e3, 3, Kind::Timing);
    let (run_cluster, run_prog, run_descs) = provision(Action::Run, quick)?;
    let lower_s = spans.median_of(5, "core.build_physical", |_| {
        opt.build_physical(&run_cluster, &run_prog, &run_descs, "lw")
            .map(|_| ())
            .map_err(err)
    })?;
    out.push("core.lower_ms", "ms", lower_s * 1e3, 5, Kind::Timing);
    drop(run_cluster);
    let des_s = spans.median_of(3, "cluster.execute_on.simulated", |_| {
        let (cluster, program, descs) = provision(Action::Run, quick)?;
        opt.execute_on(&cluster, &program, &descs, "serve", ExecMode::Simulated)
            .map(|_| ())
            .map_err(err)
    })?;
    out.push("cluster.des_s", "s", des_s, 3, Kind::Timing);

    // The wire split: each shape through in-process Service::handle,
    // through the shipped Client, and through a socket that writes the
    // request line in one call.
    let reps = |a: Action| match a {
        Action::Plan => 30,
        Action::Optimize => 10,
        Action::Run => 5,
    };
    let service = Service::start(config());
    let server = Server::start("127.0.0.1:0", config()).map_err(err)?;
    let mut client = Client::connect(server.addr()).map_err(err)?;
    let mut raw = TcpStream::connect(server.addr()).map_err(err)?;
    raw.set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(err)?;
    let mut raw_reader = BufReader::new(raw.try_clone().map_err(err)?);
    let mut n_req = 0;
    for a in ACTIONS {
        let n = reps(a);
        let check = |out: &mut Outcome, v: Res<JsonValue>| {
            let verdict = v.and_then(|v| expected.verify(a, &v));
            out.check(verdict.is_ok(), || {
                format!("wire split: {}", verdict.unwrap_err())
            });
        };
        let mut t = [Vec::new(), Vec::new(), Vec::new()];
        for rep in 0..n {
            n_req += 1;
            let req = line(a, quick, &format!("split-{n_req}"), "split");
            let op = spans.op();
            // Rotate which way goes first, so host drift within a rep
            // does not favour one of them.
            for k in 0..3 {
                let way = (rep + k) % 3;
                let (v, s) = match way {
                    0 => spans.time(op, &format!("serve.handle.{}", a.name()), |_| {
                        parse(&service.handle(&req)).map_err(err)
                    }),
                    1 => spans.time(op, &format!("serve.client.{}", a.name()), |_| {
                        client.request(&req).map_err(err)
                    }),
                    _ => spans.time(op, &format!("serve.oneshot.{}", a.name()), |_| {
                        oneshot(&mut raw, &mut raw_reader, &req)
                    }),
                };
                check(&mut out, v);
                t[way].push(s);
            }
        }
        let [handle, client_t, one] = t.map(|v| median(&v) * 1e3);
        out.push(
            &format!("serve.handle_ms.{}", a.name()),
            "ms",
            handle,
            n,
            Kind::Timing,
        );
        out.push(
            &format!("serve.client_ms.{}", a.name()),
            "ms",
            client_t,
            n,
            Kind::Timing,
        );
        out.push(
            &format!("serve.oneshot_ms.{}", a.name()),
            "ms",
            one,
            n,
            Kind::Timing,
        );
        out.push(
            &format!("serve.client_wire_ms.{}", a.name()),
            "ms",
            client_t - handle,
            n,
            Kind::Timing,
        );
    }
    out.notes.push(format!(
        "wire split, plan: shipped Client {:.3} ms, one-write socket {:.3} ms, in-process handle {:.3} ms",
        out.get("serve.client_ms.plan").unwrap_or(f64::NAN),
        out.get("serve.oneshot_ms.plan").unwrap_or(f64::NAN),
        out.get("serve.handle_ms.plan").unwrap_or(f64::NAN)
    ));
    drop((client, raw, raw_reader));
    server.stop();
    drop(service);

    // The closed loop, untraced then traced, half the run each.
    let mut loops = Vec::new();
    for traced in [false, true] {
        let (server, clients) = start_checked(quick, &expected, &mut out)?;
        let l = closed_loop(
            clients,
            seed,
            seconds / 2.0,
            quick,
            &expected,
            traced.then_some(&spans),
        );
        server.stop();
        absorb(&mut out, &l);
        loops.push(l);
    }
    let l = &loops[1];
    for a in ACTIONS {
        let v = l.per_action.get(a.name()).cloned().unwrap_or_default();
        out.push(
            &format!("serve.{}.p50_ms", a.name()),
            "ms",
            median(&v) * 1e3,
            v.len(),
            Kind::Timing,
        );
        out.push(
            &format!("serve.{}.p90_ms", a.name()),
            "ms",
            quantile(&v, 0.9) * 1e3,
            v.len(),
            Kind::Timing,
        );
    }
    out.push(
        "serve.req_per_s",
        "1/s",
        l.requests_ok as f64 / l.elapsed_s,
        l.requests_ok as usize,
        Kind::Timing,
    );
    let rejected: u64 = loops.iter().flat_map(|l| l.rejected.values()).sum();
    out.push(
        "serve.rejected",
        "count",
        rejected as f64,
        loops.len(),
        Kind::HostTiming,
    );
    for (code, n) in loops.iter().flat_map(|l| &l.rejected) {
        out.notes.push(format!("rejected with {code}: {n}"));
    }
    out.push(
        "trace.overhead_frac",
        "ratio",
        median(&loops[1].rounds) / median(&loops[0].rounds) - 1.0,
        loops[1].rounds.len(),
        Kind::Timing,
    );
    let path = out_dir().join(format!("spans-serve_mix-seed{seed}.json"));
    spans.write_json(&path).map_err(err)?;
    out.notes.push(format!(
        "{} spans written to {}",
        spans.snapshot().len(),
        path.display()
    ));
    Ok(out)
}
