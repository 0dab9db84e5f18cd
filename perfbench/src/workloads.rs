//! The three workloads and the rounds that measure them.
//!
//! Every workload is a closed loop: each request's sensitive syscall waits
//! for its check before the program goes on. A run deploys a few times (the
//! set-up samples), then runs *rounds* until its time is up. Round `i` runs
//! fresh inputs drawn from sub-seed `i` of the run's seed, so a longer run
//! averages over more inputs. Host figures are medians over rounds (check
//! latencies pool every round's checks); modeled and count figures come
//! from a fixed number of leading rounds, so they repeat bit for bit for a
//! given seed whatever the run's length.

use crate::lockstep::{self, Bare, Lane, SLICE_INSNS};
use crate::metrics::Report;
use crate::probe::{self, CheckPath, TracedCheck};
use crate::reference::Reference;
use crate::stats::{median, percentile, ratio};
use fg_cpu::machine::StopReason;
use fg_cpu::CycleAccount;
use fg_isa::image::Image;
use fg_workloads::Workload;
use flowguard::{
    Deployment, FleetConfig, FleetSupervisor, FlowGuardConfig, ProtectedProcess, TelemetrySnapshot,
};
use std::time::Instant;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["steady", "sessions", "fleet"];

/// Workload sizes. [`Sizes::STANDARD`] is what the benchmark runs;
/// [`Sizes::TINY`] keeps the self-test fast.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// `steady`: requests the long-lived server serves per round.
    pub steady_requests: usize,
    /// `sessions`: sessions per round.
    pub sessions: usize,
    /// `sessions`: requests per session.
    pub session_requests: usize,
    /// `sessions`: one session in this many is hostile.
    pub hostile_every: usize,
    /// `fleet`: member processes.
    pub fleet_procs: usize,
    /// `fleet`: requests per member.
    pub fleet_requests: usize,
    /// Deploys timed for `setup_s`.
    pub setup_reps: usize,
    /// Fewest rounds an end-to-end run makes, whatever its time.
    pub min_rounds: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const STANDARD: Sizes = Sizes {
        steady_requests: 1000,
        sessions: 160,
        session_requests: 8,
        hostile_every: 16,
        fleet_procs: 16,
        fleet_requests: 16,
        setup_reps: 5,
        min_rounds: 3,
    };

    /// Self-test sizes.
    pub const TINY: Sizes = Sizes {
        steady_requests: 24,
        sessions: 10,
        session_requests: 3,
        hostile_every: 5,
        fleet_procs: 4,
        fleet_requests: 4,
        setup_reps: 1,
        min_rounds: 1,
    };
}

/// One run's options.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for (rounds stop once the next would overrun).
    pub seconds: f64,
    /// The traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Sizes.
    pub sizes: Sizes,
}

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, o: &Opts) -> Option<Report> {
    match workload {
        "steady" => Some(steady(o)),
        "sessions" => Some(sessions(o)),
        "fleet" => Some(fleet(o)),
        _ => None,
    }
}

/// A splitmix64 step: derives the `i`-th sub-seed of `seed`.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[allow(clippy::cast_precision_loss)]
fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[allow(clippy::cast_precision_loss)]
fn f(x: u64) -> f64 {
    x as f64
}

/// Seed of the load stream the `steady` and `fleet` images train on.
/// Measured inputs come from sub-seeds of the run's seed, so the programs
/// meet requests they were not trained on.
const TRAINING_SEED: u64 = 0x7ea1;

/// Training corpus covering every request handler: the default request
/// mix plus one benign request per handler (the corpus
/// `fg_attacks::trained_vulnerable_nginx` trains on).
fn handler_corpus(w: &Workload) -> Vec<Vec<u8>> {
    let mut corpus = vec![w.default_input.clone()];
    for c in 0..8u8 {
        corpus.push(fg_workloads::request(c, b"benign-payload"));
    }
    corpus
}

/// What every measurement of one run shares.
struct Ctx {
    rep: Report,
    reference: Reference,
    trace: bool,
}

impl Ctx {
    fn new(workload: &str, o: &Opts) -> Ctx {
        Ctx { rep: Report::new(workload, o.trace), reference: Reference::new(), trace: o.trace }
    }
}

/// Host times of the deploy phases over the set-up repetitions, each
/// scaled to nominal host speed.
#[derive(Debug, Default)]
struct Setup {
    analyze: Vec<f64>,
    train: Vec<f64>,
    verify: Vec<f64>,
    total: Vec<f64>,
    edges_labeled: u64,
}

/// Deploys `image` (analyze → train → verify) `reps` times, timing each
/// phase, and returns the last deployment.
fn deploy_timed(
    ctx: &mut Ctx,
    image: &Image,
    corpus: &[Vec<u8>],
    reps: usize,
) -> (Deployment, Setup) {
    let mut s = Setup::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let k = ctx.reference.slowness_now();
        let t0 = Instant::now();
        let mut d = Deployment::analyze(image);
        let t1 = Instant::now();
        let train = d.train(corpus);
        let t2 = Instant::now();
        let verdict = d.verify();
        let t3 = Instant::now();
        ctx.rep
            .expect(!verdict.has_errors(), || format!("deployment failed verification: {verdict}"));
        s.analyze.push((t1 - t0).as_secs_f64() / k);
        s.train.push((t2 - t1).as_secs_f64() / k);
        s.verify.push((t3 - t2).as_secs_f64() / k);
        s.total.push((t3 - t0).as_secs_f64() / k);
        s.edges_labeled = train.edges_labeled as u64;
        last = Some(d);
    }
    (last.expect("at least one deploy"), s)
}

/// Engine counters summed over the protected processes of a round.
#[derive(Debug, Default, Clone, PartialEq)]
struct EngineTotals {
    checks: u64,
    slow_invocations: u64,
    pairs_checked: u64,
    credited_pairs: u64,
    bytes_scanned: u64,
    cold_restarts: u64,
    edge_cache_hits: u64,
    edge_cache_misses: u64,
    tier0_hits: u64,
    cache_size: u64,
    checkpoint_hits: u64,
    checkpoint_misses: u64,
    stream_drains: u64,
    stream_drained_bytes: u64,
    stream_copied_bytes: u64,
    flight_records: u64,
    violations: u64,
    decode_cycles: f64,
    check_cycles: f64,
    other_cycles: f64,
}

impl EngineTotals {
    fn absorb(&mut self, s: &TelemetrySnapshot) {
        self.checks += s.checks;
        self.slow_invocations += s.slow_invocations;
        self.pairs_checked += s.pairs_checked;
        self.credited_pairs += s.credited_pairs;
        self.bytes_scanned += s.bytes_scanned;
        self.cold_restarts += s.cold_restarts;
        self.edge_cache_hits += s.edge_cache_hits;
        self.edge_cache_misses += s.edge_cache_misses;
        self.tier0_hits += s.tier0_hits;
        self.cache_size += s.cache_size;
        self.checkpoint_hits += s.slow_checkpoint_hits;
        self.checkpoint_misses += s.slow_checkpoint_misses;
        self.stream_drains += s.stream_drains;
        self.stream_drained_bytes += s.stream_drained_bytes;
        self.stream_copied_bytes += s.stream_copied_bytes;
        self.flight_records += s.flight_records.len() as u64;
        self.violations += s.violations_total;
        self.decode_cycles += s.decode_cycles;
        self.check_cycles += s.check_cycles;
        self.other_cycles += s.other_cycles;
    }

    fn modeled_kcycles(&self) -> f64 {
        (self.decode_cycles + self.check_cycles + self.other_cycles) / 1000.0
    }
}

/// The exact (seed-determined) part of a round.
#[derive(Debug, Default, Clone, PartialEq)]
struct Exact {
    engine: EngineTotals,
    account: CycleAccount,
    insns: u64,
    trace_bytes: u64,
    requests: u64,
    pmi_calls: u64,
    poll_calls: u64,
    modeled_p50: u64,
    modeled_p99: u64,
    /// Fleet only: scheduler and supervisor counts.
    fleet: FleetCounts,
}

impl Exact {
    /// Adds another round's figures (the modeled quantiles are set from
    /// the merged histogram by the caller).
    fn add(&mut self, o: &Exact) {
        let (e, oe) = (&mut self.engine, &o.engine);
        e.checks += oe.checks;
        e.slow_invocations += oe.slow_invocations;
        e.pairs_checked += oe.pairs_checked;
        e.credited_pairs += oe.credited_pairs;
        e.bytes_scanned += oe.bytes_scanned;
        e.cold_restarts += oe.cold_restarts;
        e.edge_cache_hits += oe.edge_cache_hits;
        e.edge_cache_misses += oe.edge_cache_misses;
        e.tier0_hits += oe.tier0_hits;
        e.cache_size += oe.cache_size;
        e.checkpoint_hits += oe.checkpoint_hits;
        e.checkpoint_misses += oe.checkpoint_misses;
        e.stream_drains += oe.stream_drains;
        e.stream_drained_bytes += oe.stream_drained_bytes;
        e.stream_copied_bytes += oe.stream_copied_bytes;
        e.flight_records += oe.flight_records;
        e.violations += oe.violations;
        e.decode_cycles += oe.decode_cycles;
        e.check_cycles += oe.check_cycles;
        e.other_cycles += oe.other_cycles;
        self.account.absorb(&o.account);
        self.insns += o.insns;
        self.trace_bytes += o.trace_bytes;
        self.requests += o.requests;
        self.pmi_calls += o.pmi_calls;
        self.poll_calls += o.poll_calls;
        let (f, of) = (&mut self.fleet, &o.fleet);
        f.drains_enqueued += of.drains_enqueued;
        f.shed_inline += of.shed_inline;
        f.dropped += of.dropped;
        f.switches += of.switches;
        f.reconfig_cycles += of.reconfig_cycles;
        f.cache_hits += of.cache_hits;
        f.cache_misses += of.cache_misses;
    }
}

#[derive(Debug, Default, Clone, PartialEq)]
struct FleetCounts {
    drains_enqueued: u64,
    shed_inline: u64,
    dropped: u64,
    switches: u64,
    reconfig_cycles: f64,
    cache_hits: u64,
    cache_misses: u64,
}

/// One round's measurements.
#[derive(Debug, Default)]
struct Round {
    exact: Exact,
    /// Modeled check latency of every protected process of the round.
    hist: fg_trace::Histogram,
    /// Host ns of each slice of the measured protected process(es), in
    /// order (the traced-probe lane in the traced run; fleet: one entry,
    /// the supervisor's whole run loop).
    prot_slices: Vec<u64>,
    /// Traced run: host ns of the untraced protected lane (fleet: of the
    /// replay's untraced lane).
    plain_ns: u64,
    /// Host ns of each slice of the unprotected twin(s) (fleet: one entry,
    /// the whole unprotected round-robin).
    unprot_slices: Vec<u64>,
    /// `prot_slices` and `unprot_slices` scaled to nominal host speed.
    prot_scaled: Vec<f64>,
    unprot_scaled: Vec<f64>,
    /// Traced run: host ns of the traced-only twin(s).
    traced_ns: u64,
    /// Host ns of every timed check.
    check_ns: Vec<u64>,
    /// `check_ns` scaled to nominal host speed.
    check_scaled: Vec<f64>,
    /// Traced run: every check with its path.
    checks: Vec<TracedCheck>,
    /// Traced run: host ns inside on_pmi / on_trace_poll.
    pmi_ns: u64,
    poll_ns: u64,
    /// Fleet only: host ns of spawn and of the fleet's run loop.
    spawn_ns: u64,
    fleet_run_ns: u64,
    /// Fleet only: host ns of the solo replay that times the checks (the
    /// traced-probe lane in the traced run; `plain_ns` is its untraced
    /// twin).
    replay_ns: u64,
}

impl Round {
    /// Adds a protected lane's slices and checks and its unprotected twin's
    /// slices.
    fn add_lanes(&mut self, prot: &Lane<'_>, unprot: &Lane<'_>, log: &probe::ProbeLog) {
        self.prot_slices.extend(prot.slices.iter().map(|s| s.ns));
        self.prot_scaled.extend(prot.scaled_slices());
        self.unprot_slices.extend(unprot.slices.iter().map(|s| s.ns));
        self.unprot_scaled.extend(unprot.scaled_slices());
        self.add_checks(prot, log);
    }

    /// Adds a protected lane's timed checks, each scaled by the host speed
    /// around the slice it ran in.
    fn add_checks(&mut self, prot: &Lane<'_>, log: &probe::ProbeLog) {
        let k = prot.check_slowness(log.check_ns.len());
        self.check_scaled.extend(log.check_ns.iter().zip(k).map(|(&ns, k)| f(ns) / k));
    }

    fn interceptor_ns(&self) -> u64 {
        self.check_ns.iter().sum::<u64>() + self.pmi_ns + self.poll_ns
    }
}

/// Runs round 0, 1, … until the next round would overrun the time, always
/// making the minimum of rounds, and returns them with the exact figures
/// of that leading minimum (the traced run, which reports no bounded
/// figure, needs one round).
fn rounds(
    o: &Opts,
    ctx: &mut Ctx,
    mut round: impl FnMut(&mut Ctx, u64) -> Round,
) -> (Vec<Round>, Exact) {
    let min_rounds = if o.trace { 1 } else { o.sizes.min_rounds.max(1) };
    let start = Instant::now();
    let mut out: Vec<Round> = Vec::new();
    loop {
        let t0 = Instant::now();
        out.push(round(ctx, out.len() as u64));
        let took = t0.elapsed().as_secs_f64();
        if out.len() >= min_rounds && start.elapsed().as_secs_f64() + took > o.seconds {
            break;
        }
    }
    ctx.rep.note(format!("{} rounds in {:.1} s", out.len(), start.elapsed().as_secs_f64()));
    let mut exact = Exact::default();
    let hist = fg_trace::Histogram::new();
    for r in &out[..min_rounds] {
        exact.add(&r.exact);
        hist.merge_from(&r.hist);
    }
    exact.modeled_p50 = hist.quantile(0.50);
    exact.modeled_p99 = hist.quantile(0.99);
    (out, exact)
}

/// Runs one benign protected process (and its twins, in lockstep) to the
/// end, adding its figures into `r`. The traced run adds an untraced
/// protected lane and a traced-only twin.
fn run_benign(
    ctx: &mut Ctx,
    r: &mut Round,
    d: &Deployment,
    cfg: &FlowGuardConfig,
    input: &[u8],
    requests: u64,
) {
    let mut p = d.launch(input, cfg.clone());
    let log = probe::instrument(&mut p.kernel, &p.stats, ctx.trace);
    let mut unprot = Bare::unprotected(&d.image, input);
    let (stop, unprot_stop);
    if ctx.trace {
        let mut plain = d.launch(input, cfg.clone());
        let _plain_log = probe::instrument(&mut plain.kernel, &plain.stats, false);
        let mut traced = Bare::traced(&d.image, input, cfg.topa_region_bytes);
        let mut lanes = [
            Lane::new(&mut p),
            Lane::new(&mut plain),
            Lane::new(&mut unprot),
            Lane::new(&mut traced),
        ];
        lockstep::run(&mut lanes, SLICE_INSNS, &mut ctx.reference);
        r.add_lanes(&lanes[0], &lanes[2], &log.borrow());
        r.plain_ns += lanes[1].ns;
        r.traced_ns += lanes[3].ns;
        (stop, unprot_stop) = (lanes[0].stop, lanes[2].stop);
        let plain_stop = lanes[1].stop;
        ctx.rep.expect(plain_stop == stop && plain.stats.checks() == p.stats.checks(), || {
            "the untraced protected lane diverged from the traced one".to_owned()
        });
        r.exact.trace_bytes += traced.trace_bytes();
    } else {
        let mut lanes = [Lane::new(&mut p), Lane::new(&mut unprot)];
        lockstep::run(&mut lanes, SLICE_INSNS, &mut ctx.reference);
        r.add_lanes(&lanes[0], &lanes[1], &log.borrow());
        (stop, unprot_stop) = (lanes[0].stop, lanes[1].stop);
    }
    let checks = p.stats.checks();
    let ok = stop == Some(StopReason::Exited(0))
        && unprot_stop == Some(StopReason::Exited(0))
        && !p.violated()
        && p.kernel.output == unprot.kernel.output
        && checks == requests;
    ctx.rep.expect_n(requests, ok, || {
        format!(
            "benign process: stop {stop:?} (unprotected {unprot_stop:?}), violated {}, \
             output equal {}, {checks} checks for {requests} requests",
            p.violated(),
            p.kernel.output == unprot.kernel.output
        )
    });
    r.exact.requests += requests;
    r.exact.insns += p.machine.insns_retired;
    // Modeled overhead is taken over benign processes only: a killed
    // hostile session's account stops mid-run.
    r.exact.account.absorb(&p.machine.account);
    absorb_process(&p, &log.borrow(), r);
}

/// Adds a finished protected process's engine counters, modeled check
/// latencies and probe spans.
fn absorb_process(p: &ProtectedProcess, log: &probe::ProbeLog, r: &mut Round) {
    r.exact.engine.absorb(&p.stats.telemetry_snapshot());
    r.exact.pmi_calls += log.pmi_calls;
    r.exact.poll_calls += log.poll_calls;
    r.hist.merge_from(p.stats.check_latency_hist());
    r.check_ns.extend_from_slice(&log.check_ns);
    r.checks.extend_from_slice(&log.checks);
    r.pmi_ns += log.pmi_ns;
    r.poll_ns += log.poll_ns;
}

// ---------------------------------------------------------------- steady

/// One long-lived patched nginx, trained on every handler, serving the
/// seed's benign requests. The fast path does nearly all the checking.
fn steady(o: &Opts) -> Report {
    let mut ctx = Ctx::new("steady", o);
    let w = fg_workloads::nginx_patched();
    // Trained on every handler and on a load stream of the kind it serves,
    // so the slow path stays idle: steady state is the fast path's work.
    let mut corpus = handler_corpus(&w);
    corpus.push(fg_workloads::load_input(64, TRAINING_SEED));
    let (d, setup) = deploy_timed(&mut ctx, &w.image, &corpus, o.sizes.setup_reps);
    let cfg = FlowGuardConfig::default();
    let n = o.sizes.steady_requests;
    ctx.rep.note(format!(
        "knobs: FlowGuardConfig::default(); {n} requests per round of load_input(n, sub-seed); trained \
         on every handler + load_input(64, {TRAINING_SEED:#x}); lockstep slice {SLICE_INSNS} insns"
    ));
    let (rounds, exact) = rounds(o, &mut ctx, |ctx, i| {
        let mut r = Round::default();
        let input = fg_workloads::load_input(n, mix(o.seed, i));
        run_benign(ctx, &mut r, &d, &cfg, &input, n as u64);
        r
    });
    finish(ctx, o, &setup, &rounds, &exact)
}

// -------------------------------------------------------------- sessions

/// A hostile payload and the evidence that its goal was reached.
struct Payload {
    name: &'static str,
    bytes: Vec<u8>,
    /// Output bytes that prove the goal (`None`: the goal is the detour
    /// itself, so only detection counts).
    marker: Option<&'static [u8]>,
}

fn payloads(image: &Image) -> Vec<Payload> {
    let g = fg_attacks::find_gadgets(image);
    vec![
        Payload {
            name: "rop_write",
            bytes: fg_attacks::rop_write(image, &g),
            marker: Some(b"HACKED!"),
        },
        Payload { name: "srop_execve", bytes: fg_attacks::srop_execve(image, &g), marker: None },
        Payload {
            name: "ret_to_lib",
            bytes: fg_attacks::ret_to_lib(image, &g),
            marker: Some(b"LIBPWN!"),
        },
        Payload {
            name: "history_flush",
            bytes: fg_attacks::history_flush(image, &g, 12),
            marker: None,
        },
        Payload {
            name: "kbouncer_evasion",
            bytes: fg_attacks::kbouncer_evasion(image, 12),
            marker: None,
        },
    ]
}

/// Fork-per-connection: every session is a fresh launch of the vulnerable
/// nginx serving a few requests; one session in `hostile_every` carries an
/// attack payload after a seeded number of benign requests.
fn sessions(o: &Opts) -> Report {
    let mut ctx = Ctx::new("sessions", o);
    let w = fg_workloads::nginx();
    let (d, setup) = deploy_timed(&mut ctx, &w.image, &handler_corpus(&w), o.sizes.setup_reps);
    let cfg = FlowGuardConfig::default();
    let attacks = payloads(&w.image);
    let sz = o.sizes;
    ctx.rep.note(format!(
        "knobs: FlowGuardConfig::default(); {} sessions per round x {} requests of load_input, one in \
         {} hostile (payloads in rotation); lockstep slice {SLICE_INSNS} insns",
        sz.sessions, sz.session_requests, sz.hostile_every
    ));
    let (rounds, exact) = rounds(o, &mut ctx, |ctx, i| {
        let mut r = Round::default();
        for (input, attack) in &session_plan(mix(o.seed, i), &sz, &attacks) {
            match attack {
                None => run_benign(ctx, &mut r, &d, &cfg, input, sz.session_requests as u64),
                Some(a) => run_hostile(ctx, &mut r, &d, &cfg, input, &attacks[*a]),
            }
        }
        r
    });
    finish(ctx, o, &setup, &rounds, &exact)
}

/// One round's sessions: each session's input, and the payload it carries
/// if it is hostile. The round seed fixes every input and which sessions
/// are hostile.
fn session_plan(seed: u64, sz: &Sizes, attacks: &[Payload]) -> Vec<(Vec<u8>, Option<usize>)> {
    let hostile_slot = mix(seed, u64::MAX) % sz.hostile_every as u64;
    (0..sz.sessions)
        .map(|s| {
            let sseed = mix(seed, s as u64);
            if s as u64 % sz.hostile_every as u64 != hostile_slot {
                return (fg_workloads::load_input(sz.session_requests, sseed), None);
            }
            let which = (s / sz.hostile_every) % attacks.len();
            // The payload follows a seeded number of benign requests.
            let keep = usize::try_from(sseed >> 32).expect("fits") % sz.session_requests;
            let mut input = fg_workloads::load_input(keep, sseed);
            input.extend_from_slice(&attacks[which].bytes);
            (input, Some(which))
        })
        .collect()
}

/// Runs one hostile session protected (no twins: the unprotected attack
/// takes another path) and checks it was detected and its goal not reached.
fn run_hostile(
    ctx: &mut Ctx,
    r: &mut Round,
    d: &Deployment,
    cfg: &FlowGuardConfig,
    input: &[u8],
    attack: &Payload,
) {
    let mut p = d.launch(input, cfg.clone());
    let log = probe::instrument(&mut p.kernel, &p.stats, ctx.trace);
    let mut lanes = [Lane::new(&mut p)];
    lockstep::run(&mut lanes, SLICE_INSNS, &mut ctx.reference);
    let stop = lanes[0].stop;
    r.add_checks(&lanes[0], &log.borrow());
    let goal = attack.marker.is_some_and(|m| p.kernel.output.windows(m.len()).any(|w| w == m))
        || p.kernel.execve_log.iter().any(|e| e == "/bin/sh");
    let detected = p.violated();
    ctx.rep.expect(
        detected && !goal && stop == Some(StopReason::Killed(fg_kernel::SIGKILL)),
        || {
            format!(
                "hostile session {}: detected {detected}, goal reached {goal}, stop {stop:?}",
                attack.name
            )
        },
    );
    absorb_process(&p, &log.borrow(), r);
}

// ----------------------------------------------------------------- fleet

/// What every fleet image trains on: its default request mix and a load
/// stream of the kind the members serve, so endpoint checks stay on the
/// fast path and the background drain path does the fleet's work.
fn fleet_corpus(w: &Workload) -> Vec<Vec<u8>> {
    vec![w.default_input.clone(), fg_workloads::load_input(64, TRAINING_SEED)]
}

/// The fleet's configuration: `FleetConfig::default()` with streaming
/// engines, as the repository's fleet benchmark runs it.
fn fleet_config() -> FleetConfig {
    let mut cfg = FleetConfig::default();
    cfg.flowguard.streaming = true;
    cfg
}

/// Many processes over the four server images under one supervisor on one
/// simulated core: background drains, the scheduler's queue and shed
/// policy, and per-CR3 ToPA do the work.
fn fleet(o: &Opts) -> Report {
    let mut ctx = Ctx::new("fleet", o);
    let images = [
        fg_workloads::nginx_patched(),
        fg_workloads::vsftpd(),
        fg_workloads::openssh(),
        fg_workloads::exim(),
    ];
    let cfg = fleet_config();
    let sz = o.sizes;
    // Member `pid` runs image `pid % 4` on its own load stream.
    let members = |seed: u64| -> Vec<(&Workload, Vec<u8>)> {
        (0..sz.fleet_procs)
            .map(|pid| {
                let input = fg_workloads::load_input(sz.fleet_requests, mix(seed, pid as u64));
                (&images[pid % images.len()], input)
            })
            .collect()
    };
    ctx.rep.note(format!(
        "knobs: FleetConfig::default() + streaming; {} members x {} requests per round of load_input; \
         slice {} insns, {} core, queue depth {}",
        sz.fleet_procs, sz.fleet_requests, cfg.slice_insns, cfg.cores, cfg.queue_depth
    ));

    let spawn = |rep: &mut Report, members: &[(&Workload, Vec<u8>)]| -> FleetSupervisor {
        let mut fleet = FleetSupervisor::new(cfg.clone());
        for (w, input) in members {
            let ok = fleet.spawn(&w.name, &w.image, &fleet_corpus(w), input).is_ok();
            rep.expect(ok, || format!("{} failed artifact admission", w.name));
        }
        fleet
    };
    // Set-up samples: whole-fleet spawns through a cold artifact cache
    // (fewer than the solo workloads': each spawn deploys four images).
    let mut setup = Setup::default();
    let setup_members = members(mix(o.seed, u64::MAX));
    for _ in 0..sz.setup_reps.div_ceil(2).max(1) {
        let k = ctx.reference.slowness_now();
        let t0 = Instant::now();
        drop(spawn(&mut ctx.rep, &setup_members));
        setup.total.push(t0.elapsed().as_secs_f64() / k);
    }
    // The deployments the members share, for the solo check-latency replay.
    let mut cache = flowguard::ArtifactCache::new();
    let deployments: Vec<_> = images
        .iter()
        .map(|w| cache.deploy(&w.image, &fleet_corpus(w)).expect("admitted"))
        .collect();
    setup.edges_labeled =
        deployments.iter().filter_map(|d| d.train_stats).map(|t| t.edges_labeled as u64).sum();

    let mut parity = 0usize;
    let (rounds, exact) = rounds(o, &mut ctx, |ctx, i| {
        let mut r = Round::default();
        let members = members(mix(o.seed, i));
        let t0 = Instant::now();
        let mut fleet = spawn(&mut ctx.rep, &members);
        r.spawn_ns = ns_since(t0);
        let mut rr: Vec<Bare> =
            members.iter().map(|(w, i)| Bare::unprotected(&w.image, i)).collect();
        let mut traced: Vec<Bare> = if o.trace {
            members
                .iter()
                .map(|(w, i)| Bare::traced(&w.image, i, cfg.flowguard.topa_region_bytes))
                .collect()
        } else {
            Vec::new()
        };
        // Alternate which side runs first, so a drift in host speed does
        // not always favour the same side.
        parity += 1;
        let (mut k_fleet, mut k_rr) = (1.0, 1.0);
        for phase in 0..3 {
            match (phase + parity) % 3 {
                0 => {
                    // The supervisor's run loop cannot be sliced from
                    // outside: it is scaled by the host speed measured
                    // right before and right after it.
                    let before = ctx.reference.slowness_now();
                    let t = Instant::now();
                    fleet.run();
                    r.fleet_run_ns = ns_since(t);
                    k_fleet = (before + ctx.reference.slowness_now()) / 2.0;
                }
                1 => {
                    let first = ctx.reference.samples.len();
                    r.unprot_slices =
                        vec![round_robin(&mut rr, cfg.slice_insns, &mut ctx.reference)];
                    k_rr = ctx.reference.slowness_since(first);
                }
                _ => r.traced_ns = round_robin(&mut traced, cfg.slice_insns, &mut ctx.reference),
            }
        }
        r.prot_slices = vec![r.fleet_run_ns];
        r.prot_scaled = vec![f(r.fleet_run_ns) / k_fleet];
        r.unprot_scaled = vec![f(r.unprot_slices[0]) / k_rr];
        ctx.rep.note(format!(
            "round {parity}: fleet run {:.0} ms at host slowness {k_fleet:.3}, unprotected round-robin \
             {:.0} ms at {k_rr:.3}",
            secs(r.fleet_run_ns) * 1e3,
            secs(r.unprot_slices[0]) * 1e3
        ));
        check_fleet(&fleet, &rr, &members, sz.fleet_requests as u64, &mut r, &mut ctx.rep);
        r.exact.trace_bytes = traced.iter().map(Bare::trace_bytes).sum();
        // Check latency in host time: the supervisor installs its own
        // interceptor, so each member is replayed solo under the fleet's
        // engine configuration with the timing probe around its checks.
        let mut replay = Round::default();
        for (pid, (_, input)) in members.iter().enumerate() {
            let d = &deployments[pid % deployments.len()];
            let mut p = d.launch(input, cfg.flowguard.clone());
            let log = probe::instrument(&mut p.kernel, &p.stats, ctx.trace);
            if ctx.trace {
                // An untraced twin of the replay prices the probe itself.
                let mut plain = d.launch(input, cfg.flowguard.clone());
                let _plain_log = probe::instrument(&mut plain.kernel, &plain.stats, false);
                let mut lanes = [Lane::new(&mut p), Lane::new(&mut plain)];
                lockstep::run(&mut lanes, SLICE_INSNS, &mut ctx.reference);
                replay.add_checks(&lanes[0], &log.borrow());
                replay.replay_ns += lanes[0].ns;
                replay.plain_ns += lanes[1].ns;
            } else {
                let mut lanes = [Lane::new(&mut p)];
                lockstep::run(&mut lanes, SLICE_INSNS, &mut ctx.reference);
                replay.add_checks(&lanes[0], &log.borrow());
                replay.replay_ns += lanes[0].ns;
            }
            absorb_process(&p, &log.borrow(), &mut replay);
        }
        ctx.rep.expect(replay.exact.engine.checks == r.exact.engine.checks, || {
            format!(
                "solo replay made {} checks, the fleet {}",
                replay.exact.engine.checks, r.exact.engine.checks
            )
        });
        r.check_ns = replay.check_ns;
        r.check_scaled = replay.check_scaled;
        r.checks = replay.checks;
        r.pmi_ns = replay.pmi_ns;
        r.poll_ns = replay.poll_ns;
        r.replay_ns = replay.replay_ns;
        r.plain_ns = replay.plain_ns;
        r.exact.pmi_calls = replay.exact.pmi_calls;
        r.exact.poll_calls = replay.exact.poll_calls;
        r
    });

    let rep = &mut ctx.rep;
    rep.note(format!(
        "check latency: solo replay of the {} members under the fleet's engine configuration",
        sz.fleet_procs
    ));
    if o.trace {
        // Spans around spawn and run, counts from snapshot() and
        // cache_stats(); the fast/slow split comes from the replay.
        let spawn_ms: Vec<f64> = rounds.iter().map(|r| secs(r.spawn_ns) * 1e3).collect();
        let run_ms: Vec<f64> = rounds.iter().map(|r| secs(r.fleet_run_ns) * 1e3).collect();
        rep.note(format!(
            "spans: spawn {:.1} ms, run {:.1} ms (medians)",
            median(&spawn_ms),
            median(&run_ms)
        ));
        let fc = &exact.fleet;
        let lookups = fc.cache_hits + fc.cache_misses;
        rep.set("artifacts.hit_rate", ratio(f(fc.cache_hits), f(lookups)));
        rep.set("fleet.drains_enqueued", f(fc.drains_enqueued));
        rep.set("fleet.shed_inline", f(fc.shed_inline));
        rep.set(
            "fleet.shed_fraction",
            ratio(f(fc.shed_inline), f(fc.shed_inline + fc.drains_enqueued)),
        );
        rep.set("fleet.dropped", f(fc.dropped));
        rep.set("fleet.switches", f(fc.switches));
    }
    finish(ctx, o, &setup, &rounds, &exact)
}

/// Runs unprotected (or traced-only) processes round-robin in slices of
/// `slice` instructions, the way the supervisor schedules its members, and
/// returns the host ns it took.
/// The reference unit runs once per pass over the processes, outside the
/// timed spans.
fn round_robin(procs: &mut [Bare], slice: u64, reference: &mut Reference) -> u64 {
    let mut ns = 0;
    let mut live: Vec<bool> = vec![true; procs.len()];
    while live.iter().any(|&l| l) {
        let t0 = Instant::now();
        for (p, l) in procs.iter_mut().zip(live.iter_mut()) {
            if *l {
                let stop = p.machine.run(&mut p.kernel, slice);
                *l = stop == StopReason::InsnLimit
                    && p.machine.insns_retired < lockstep::RUN_BUDGET_INSNS;
            }
        }
        ns += ns_since(t0);
        reference.sample();
    }
    ns
}

/// Checks the fleet's members and scheduler, recording the exact figures.
fn check_fleet(
    fleet: &FleetSupervisor,
    rr: &[Bare],
    members: &[(&Workload, Vec<u8>)],
    requests: u64,
    r: &mut Round,
    rep: &mut Report,
) {
    let snap = fleet.snapshot();
    for ((m, p), twin) in fleet.members().iter().zip(&snap.processes).zip(rr) {
        let ok = m.stop == Some(StopReason::Exited(0))
            && !m.violated()
            && p.telemetry.checks == requests
            && twin.machine.insns_retired == m.insns_retired();
        rep.expect_n(requests, ok, || {
            format!(
                "fleet member {} ({}): stop {:?}, violated {}, {} checks for {requests} requests, \
                 {} insns vs {} unprotected",
                m.pid,
                m.name,
                m.stop,
                m.violated(),
                p.telemetry.checks,
                m.insns_retired(),
                twin.machine.insns_retired
            )
        });
        r.exact.engine.absorb(&p.telemetry);
        r.exact.insns += m.insns_retired();
    }
    let sched = snap.scheduler;
    rep.expect(sched.dropped == 0, || format!("scheduler dropped {} jobs", sched.dropped));
    rep.expect(sched.executed == sched.drains_enqueued, || {
        format!(
            "scheduler executed {} of {} enqueued drains",
            sched.executed, sched.drains_enqueued
        )
    });
    let (exec, trace) = fleet.cycle_totals();
    r.exact.account = CycleAccount {
        exec,
        trace,
        decode: r.exact.engine.decode_cycles,
        check: r.exact.engine.check_cycles,
        other: r.exact.engine.other_cycles + fleet.reconfig_cycles(),
    };
    r.hist.merge_from(&fleet.merged_check_latency());
    r.exact.requests = requests * members.len() as u64;
    let cache = fleet.cache_stats();
    r.exact.fleet = FleetCounts {
        drains_enqueued: sched.drains_enqueued,
        shed_inline: sched.shed_inline,
        dropped: sched.dropped,
        switches: fleet.switches(),
        reconfig_cycles: fleet.reconfig_cycles(),
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    };
}

// ------------------------------------------------------------- reporting

/// Fills the report from the set-up samples and the rounds: the
/// end-to-end table untraced, the per-layer table traced.
fn finish(ctx: Ctx, o: &Opts, setup: &Setup, rounds: &[Round], exact: &Exact) -> Report {
    let Ctx { mut rep, reference, .. } = ctx;
    let slowness = reference.slowness_since(0);
    rep.note(format!(
        "host speed: the reference unit ran at {slowness:.3}x its nominal time (median of {} samples); \
         absolute host times are scaled to nominal speed by the samples around each measurement",
        reference.samples.len()
    ));
    fill(&mut rep, o, setup, rounds, exact, slowness);
    rep
}

/// Computes every metric of the run from its set-up samples, its rounds
/// and the exact figures of its leading rounds. Host times the rounds did
/// not scale locally are scaled by the run's overall `slowness`.
fn fill(rep: &mut Report, o: &Opts, setup: &Setup, rounds: &[Round], x: &Exact, slowness: f64) {
    let e = &x.engine;
    rep.note(format!(
        "exact figures over the leading rounds: {} checks, {} escalated, {} cold restarts, {} violations; modeled Mcycles: \
         exec {:.1}, trace {:.1}, decode {:.1}, check {:.1}, other {:.1}",
        e.checks,
        e.slow_invocations,
        e.cold_restarts,
        e.violations,
        x.account.exec / 1e6,
        x.account.trace / 1e6,
        x.account.decode / 1e6,
        x.account.check / 1e6,
        x.account.other / 1e6
    ));
    if !o.trace {
        rep.set("setup_s", median(&setup.total));
        let per_round =
            |g: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(g).collect::<Vec<f64>>());
        let total = |v: &[f64]| v.iter().sum::<f64>();
        rep.set("slowdown", per_round(&|r| ratio(total(&r.prot_scaled), total(&r.unprot_scaled))));
        rep.set(
            "requests_per_s",
            per_round(&|r| ratio(f(r.exact.requests), total(&r.prot_scaled) / 1e9)),
        );
        let checks: Vec<f64> = rounds.iter().flat_map(|r| r.check_scaled.iter().copied()).collect();
        let p50 = percentile(&checks, 0.50);
        let p99 = percentile(&checks, 0.99);
        rep.set("check_p50_us", p50.value / 1e3);
        rep.set("check_p99_us", p99.value / 1e3);
        rep.note(format!(
            "check latency: {} checks over {} rounds, {} beyond the p99{}",
            p99.samples,
            rounds.len(),
            p99.beyond,
            if p99.beyond < 10 { " (fewer than 10: the p99 is under-sampled)" } else { "" }
        ));
        rep.set(
            "modeled_overhead_pct",
            if x.account.exec > 0.0 { x.account.overhead() * 100.0 } else { f64::NAN },
        );
        rep.set("modeled_check_p99_kcycles", f(x.modeled_p99) / 1e3);
        return;
    }

    // Traced run: per-layer figures.
    if !setup.analyze.is_empty() {
        rep.set("cfg.analyze_s", median(&setup.analyze));
        rep.set("fuzz.train_s", median(&setup.train));
        rep.set("verify.verify_s", median(&setup.verify));
    } else {
        // The fleet deploys inside spawn: its phases are not separable
        // from outside, so the whole spawn is reported as analysis.
        rep.set("cfg.analyze_s", median(&setup.total));
        rep.set("fuzz.train_s", 0.0);
        rep.set("verify.verify_s", 0.0);
        rep.note(
            "fleet: cfg.analyze_s is the whole cold-cache spawn (deploy phases run inside spawn)",
        );
    }
    rep.set("fuzz.edges_labeled", f(setup.edges_labeled));
    if !rep.values.contains_key("artifacts.hit_rate") {
        for name in [
            "artifacts.hit_rate",
            "fleet.drains_enqueued",
            "fleet.shed_inline",
            "fleet.shed_fraction",
            "fleet.dropped",
            "fleet.switches",
        ] {
            rep.set(name, 0.0);
        }
    }

    let sum = |g: fn(&Round) -> u64| -> u64 { rounds.iter().map(g).sum() };
    let (prot, plain, unprot, traced) = (
        sum(|r| r.prot_slices.iter().sum()),
        sum(|r| r.plain_ns),
        sum(|r| r.unprot_slices.iter().sum()),
        sum(|r| r.traced_ns),
    );
    // Host figures pool every round; counts come from the leading round.
    let interceptor = sum(Round::interceptor_ns);
    let unprot_scaled: f64 = rounds.iter().flat_map(|r| r.unprot_scaled.iter()).sum();
    rep.set("cpu.ns_per_kinsn", ratio(unprot_scaled, f(sum(|r| r.exact.insns)) / 1e3));
    let requests = f(x.requests);
    rep.set("cpu.insns_per_request", ratio(f(x.insns), requests));
    let encode = f(traced) - f(unprot);
    let trace_kib = f(sum(|r| r.exact.trace_bytes)) / 1024.0;
    rep.set("ipt.encode_share", ratio(encode, f(unprot)));
    rep.set("ipt.encode_ns_per_kib", ratio(encode, trace_kib) / slowness);
    rep.set("ipt.trace_bytes_per_request", ratio(f(x.trace_bytes), requests));
    rep.set("kernel.check_calls", f(e.checks));
    rep.set("kernel.pmi_calls", f(x.pmi_calls));
    rep.set("kernel.poll_calls", f(x.poll_calls));
    rep.set(
        "kernel.poll_ns_per_call",
        ratio(f(sum(|r| r.poll_ns)), f(sum(|r| r.exact.poll_calls))) / slowness,
    );

    // Every check's span, scaled to nominal host speed.
    let spans: Vec<(f64, &TracedCheck)> =
        rounds.iter().flat_map(|r| r.check_scaled.iter().copied().zip(&r.checks)).collect();
    let by_path = |path: CheckPath| -> Vec<(f64, &TracedCheck)> {
        spans.iter().filter(|(_, c)| c.path == path).copied().collect()
    };
    let ns_of = |cs: &[(f64, &TracedCheck)]| -> Vec<f64> { cs.iter().map(|c| c.0).collect() };
    let per_kcycle = |cs: &[(f64, &TracedCheck)]| -> f64 {
        let ns: f64 = cs.iter().map(|c| c.0).sum();
        let kc: f64 = cs.iter().map(|c| c.1.event.total_cycles()).sum::<f64>() / 1e3;
        ratio(ns, kc)
    };
    let fast = by_path(CheckPath::Fast);
    let slowp = by_path(CheckPath::Slow);
    let viol = by_path(CheckPath::Violation);
    let checks = f(e.checks);
    let (fp50, fp99) = (percentile(&ns_of(&fast), 0.5), percentile(&ns_of(&fast), 0.99));
    rep.set("fastpath.check_ns_p50", fp50.value);
    rep.set("fastpath.check_ns_p99", fp99.value);
    rep.set("fastpath.bytes_scanned_per_check", ratio(f(e.bytes_scanned), checks));
    rep.set("fastpath.pairs_per_check", ratio(f(e.pairs_checked), checks));
    rep.set(
        "fastpath.edge_cache_hit_rate",
        ratio(f(e.edge_cache_hits), f(e.edge_cache_hits + e.edge_cache_misses)),
    );
    rep.set("fastpath.credited_fraction", ratio(f(e.credited_pairs), f(e.pairs_checked)));
    rep.set("fastpath.tier0_hits", f(e.tier0_hits));
    rep.set("fastpath.cold_restarts", f(e.cold_restarts));
    rep.set("fastpath.ns_per_modeled_kcycle", per_kcycle(&fast));

    let escalated: Vec<&TracedCheck> = spans
        .iter()
        .map(|c| c.1)
        .filter(|c| {
            matches!(
                c.event.verdict,
                flowguard::CheckVerdict::SlowClean | flowguard::CheckVerdict::SlowAttack
            )
        })
        .collect();
    let esc = f(escalated.len() as u64);
    let (sp50, sp99) = (percentile(&ns_of(&slowp), 0.5), percentile(&ns_of(&slowp), 0.99));
    rep.set("slowpath.invocations", f(e.slow_invocations));
    rep.set("slowpath.fraction", ratio(f(e.slow_invocations), checks));
    rep.set("slowpath.check_ns_p50", sp50.value);
    rep.set("slowpath.check_ns_p99", sp99.value);
    rep.set(
        "slowpath.insns_decoded_per_invocation",
        ratio(escalated.iter().map(|c| f(c.event.slow_insns_decoded)).sum(), esc),
    );
    rep.set(
        "slowpath.shards_per_invocation",
        ratio(escalated.iter().map(|c| f(c.event.slow_shards)).sum(), esc),
    );
    rep.set(
        "slowpath.checkpoint_hit_rate",
        ratio(f(e.checkpoint_hits), f(e.checkpoint_hits + e.checkpoint_misses)),
    );
    rep.set("slowpath.result_cache_size", f(e.cache_size));
    rep.set("slowpath.ns_per_modeled_kcycle", per_kcycle(&slowp));
    rep.note(format!(
        "check spans: fast {} (p99 has {} beyond), slow {} (p99 has {} beyond), violation {}",
        fp99.samples,
        fp99.beyond,
        sp99.samples,
        sp99.beyond,
        viol.len()
    ));

    rep.set("violation.check_ns", percentile(&ns_of(&viol), 0.5).value);
    rep.set("violation.flight_records", f(e.flight_records));

    rep.set("engine.decode_kcycles", e.decode_cycles / 1e3);
    rep.set("engine.check_kcycles", e.check_cycles / 1e3);
    rep.set("engine.other_kcycles", e.other_cycles / 1e3);
    rep.set("engine.modeled_check_p50_kcycles", f(x.modeled_p50) / 1e3);
    let interceptor_per_round = f(interceptor) / rounds.len() as f64 / slowness;
    rep.set("engine.interceptor_ms", interceptor_per_round / 1e6);
    rep.set("engine.ns_per_modeled_kcycle", ratio(interceptor_per_round, e.modeled_kcycles()));
    rep.note(format!(
        "reconciliation: interceptor {:.2} ms host per round vs modeled decode {:.0} + check {:.0} + other {:.0} kcycles",
        interceptor_per_round / 1e6,
        e.decode_cycles / 1e3,
        e.check_cycles / 1e3,
        e.other_cycles / 1e3
    ));

    rep.set("consumer.drains", f(e.stream_drains));
    rep.set("consumer.drained_kib", f(e.stream_drained_bytes) / 1024.0);
    rep.set(
        "consumer.copied_bytes_per_kib",
        ratio(f(e.stream_copied_bytes), f(e.stream_drained_bytes + e.bytes_scanned) / 1024.0),
    );

    // Protected host time explained by the twins and the interceptor
    // spans. On the fleet the interceptor spans come from the solo replay,
    // and the probe's own cost is priced on the replay's two lanes.
    let replay = sum(|r| r.replay_ns);
    let probed = if replay > 0 { replay } else { prot };
    rep.set("cpu.self_share", ratio(f(prot) - f(interceptor), f(prot)));
    rep.set("trace.overhead_pct", (ratio(f(probed), f(plain)) - 1.0) * 100.0);
    rep.set("trace.coverage", ratio(f(traced) + f(interceptor), f(prot)));
}
