//! The four closed-loop workloads. Each window builds fresh objects and
//! two fresh client threads, warms up for a fixed number of calls, then
//! runs until the window's time is up. The benchmark calls each layer's
//! public functions directly.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use ts_core::{
    BoundedTimestamp, CollectMax, LongLivedTimestamp, OneShotTimestamp, ShardedTimestamp, Timestamp,
};
use ts_register::reclaim;
use ts_replica::{FaultPlan, ReplicatedCollectMax, RestartMode};
use ts_service::{ClientSession, ServiceConfig, ShardBatch, ShardedCollectMax};

use crate::check::{self, FaultEvent, FaultKind};
use crate::trace::{Span, Tracer};
use crate::util::{nanos_since, pin_to_cpu, sample_ns, SpinBarrier, SplitMix64};

/// Closed-loop clients per workload.
pub const CLIENTS: usize = 2;
/// Calls per client block; outside `oneshot_rounds` a block is a round.
pub const BLOCK: usize = 32;
/// Latency samples kept per client and window.
pub const SAMPLE_CAP: usize = 1 << 14;
/// In untraced runs, one block (or one-shot round) in this many has
/// every call timed; more often would slow the nanosecond-scale calls.
/// `longlived_getts` has the fastest calls: timing one block in 64 would
/// fill `SAMPLE_CAP` early in a 1-second window, so it times fewer and its
/// samples cover the whole window.
const SAMPLE_EVERY: u64 = 64;
const LONGLIVED_SAMPLE_EVERY: u64 = 128;
const ONESHOT_SAMPLE_EVERY: u64 = 4;
const REPLICA_SAMPLE_EVERY: u64 = 2;
/// Processes of the long-lived object and of each one-shot round.
pub const PROCESSES: usize = 64;
/// Stamps per `get_ts_batch` call in `service_issue`.
pub const BATCH: u32 = 16;
/// Length of each client's seeded op-mix table (a power of two).
const MIX_LEN: usize = 1 << 16;
/// Replicated ops covered by the generated crash schedule.
const SCHEDULE_HORIZON: u64 = 16_000_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LonglivedGetts,
    ServiceIssue,
    OneshotRounds,
    ReplicatedFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LonglivedGetts,
        Workload::ServiceIssue,
        Workload::OneshotRounds,
        Workload::ReplicatedFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LonglivedGetts => "longlived_getts",
            Workload::ServiceIssue => "service_issue",
            Workload::OneshotRounds => "oneshot_rounds",
            Workload::ReplicatedFaults => "replicated_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn salt(self) -> u64 {
        self as u64 + 1
    }
}

/// What one window measured.
#[derive(Debug)]
pub struct Window {
    /// Input generation, object construction, client start and warm-up.
    pub setup_s: f64,
    /// From the first client's start to the last client's stop.
    pub elapsed_s: f64,
    pub attempted: u64,
    /// Error returns plus failed output checks.
    pub failed: u64,
    pub stamps: u64,
    /// Sampled per-call latencies.
    pub op_ns: Vec<u32>,
    /// Round durations.
    pub round_ns: Vec<u32>,
    /// Layer counters read from the objects after the window.
    pub counters: Vec<(&'static str, f64)>,
    /// Whether both clients ran pinned to CPUs of their own.
    pub pinned: bool,
    /// Span totals of both clients (empty when untraced).
    pub tracer: Tracer,
    pub spans: Vec<Vec<Span>>,
}

impl Window {
    /// The sum of the counters named `name` (`NaN` if there is none).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .reduce(|a, b| a + b)
            .unwrap_or(f64::NAN)
    }
}

/// Per-client results.
#[derive(Debug)]
struct ClientOut {
    calls: u64,
    failed: u64,
    stamps: u64,
    op_ns: Vec<u32>,
    round_ns: Vec<u32>,
    start: Instant,
    end: Instant,
    counters: Vec<(&'static str, f64)>,
    tracer: Tracer,
    /// Whether the client ran pinned to a CPU of its own.
    pinned: bool,
}

impl ClientOut {
    fn new(tracer: Tracer) -> Self {
        let now = Instant::now();
        Self {
            calls: 0,
            failed: 0,
            stamps: 0,
            op_ns: prefaulted(SAMPLE_CAP),
            round_ns: prefaulted(SAMPLE_CAP),
            start: now,
            end: now,
            counters: Vec::new(),
            tracer,
            pinned: false,
        }
    }

    fn push_op(&mut self, d: Duration) {
        if self.op_ns.len() < SAMPLE_CAP {
            self.op_ns.push(sample_ns(d));
        }
    }

    fn push_round(&mut self, d: Duration) {
        if self.round_ns.len() < SAMPLE_CAP {
            self.round_ns.push(sample_ns(d));
        }
    }
}

/// An empty vector whose capacity is already resident, so the samples
/// stored later do not grow `peak_rss_mb` with the call rate.
pub fn prefaulted(capacity: usize) -> Vec<u32> {
    let mut v = vec![u32::MAX; capacity];
    v.clear();
    v
}

/// Start and stop signals shared by the window's threads.
struct Ctl {
    /// Both clients, once pinned: warm-up starts together, so it is
    /// contended from its first call however late a thread started.
    ready: Barrier,
    /// Main thread plus both clients: passing it starts the clock.
    start: Barrier,
    stop: AtomicBool,
    /// Both clients, after each measured block of a lockstep workload.
    step: SpinBarrier,
}

impl Ctl {
    fn new() -> Self {
        Self {
            ready: Barrier::new(CLIENTS),
            start: Barrier::new(CLIENTS + 1),
            stop: AtomicBool::new(false),
            step: SpinBarrier::default(),
        }
    }
}

/// One client's side of a block workload.
trait BlockClient: Send {
    /// Issues the client's next call, keeping its output for the block
    /// check. Returns the stamps issued, or `Err(())` for an error return.
    fn call(&mut self, tr: &mut Tracer) -> Result<u64, ()>;
    /// Checks the outputs kept since the last check; returns failures.
    fn check_block(&mut self) -> u64;
    /// Called once warm-up is over, before the clock starts.
    fn go_live(&mut self) {}
    /// Counters the client kept, summed over clients by name.
    fn counters(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Runs `warmup_blocks` unmeasured blocks, waits for the start signal,
/// then runs blocks until stopped, timing every call of one block in
/// `sample_every` and, of the other blocks, the whole block once in
/// `sample_every / 8`, so that the capped round samples cover the whole
/// window. With `lockstep`, both clients meet at `ctl.step` after each
/// measured block.
fn run_blocks(
    client: &mut impl BlockClient,
    ctl: &Ctl,
    warmup_blocks: u64,
    sample_every: u64,
    lockstep: bool,
    tracer: Tracer,
) -> ClientOut {
    let mut out = ClientOut::new(tracer);
    let mut off = Tracer::new(false, Instant::now());
    for _ in 0..warmup_blocks {
        out.failed += (0..BLOCK)
            .filter(|_| client.call(&mut off).is_err())
            .count() as u64;
        out.failed += client.check_block();
    }
    client.go_live();
    let traced = out.tracer.enabled();
    let round_every = (sample_every / 8).max(1);
    let mut step = 0u64;
    ctl.start.wait();
    out.start = Instant::now();
    let mut block = 0u64;
    while !ctl.stop.load(Ordering::Relaxed) {
        let sampled = !traced && block.is_multiple_of(sample_every);
        let round_sampled = !sampled && block.is_multiple_of(round_every);
        out.tracer.begin("driver.block");
        let t_block = Instant::now();
        for _ in 0..BLOCK {
            let r = if sampled {
                let t = Instant::now();
                let r = client.call(&mut out.tracer);
                out.push_op(t.elapsed());
                r
            } else {
                client.call(&mut out.tracer)
            };
            match r {
                Ok(stamps) => out.stamps += stamps,
                Err(()) => out.failed += 1,
            }
        }
        if round_sampled {
            out.push_round(t_block.elapsed());
        }
        out.tracer.begin("driver.check");
        out.failed += client.check_block();
        out.tracer.end();
        out.tracer.end();
        out.calls += BLOCK as u64;
        block += 1;
        if lockstep {
            out.tracer.begin("driver.step");
            ctl.step.wait_or_stop(&mut step, &ctl.stop);
            out.tracer.end();
        }
    }
    out.end = Instant::now();
    out.counters = client.counters();
    out
}

/// Runs one window of `w`: fresh objects, two fresh clients, `dur` of
/// measured calls. Window `window` of seed `seed` always gets the same
/// inputs.
pub fn run_window(
    w: Workload,
    seed: u64,
    window: u64,
    dur: Duration,
    trace: bool,
    epoch: Instant,
) -> Window {
    let ctl = Box::new(Ctl::new());
    let setup_start = Instant::now();
    let tracers = [Tracer::new(trace, epoch), Tracer::new(trace, epoch)];
    let mixes: Vec<Vec<u8>> = (0..CLIENTS as u64)
        .map(|c| op_mix(w, seed, window, c))
        .collect();
    let setup = Setup {
        ctl: &ctl,
        dur,
        start: setup_start,
        tracers,
    };
    let (outs, counters, setup_s) = match w {
        Workload::LonglivedGetts => longlived(setup),
        Workload::ServiceIssue => service(setup, &mixes),
        Workload::OneshotRounds => oneshot(setup),
        Workload::ReplicatedFaults => replicated(setup, seed, window, &mixes),
    };
    let mut tracer = Tracer::new(trace, epoch);
    let mut spans = Vec::new();
    let start = outs.iter().map(|o| o.start).min().expect("two clients");
    let end = outs.iter().map(|o| o.end).max().expect("two clients");
    let mut win = Window {
        setup_s,
        elapsed_s: end.duration_since(start).as_secs_f64(),
        attempted: 0,
        failed: 0,
        stamps: 0,
        op_ns: Vec::new(),
        round_ns: Vec::new(),
        counters,
        pinned: outs.iter().all(|o| o.pinned),
        tracer: Tracer::new(false, epoch),
        spans: Vec::new(),
    };
    for o in outs {
        win.attempted += o.calls;
        win.failed += o.failed;
        win.stamps += o.stamps;
        win.op_ns.extend_from_slice(&o.op_ns);
        win.round_ns.extend_from_slice(&o.round_ns);
        win.counters.extend(o.counters);
        tracer.absorb(o.tracer, &mut spans);
    }
    win.tracer = tracer;
    win.spans = spans;
    win
}

/// Seeded op-mix table for one client: the low bit picks the call kind
/// (one in four is the second kind), the next bit a session.
fn op_mix(w: Workload, seed: u64, window: u64, client: u64) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed, &[w.salt(), window, client]);
    (0..MIX_LEN)
        .map(|_| {
            let r = rng.next_u64();
            u8::from(r.is_multiple_of(4)) | (((r >> 8) & 1) as u8) << 1
        })
        .collect()
}

/// The next code of a client's op mix.
fn next_code(mix: &[u8], i: &mut u64) -> u8 {
    let code = mix[(*i as usize) & (MIX_LEN - 1)];
    *i += 1;
    code
}

/// What every workload needs to run a window.
struct Setup<'a> {
    ctl: &'a Ctl,
    dur: Duration,
    /// When set-up began: set-up ends when both clients are warm.
    start: Instant,
    tracers: [Tracer; 2],
}

type Drive = (Vec<ClientOut>, Vec<(&'static str, f64)>, f64);

/// Spawns one thread per client body, starts the clock when both are
/// warm, lets them run for `dur` and collects their results. Set-up
/// runs from `setup_start` to the start of the clock.
fn drive<'env>(
    ctl: &'env Ctl,
    dur: Duration,
    setup_start: Instant,
    bodies: Vec<Box<dyn FnOnce() -> ClientOut + Send + 'env>>,
) -> (Vec<ClientOut>, f64) {
    std::thread::scope(|s| {
        let handles: Vec<_> = bodies
            .into_iter()
            .enumerate()
            .map(|(c, body)| {
                s.spawn(move || {
                    let pinned = pin_to_cpu(c);
                    ctl.ready.wait();
                    let mut out = body();
                    out.pinned = pinned;
                    out
                })
            })
            .collect();
        ctl.start.wait();
        let setup_s = setup_start.elapsed().as_secs_f64();
        std::thread::sleep(dur);
        ctl.stop.store(true, Ordering::Relaxed);
        let outs = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (outs, setup_s)
    })
}

/// Runs both clients on their own threads, each warming up for
/// `warmup_blocks` blocks before the clock starts. Returns their results
/// and the set-up time.
fn drive_blocks<C: BlockClient>(
    setup: Setup<'_>,
    clients: [C; 2],
    warmup_blocks: u64,
    sample_every: u64,
    lockstep: bool,
) -> (Vec<ClientOut>, f64) {
    let Setup {
        ctl,
        dur,
        start,
        tracers,
    } = setup;
    let bodies: Vec<Box<dyn FnOnce() -> ClientOut + Send + '_>> = clients
        .into_iter()
        .zip(tracers)
        .map(|(mut client, tracer)| {
            Box::new(move || {
                run_blocks(
                    &mut client,
                    ctl,
                    warmup_blocks,
                    sample_every,
                    lockstep,
                    tracer,
                )
            }) as Box<dyn FnOnce() -> ClientOut + Send + '_>
        })
        .collect();
    drive(ctl, dur, start, bodies)
}

// ---- longlived_getts ------------------------------------------------

struct LonglivedClient<'a> {
    obj: &'a CollectMax,
    pid: usize,
    block: Vec<Timestamp>,
    last: Option<Timestamp>,
}

impl BlockClient for LonglivedClient<'_> {
    fn call(&mut self, tr: &mut Tracer) -> Result<u64, ()> {
        tr.begin("core.collect_max.get_ts");
        let r = self.obj.get_ts(self.pid);
        tr.end();
        let t = r.map_err(|_| ())?;
        self.block.push(t);
        Ok(1)
    }

    fn check_block(&mut self) -> u64 {
        let bad = check::strictly_increasing(&mut self.last, &self.block, Timestamp::compare);
        self.block.clear();
        bad
    }
}

fn longlived(setup: Setup<'_>) -> Drive {
    // Shared state lives on the heap: a stack address would move with
    // each process's stack randomization, and with it the cache-set
    // layout the two clients contend on.
    let obj = Box::new(CollectMax::new(PROCESSES));
    let clients = [0, 1].map(|pid| LonglivedClient {
        obj: &obj,
        pid,
        block: Vec::with_capacity(BLOCK),
        last: None,
    });
    // Lockstep: a contended call costs a cache-line transfer (~700 ns)
    // and an uncontended one ~100 ns, so without it a client whose peer's
    // CPU the host stalls runs alone at 3x the rate, and runs on a busy
    // host spread by 70 %. In lockstep it waits for its peer instead.
    let (outs, setup_s) = drive_blocks(setup, clients, 400, LONGLIVED_SAMPLE_EVERY, true);
    let stats = obj.stats();
    let meter = obj.meter().snapshot();
    let counters = vec![
        ("core.collect_max.calls", stats.calls as f64),
        ("core.collect_max.fast_hits", stats.fast_hits as f64),
        ("register.longlived.reads", meter.total_reads() as f64),
        ("register.longlived.writes", meter.total_writes() as f64),
    ];
    (outs, counters, setup_s)
}

// ---- service_issue --------------------------------------------------

enum Issued {
    Single(usize, ShardedTimestamp),
    Batch(usize, ShardBatch),
}

struct ServiceClient<'a> {
    sessions: [ClientSession<'a>; 2],
    mix: &'a [u8],
    next: u64,
    block: Vec<Issued>,
    last: [Option<ShardedTimestamp>; 2],
}

impl BlockClient for ServiceClient<'_> {
    fn call(&mut self, tr: &mut Tracer) -> Result<u64, ()> {
        let code = next_code(self.mix, &mut self.next);
        let s = usize::from(code >> 1);
        if code & 1 == 1 {
            tr.begin("service.get_ts_batch16");
            let b = self.sessions[s].get_ts_batch(BATCH);
            tr.end();
            self.block.push(Issued::Batch(s, b));
            Ok(u64::from(BATCH))
        } else {
            tr.begin("service.get_ts");
            let t = self.sessions[s].get_ts();
            tr.end();
            self.block.push(Issued::Single(s, t));
            Ok(1)
        }
    }

    fn check_block(&mut self) -> u64 {
        let mut bad = 0;
        for issued in self.block.drain(..) {
            match issued {
                Issued::Single(s, t) => {
                    bad += check::strictly_increasing(
                        &mut self.last[s],
                        &[t],
                        ShardedTimestamp::compare,
                    );
                }
                Issued::Batch(s, b) => {
                    let stamps: Vec<ShardedTimestamp> = b.collect();
                    if !check::batch_is_consecutive(&stamps, BATCH as usize) {
                        bad += 1;
                    }
                    bad += check::strictly_increasing(
                        &mut self.last[s],
                        &stamps,
                        ShardedTimestamp::compare,
                    );
                }
            }
        }
        bad
    }
}

fn service(setup: Setup<'_>, mixes: &[Vec<u8>]) -> Drive {
    let svc = Box::new(ShardedCollectMax::new(ServiceConfig::new(2, 2)));
    // Sessions are minted round-robin over the shards, so each client's
    // two sessions sit on different shards.
    let clients = [0, 1].map(|c| ServiceClient {
        sessions: [svc.session(), svc.session()],
        mix: &mixes[c],
        next: 0,
        block: Vec::with_capacity(BLOCK),
        last: [None, None],
    });
    let (outs, setup_s) = drive_blocks(setup, clients, 400, SAMPLE_EVERY, false);
    let stats = svc.stats();
    let counters = vec![
        ("service.calls", stats.calls as f64),
        (
            "service.fast_hit_ratio",
            stats.fast_hit_ratio().unwrap_or(f64::NAN),
        ),
        (
            "service.avg_batch_fill",
            stats.avg_batch_fill().unwrap_or(f64::NAN),
        ),
        ("service.lease_waits", stats.lease_waits as f64),
    ];
    (outs, counters, setup_s)
}

// ---- oneshot_rounds -------------------------------------------------

/// State the two clients of a one-shot round share.
struct RoundShared {
    epoch: Instant,
    obj: Mutex<Option<Arc<BoundedTimestamp>>>,
    done: AtomicBool,
    barrier: SpinBarrier,
    /// When each client issued its last stamp of the round, in
    /// nanoseconds since `epoch`.
    ends: [AtomicU64; 2],
    /// The follower's stamps of the round: first half, then second.
    follower_stamps: Mutex<Vec<Timestamp>>,
}

impl RoundShared {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            obj: Mutex::new(None),
            done: AtomicBool::new(false),
            barrier: SpinBarrier::default(),
            ends: Default::default(),
            follower_stamps: Mutex::new(Vec::new()),
        }
    }
}

/// Leader-side totals across rounds, for the per-layer counters.
#[derive(Default)]
struct RoundTotals {
    calls: u64,
    scans: u64,
    early_returns: u64,
    writes: u64,
    meter_reads: u64,
    meter_writes: u64,
}

const HALF: usize = PROCESSES / 2 / CLIENTS;

/// One client's rounds: `limit` rounds, or until stopped when `None`.
fn oneshot_client(
    c: usize,
    shared: &RoundShared,
    ctl: &Ctl,
    limit: Option<u64>,
    out: &mut ClientOut,
    totals: &mut RoundTotals,
    gen: &mut u64,
) {
    let timed = limit.is_none();
    let mut mine = Vec::with_capacity(2 * HALF);
    let mut rounds = 0u64;
    loop {
        out.tracer.begin("driver.round");
        let t0 = nanos_since(shared.epoch);
        if c == 0 {
            let stop = match limit {
                Some(n) => rounds >= n,
                None => ctl.stop.load(Ordering::Relaxed),
            };
            if stop {
                shared.done.store(true, Ordering::Release);
            } else {
                out.tracer.begin("core.bounded.new");
                let obj = Arc::new(BoundedTimestamp::one_shot(PROCESSES));
                out.tracer.end();
                *shared.obj.lock().expect("round object") = Some(obj);
            }
        }
        out.tracer.begin("driver.barrier");
        shared.barrier.wait(gen);
        out.tracer.end();
        if shared.done.load(Ordering::Acquire) {
            out.tracer.end();
            break;
        }
        let obj = shared
            .obj
            .lock()
            .expect("round object")
            .clone()
            .expect("published");
        let sampled = timed && !out.tracer.enabled() && rounds.is_multiple_of(ONESHOT_SAMPLE_EVERY);
        mine.clear();
        for half in 0..2 {
            if half == 1 {
                out.tracer.begin("driver.barrier");
                shared.barrier.wait(gen);
                out.tracer.end();
            }
            for k in 0..HALF {
                let pid = half * PROCESSES / 2 + c * HALF + k;
                out.tracer.begin("core.bounded.get_ts");
                let t = Instant::now();
                let r = obj.get_ts(pid);
                if sampled {
                    out.push_op(t.elapsed());
                }
                out.tracer.end();
                match r {
                    Ok(ts) => {
                        mine.push(ts);
                        out.stamps += 1;
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        shared.ends[c].store(nanos_since(shared.epoch), Ordering::Release);
        drop(obj);
        if c == 1 {
            shared
                .follower_stamps
                .lock()
                .expect("follower stamps")
                .clone_from(&mine);
        }
        out.tracer.begin("driver.barrier");
        shared.barrier.wait(gen);
        out.tracer.end();
        if c == 0 {
            // From construction to the 64th stamp, whichever client
            // issued it; the check below is not part of the round.
            let end = shared.ends[0]
                .load(Ordering::Acquire)
                .max(shared.ends[1].load(Ordering::Acquire));
            if timed {
                out.push_round(Duration::from_nanos(end.saturating_sub(t0)));
            }
            out.tracer.begin("driver.check");
            let obj = shared
                .obj
                .lock()
                .expect("round object")
                .take()
                .expect("published");
            let follower = shared.follower_stamps.lock().expect("follower stamps");
            let (f1, f2) = follower.split_at(follower.len().min(HALF));
            let (l1, l2) = mine.split_at(mine.len().min(HALF));
            let first: Vec<Timestamp> = l1.iter().chain(f1).copied().collect();
            let second: Vec<Timestamp> = l2.iter().chain(f2).copied().collect();
            if first.len() + second.len() != PROCESSES || !check::halves_ordered(&first, &second) {
                out.failed += 1;
            }
            let stats = obj.phase_stats();
            if !check::phase_bounds_hold(&stats) {
                out.failed += 1;
            }
            let meter = obj.meter().snapshot();
            totals.calls += stats.calls;
            totals.scans += stats.scans;
            totals.early_returns += stats.early_returns;
            totals.writes += stats.total_writes;
            totals.meter_reads += meter.total_reads();
            totals.meter_writes += meter.total_writes();
            drop(follower);
            drop(obj);
            out.tracer.end();
        }
        out.calls += (2 * HALF) as u64;
        rounds += 1;
        out.tracer.end();
    }
}

fn oneshot(setup: Setup<'_>) -> Drive {
    let Setup {
        ctl,
        dur,
        start,
        tracers,
    } = setup;
    let warm = Box::new(RoundShared::new());
    let timed = Box::new(RoundShared::new());
    let bodies: Vec<Box<dyn FnOnce() -> ClientOut + Send + '_>> = tracers
        .into_iter()
        .enumerate()
        .map(|(c, tracer)| {
            let (warm, timed) = (&*warm, &*timed);
            Box::new(move || {
                let mut out = ClientOut::new(tracer);
                let mut scratch = ClientOut::new(Tracer::new(false, Instant::now()));
                let mut totals = RoundTotals::default();
                oneshot_client(c, warm, ctl, Some(64), &mut scratch, &mut totals, &mut 0);
                out.failed += scratch.failed;
                let mut totals = RoundTotals::default();
                ctl.start.wait();
                out.start = Instant::now();
                oneshot_client(c, timed, ctl, None, &mut out, &mut totals, &mut 0);
                out.end = Instant::now();
                if c == 0 {
                    out.counters = vec![
                        ("core.bounded.calls", totals.calls as f64),
                        ("core.bounded.scans", totals.scans as f64),
                        ("core.bounded.early_returns", totals.early_returns as f64),
                        ("core.bounded.writes", totals.writes as f64),
                        ("register.oneshot.reads", totals.meter_reads as f64),
                        ("register.oneshot.writes", totals.meter_writes as f64),
                    ];
                }
                out
            }) as Box<dyn FnOnce() -> ClientOut + Send + '_>
        })
        .collect();
    let (outs, setup_s) = drive(ctl, dur, start, bodies);
    let counters = vec![(
        "register.epoch_deferred",
        reclaim::deferred_outstanding() as f64,
    )];
    (outs, counters, setup_s)
}

// ---- replicated_faults ----------------------------------------------

/// The seeded lossy network of `replicated_faults`.
pub fn fault_plan(seed: u64, window: u64) -> FaultPlan {
    let mut rng = SplitMix64::new(seed, &[Workload::ReplicatedFaults.salt(), window, 0xF1]);
    FaultPlan {
        seed: rng.next_u64(),
        drop_permille: 50,
        dup_permille: 20,
        delay_max: 3,
        ..FaultPlan::default()
    }
}

/// The seeded rolling crash schedule: one replica at a time crashes and
/// comes back wiped a few hundred to a few thousand calls later.
pub fn fault_schedule(seed: u64, window: u64, horizon: u64) -> Vec<FaultEvent> {
    let mut rng = SplitMix64::new(seed, &[Workload::ReplicatedFaults.salt(), window, 0xC4]);
    let mut events = Vec::new();
    let mut at = 1_000 + rng.below(1_000);
    while at < horizon {
        let replica = rng.below(3) as u32;
        let down = 500 + rng.below(1_000);
        events.push(FaultEvent {
            at,
            kind: FaultKind::Crash,
            replica,
        });
        events.push(FaultEvent {
            at: at + down,
            kind: FaultKind::WipeRestart,
            replica,
        });
        at += down + 1_000 + rng.below(2_000);
    }
    events
}

/// Applies the crash schedule in order, exactly once per event.
struct Faults<'a> {
    obj: &'a ReplicatedCollectMax,
    schedule: &'a [FaultEvent],
    completed: AtomicU64,
    /// The next event's op count (`u64::MAX` when none is left).
    next_at: AtomicU64,
    applied: Mutex<usize>,
}

impl Faults<'_> {
    fn after_call(&self, tr: &mut Tracer) {
        let k = self.completed.fetch_add(1, Ordering::AcqRel);
        if k < self.next_at.load(Ordering::Acquire) {
            return;
        }
        let mut applied = self.applied.lock().expect("fault schedule");
        while let Some(e) = self.schedule.get(*applied).filter(|e| e.at <= k) {
            match e.kind {
                FaultKind::Crash => {
                    tr.begin("replica.crash");
                    self.obj.cluster().crash(e.replica);
                }
                FaultKind::WipeRestart => {
                    tr.begin("replica.restart");
                    self.obj.cluster().restart(e.replica, RestartMode::Wipe);
                }
            }
            tr.end();
            *applied += 1;
        }
        let next = self.schedule.get(*applied).map_or(u64::MAX, |e| e.at);
        self.next_at.store(next, Ordering::Release);
    }
}

enum ReplicatedOut {
    Stamp(Timestamp),
    ReadMax(Timestamp),
}

struct ReplicatedClient<'a> {
    faults: &'a Faults<'a>,
    pid: usize,
    mix: &'a [u8],
    next: u64,
    /// Whether calls drive the crash schedule (not during warm-up).
    live: bool,
    block: Vec<ReplicatedOut>,
    last: Option<Timestamp>,
}

impl BlockClient for ReplicatedClient<'_> {
    fn call(&mut self, tr: &mut Tracer) -> Result<u64, ()> {
        let obj = self.faults.obj.inner();
        let issued = if next_code(self.mix, &mut self.next) & 1 == 1 {
            tr.begin("replica.read_max_collect");
            let m = obj.read_max_collect();
            tr.end();
            self.block.push(ReplicatedOut::ReadMax(m));
            0
        } else {
            tr.begin("replica.get_ts");
            let r = obj.get_ts(self.pid);
            tr.end();
            self.block.push(ReplicatedOut::Stamp(r.map_err(|_| ())?));
            1
        };
        if self.live {
            self.faults.after_call(tr);
        }
        Ok(issued)
    }

    fn check_block(&mut self) -> u64 {
        let mut bad = 0;
        for o in self.block.drain(..) {
            match o {
                ReplicatedOut::Stamp(t) => {
                    bad += check::strictly_increasing(&mut self.last, &[t], Timestamp::compare);
                }
                ReplicatedOut::ReadMax(m) => {
                    if !check::covers(m, self.last) {
                        bad += 1;
                    }
                }
            }
        }
        bad
    }

    fn go_live(&mut self) {
        self.live = true;
    }

    fn counters(&self) -> Vec<(&'static str, f64)> {
        // Every call this client made, warm-up included, as the
        // cluster's counters include them too.
        vec![("replica.calls", self.next as f64)]
    }
}

fn replicated(setup: Setup<'_>, seed: u64, window: u64, mixes: &[Vec<u8>]) -> Drive {
    let schedule = fault_schedule(seed, window, SCHEDULE_HORIZON);
    let obj = Box::new(ReplicatedCollectMax::with_plan(
        CLIENTS,
        1,
        "replicated_faults",
        fault_plan(seed, window),
    ));
    let faults = Box::new(Faults {
        obj: &obj,
        schedule: &schedule,
        completed: AtomicU64::new(0),
        next_at: AtomicU64::new(schedule.first().map_or(u64::MAX, |e| e.at)),
        applied: Mutex::new(0),
    });
    let clients = [0, 1].map(|pid| ReplicatedClient {
        faults: &faults,
        pid,
        mix: &mixes[pid],
        next: 0,
        live: false,
        block: Vec::with_capacity(BLOCK),
        last: None,
    });
    let (outs, setup_s) = drive_blocks(setup, clients, 32, REPLICA_SAMPLE_EVERY, false);
    let cluster = obj.cluster();
    let net = cluster.net_stats();
    let completed = faults.completed.load(Ordering::Acquire);
    let applied = *faults.applied.lock().expect("fault schedule");
    let faults_ok = check::faults_all_applied(
        &schedule,
        completed,
        applied,
        cluster.replica_crashes(),
        cluster.replica_restarts(),
    );
    let counters = vec![
        ("replica.quorum_rounds", cluster.quorum_rounds() as f64),
        ("replica.retries", cluster.quorum_retries() as f64),
        ("replica.repairs", cluster.quorum_repairs() as f64),
        (
            "replica.backoff_steps",
            cluster.quorum_backoff_steps() as f64,
        ),
        ("replica.msgs_sent", net.sent as f64),
        ("replica.restarts", cluster.replica_restarts() as f64),
        ("replica.resynced", cluster.resynced_registers() as f64),
        ("replica.unavailable", cluster.quorum_unavailable() as f64),
        ("replica.faults_ok", f64::from(u8::from(faults_ok))),
    ];
    (outs, counters, setup_s)
}
