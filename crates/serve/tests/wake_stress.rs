//! Stress of the park/notify protocol between clients and shard threads.
//!
//! A lost wake-up shows as a hang, so every scenario runs under a
//! watchdog that fails the test instead. The sweep crosses client-thread
//! counts, queue depths (depth 1 keeps the shard thread parking and the
//! producers in `Busy` back-off; depth 256 keeps both sides running) and
//! the two drain modes; harvesting alternates between blocking `wait`
//! and `poll`, and a side thread keeps sending telemetry probes through
//! the control path. A paced scenario submits one request at a time with
//! gaps below, inside and past the window a waiter spins before it parks
//! ([`SPIN_NS`]), so every pass takes both the spin exit and the park
//! exit. One pass proves little — CI runs this file in a loop, and once
//! pinned to one CPU, where a spinner shares its core with the thread it
//! waits for.

use adapt_array::CountingArray;
use adapt_lss::Lss;
use adapt_placement::SepGc;
use adapt_serve::{Client, Request, ServerBuilder, ShardPlan, SubmitError, Ticket, SPIN_NS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

const SHARDS: u32 = 2;
const VOLUME_BLOCKS: u64 = 8 * 1024;
/// Tickets a client holds before it harvests them.
const CHUNK: usize = 24;

/// Deterministic LBA scatter (splitmix64).
fn mix(x: u64) -> u64 {
    adapt_trace::rng::mix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

fn builder(depth: u32, ordered: bool) -> ServerBuilder {
    ServerBuilder::new()
        .volume(0, VOLUME_BLOCKS)
        .range_blocks(512)
        .shards(SHARDS)
        .queue_depth(depth)
        .group_commit_window(8)
        .ordered_replay(ordered)
}

fn factory(plan: &ShardPlan) -> Box<dyn adapt_serve::ShardEngine> {
    let sink = CountingArray::new(plan.lss.array_config());
    Box::new(Lss::builder(SepGc::new(), sink).config(plan.lss).build())
}

/// `n` requests; in ordered mode each carries its dense per-shard
/// sequence, assigned in stream order as a replay harness would.
fn stream(client: &Client, n: u64, ordered: bool) -> Vec<Request> {
    let mut next_seq = [0u64; SHARDS as usize];
    (0..n)
        .map(|i| {
            let r = mix(i ^ 0x57A7E);
            let lba = mix(r) % VOLUME_BLOCKS;
            let req = match r % 13 {
                0 => Request::trim(0, 0, lba, 1),
                1..=3 => Request::read(0, 0, lba, 1),
                _ => Request::write(0, 0, lba, 1),
            };
            if !ordered {
                return req;
            }
            let shard = client.shard_of(req.volume, req.lba, req.blocks).expect("valid") as usize;
            next_seq[shard] += 1;
            req.with_seq(next_seq[shard] - 1)
        })
        .collect()
}

/// Run `scenario` on its own thread; a hang (a lost wake-up) fails the
/// test after `secs` instead of blocking the run forever.
fn watchdog(name: String, secs: u64, scenario: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        scenario();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => worker.join().expect("scenario thread"),
        // The scenario panicked: joining re-raises its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(worker.join().expect_err("sender dropped without a send"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: no progress for {secs} s — a wake-up was lost")
        }
    }
}

/// Redeem `tickets`, alternating between a blocking `wait` and a `poll`
/// spin so both the parked and the never-parked completion path run.
/// Returns how many completed and how many of those succeeded.
fn harvest(client: &Client, tickets: &mut Vec<Ticket>, round: usize) -> (u64, u64) {
    let (mut n, mut ok) = (0, 0);
    for (i, t) in tickets.drain(..).enumerate() {
        let c = if (round + i).is_multiple_of(2) {
            client.wait(t)
        } else {
            loop {
                match t.poll() {
                    Some(c) => break c,
                    None => std::thread::yield_now(),
                }
            }
        };
        n += 1;
        ok += u64::from(c.result.is_ok());
    }
    (n, ok)
}

/// Keep sending telemetry probes to every shard until told to stop (or
/// until the queues close); each one blocks on its reply channel. The
/// prober meets `first_round` once its first round is answered, so
/// traffic started after that barrier always runs alongside probes
/// however late the scheduler starts this thread.
fn probe_until(client: &Client, stop: &AtomicBool, first_round: &Barrier) -> u64 {
    let mut answered = 0;
    let mut rounds = 0u64;
    loop {
        for shard in 0..SHARDS {
            match client.telemetry(shard) {
                Some(_) => answered += 1,
                None => return answered,
            }
        }
        rounds += 1;
        if rounds == 1 {
            first_round.wait();
        }
        if stop.load(Ordering::Relaxed) {
            return answered;
        }
        std::thread::yield_now();
    }
}

/// Every op of a fixed stream completes, whatever the interleaving.
fn drain_scenario(clients: usize, depth: u32, ordered: bool) {
    const OPS: u64 = 3_000;
    let server = builder(depth, ordered).start(factory);
    let client = server.client();
    let ops = stream(&client, OPS, ordered);
    let stop = AtomicBool::new(false);
    let first_round = Barrier::new(2);
    std::thread::scope(|scope| {
        let prober = scope.spawn(|| probe_until(&client, &stop, &first_round));
        first_round.wait();
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let client = client.clone();
                let slice: Vec<Request> = ops.iter().skip(t).step_by(clients).copied().collect();
                scope.spawn(move || {
                    let mut harvested = 0;
                    let mut tickets = Vec::with_capacity(CHUNK);
                    for (round, chunk) in slice.chunks(CHUNK).enumerate() {
                        for req in chunk {
                            tickets.push(client.submit_backoff(*req).expect("accepted"));
                        }
                        let (n, ok) = harvest(&client, &mut tickets, round);
                        assert_eq!(n, ok, "an op failed");
                        harvested += n;
                        // `completed` moves before the tickets are filled.
                        let counted: u64 = client.stats().iter().map(|s| s.completed).sum();
                        assert!(counted >= harvested, "{counted} counted < {harvested} harvested");
                    }
                    harvested
                })
            })
            .collect();
        let harvested: u64 = workers.into_iter().map(|w| w.join().expect("client")).sum();
        assert_eq!(harvested, OPS);
        stop.store(true, Ordering::Relaxed);
        assert!(prober.join().expect("prober") > 0, "telemetry probes were answered");
    });
    let report = server.shutdown();
    assert!(report.balanced() && !report.any_failed());
    assert_eq!(report.total_completed(), OPS);
    assert_eq!(report.shards.iter().map(|s| s.applied_ops).sum::<u64>(), OPS);
}

/// Shut down while clients are submitting, waiting and probing: every
/// accepted ticket still completes, later submissions see `Shutdown`.
fn shutdown_scenario(clients: usize, depth: u32, ordered: bool) {
    const OPS: u64 = 200_000;
    const SHUTDOWN_AFTER: u64 = 1_500;
    let server = builder(depth, ordered).start(factory);
    let client = server.client();
    let ops = stream(&client, OPS, ordered);
    let stop = AtomicBool::new(false);
    let first_round = Barrier::new(2);
    let harvested_so_far = AtomicU64::new(0);
    let (accepted, harvested, report) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| probe_until(&client, &stop, &first_round));
        first_round.wait();
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let client = client.clone();
                let slice: Vec<Request> = ops.iter().skip(t).step_by(clients).copied().collect();
                let harvested_so_far = &harvested_so_far;
                scope.spawn(move || {
                    let (mut accepted, mut harvested) = (0u64, 0u64);
                    let mut tickets = Vec::with_capacity(CHUNK);
                    'run: for (round, chunk) in slice.chunks(CHUNK).enumerate() {
                        for req in chunk {
                            match client.submit_backoff(*req) {
                                Ok(t) => tickets.push(t),
                                Err(SubmitError::Shutdown) => break 'run,
                                Err(e) => panic!("unexpected rejection: {e}"),
                            }
                        }
                        accepted += tickets.len() as u64;
                        // Ops cut off by the shutdown may fail (ordered
                        // mode: a sequence gap) but must complete.
                        let (n, _) = harvest(&client, &mut tickets, round);
                        harvested += n;
                        harvested_so_far.fetch_add(n, Ordering::Relaxed);
                    }
                    accepted += tickets.len() as u64;
                    harvested += harvest(&client, &mut tickets, 0).0;
                    (accepted, harvested)
                })
            })
            .collect();
        while harvested_so_far.load(Ordering::Relaxed) < SHUTDOWN_AFTER {
            std::thread::yield_now();
        }
        let report = server.shutdown();
        let (accepted, harvested) = workers
            .into_iter()
            .map(|w| w.join().expect("client"))
            .fold((0, 0), |(a, h), (da, dh)| (a + da, h + dh));
        stop.store(true, Ordering::Relaxed);
        prober.join().expect("prober");
        (accepted, harvested, report)
    });
    assert!(accepted < OPS, "the shutdown was meant to land mid-run");
    assert_eq!(harvested, accepted, "an accepted ticket never completed");
    assert!(report.balanced());
    assert_eq!(report.total_completed(), accepted);
    assert!(matches!(client.submit(ops[0]), Err(SubmitError::Shutdown)));
    assert!(client.telemetry(0).is_none());
}

/// One request in flight at a time, `gap` between a completion and the
/// next submit. Below the spin window the next push finds the shard
/// thread (and a `wait`ing client the shard's fill) still polling; past
/// it the shard has parked, and the push must wake it.
fn paced_scenario(gap: Duration, ordered: bool) {
    const OPS: u64 = 400;
    let server = builder(4, ordered).start(factory);
    let client = server.client();
    let mut tickets = Vec::with_capacity(1);
    for (round, req) in stream(&client, OPS, ordered).into_iter().enumerate() {
        tickets.push(client.submit_backoff(req).expect("accepted"));
        assert_eq!(harvest(&client, &mut tickets, round), (1, 1), "the op failed");
        if gap < Duration::from_nanos(SPIN_NS) {
            // A sleep would overshoot the window by the timer slack.
            let t0 = Instant::now();
            while t0.elapsed() < gap {
                std::thread::yield_now();
            }
        } else {
            std::thread::sleep(gap);
        }
    }
    let report = server.shutdown();
    assert!(report.balanced() && !report.any_failed());
    assert_eq!(report.total_completed(), OPS);
    if gap > Duration::from_nanos(SPIN_NS) {
        let wakeups: u64 = report.shards.iter().map(|s| s.stats.wakeups).sum();
        assert!(wakeups > 0, "no shard thread ever parked across a {gap:?} gap");
    }
}

/// Four client threads keep up to [`CHUNK`] × 3 tickets each in flight
/// on the shards' completion boards, redeem them in reverse submission
/// order by `wait` or `poll`, and drop every fifth unredeemed. In
/// ordered mode an op applies at version `seq + 1` on its shard's
/// applied-op clock, so each completion is checked against the ticket it
/// came through: a slot handed to the wrong ticket shows as a wrong LBA
/// or version.
fn board_scenario() {
    const OPS: u64 = 12_000;
    const CLIENTS: usize = 4;
    let server = builder(256, true).start(factory);
    let client = server.client();
    let ops = stream(&client, OPS, true);
    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let client = client.clone();
            let slice: Vec<Request> = ops.iter().skip(t).step_by(CLIENTS).copied().collect();
            scope.spawn(move || {
                for (round, batch) in slice.chunks(3 * CHUNK).enumerate() {
                    let tickets: Vec<(Request, Ticket)> = batch
                        .iter()
                        .map(|req| (*req, client.submit_backoff(*req).expect("accepted")))
                        .collect();
                    for (i, (req, ticket)) in tickets.into_iter().enumerate().rev() {
                        let c = match (round + i) % 5 {
                            0 => continue,
                            1 | 3 => client.wait(ticket),
                            _ => loop {
                                match ticket.poll() {
                                    Some(c) => break c,
                                    None => std::thread::yield_now(),
                                }
                            },
                        };
                        assert_eq!(c.result, Ok(()));
                        assert_eq!((c.request.lba, c.request.seq), (req.lba, req.seq));
                        assert_eq!(Some(c.version), req.seq.map(|s| s + 1), "{req:?}");
                    }
                }
            });
        }
    });
    let report = server.shutdown();
    assert!(report.balanced() && !report.any_failed());
    assert_eq!(report.total_completed(), OPS);
}

#[test]
fn completions_reach_their_own_tickets() {
    watchdog("board".into(), 120, board_scenario);
}

fn sweep(ordered: bool) {
    for clients in [1, 2, 8] {
        for depth in [1, 4, 256] {
            let name = format!("clients={clients} depth={depth} ordered={ordered}");
            watchdog(format!("drain {name}"), 120, move || drain_scenario(clients, depth, ordered));
            watchdog(format!("shutdown {name}"), 120, move || {
                shutdown_scenario(clients, depth, ordered)
            });
        }
    }
}

#[test]
fn fifo_sweep_never_hangs() {
    sweep(false);
}

#[test]
fn ordered_sweep_never_hangs() {
    sweep(true);
}

#[test]
fn paced_submits_straddle_the_spin_window() {
    let window = Duration::from_nanos(SPIN_NS);
    for gap in [Duration::ZERO, window / 2, window * 3] {
        for ordered in [false, true] {
            watchdog(format!("paced gap={gap:?} ordered={ordered}"), 120, move || {
                paced_scenario(gap, ordered)
            });
        }
    }
}
