//! Per-node fan-out on one thread: the engine that turns sum-of-RTT
//! cluster operations into max-of-RTT ones without a thread per request,
//! and the only way this crate's client side talks to a node — a
//! `Cluster` operation runs its rounds here, and each `NodeClient` call
//! is a round of one job.
//!
//! A cluster operation is a sequence of *rounds*. A round is a list of
//! jobs — a node address, a typed request ([`BatchOp`]) and a `post`
//! closure that turns the node's answer into the job's result — and the
//! calling thread runs all of it from one completion loop: connects
//! that do not block, every request put on the wire at once (the jobs
//! of one address pipelined on that address's single connection, in job
//! order), and answers taken in whatever order `poll(2)` reports them,
//! matched to their job by request id. Every node is waited for at
//! once, so dead or silent nodes cost a round one timeout between them,
//! not one each. Two shapes:
//!
//! * [`ParallelConnSet::run_batch`] — a barrier: returns when every job
//!   has its result, in ~max(per-node time) instead of the sum;
//! * [`ParallelConnSet::run_first_n`] — every job starts *held*; a
//!   caller-supplied release hook, consulted as the round progresses,
//!   names the jobs to put on the wire, and the round returns as soon
//!   as a predicate over the partial results holds: the read path, which
//!   asks for the data shards, holds the parity back for a failure or a
//!   straggler, and never adds one slow node's RTT to every read. A
//!   straggler is abandoned by dropping its socket.
//!
//! **The trade-off.** `post` runs on the calling thread, between
//! `poll`s. A fetched shard's length and CRC-32 are checked there as it
//! arrives (`check_shard` in `cluster/read.rs`); the Merkle roots of
//! every shard a round was served are checked after the round, in one
//! lane batch (`check_roots`), because one shard of a 1 MiB RS(10, 4)
//! object is two 64 KiB leaves, too few for the 16 SHA-256 lanes, and a
//! round's ten or more fill them. The price is latency on damage: a
//! root failure is seen only once the round's completion predicate
//! holds, so a CRC-colliding data shard costs a get one more round, for
//! parity. On one CPU the checks cost what a thread per shard would,
//! without the spawns and joins; on a many-core client the batch runs
//! on one core. No workload measures that yet.
//!
//! Connection lifecycle: at most one connection per node address in an
//! operation, and at most one *idle* connection per address across
//! operations. A client — a `Cluster`, or a `NodeClient` for its one
//! node — keeps a [`Pool`] for its lifetime; each
//! operation's set takes a kept connection before it would dial, and
//! when the set drops it returns every connection that ended the
//! operation idle and intact — nothing outstanding, never failed, not an
//! abandoned straggler. An idle connection costs a node a poll slot and
//! no thread. A kept connection is reused only when
//!
//! * a zero-timeout `poll` for readable reports nothing — a FIN, an RST
//!   or bytes nobody asked for mean the node closed the connection or is
//!   confused, so it is closed and the address dialed afresh; and
//! * it has been idle for less than half the node's idle deadline
//!   ([`MAX_IDLE`], derived, not a knob), so the node's idle close can
//!   never race a reuse.
//!
//! A node that vanished without a FIN (a host crash) passes both checks
//! and shows up as [`StoreError::Timeout`] on the request, exactly as a
//! fresh dial to a dead host would. Within an operation, a connect
//! failure marks the address *dead for the rest of the operation* — no
//! reconnect storms against a down node — and the next operation dials
//! it again; typed `ERR` answers keep the connection (the stream is
//! intact, the node just said no); any other failure drops the
//! possibly-desynced connection, fails what else the round had on it,
//! keeps it out of the pool, and lets the next round reconnect. A
//! connection on which nothing moves for the I/O timeout is given up
//! with [`StoreError::Timeout`], and a per-operation deadline, when set,
//! ends the round it expires in.

use crate::client::{Answer, BatchOp, Conn, Staged};
use crate::error::StoreError;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use std::collections::{HashMap, VecDeque};
use std::io::{Error, ErrorKind};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How long a node lets a connection sit without a frame before it
/// closes it: `node.rs`'s `IDLE_DEADLINE`, the limit docs/STORE.md §7
/// states for every node.
const NODE_IDLE_DEADLINE: Duration = Duration::from_secs(60);

/// A kept connection idle this long is closed, not reused: half the
/// node's idle deadline, so a request on a kept connection reaches a
/// node with half its deadline still to run.
pub(crate) const MAX_IDLE: Duration = Duration::from_secs(NODE_IDLE_DEADLINE.as_secs() / 2);

/// Whether a connection idle for `idle` is young enough to reuse.
pub(crate) fn fresh(idle: Duration) -> bool {
    idle < MAX_IDLE
}

/// Whether an idle connection has nothing to say: a zero-timeout poll
/// for readable. Readable, hung up or in error means the node closed it
/// or sent bytes nobody asked for.
fn quiet(conn: &Conn) -> bool {
    let mut fds = [PollFd::new(conn.socket(), POLLIN)];
    matches!(sys::poll_ready(&mut fds, Duration::ZERO), Ok(0))
}

/// The connections a client keeps between operations: at most one idle
/// connection per node address, lent to each operation's
/// [`ParallelConnSet`] and handed back when the set drops.
#[derive(Default)]
pub(crate) struct Pool(Mutex<Kept>);

#[derive(Default)]
struct Kept {
    /// Per address: the idle connection, and when it went idle.
    idle: HashMap<String, (Conn, Instant)>,
    /// Dials per address over the pool's life, every operation counted.
    dials: HashMap<String, u32>,
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Kept> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The kept connection to `addr`, if it may be reused (module docs);
    /// a stale one is closed here.
    fn take(&self, addr: &str) -> Option<Conn> {
        let (conn, since) = self.lock().idle.remove(addr)?;
        (fresh(since.elapsed()) && quiet(&conn)).then_some(conn)
    }

    /// Keep `conn`, connected by the caller, as `addr`'s idle connection.
    pub(crate) fn keep(&self, addr: &str, conn: Conn) {
        self.lock()
            .idle
            .insert(addr.to_string(), (conn, Instant::now()));
    }

    /// How many times the operations served from this pool dialed
    /// `addr`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn dials(&self, addr: &str) -> u32 {
        self.lock().dials.get(addr).copied().unwrap_or(0)
    }

    /// Run `f` on the connection kept for `addr` and the time it went
    /// idle; `None` when there is none.
    #[cfg(test)]
    pub(crate) fn with_kept<R>(
        &self,
        addr: &str,
        f: impl FnOnce(&Conn, &mut Instant) -> R,
    ) -> Option<R> {
        let mut kept = self.lock();
        let (conn, since) = kept.idle.get_mut(addr)?;
        Some(f(conn, since))
    }
}

/// One node address's slot in an operation's set.
enum Slot {
    /// An idle, believed-good connection.
    Ready(Conn),
    /// Connect failed earlier this operation: every further touch
    /// fast-fails without a new connect attempt.
    Dead,
}

/// One job of a round: the node to ask, what to ask, and `post`, which
/// makes the job's result of the node's [`Answer`] (or of the transport
/// failure that stood in for one).
pub(crate) type Job<'a, F> = (&'a str, BatchOp<'a>, F);

/// What a [`Job`]'s `post` is.
pub(crate) trait Post<T>: FnOnce(Answer) -> Result<T, StoreError> {}
impl<T, F: FnOnce(Answer) -> Result<T, StoreError>> Post<T> for F {}

/// Per-job outcomes of a round; `None` = held back, or still in flight.
type Outcomes<T> = [Option<Result<T, StoreError>>];

/// How a round stands, as its release hook sees it.
pub(crate) struct Progress<'r, T> {
    /// Per-job outcome; `None` = held back or still in flight.
    pub outcomes: &'r Outcomes<T>,
    /// Release-to-completion time of every settled job.
    pub elapsed: &'r [Option<Duration>],
    /// Time since the round began.
    pub now: Duration,
}

/// A release hook's answer.
pub(crate) struct Release {
    /// The jobs wanted on the wire; those already released are ignored.
    pub jobs: Vec<usize>,
    /// Round time at which to ask again if nothing settles before.
    pub recheck: Option<Duration>,
}

/// The release hook of a barrier: every job, at once.
pub(crate) fn release_all<T>(round: &Progress<'_, T>) -> Release {
    Release {
        jobs: (0..round.outcomes.len()).collect(),
        recheck: None,
    }
}

/// Result of a [`ParallelConnSet::run_first_n`].
pub(crate) struct FirstN<T> {
    /// Per-job outcome; `None` = never released, or an abandoned
    /// straggler.
    pub outcomes: Vec<Option<Result<T, StoreError>>>,
    /// Release-to-completion time per job (`None` for jobs without an
    /// outcome).
    pub elapsed: Vec<Option<Duration>>,
    /// Per job, whether the round ended with it still held back.
    pub held: Vec<bool>,
    /// Whether the per-operation deadline expired before the predicate
    /// was satisfied or every released job completed.
    pub timed_out: bool,
}

/// One cluster operation's connections — at most one per node address,
/// borrowed from a [`Pool`] or dialed, and handed back to the pool when
/// the set drops — and the completion loop that runs rounds on them.
pub(crate) struct ParallelConnSet {
    timeout: Duration,
    /// Absolute deadline of the operation this set serves (`None` =
    /// unbounded; only the per-I/O `timeout` applies).
    deadline: Option<Instant>,
    slots: HashMap<String, Slot>,
    /// Connect attempts per address — observability, and the proof that
    /// a dead node is dialed once per operation, not once per object.
    connects: HashMap<String, u32>,
    /// Rounds that released at least one job, and jobs put on the wire:
    /// what an operation costs the nodes, counted.
    rounds: u32,
    requests: u32,
    /// Where connections come from before a dial and go back to (`None`
    /// = they close with the set).
    pool: Option<Arc<Pool>>,
}

/// The jobs of a round and what has become of them.
struct Round<'a, T, F> {
    addrs: Vec<&'a str>,
    ops: Vec<BatchOp<'a>>,
    posts: Vec<Option<F>>,
    outcomes: Vec<Option<Result<T, StoreError>>>,
    elapsed: Vec<Option<Duration>>,
    /// When each job was released; `None` = still held back.
    released: Vec<Option<Instant>>,
    began: Instant,
    /// Released jobs without an outcome yet.
    open: usize,
    /// Requests put on the wire.
    sent: u32,
}

impl<T, F: Post<T>> Round<'_, T, F> {
    /// Give `job` its outcome. Returns whether the connection that
    /// produced the answer is still good: it is unless `post` found
    /// something other than a result or the node's typed refusal.
    fn settle(&mut self, job: usize, answer: Answer) -> bool {
        let post = self.posts[job].take().expect("a job settles once");
        let outcome = post(answer);
        let intact = matches!(outcome, Ok(_) | Err(StoreError::Remote { .. }));
        self.outcomes[job] = Some(outcome);
        self.elapsed[job] = self.released[job].map(|at| at.elapsed());
        self.open -= 1;
        intact
    }

    fn progress(&self) -> Progress<'_, T> {
        Progress {
            outcomes: &self.outcomes,
            elapsed: &self.elapsed,
            now: self.began.elapsed(),
        }
    }

    fn finish(self, timed_out: bool) -> FirstN<T> {
        let held = self.released.iter().map(Option::is_none).collect();
        FirstN {
            outcomes: self.outcomes,
            elapsed: self.elapsed,
            held,
            timed_out,
        }
    }
}

/// One address's share of a round: its connection and the jobs still
/// owed an outcome, by how far each has got.
struct Lane<'a> {
    addr: &'a str,
    conn: Option<Conn>,
    /// The connection was dialed this round and is not through yet.
    connecting: bool,
    /// The address is dead for the operation.
    dead: bool,
    /// Jobs not yet framed, in job order.
    unsent: VecDeque<usize>,
    /// The job whose frame is partly on the wire.
    staged: Option<(usize, Staged<'a>)>,
    /// `(request id, job)` of every request on the wire and unanswered.
    inflight: Vec<(u32, usize)>,
    /// When to give the connection up if nothing has moved on it.
    stall_at: Instant,
}

impl<'a> Lane<'a> {
    /// What `poll` should watch this lane's socket for; `0` = nothing
    /// outstanding.
    fn wants(&self) -> i16 {
        let mut events = 0;
        if self.connecting || self.staged.is_some() || !self.unsent.is_empty() {
            events |= POLLOUT;
        }
        if !self.inflight.is_empty() {
            events |= POLLIN;
        }
        events
    }

    /// Move the lane as far as its socket allows: finish the connect,
    /// read unless `events` says only "writable", write unless it says
    /// only "readable" (an error or hang-up condition is found out by
    /// whichever the lane has reason to try). An `Err` is for
    /// [`Lane::fail`].
    fn advance<T, F: Post<T>>(
        &mut self,
        events: i16,
        round: &mut Round<'a, T, F>,
    ) -> Result<(), StoreError> {
        let conn = self
            .conn
            .as_mut()
            .expect("only lanes with a connection are advanced");
        if self.connecting {
            conn.established()?;
            self.connecting = false;
        }
        while events & !POLLOUT != 0 && !self.inflight.is_empty() {
            let Some((id, answer)) = conn.pull()? else {
                break;
            };
            let at = self
                .inflight
                .iter()
                .position(|&(sent, _)| sent == id)
                .ok_or_else(|| {
                    StoreError::Protocol(format!(
                        "response to request {id}, which is still being sent"
                    ))
                })?;
            let (_, job) = self.inflight.remove(at);
            if !round.settle(job, answer) {
                return Err(StoreError::Protocol(format!(
                    "connection to {} abandoned after an unusable answer",
                    self.addr
                )));
            }
        }
        if events & !POLLIN == 0 {
            return Ok(());
        }
        loop {
            if self.staged.is_none() {
                let Some(job) = self.unsent.pop_front() else {
                    break;
                };
                match conn.stage(&round.ops[job]) {
                    Ok(staged) => self.staged = Some((job, staged)),
                    // Refused before it touched the wire (over the
                    // frame cap): the connection is none the worse.
                    Err(e) => {
                        round.settle(job, Err(e));
                        continue;
                    }
                }
            }
            let (job, staged) = self.staged.as_mut().expect("staged above");
            match conn.push(staged) {
                Ok(()) => {
                    self.inflight.push((staged.id, *job));
                    round.sent += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(StoreError::Io(e)),
            }
            self.staged = None;
        }
        Ok(())
    }

    /// Drop the connection and settle everything the lane still owed:
    /// the oldest job with `error` itself, the rest with its echo. A
    /// failure to connect also marks the address dead.
    fn fail<T, F: Post<T>>(&mut self, error: StoreError, round: &mut Round<'a, T, F>) {
        self.dead |= self.connecting || self.conn.is_none();
        (self.conn, self.connecting) = (None, false);
        let dead = self.dead;
        let echo = |addr: &str| match (&error, dead) {
            (_, true) => dead_err(addr),
            (StoreError::Timeout, _) => StoreError::Timeout,
            (e, _) => StoreError::Io(Error::new(
                ErrorKind::ConnectionAborted,
                format!("connection to {addr} failed earlier in this round: {e}"),
            )),
        };
        let owed: Vec<usize> = (self.inflight.drain(..).map(|(_, job)| job))
            .chain(self.staged.take().map(|(job, _)| job))
            .chain(self.unsent.drain(..))
            .collect();
        let echoes: Vec<StoreError> = owed.iter().skip(1).map(|_| echo(self.addr)).collect();
        for (job, e) in owed.into_iter().zip(std::iter::once(error).chain(echoes)) {
            round.settle(job, Err(e));
        }
    }
}

impl ParallelConnSet {
    pub(crate) fn new(timeout: Duration, deadline: Option<Instant>) -> ParallelConnSet {
        ParallelConnSet {
            timeout,
            deadline,
            slots: HashMap::new(),
            connects: HashMap::new(),
            rounds: 0,
            requests: 0,
            pool: None,
        }
    }

    /// Borrow kept connections from `pool`, and return them to it.
    pub(crate) fn with_pool(mut self, pool: &Arc<Pool>) -> ParallelConnSet {
        self.pool = Some(Arc::clone(pool));
        self
    }

    /// The per-I/O budget right now: the configured timeout, shrunk to
    /// the operation deadline's remaining time. [`StoreError::Timeout`]
    /// once the deadline is spent.
    fn io_budget(&self) -> Result<Duration, StoreError> {
        let Some(deadline) = self.deadline else {
            return Ok(self.timeout);
        };
        match deadline.saturating_duration_since(Instant::now()) {
            Duration::ZERO => Err(StoreError::Timeout),
            remaining => Ok(self.timeout.min(remaining)),
        }
    }

    /// How many times this operation actually dialed `addr`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn connect_attempts(&self, addr: &str) -> u32 {
        self.connects.get(addr).copied().unwrap_or(0)
    }

    /// How many rounds of this operation released at least one job.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn rounds(&self) -> u32 {
        self.rounds
    }

    /// How many requests this operation put on the wire.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn requests(&self) -> u32 {
        self.requests
    }

    /// Run every job — all addresses at once, same-address jobs
    /// pipelined in order on that address's single connection — and
    /// return the results in job order once all are in. The whole batch
    /// costs ~max(per-node time).
    pub(crate) fn run_batch<'a, T, F: Post<T>>(
        &mut self,
        jobs: Vec<Job<'a, F>>,
    ) -> Vec<Result<T, StoreError>> {
        // Only the operation deadline ends a round with a job unsettled.
        let timed_out = || Err(StoreError::Timeout);
        let round = self.run_first_n(jobs, |_| false, release_all);
        round
            .outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(timed_out))
            .collect()
    }

    /// Run a round whose jobs all start *held*. `release` names the jobs
    /// to put on the wire: it is asked before the first wait, after every
    /// wake while a job is still held, and again at once when what it
    /// released settled on the spot (an address found dead). The round
    /// returns as soon as `enough` holds over the partial outcomes, or
    /// nothing released is left in flight and `release` names nothing
    /// new, or the deadline expires. Stragglers are abandoned: their
    /// connection is dropped — never returned to the pool; the next
    /// touch of that address reconnects — and whatever they would have
    /// produced with it.
    pub(crate) fn run_first_n<'a, T, F: Post<T>>(
        &mut self,
        jobs: Vec<Job<'a, F>>,
        enough: impl Fn(&Outcomes<T>) -> bool,
        mut release: impl FnMut(&Progress<'_, T>) -> Release,
    ) -> FirstN<T> {
        let count = jobs.len();
        let mut round = Round {
            addrs: Vec::with_capacity(count),
            ops: Vec::with_capacity(count),
            posts: Vec::with_capacity(count),
            outcomes: (0..count).map(|_| None).collect(),
            elapsed: vec![None; count],
            released: vec![None; count],
            began: Instant::now(),
            open: 0,
            sent: 0,
        };
        for (addr, op, post) in jobs {
            round.addrs.push(addr);
            round.ops.push(op);
            round.posts.push(Some(post));
        }
        let Ok(budget) = self.io_budget() else {
            return round.finish(true);
        };
        // One lane per address, opened by the first job released to it.
        let mut lanes: Vec<Lane<'a>> = Vec::new();
        let mut timed_out = false;
        let mut fds: Vec<PollFd> = Vec::new();
        let mut polled: Vec<usize> = Vec::new();
        loop {
            if enough(&round.outcomes) {
                break;
            }
            let mut recheck = None;
            while round.released.contains(&None) {
                let ask = release(&round.progress());
                recheck = ask.recheck.map(|after| round.began + after);
                let mut fresh = false;
                for job in ask.jobs {
                    if round.released[job].is_none() {
                        self.release_job(&mut lanes, &mut round, job, budget);
                        fresh = true;
                    }
                }
                if !fresh {
                    break;
                }
            }
            if round.open == 0 {
                break;
            }
            let now = Instant::now();
            if self.deadline.is_some_and(|deadline| now >= deadline) {
                timed_out = true;
                break;
            }
            fds.clear();
            polled.clear();
            let mut wake = [recheck, self.deadline].into_iter().flatten().min();
            for (i, lane) in lanes.iter().enumerate() {
                let (Some(conn), events @ 1..) = (&lane.conn, lane.wants()) else {
                    continue;
                };
                fds.push(PollFd::new(conn.socket(), events));
                polled.push(i);
                wake = Some(wake.map_or(lane.stall_at, |w| w.min(lane.stall_at)));
            }
            // Every open job sits on a lane with a connection (failing a
            // lane settles its jobs), so there is always a socket to wait on.
            let wake = wake.expect("open jobs have live lanes");
            let ready = sys::poll_ready(&mut fds, wake.saturating_duration_since(now));
            let now = Instant::now();
            for (fd, &i) in fds.iter().zip(&polled) {
                let lane = &mut lanes[i];
                match &ready {
                    Ok(_) if fd.revents != 0 => {
                        lane.stall_at = now + budget;
                        if let Err(e) = lane.advance(fd.revents, &mut round) {
                            lane.fail(e, &mut round);
                        }
                    }
                    Ok(_) if now >= lane.stall_at => {
                        let stalled = match lane.connecting {
                            true => StoreError::Io(ErrorKind::TimedOut.into()),
                            false => StoreError::Timeout,
                        };
                        lane.fail(stalled, &mut round);
                    }
                    Ok(_) => {}
                    Err(e) => lane.fail(
                        StoreError::Io(Error::new(e.kind(), e.to_string())),
                        &mut round,
                    ),
                }
            }
        }
        self.rounds += round.released.iter().any(Option::is_some) as u32;
        self.requests += round.sent;
        // Back to the set: connections with nothing outstanding, and the
        // verdict on addresses that refused. A lane abandoned
        // mid-request is dropped with its socket.
        for lane in lanes {
            let idle = lane.wants() == 0;
            if lane.dead {
                self.slots.insert(lane.addr.to_string(), Slot::Dead);
            } else if let Some(conn) = lane.conn.filter(|_| idle) {
                self.slots.insert(lane.addr.to_string(), Slot::Ready(conn));
            }
        }
        round.finish(timed_out)
    }

    /// Put `job` on its address's lane — opened on first use, from the
    /// pool or by a dial — and onto the wire as far as the socket allows.
    fn release_job<'a, T, F: Post<T>>(
        &mut self,
        lanes: &mut Vec<Lane<'a>>,
        round: &mut Round<'a, T, F>,
        job: usize,
        budget: Duration,
    ) {
        let addr = round.addrs[job];
        let now = Instant::now();
        round.released[job] = Some(now);
        round.open += 1;
        let at = lanes
            .iter()
            .position(|l| l.addr == addr)
            .unwrap_or_else(|| {
                lanes.push(Lane {
                    addr,
                    conn: None,
                    connecting: false,
                    dead: false,
                    unsent: VecDeque::new(),
                    staged: None,
                    inflight: Vec::new(),
                    stall_at: now,
                });
                lanes.len() - 1
            });
        let lane = &mut lanes[at];
        if lane.wants() == 0 {
            lane.stall_at = now + budget;
        }
        lane.unsent.push_back(job);
        if lane.conn.is_none() && !lane.dead {
            match self.slots.remove(addr) {
                Some(Slot::Ready(conn)) => lane.conn = Some(conn),
                Some(Slot::Dead) => lane.dead = true,
                None => match self.pool.as_deref().and_then(|pool| pool.take(addr)) {
                    Some(conn) => lane.conn = Some(conn),
                    None => {
                        *self.connects.entry(addr.to_string()).or_insert(0) += 1;
                        match Conn::dial(addr) {
                            Ok(conn) => (lane.conn, lane.connecting) = (Some(conn), true),
                            Err(e) => return lane.fail(e, round),
                        }
                    }
                },
            }
        }
        if lane.dead {
            lane.fail(dead_err(addr), round);
        } else if !lane.connecting {
            if let Err(e) = lane.advance(POLLOUT, round) {
                lane.fail(e, round);
            }
        }
    }
}

impl Drop for ParallelConnSet {
    /// Hand every connection the operation left idle and intact back to
    /// the pool (one already kept for the address is closed), and add
    /// the operation's dials to the pool's tally.
    fn drop(&mut self) {
        let Some(pool) = &self.pool else { return };
        let now = Instant::now();
        let mut kept = pool.lock();
        for (addr, dials) in self.connects.drain() {
            *kept.dials.entry(addr).or_insert(0) += dials;
        }
        for (addr, slot) in self.slots.drain() {
            if let Slot::Ready(conn) = slot {
                kept.idle.insert(addr, (conn, now));
            }
        }
    }
}

fn dead_err(addr: &str) -> StoreError {
    StoreError::Io(Error::new(
        ErrorKind::ConnectionRefused,
        format!("node {addr} is unreachable (marked dead this operation)"),
    ))
}
