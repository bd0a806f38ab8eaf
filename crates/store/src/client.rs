//! The store client (the paper's "HBase client" library): region location
//! caching, request routing, timeouts and unbounded retries.
//!
//! The paper removes the client's retry and timeout limits so that an
//! interrupted flush keeps retrying until the affected region comes back
//! online (§3.2): "we work around this by removing the retry and timeout
//! limits so that the client keeps retrying until it succeeds."
//! [`StoreClient::get`], [`StoreClient::multi_get`], [`StoreClient::scan`],
//! [`StoreClient::multi_put`] and [`StoreClient::flush`] therefore retry
//! forever; their callbacks fire exactly once, on success. Scans
//! additionally continue across region boundaries, walking regions in key
//! order one leg at a time.
//!
//! All five leave the client through one loop, [`call`], and come back
//! into it through one [`retry`]; a request kind ([`Request`]) supplies
//! only what differs between a get, a batched get, a put and a scan leg.

use crate::error::StoreError;
use crate::master::{Master, ServerDirectory};
use crate::memstore::VersionedValue;
use crate::region::RegionMap;
use crate::server::{RegionServer, ScanPage};
use crate::types::{Mutation, RegionId, Timestamp, WriteSet};
use bytes::Bytes;
use cumulo_sim::metrics::Counter;
use cumulo_sim::{Network, NodeId, Reply, Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Store-client tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct StoreClientConfig {
    /// How long to wait for a response before treating the request as
    /// lost (dead or partitioned server). A request that arrives after
    /// its attempt timed out is still served and its late reply ignored.
    /// There is no floor: set below a request's unloaded round trip (a
    /// two-cell batched get needs more than 1.5 ms), every attempt times
    /// out and the request never completes — §3.2's "no limits".
    pub request_timeout: SimDuration,
    /// Minimum spacing between region-map refresh fetches, plus an
    /// epoch check: a routing failure whose observed map epoch is
    /// already stale (the cache advanced since the op was routed) skips
    /// the fetch entirely. `ZERO` (the default) disables the debounce —
    /// every routing failure past the inflight flag triggers a fetch,
    /// the pre-debounce behavior calibrated experiments replay
    /// byte-for-byte. Enable on clusters where mass splits make whole
    /// client fleets re-fetch the full map per retrying op.
    pub min_refresh_interval: SimDuration,
}

impl Default for StoreClientConfig {
    fn default() -> Self {
        StoreClientConfig {
            request_timeout: SimDuration::from_millis(60),
            min_refresh_interval: SimDuration::ZERO,
        }
    }
}

struct Inner {
    sim: Sim,
    net: Rc<Network>,
    from: NodeId,
    master: Rc<Master>,
    dir: Rc<ServerDirectory>,
    map: RefCell<RegionMap>,
    cfg: StoreClientConfig,
    /// Send instant of the map fetch in flight, if any.
    refresh_inflight: Cell<Option<u64>>,
    /// Completion instant of the last map refresh, for the
    /// `min_refresh_interval` debounce (`None` = never refreshed).
    last_refresh: Cell<Option<u64>>,
    retries: Counter,
    gets_ok: Counter,
    puts_ok: Counter,
    multi_get_rpcs: Counter,
    multi_gets_ok: Counter,
    scan_leg_rpcs: Counter,
    scans_ok: Counter,
    refresh_skips: Counter,
}

/// A client-side handle to the distributed store. Cheap to clone.
#[derive(Clone)]
pub struct StoreClient {
    inner: Rc<Inner>,
}

impl fmt::Debug for StoreClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreClient")
            .field("from", &self.inner.from)
            .field("retries", &self.inner.retries.get())
            .finish()
    }
}

impl StoreClient {
    /// Creates a client on node `from`, seeded with the master's current
    /// region map.
    pub fn new(
        sim: &Sim,
        net: &Rc<Network>,
        from: NodeId,
        master: &Rc<Master>,
        dir: &Rc<ServerDirectory>,
        cfg: StoreClientConfig,
    ) -> StoreClient {
        StoreClient {
            inner: Rc::new(Inner {
                sim: sim.clone(),
                net: Rc::clone(net),
                from,
                master: Rc::clone(master),
                dir: Rc::clone(dir),
                map: RefCell::new(master.snapshot_map()),
                cfg,
                refresh_inflight: Cell::new(None),
                last_refresh: Cell::new(None),
                retries: Counter::new(),
                gets_ok: Counter::new(),
                puts_ok: Counter::new(),
                multi_get_rpcs: Counter::new(),
                multi_gets_ok: Counter::new(),
                scan_leg_rpcs: Counter::new(),
                scans_ok: Counter::new(),
                refresh_skips: Counter::new(),
            }),
        }
    }

    /// The node requests are issued from.
    pub fn from_node(&self) -> NodeId {
        self.inner.from
    }

    /// Reads the newest version of `(row, column)` visible at `snapshot`.
    /// Retries (with location refresh) until it succeeds; `done` fires
    /// exactly once.
    pub fn get(
        &self,
        row: Bytes,
        column: Bytes,
        snapshot: Timestamp,
        done: impl FnOnce(Option<VersionedValue>) + 'static,
    ) {
        let get = Get {
            row,
            column,
            snapshot,
        };
        call(Rc::clone(&self.inner), get, Box::new(done), 0);
    }

    /// Flushes one transaction's mutations for one region to its hosting
    /// server, retrying forever (paper §3.2). `floor` piggybacks the
    /// failed server's persisted threshold during server-recovery replay;
    /// `replay` write-sets may target regions still under recovery.
    pub fn multi_put(
        &self,
        region: RegionId,
        ts: Timestamp,
        mutations: Vec<Mutation>,
        floor: Option<Timestamp>,
        replay: bool,
        done: impl FnOnce() + 'static,
    ) {
        let put = Put {
            region,
            ts,
            mutations,
            floor,
            replay,
        };
        call(Rc::clone(&self.inner), put, Box::new(done), 0);
    }

    /// Flushes a whole write-set at commit timestamp `ts`: one
    /// [`StoreClient::multi_put`] per region the cached map says it
    /// touches, all in flight together; `done` fires once, when every
    /// region has acknowledged its part. Boundaries can change under us
    /// (online splits), but a stale grouping self-heals: the server
    /// answers `WrongRegion` for a split-away region id and the put
    /// re-groups by the refreshed map before retrying.
    pub fn flush(&self, ts: Timestamp, ws: &WriteSet, done: impl FnOnce() + 'static) {
        let mutations = ws.mutations.iter().cloned();
        put_by_region(&self.inner, ts, mutations, None, false, 0, done);
    }

    /// Batched point read: fetches the newest version of every
    /// `(row, column)` in `cells` visible at `snapshot`, issuing **one
    /// RPC per region** (cells are grouped by the cached region map, as
    /// [`StoreClient::flush`] groups a write-set on the write path).
    /// Results are returned in input order; each entry is exactly what
    /// [`StoreClient::get`] would have returned for that cell. Groups
    /// retry independently (with location refresh and re-grouping after
    /// an online split) until every cell is served; `done` fires exactly
    /// once, on success of the whole batch.
    pub fn multi_get(
        &self,
        cells: Vec<(Bytes, Bytes)>,
        snapshot: Timestamp,
        done: impl FnOnce(Vec<Option<VersionedValue>>) + 'static,
    ) {
        let n = cells.len();
        if n == 0 {
            let sim = &self.inner.sim;
            return sim.schedule_in(SimDuration::ZERO, move || done(Vec::new()));
        }
        let ctx = Rc::new(MultiGetCtx {
            results: RefCell::new(vec![None; n]),
            remaining: Cell::new(n),
            done: RefCell::new(Some(Box::new(done))),
        });
        let cells = cells.into_iter().enumerate();
        multi_get_by_region(&self.inner, cells, snapshot, 0, ctx);
    }

    /// Scans `[start, end)` at `snapshot` (end-exclusive; `None` = to
    /// the end of the table), returning up to `limit` cells in
    /// `(row, column)` order, merged across **every region the range
    /// covers** — not just the region containing `start`.
    ///
    /// The scan is a continuation loop walking regions in key order:
    /// each leg asks the region hosting the cursor for the *remaining*
    /// limit, and the reply ([`crate::ScanPage`]) carries the serving
    /// region's exclusive end bound, which becomes the next cursor. The
    /// resume key is server truth, so a split, merge, move or failover
    /// landing mid-scan neither drops nor duplicates cells at the new
    /// boundary: a failed leg retries *at the same cursor* with a
    /// refreshed map (the `WrongRegion`-style self-healing the write
    /// path uses), and snapshot reads are independent of region
    /// structure. Retries until served; `done` fires exactly once.
    pub fn scan(
        &self,
        start: Bytes,
        end: Option<Bytes>,
        snapshot: Timestamp,
        limit: usize,
        done: impl FnOnce(Vec<(Bytes, Bytes, VersionedValue)>) + 'static,
    ) {
        let leg = ScanLeg {
            cursor: start,
            end,
            snapshot,
            remaining: limit,
        };
        let state = ScanState {
            acc: Vec::new(),
            done: Box::new(done),
        };
        call(Rc::clone(&self.inner), leg, state, 0);
    }

    /// The region containing `row` (static boundary lookup).
    pub fn region_for(&self, row: &[u8]) -> RegionId {
        self.inner.map.borrow().region_for(row)
    }

    /// Re-seeds the cached region map directly from the master (harness
    /// wiring for clients constructed before the table was bootstrapped;
    /// steady-state refreshes go through the network).
    pub fn reseed_region_map(&self) {
        *self.inner.map.borrow_mut() = self.inner.master.snapshot_map();
    }

    /// Total request retries performed (timeouts + not-serving).
    pub fn retry_count(&self) -> u64 {
        self.inner.retries.get()
    }

    /// Successful gets.
    pub fn gets_ok(&self) -> u64 {
        self.inner.gets_ok.get()
    }

    /// Batched-read RPCs issued to region servers (one per region per
    /// [`StoreClient::multi_get`] in the failure-free case; retries and
    /// post-split re-groups add more). The acceptance counter for "N
    /// cells spanning R regions cost exactly R round trips".
    pub fn multi_get_rpcs(&self) -> u64 {
        self.inner.multi_get_rpcs.get()
    }

    /// Per-region batched-read RPCs answered successfully.
    pub fn multi_gets_ok(&self) -> u64 {
        self.inner.multi_gets_ok.get()
    }

    /// Acknowledged multi-puts.
    pub fn puts_ok(&self) -> u64 {
        self.inner.puts_ok.get()
    }

    /// Per-region scan leg RPCs issued (continuation legs + retries; a
    /// scan confined to one region issues exactly one).
    pub fn scan_leg_rpcs(&self) -> u64 {
        self.inner.scan_leg_rpcs.get()
    }

    /// Completed scans (every continuation leg served).
    pub fn scans_ok(&self) -> u64 {
        self.inner.scans_ok.get()
    }

    /// Region-map refresh fetches skipped by the epoch / min-interval
    /// debounce ([`StoreClientConfig::min_refresh_interval`]).
    pub fn refresh_skips(&self) -> u64 {
        self.inner.refresh_skips.get()
    }
}

/// Delay before retrying a failed/timed-out request.
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(15);
/// Cap on the exponential retry backoff.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(500);

fn backoff(inner: &Inner, attempt: u32) -> SimDuration {
    let factor = 1u64 << attempt.min(5);
    let d = (RETRY_BACKOFF * factor).min(MAX_BACKOFF);
    inner.sim.jitter(d, 0.3)
}

/// Refreshes the cached region map from the master, debounced by the
/// inflight stamp and — when [`StoreClientConfig::min_refresh_interval`]
/// is non-zero — by an epoch check and a minimum fetch spacing.
///
/// `observed_epoch` is the cached map's epoch at the moment the failed
/// operation was *routed*. If the cache has advanced past it, a refresh
/// already landed since that routing decision and re-fetching cannot
/// teach this client anything the retry will not already use — the
/// stampede after a mass-split storm, where every retrying op on every
/// client re-fetched the full map. With the default `ZERO` interval both
/// checks are skipped and the legacy fetch-per-failure behavior (and its
/// exact message schedule) is preserved.
fn refresh_map(inner: &Rc<Inner>, observed_epoch: u64) {
    // A fetch in flight answers for this failure too — unless it is older
    // than a request timeout. A healthy fetch round-trips in about a
    // millisecond, so that one went into a partition (the network drops,
    // it does not queue), and waiting for it would leave the flag set and
    // this client's map stale for good. Should its reply turn up after
    // all, FIFO delivery per node pair installs it before the newer
    // fetch's, so the install needs no epoch guard.
    let now = inner.sim.now().nanos();
    if let Some(sent) = inner.refresh_inflight.get() {
        if now.saturating_sub(sent) < inner.cfg.request_timeout.nanos() {
            return;
        }
    }
    if !inner.cfg.min_refresh_interval.is_zero() {
        if inner.map.borrow().epoch() > observed_epoch {
            inner.refresh_skips.inc();
            return;
        }
        if let Some(last) = inner.last_refresh.get() {
            if now.saturating_sub(last) < inner.cfg.min_refresh_interval.nanos() {
                inner.refresh_skips.inc();
                return;
            }
        }
    }
    inner.refresh_inflight.set(Some(now));
    let master = Rc::clone(&inner.master);
    let inner2 = Rc::clone(inner);
    let serve = move |reply: Reply<_, _>| {
        let snapshot = master.snapshot_map();
        reply.send(64 + snapshot.assignments().len() * 16, snapshot);
    };
    let (from, to) = (inner.from, inner.master.node());
    inner.net.request(from, to, 64, serve, move |snapshot| {
        *inner2.map.borrow_mut() = snapshot;
        inner2.last_refresh.set(Some(inner2.sim.now().nanos()));
        inner2.refresh_inflight.set(None);
    });
}

/// Where a request is addressed.
enum Route<'a> {
    /// To whichever region hosts this row under the cached map.
    Row(&'a [u8]),
    /// To a region id fixed when its batch was grouped, which a split
    /// may have retired since.
    Region(RegionId),
}

/// The reply callback a server handler takes.
trait ReplyTo<T>: FnOnce(Result<T, StoreError>) + 'static {}
impl<T, F: FnOnce(Result<T, StoreError>) + 'static> ReplyTo<T> for F {}

/// What one kind of request — get, batched get, put, scan leg — supplies
/// to [`call`]; everything else about issuing it is written there, once.
trait Request: Clone + 'static {
    /// What the server answers when it serves the request.
    type Reply: 'static;
    /// The caller's completion state. It travels intact through retries;
    /// only a served reply consumes it.
    type Then: 'static;

    fn route(&self) -> Route<'_>;
    fn wire_size(&self) -> usize;
    fn reply_size(result: &Result<Self::Reply, StoreError>) -> usize;

    /// Re-issues a region-addressed request whose region id is gone from
    /// the map, split by the current boundaries.
    fn regroup(self, _inner: Rc<Inner>, _then: Self::Then, _attempt: u32) {
        unreachable!("a row-routed request names no region id to lose")
    }

    /// The counter of RPCs of this kind put on the wire, if it has one.
    fn rpcs(_inner: &Inner) -> Option<&Counter> {
        None
    }

    /// Hands the request to the server's handler for its kind.
    fn serve(self, server: &Rc<RegionServer>, reply: impl ReplyTo<Self::Reply>);

    /// The request was served: count it and complete `then`, or carry on
    /// from the reply.
    fn served(self, inner: Rc<Inner>, reply: Self::Reply, then: Self::Then);
}

/// One attempt of one request — the only way a request leaves the client.
fn call<R: Request>(inner: Rc<Inner>, request: R, then: R::Then, attempt: u32) {
    if !inner.net.is_alive(inner.from) {
        return; // the client process is dead; drop the retry chain
    }
    let routed = {
        let map = inner.map.borrow();
        // The addressed region id was split away since the batch was
        // grouped (the server answered `WrongRegion` and a map refresh
        // landed). An empty map just means the client pre-dates
        // bootstrap; refresh-and-retry handles that.
        let split_away = |r| !map.regions().is_empty() && map.descriptor(r).is_none();
        match request.route() {
            Route::Row(row) => Some((map.epoch(), map.locate(row).1)),
            Route::Region(region) if split_away(region) => None,
            Route::Region(region) => Some((map.epoch(), map.server_for(region))),
        }
    };
    let Some((routed_epoch, server)) = routed else {
        return request.regroup(inner, then, attempt);
    };
    let Some(server) = server.and_then(|s| inner.dir.get(s)) else {
        return retry(inner, request, then, attempt, routed_epoch);
    };
    if let Some(rpcs) = R::rpcs(&inner) {
        rpcs.inc();
    }
    let size = request.wire_size();
    // The wire gets its own copy: a request that arrives after this
    // attempt timed out is still served, and its late reply ignored.
    let wire = request.clone();
    let (from, to) = (inner.from, server.node());
    let serve = move |reply: Reply<_, _>| {
        wire.serve(&server, move |result| {
            reply.send(R::reply_size(&result), result)
        })
    };
    let (net, timeout) = (Rc::clone(&inner.net), inner.cfg.request_timeout);
    net.request_within(timeout, from, to, size, serve, move |result| match result {
        Some(Ok(reply)) => request.served(inner, reply, then),
        // Timed out, NotServing, unavailable: refresh and retry.
        None | Some(Err(_)) => retry(inner, request, then, attempt, routed_epoch),
    });
}

/// The one retry: count it, refresh the map (debounced) as of the epoch
/// the failed attempt was routed under, back off, re-issue.
fn retry<R: Request>(inner: Rc<Inner>, request: R, then: R::Then, attempt: u32, epoch: u64) {
    inner.retries.inc();
    refresh_map(&inner, epoch);
    let wait = backoff(&inner, attempt);
    let sim = inner.sim.clone();
    sim.schedule_in(wait, move || call(inner, request, then, attempt + 1));
}

/// Splits `items` by the region hosting each one's row under `map`, in
/// region order; input order is kept within a region.
fn by_region<T>(
    map: &RegionMap,
    items: impl IntoIterator<Item = T>,
    row: impl Fn(&T) -> &[u8],
) -> BTreeMap<RegionId, Vec<T>> {
    let mut groups: BTreeMap<RegionId, Vec<T>> = BTreeMap::new();
    for item in items {
        let region = map.region_for(row(&item));
        groups.entry(region).or_default().push(item);
    }
    groups
}

#[derive(Clone)]
struct Get {
    row: Bytes,
    column: Bytes,
    snapshot: Timestamp,
}

impl Request for Get {
    type Reply = Option<VersionedValue>;
    type Then = Box<dyn FnOnce(Option<VersionedValue>)>;

    fn route(&self) -> Route<'_> {
        Route::Row(&self.row)
    }

    fn wire_size(&self) -> usize {
        64 + self.row.len() + self.column.len()
    }

    fn reply_size(_: &Result<Self::Reply, StoreError>) -> usize {
        96
    }

    fn serve(self, server: &Rc<RegionServer>, reply: impl ReplyTo<Self::Reply>) {
        server.handle_get(self.row, self.column, self.snapshot, reply);
    }

    fn served(self, inner: Rc<Inner>, value: Self::Reply, done: Self::Then) {
        inner.gets_ok.inc();
        done(value);
    }
}

#[derive(Clone)]
struct Put {
    region: RegionId,
    ts: Timestamp,
    mutations: Vec<Mutation>,
    floor: Option<Timestamp>,
    replay: bool,
}

impl Request for Put {
    type Reply = ();
    type Then = Box<dyn FnOnce()>;

    fn route(&self) -> Route<'_> {
        Route::Region(self.region)
    }

    /// Fans the batch out to the daughters. Mutation replay stays
    /// idempotent (same commit timestamp), so a partial earlier delivery
    /// is harmless.
    fn regroup(self, inner: Rc<Inner>, done: Self::Then, attempt: u32) {
        put_by_region(
            &inner,
            self.ts,
            self.mutations,
            self.floor,
            self.replay,
            attempt,
            done,
        );
    }

    fn wire_size(&self) -> usize {
        let mutations = self.mutations.iter();
        64 + mutations.map(Mutation::wire_size).sum::<usize>()
    }

    fn reply_size(_: &Result<(), StoreError>) -> usize {
        48
    }

    fn serve(self, server: &Rc<RegionServer>, reply: impl ReplyTo<()>) {
        server.handle_multi_put(
            self.region,
            self.ts,
            self.mutations,
            self.floor,
            self.replay,
            reply,
        );
    }

    fn served(self, inner: Rc<Inner>, (): (), done: Self::Then) {
        inner.puts_ok.inc();
        done();
    }
}

/// The one group → fan-out → join of the write path: one put per region
/// hosting any of `mutations` under the cached map, all issued at
/// `attempt`; `done` runs once, when the last of them is acknowledged —
/// at once if there is nothing to send.
fn put_by_region(
    inner: &Rc<Inner>,
    ts: Timestamp,
    mutations: impl IntoIterator<Item = Mutation>,
    floor: Option<Timestamp>,
    replay: bool,
    attempt: u32,
    done: impl FnOnce() + 'static,
) {
    let groups = by_region(&inner.map.borrow(), mutations, |m| &m.row);
    if groups.is_empty() {
        return done();
    }
    let join = Rc::new((Cell::new(groups.len()), Cell::new(Some(done))));
    for (region, mutations) in groups {
        let put = Put {
            region,
            ts,
            mutations,
            floor,
            replay,
        };
        let join = Rc::clone(&join);
        let acked = move || {
            join.0.set(join.0.get() - 1);
            if join.0.get() == 0 {
                let done = join.1.take().expect("the last acknowledgement comes once");
                done();
            }
        };
        call(Rc::clone(inner), put, Box::new(acked), attempt);
    }
}

/// Shared completion state of one [`StoreClient::multi_get`]: per-region
/// groups fill `results` independently; the last cell served fires
/// `done`.
struct MultiGetCtx {
    results: RefCell<Vec<Option<VersionedValue>>>,
    remaining: Cell<usize>,
    done: RefCell<Option<Box<dyn FnOnce(Vec<Option<VersionedValue>>)>>>,
}

/// One region's share of a batched get: `(input index, (row, column))`.
#[derive(Clone)]
struct MultiGet {
    region: RegionId,
    group: Vec<(usize, (Bytes, Bytes))>,
    snapshot: Timestamp,
}

impl Request for MultiGet {
    type Reply = Vec<Option<VersionedValue>>;
    type Then = Rc<MultiGetCtx>;

    fn route(&self) -> Route<'_> {
        Route::Region(self.region)
    }

    fn regroup(self, inner: Rc<Inner>, ctx: Self::Then, attempt: u32) {
        multi_get_by_region(&inner, self.group, self.snapshot, attempt, ctx);
    }

    fn wire_size(&self) -> usize {
        let cells = self.group.iter();
        64 + cells
            .map(|(_, (r, c))| 8 + r.len() + c.len())
            .sum::<usize>()
    }

    fn reply_size(result: &Result<Self::Reply, StoreError>) -> usize {
        48 + result.as_ref().map(|v| v.len() * 64).unwrap_or(0)
    }

    fn rpcs(inner: &Inner) -> Option<&Counter> {
        Some(&inner.multi_get_rpcs)
    }

    fn serve(self, server: &Rc<RegionServer>, reply: impl ReplyTo<Self::Reply>) {
        let cells = self.group.into_iter().map(|(_, cell)| cell).collect();
        server.handle_multi_get(self.region, cells, self.snapshot, reply);
    }

    /// Writes the group's values into the batch result (input order) and
    /// fires the batch completion when the last cell lands.
    fn served(self, inner: Rc<Inner>, values: Self::Reply, ctx: Self::Then) {
        inner.multi_gets_ok.inc();
        debug_assert_eq!(self.group.len(), values.len());
        {
            let mut results = ctx.results.borrow_mut();
            for ((i, _), vv) in self.group.iter().zip(values) {
                results[*i] = vv;
            }
        }
        ctx.remaining.set(ctx.remaining.get() - self.group.len());
        if ctx.remaining.get() == 0 {
            let done = ctx.done.borrow_mut().take().expect("single completion");
            done(std::mem::take(&mut *ctx.results.borrow_mut()));
        }
    }
}

/// One batched get per region hosting any of `cells` under the cached
/// map, all issued at `attempt` and completing into `ctx`.
fn multi_get_by_region(
    inner: &Rc<Inner>,
    cells: impl IntoIterator<Item = (usize, (Bytes, Bytes))>,
    snapshot: Timestamp,
    attempt: u32,
    ctx: Rc<MultiGetCtx>,
) {
    let groups = by_region(&inner.map.borrow(), cells, |(_, (row, _))| row);
    for (region, group) in groups {
        let multi_get = MultiGet {
            region,
            group,
            snapshot,
        };
        call(Rc::clone(inner), multi_get, Rc::clone(&ctx), attempt);
    }
}

/// In-flight state of a cross-region scan: the cells accumulated by the
/// legs served so far plus the caller's completion. Travels intact
/// through leg retries — only a *served* page ever extends it.
struct ScanState {
    acc: Vec<(Bytes, Bytes, VersionedValue)>,
    done: Box<dyn FnOnce(Vec<(Bytes, Bytes, VersionedValue)>)>,
}

/// One continuation leg of a cross-region scan: asks the region hosting
/// `cursor` for up to `remaining` cells of `[cursor, end)` (see
/// [`crate::ScanPage`]). Errors and timeouts retry the *same* leg — same
/// cursor, same remaining budget, accumulated cells untouched — after a
/// map refresh, so a split, merge, move or failover landing mid-scan
/// cannot drop or duplicate cells: the cursor only ever advances to a
/// bound some server actually served through.
#[derive(Clone)]
struct ScanLeg {
    cursor: Bytes,
    end: Option<Bytes>,
    snapshot: Timestamp,
    remaining: usize,
}

impl Request for ScanLeg {
    type Reply = ScanPage;
    type Then = ScanState;

    fn route(&self) -> Route<'_> {
        Route::Row(&self.cursor)
    }

    fn wire_size(&self) -> usize {
        96
    }

    fn reply_size(result: &Result<ScanPage, StoreError>) -> usize {
        64 + result.as_ref().map(|p| p.cells.len() * 64).unwrap_or(0)
    }

    fn rpcs(inner: &Inner) -> Option<&Counter> {
        Some(&inner.scan_leg_rpcs)
    }

    fn serve(self, server: &Rc<RegionServer>, reply: impl ReplyTo<ScanPage>) {
        server.handle_scan(self.cursor, self.end, self.snapshot, self.remaining, reply);
    }

    /// Absorbs the page, then finishes — limit filled, table end reached
    /// or requested end covered by the region just served — or issues the
    /// next leg at the region's end bound.
    fn served(self, inner: Rc<Inner>, page: ScanPage, mut state: ScanState) {
        let left = self.remaining.saturating_sub(page.cells.len());
        state.acc.extend(page.cells);
        let covered = match (&page.region_end, &self.end) {
            (None, _) => true,              // the region extends to the table end
            (Some(re), Some(e)) => re >= e, // the requested end is inside the region
            (Some(_), None) => false,       // more table to the right
        };
        if left == 0 || covered {
            inner.scans_ok.inc();
            (state.done)(state.acc);
            return;
        }
        let next = ScanLeg {
            cursor: page.region_end.expect("covered handles None"),
            remaining: left,
            ..self
        };
        call(inner, next, state, 0);
    }
}
