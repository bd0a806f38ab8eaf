//! The data path: gets, batched gets, write-set portions and scan legs.
//!
//! Every request takes the same three steps, each written once. It is
//! routed to a hosted region — by a row, or by the region id a batch was
//! grouped under; [`RegionServer::count_rejection`] ends both. Its
//! handler occupancy is decided up front (per cell read:
//! [`RegionServer::read_plan`]). And it enters the handler pool through
//! [`RegionServer::serve`], which charges the region's load, queues for
//! a slot and hands the handler the [`Span`] its `rpc.*` trace record is
//! made from.

use super::replication::StreamElement;
use super::{RegionServer, RegionState};
use crate::blockcache::BlockCache;
use crate::bloom::CellKey;
use crate::codec::WalRecord;
use crate::error::StoreError;
use crate::memstore::VersionedValue;
use crate::merge_iter;
use crate::sstable::StoreFileData;
use crate::types::{Mutation, RegionId, Timestamp};
use crate::wal::WalSyncMode;
use bytes::Bytes;
use cumulo_sim::metrics::{Counter, Gauge, MetricsRegistry};
use cumulo_sim::trace::Field;
use cumulo_sim::{fields, SimDuration, SimTime};
use std::cell::Ref;
use std::rc::Rc;

// The service model: what a request costs a handler slot. Calibrated so
// that one server with 50 closed-loop clients saturates near ~250–300
// transactions/s (10 ops each, 50/50 read/update), matching the paper's
// observation that 250 tps is "near the peak capacity for a single
// region server serving 50 client threads" (§4.4). Constants, not
// knobs: no experiment varies them and every pinned number assumes them.

/// Base CPU cost of any request.
pub(super) const BASE_SERVICE: SimDuration = SimDuration::from_micros(40);
/// CPU cost of a get served from memstore/block cache.
const READ_SERVICE: SimDuration = SimDuration::from_micros(700);
/// Extra handler occupancy when a get misses the block cache and must
/// fetch a block from the filesystem. Calibrated for a datanode
/// co-located with the server (the paper's layout): a cache miss reads a
/// block that is likely in the local datanode's page cache, not cold
/// disk.
const BLOCK_FETCH_PENALTY: SimDuration = SimDuration::from_micros(900);
/// CPU cost per mutation in a write batch.
const WRITE_SERVICE_PER_MUTATION: SimDuration = SimDuration::from_micros(500);
/// Extra handler occupancy per write batch in [`WalSyncMode::Sync`]:
/// the handler thread blocks while the WAL pipeline syncs (this is
/// why synchronous persistence also costs peak throughput, not just
/// latency).
const SYNC_MODE_HANDLER_HOLD: SimDuration = SimDuration::from_millis(2);
/// Extra handler occupancy per store file consulted *beyond the
/// first* on gets and scans — the read-amplification cost that
/// background compaction exists to bound. Point gets consult only
/// files that survive key-range pruning and a bloom-filter probe;
/// scans consult every file whose row range overlaps theirs.
const STOREFILE_READ_SERVICE: SimDuration = SimDuration::from_micros(120);
/// Handler occupancy per bloom-filter probe on a point get: filters
/// are not free, they trade a small fixed cost per range-covering
/// file for the much larger [`STOREFILE_READ_SERVICE`] of consulting
/// files that cannot contain the key.
const FILTER_PROBE_SERVICE: SimDuration = SimDuration::from_micros(2);

/// Shared observability for the bloom-filtered point-get read path (all
/// handles clone cheaply and share state, like [`crate::CompactionStats`]).
///
/// Probes, skips and consultations are recorded where the read actually
/// executes, so the counters describe real behavior, not the up-front
/// cost estimate. Scans are not metered here (they use range pruning
/// only).
#[derive(Clone, Debug)]
pub struct FilterStats {
    /// Bloom-filter probes performed (one per range-covering file per
    /// point get, while filters are enabled).
    pub probes: Counter,
    /// Files excluded from a point get by key-range pruning.
    pub range_skips: Counter,
    /// Files excluded from a point get by a negative bloom probe.
    pub filter_skips: Counter,
    /// Consulted files that turned out not to hold the key at all — the
    /// filter's false positives (measurable because the registry holds
    /// real bytes, so the exact membership check is cheap).
    pub false_positives: Counter,
    /// Filter exclusions that were wrong, by the exact membership check
    /// that debug builds (every `cargo test` run) make on each exclusion;
    /// release builds skip it for its host time. Must stay zero: a false
    /// negative would silently lose a committed version from reads.
    pub false_negatives: Counter,
    /// Store files actually consulted by point gets.
    pub files_consulted: Counter,
    /// Current bytes of bloom-filter metadata across the server's hosted
    /// store files (including flushing snapshots).
    pub filter_bytes: Gauge,
}

impl FilterStats {
    /// The server's filter statistics, each registered in `metrics`
    /// under its `store.filter.*` key with the server's `labels`.
    pub(crate) fn new(metrics: &MetricsRegistry, labels: &[(&str, &str)]) -> Self {
        let c = |name: &str| metrics.counter(name, labels);
        FilterStats {
            probes: c("store.filter.probes"),
            range_skips: c("store.filter.range_skips"),
            filter_skips: c("store.filter.filter_skips"),
            false_positives: c("store.filter.false_positives"),
            false_negatives: c("store.filter.false_negatives"),
            files_consulted: c("store.filter.files_consulted"),
            filter_bytes: metrics.gauge("store.filter.bytes", labels),
        }
    }
}

/// What [`RegionServer::files_to_consult`] decided on the way to the
/// files it yielded, in [`FilterStats`] terms.
#[derive(Default)]
struct Pruned {
    range_skips: u64,
    probes: u64,
    filter_skips: u64,
    false_negatives: u64,
}

/// One region's worth of a range scan: the cells served plus the serving
/// region's exclusive end bound. The client's cross-region continuation
/// ([`crate::StoreClient::scan`]) uses `region_end` as the next leg's
/// cursor, so the resume key is always *server truth* — whatever region
/// actually served the page, even if the client routed here through a
/// stale map while a structure change was in flight.
#[derive(Clone, Debug)]
pub struct ScanPage {
    /// Newest visible version per `(row, column)` at the scan snapshot,
    /// sorted, tombstones elided, truncated to the requested limit.
    pub cells: Vec<(Bytes, Bytes, VersionedValue)>,
    /// Exclusive end key of the region that served this page (`None` =
    /// the region extends to the end of the table).
    pub region_end: Option<Bytes>,
}

/// What admission decided for one point read. It fixes the read's
/// handler occupancy, and the `rpc.get` span reports it.
struct ReadPlan {
    in_memstore: bool,
    probes: u64,
    consulted: usize,
}

/// One admitted request's `rpc.*` trace span, handed to its handler to
/// record once the request is served.
struct Span {
    kind: &'static str,
    region: RegionId,
    service: SimDuration,
    submitted: SimTime,
}

impl Span {
    /// Records the span: `server=` and `region=`, then `before`, the
    /// queue wait and the service time in nanoseconds, then `after`.
    /// Queue wait is everything between submission and completion that
    /// was not this request's own service.
    fn record(self, server: &RegionServer, before: &[Field], after: &[Field]) {
        let service_ns = self.service.nanos();
        let queue_ns =
            (server.sim.now().nanos() - self.submitted.nanos()).saturating_sub(service_ns);
        let site = fields!(server = server.id, region = self.region);
        let times = fields!(queue_ns, service_ns);
        server.span(self.kind, &[site, before, times, after]);
    }
}

impl RegionServer {
    /// Point-get filter observability: probes, skips, false positives
    /// and the current filter-metadata footprint (shared handles; clone
    /// freely).
    pub fn filter_stats(&self) -> &FilterStats {
        &self.filter_stats
    }

    /// Enables or disables bloom probing on point gets at runtime, over
    /// an unchanged store-file stack (key-range pruning is always on — it
    /// is a free metadata comparison). Probing is on by default; off is
    /// the reference path `tests/filters.rs` compares against and how
    /// `policy_compare` measures the bound the file layout alone gives.
    pub fn set_bloom_filters(&self, enabled: bool) {
        self.bloom_enabled.set(enabled);
    }

    /// Block-cache hit rate so far (Fig. 3's warm-up indicator).
    pub fn cache_hit_rate(&self) -> f64 {
        self.mem.borrow().cache.hit_rate()
    }

    /// The block cache, for inspecting residency and its counters. Drop
    /// the borrow before driving the simulation: the read path takes it
    /// mutably.
    pub fn block_cache(&self) -> Ref<'_, BlockCache> {
        Ref::map(self.mem.borrow(), |mem| &mem.cache)
    }

    /// Number of gets served (batched reads count one per cell, so the
    /// per-get filter statistics stay comparable across both paths).
    pub fn gets_served(&self) -> u64 {
        self.gets.get()
    }

    /// Current handler queue length (for overload diagnostics).
    pub fn handler_queue_len(&self) -> usize {
        self.handlers.queue_len()
    }

    /// Pre-warms the block cache with the given rows (the paper warms the
    /// cache before measuring, §4.1).
    pub fn warm_cache(&self, region: RegionId, rows: impl ExactSizeIterator<Item = Bytes>) {
        self.mem.borrow_mut().cache.warm(region, rows);
    }

    /// The hosted region a get of `row` (or a scan starting there) is
    /// served by, and whether it is online. More than one can transiently
    /// cover a row (e.g. an offline parent beside an online daughter
    /// mid-split): the online one is preferred, the lowest id breaks
    /// ties. A minimum allocates nothing on the path of every read.
    fn covering_region(&self, row: &[u8]) -> Option<(RegionId, bool)> {
        self.mem
            .borrow()
            .regions
            .values()
            .filter(|st| st.desc.contains(row))
            .map(|st| (!st.online, st.desc.id))
            .min()
            .map(|(offline, id)| (id, !offline))
    }

    /// The first step of every request, for one that names a row its
    /// region covers (a get; a scan leg, by its start): the hosted region
    /// that serves it, or the rejection to reply with.
    fn route_by_row(&self, row: &[u8]) -> Result<RegionId, StoreError> {
        self.count_rejection(match self.covering_region(row) {
            Some((id, true)) => Ok(id),
            Some((id, false)) => Err(StoreError::NotServing(id)),
            None => Err(StoreError::RegionUnknown),
        })
    }

    /// The first step of every request, for a batch addressed to the id
    /// the client's map grouped it under. Region ids are never reused, so
    /// every row grouped under `region` by any map epoch lies inside its
    /// descriptor; `first_row` tells a split-away id from one this server
    /// never hosted, and `offline_ok` lets a recovery replay into a
    /// region that is still recovering.
    fn route_by_id(
        &self,
        region: RegionId,
        first_row: Option<&[u8]>,
        offline_ok: bool,
    ) -> Result<(), StoreError> {
        let mem = self.mem.borrow();
        let covered = |row| mem.regions.values().any(|st| st.desc.contains(row));
        self.count_rejection(match mem.regions.get(&region) {
            Some(st) if st.online || offline_ok => Ok(()),
            // A fenced ex-primary can never serve this region again
            // under its old epoch — send the client to the map, not into
            // a retry loop.
            Some(_) if self.region_fenced(region) => Err(StoreError::WrongRegion(region)),
            Some(_) => Err(StoreError::NotServing(region)),
            // The region id is unknown here — if a *different* hosted
            // region covers the batch's rows, the map changed under the
            // client (an online split replaced the id); retrying the same
            // id can never succeed, so tell the client to refresh and
            // re-group.
            None if first_row.is_some_and(covered) => Err(StoreError::WrongRegion(region)),
            None => Err(StoreError::NotServing(region)),
        })
    }

    /// Where both route steps end: `not_serving` counts every rejection,
    /// of all four request kinds.
    fn count_rejection<T>(&self, routed: Result<T, StoreError>) -> Result<T, StoreError> {
        if routed.is_err() {
            self.not_serving.inc();
        }
        routed
    }

    /// The plan of one point read, decided up front because it
    /// determines handler occupancy: whether the memstore answers, and
    /// which files would be consulted. Key-range pruning is free, each
    /// bloom probe on a range-covering file costs `FILTER_PROBE_SERVICE`,
    /// and only files the filter cannot exclude charge the
    /// `STOREFILE_READ_SERVICE` amplification term.
    fn read_plan(&self, st: &RegionState, key: &CellKey, snapshot: Timestamp) -> ReadPlan {
        let mut pruned = Pruned::default();
        let consulted = self.files_to_consult(st, key, &mut pruned).count();
        ReadPlan {
            in_memstore: st.memstore.get(key.row(), key.column(), snapshot).is_some(),
            probes: pruned.probes,
            consulted,
        }
    }

    /// Handler occupancy of one planned cell read, short of a block
    /// fetch. Read amplification: every *consulted* store file beyond
    /// the first costs extra handler time. Compaction bounds the file
    /// count; range pruning and bloom filters bound how many of those
    /// files a point get actually consults.
    fn read_service(&self, plan: &ReadPlan) -> SimDuration {
        READ_SERVICE
            + STOREFILE_READ_SERVICE * plan.consulted.saturating_sub(1) as u64
            + FILTER_PROBE_SERVICE * plan.probes
    }

    /// The one way a request enters the handler pool: its service time
    /// is attributed to the region that pays it, it queues for a handler
    /// slot, and once the slot has held it for `service` — if the process
    /// is still alive — `work` serves it, with the span to record.
    fn serve(
        self: &Rc<Self>,
        region: RegionId,
        service: SimDuration,
        kind: &'static str,
        work: impl FnOnce(&Rc<RegionServer>, Span) + 'static,
    ) {
        self.region_load.add(region.0 as u64, service.nanos());
        let span = Span {
            kind,
            region,
            service,
            submitted: self.sim.now(),
        };
        let this = Rc::clone(self);
        self.handlers.submit(service, move || {
            if this.is_alive() {
                work(&this, span);
            }
        });
    }

    /// Serves a versioned read at `snapshot`.
    pub fn handle_get(
        self: &Rc<Self>,
        row: Bytes,
        column: Bytes,
        snapshot: Timestamp,
        reply: impl FnOnce(Result<Option<VersionedValue>, StoreError>) + 'static,
    ) {
        let region = match self.route_by_row(&row) {
            Ok(region) => region,
            Err(e) => return reply(Err(e)),
        };
        // The cell is hashed here, once, for every filter probe and file
        // lookup of this get.
        let key = CellKey::new(row, column);
        let plan = self.read_plan(&self.mem.borrow().regions[&region], &key, snapshot);
        let hit = plan.in_memstore || self.mem.borrow_mut().cache.access(region, key.row());
        let mut service = BASE_SERVICE + self.read_service(&plan);
        if !hit {
            service += BLOCK_FETCH_PENALTY;
        }
        self.serve(region, service, "rpc.get", move |this, span| {
            let result = this.lookup(region, &key, snapshot);
            if !hit {
                let row = key.row().clone();
                this.mem.borrow_mut().cache.insert(region, row);
            }
            this.gets.inc();
            let (files, probes) = (plan.consulted, plan.probes);
            span.record(this, fields!(), fields!(files, probes, hit));
            reply(result);
        });
    }

    /// The files of `st` a point read of `key` has to consult, newest
    /// first, each with whether it is durable (a store file) or the
    /// flushing snapshot: those that neither the row range (free) nor,
    /// while filters are on, the bloom probe (`FILTER_PROBE_SERVICE`
    /// each) excludes. This is the one place both the admission plan and
    /// [`RegionServer::lookup`] prune; `pruned` counts what was decided
    /// for the files pulled so far.
    fn files_to_consult<'a>(
        &self,
        st: &'a RegionState,
        key: &'a CellKey,
        pruned: &'a mut Pruned,
    ) -> impl Iterator<Item = (&'a StoreFileData, bool)> + 'a {
        let bloom = self.bloom_enabled.get();
        let flushing = st.flushing_file().into_iter().map(|sf| (&**sf, false));
        let durable = st.storefiles.iter().map(|sf| (&**sf, true));
        flushing.chain(durable).filter(move |(sf, _)| {
            if !sf.row_in_range(key.row()) {
                pruned.range_skips += 1;
                return false;
            }
            if bloom {
                pruned.probes += 1;
                if !sf.filter_may_contain_cell(key) {
                    pruned.filter_skips += 1;
                    if cfg!(debug_assertions) && sf.contains_cell(key) {
                        pruned.false_negatives += 1;
                    }
                    return false;
                }
            }
            true
        })
    }

    fn lookup(
        &self,
        region_id: RegionId,
        key: &CellKey,
        snapshot: Timestamp,
    ) -> Result<Option<VersionedValue>, StoreError> {
        let mem = self.mem.borrow();
        let Some(st) = mem.regions.get(&region_id) else {
            return Err(StoreError::NotServing(region_id));
        };
        if !st.online {
            return Err(StoreError::NotServing(region_id));
        }
        let mut best = st.memstore.get(key.row(), key.column(), snapshot);
        let bloom = self.bloom_enabled.get();
        let stats = &self.filter_stats;
        let mut pruned = Pruned::default();
        let mut unreadable = None;
        for (sf, durable) in self.files_to_consult(st, key, &mut pruned) {
            // Honesty check: a consulted store file is only readable
            // while at least one filesystem replica survives (pruned
            // files are not touched, so their replicas need not be).
            // Reference half-files check the *backing* parent file —
            // that is where the bytes physically live. The flushing
            // snapshot is served from memory while its DFS write is in
            // flight, so it gets no replica-liveness check.
            if durable && !self.dfs.namenode().has_live_replica(sf.backing_path()) {
                unreadable = Some(sf.path().to_owned());
                break;
            }
            stats.files_consulted.inc();
            match sf.get_cell(key, snapshot) {
                Some(found) if best.as_ref().is_none_or(|b| found.ts > b.ts) => {
                    best = Some(found);
                }
                Some(_) => {}
                // A version at the snapshot proves the key is in the
                // file; only a miss needs the exact check (a second probe
                // of the hash index) to tell a filter false positive from
                // versions above the snapshot.
                None if bloom && !sf.contains_cell(key) => stats.false_positives.inc(),
                None => {}
            }
        }
        stats.range_skips.add(pruned.range_skips);
        stats.probes.add(pruned.probes);
        stats.filter_skips.add(pruned.filter_skips);
        stats.false_negatives.add(pruned.false_negatives);
        match unreadable {
            Some(path) => Err(StoreError::Unavailable(path)),
            None => Ok(best),
        }
    }

    /// Serves a batch of point reads for one region in a single message
    /// round trip (the batched half of the client's `multi_get`).
    ///
    /// The whole batch occupies one handler slot for the *sum* of its
    /// per-cell service: each cell charges the same read service, range
    /// pruning (free), bloom probes (`FILTER_PROBE_SERVICE` each) and
    /// per-consulted-file `STOREFILE_READ_SERVICE` amplification it
    /// would have paid as a lone [`RegionServer::handle_get`] — the
    /// saving is round trips and per-request base cost, not a discount
    /// on the read work itself. Per-cell [`FilterStats`] accounting is
    /// identical to the single-get path.
    ///
    /// Addressing is by region id (like [`RegionServer::handle_multi_put`]):
    /// a batch for a split-away id gets [`StoreError::WrongRegion`] when
    /// another hosted region covers its rows, so the client re-groups by
    /// its refreshed map and retries.
    pub fn handle_multi_get(
        self: &Rc<Self>,
        region: RegionId,
        cells: Vec<(Bytes, Bytes)>,
        snapshot: Timestamp,
        reply: impl FnOnce(Result<Vec<Option<VersionedValue>>, StoreError>) + 'static,
    ) {
        let first_row = cells.first().map(|(row, _)| &row[..]);
        if let Err(e) = self.route_by_id(region, first_row, false) {
            return reply(Err(e));
        }
        // Per-cell plan and cache hit/miss, decided up front exactly like
        // `handle_get`; the batch's handler occupancy is the sum of its
        // cells'.
        let cells: Vec<CellKey> = cells
            .into_iter()
            .map(|(row, column)| CellKey::new(row, column))
            .collect();
        let mut service = BASE_SERVICE;
        let mut misses: Vec<Bytes> = Vec::new();
        {
            let mem = &mut *self.mem.borrow_mut();
            let st = &mem.regions[&region];
            for key in &cells {
                let row = key.row();
                let plan = self.read_plan(st, key, snapshot);
                // A row already planned as a miss earlier in this batch
                // is fetched once for the whole batch: later cells on it
                // ride the same block, like sequential gets would hit
                // the cache the first miss populated.
                let hit = plan.in_memstore || misses.contains(row) || mem.cache.access(region, row);
                service += self.read_service(&plan);
                if !hit {
                    service += BLOCK_FETCH_PENALTY;
                    misses.push(row.clone());
                }
            }
        }
        self.serve(region, service, "rpc.multi_get", move |this, span| {
            let mut out: Vec<Option<VersionedValue>> = Vec::with_capacity(cells.len());
            for key in &cells {
                match this.lookup(region, key, snapshot) {
                    Ok(v) => out.push(v),
                    // A partially readable stack fails the whole batch
                    // (same retry the lone get would take).
                    Err(e) => return reply(Err(e)),
                }
            }
            let (cell_count, miss_count) = (cells.len(), misses.len());
            let cache = &mut this.mem.borrow_mut().cache;
            for row in misses {
                cache.insert(region, row);
            }
            this.gets.add(cell_count as u64);
            this.multi_gets.inc();
            span.record(
                this,
                fields!(cells = cell_count),
                fields!(misses = miss_count),
            );
            reply(Ok(out));
        });
    }

    /// Applies one transaction's mutations for one region (the flush of a
    /// committed write-set portion, or a recovery replay when it carries
    /// the failed server's `floor`).
    ///
    /// Matches Algorithm 3 "On receive": WAL-buffer append, memstore
    /// apply, PQ tracking via the hook, then the ack — immediately in
    /// Async mode, after the filesystem sync in Sync mode.
    pub fn handle_multi_put(
        self: &Rc<Self>,
        region: RegionId,
        ts: Timestamp,
        mutations: Vec<Mutation>,
        floor: Option<Timestamp>,
        reply: impl FnOnce(Result<(), StoreError>) + 'static,
    ) {
        let replay = floor.is_some();
        let first_row = mutations.first().map(|m| &m.row[..]);
        if let Err(e) = self.route_by_id(region, first_row, replay) {
            return reply(Err(e));
        }
        let mut service = BASE_SERVICE + WRITE_SERVICE_PER_MUTATION * mutations.len().max(1) as u64;
        if self.cfg.wal_mode == WalSyncMode::Sync {
            service += SYNC_MODE_HANDLER_HOLD;
        }
        self.serve(region, service, "rpc.put", move |this, span| {
            let mut mem = this.mem.borrow_mut();
            let Some(st) = mem.regions.get_mut(&region) else {
                drop(mem);
                return reply(Err(StoreError::NotServing(region)));
            };
            for m in &mutations {
                let (row, column) = (m.row.clone(), m.column.clone());
                st.memstore.apply_mutation(row, column, ts, &m.kind);
            }
            drop(mem);
            let n_mutations = mutations.len();
            // Ship to backup lanes *before* the WAL append consumes the
            // batch. Returns the gate when at least one in-sync lane took
            // it; the client ack (and the T_P bookkeeping hook) then
            // waits for every such lane's ack — this is what makes
            // `T_P(failed)` a sound promotion floor: nothing at or below
            // it can be missing from an eligible backup.
            let gate = this.replicates(region).then(|| {
                let mutations = mutations.clone();
                this.ship(region, StreamElement::WriteSet { ts, mutations }, false)
            });
            let seq = this.wal.append(WalRecord {
                region,
                ts,
                mutations,
            });
            this.puts.inc();
            span.record(this, fields!(mutations = n_mutations), fields!(replay));
            let complete: Box<dyn FnOnce(Result<(), StoreError>)> = {
                let this = Rc::clone(this);
                Box::new(move |result| match result {
                    Ok(()) => {
                        this.hooks
                            .borrow()
                            .on_write_set_applied(this.id, region, ts, seq, floor);
                        match this.cfg.wal_mode {
                            WalSyncMode::Sync => this.wal.sync_upto(seq, move || reply(Ok(()))),
                            WalSyncMode::Async => reply(Ok(())),
                        }
                    }
                    Err(e) => reply(Err(e)),
                })
            };
            match gate.flatten() {
                Some(gate) => this.arm_gate(region, gate, complete),
                None => complete(Ok(())),
            }
        });
    }

    /// Serves one page of a snapshot range scan: the newest visible
    /// version per cell in `[start, end)` (end-exclusive, tombstones
    /// elided) *within the hosted region containing `start`*, plus that
    /// region's exclusive end bound as the continuation resume key. The
    /// client stitches pages from consecutive regions into one merged
    /// cross-region result (see [`crate::StoreClient::scan`]).
    pub fn handle_scan(
        self: &Rc<Self>,
        start: Bytes,
        end: Option<Bytes>,
        snapshot: Timestamp,
        limit: usize,
        reply: impl FnOnce(Result<ScanPage, StoreError>) + 'static,
    ) {
        let region = match self.route_by_row(&start) {
            Ok(region) => region,
            Err(e) => return reply(Err(e)),
        };
        // Scans touch many rows, so per-(row, column) bloom filters
        // cannot exclude a file for them — key-range pruning only: a
        // file is consulted iff its row range overlaps [start, end).
        let files = {
            let mem = self.mem.borrow();
            let st = &mem.regions[&region];
            let stack = st.flushing_file().into_iter().chain(st.storefiles.iter());
            stack
                .filter(|sf| sf.range_overlaps(&start, end.as_deref()))
                .count()
        };
        let service = BASE_SERVICE
            + READ_SERVICE * 3
            + STOREFILE_READ_SERVICE * files.saturating_sub(1) as u64;
        self.serve(region, service, "rpc.scan", move |this, span| {
            let mem = this.mem.borrow();
            let Some(st) = mem.regions.get(&region) else {
                return reply(Err(StoreError::NotServing(region)));
            };
            // One streaming merge over memstore, flushing snapshot and
            // store files, newest source first; it seeks to `start` and
            // stops at `limit` live cells.
            let sources = st
                .flushing_file()
                .into_iter()
                .chain(st.storefiles.iter().rev());
            let (out, examined) = merge_iter::scan_page(
                &st.memstore,
                sources.map(Rc::as_ref),
                &start,
                end.as_deref(),
                snapshot,
                limit,
            );
            this.scan_cells_examined.add(examined);
            let region_end = st.desc.end.clone();
            this.scans.inc();
            let returned = out.len();
            span.record(this, fields!(files), fields!(returned, examined));
            reply(Ok(ScanPage {
                cells: out,
                region_end,
            }));
        });
    }
}
