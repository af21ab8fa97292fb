//! Transaction routing: per-group commit-protocol plans, the one input the
//! site core ([`crate::core::SiteCore`]) routes by.
//!
//! A [`PlanTable`] is built one of two ways. [`PlanTable::flat`] lowers the
//! paper's model — [`crate::DbCluster`]'s site-addressed [`TxnSpec`]s, one
//! fully-replicated group, site 0 master of every transaction — verbatim
//! onto one all-sites group. [`PlanTable::compile`] / [`PlanTable::route`]
//! is the router of the sharded store: every key-addressed [`ShardTxnSpec`]
//! is classified at build time:
//!
//! * **single-shard** — all keys land in one shard; the commit protocol
//!   runs *inside* that shard's replica group (master = the group's first
//!   member), exactly like a small [`crate::DbCluster`];
//! * **cross-shard** — keys span several shards; a **top-level** instance
//!   of the same commit protocol runs over the involved groups' masters
//!   (coordinator = the lowest involved shard's master), so a partition
//!   severing two shards' groups is terminated — or measurably blocked —
//!   by the paper's protocol one layer up. When a group master decides, it
//!   ships the outcome (and, on commit, the shard's writes) to its replicas
//!   that were not part of the top-level group.
//!
//! **Representation.** Everything about a route but the write set itself is
//! a function of the *set of involved shards*: the protocol group, which
//! member stages which shard's writes, who ships to whom, which
//! out-of-group replicas install what. The table computes that once per
//! distinct shard set — a *route shape*, a handful per workload — and keeps
//! per transaction only a 16-byte row `{id, shape, where its segments
//! start}` over two shared arenas: the writes of every plan, grouped by
//! shard in shard order (submission order inside a shard — the order sites
//! stage), and each plan's segment ends. [`PlanTable::get`] /
//! [`PlanTable::get_read`] hand out a `Copy` [`PlanView`] — the shape plus
//! the plan's slices — and everything reads routes through its accessors.
//! Read plans are the same thing over an arena of keys; a flat table is the
//! one-shape case whose segments are per site instead of per shard.

use crate::site::{ReadSpec, TxnSpec};
use crate::topology::ShardTopology;
use crate::value::{Key, TxnId, WriteOp};
use ptp_simnet::SiteId;
use std::cmp::Ordering;

/// A transaction addressed by key, before routing: the shard map decides
/// which sites it touches.
#[derive(Debug, Clone)]
pub struct ShardTxnSpec {
    /// Globally unique id.
    pub id: TxnId,
    /// The write set, routed per key by [`ShardTopology::shard_of`].
    pub writes: Vec<WriteOp>,
}

/// A read-only transaction addressed by key, before routing.
#[derive(Debug, Clone)]
pub struct ShardReadSpec {
    /// Globally unique id — disjoint from write-transaction ids.
    pub id: TxnId,
    /// Keys to read, routed per key by [`ShardTopology::shard_of`].
    pub keys: Vec<Key>,
}

/// What a route owes to its set of involved shards alone, shared by every
/// plan over that set.
#[derive(Debug)]
struct RouteShape {
    /// Involved shards, ascending.
    shards: Vec<usize>,
    /// The protocol group, master first.
    group: Vec<SiteId>,
    /// Segments per plan: one per involved shard (a flat shape: per site).
    segments: usize,
    /// Who stages which segments: the group in group order, then the
    /// out-of-group replicas, ascending.
    members: Vec<Member>,
    /// Outcome shipping: per shipping master, its out-of-group replicas.
    ships: Vec<(SiteId, Vec<SiteId>)>,
}

#[derive(Debug)]
struct Member {
    site: SiteId,
    /// Indices of the plan's segments this site stages, ascending.
    segments: Vec<usize>,
}

impl Member {
    /// `site`, staging the segment of every shard of `shards` that `serves`.
    fn of(site: SiteId, shards: &[usize], serves: impl Fn(usize) -> bool) -> Member {
        let mut segments = Vec::with_capacity(shards.len());
        segments.extend((0..shards.len()).filter(|&i| serves(shards[i])));
        Member { site, segments }
    }
}

/// Masters of `shards`, in shard order, deduplicated (overlapping groups
/// can share a master).
fn masters(topology: &ShardTopology, shards: &[usize]) -> Vec<SiteId> {
    let mut masters = Vec::with_capacity(shards.len());
    for &s in shards {
        let m = topology.master(s);
        if !masters.contains(&m) {
            masters.push(m);
        }
    }
    masters
}

impl RouteShape {
    /// The write route over `shards` (ascending, not empty).
    ///
    /// Single-shard: the shard's replica group runs the protocol and stages
    /// the one segment. Cross-shard: the involved masters run it; each
    /// stages the segment of every involved shard whose group contains it.
    /// Ship targets are involved-group replicas outside the protocol group.
    /// A replica serving several involved shards is listed under *each* of
    /// their masters, and stages every involved shard it serves whichever
    /// master's ship reaches it first — every ship carries everything the
    /// replica needs, so the first arrival installs the complete outcome
    /// and later arrivals are true duplicates (and a replica reachable from
    /// any one involved master still converges).
    fn write(topology: &ShardTopology, shards: &[usize]) -> RouteShape {
        let group = match shards {
            [only] => topology.group(*only).to_vec(),
            _ => masters(topology, shards),
        };
        let mut ships: Vec<(SiteId, Vec<SiteId>)> = Vec::new();
        let mut replicas = Vec::new();
        if shards.len() > 1 {
            for &s in shards {
                let master = topology.master(s);
                for replica in topology.group(s).iter().filter(|site| !group.contains(site)) {
                    let shipper = ships.iter().position(|(from, _)| *from == master);
                    let shipper = shipper.unwrap_or_else(|| {
                        ships.push((master, Vec::new()));
                        ships.len() - 1
                    });
                    let targets = &mut ships[shipper].1;
                    if !targets.contains(replica) {
                        targets.push(*replica);
                    }
                    if !replicas.contains(replica) {
                        replicas.push(*replica);
                    }
                }
            }
            replicas.sort();
        }
        let staging = |&site| Member::of(site, shards, |s| topology.group(s).contains(&site));
        RouteShape {
            shards: shards.to_vec(),
            members: group.iter().chain(&replicas).map(staging).collect(),
            group,
            segments: shards.len(),
            ships,
        }
    }

    /// The read route over `shards`: the involved masters serve, each the
    /// keys of every involved shard it masters. Replicas never serve reads
    /// — only a master's store is guaranteed current (the LARK master-lease
    /// argument) — so a single-shard read's group is its master alone.
    fn read(topology: &ShardTopology, shards: &[usize]) -> RouteShape {
        let group = masters(topology, shards);
        let serving = |&site| Member::of(site, shards, |s| topology.master(s) == site);
        RouteShape {
            shards: shards.to_vec(),
            members: group.iter().map(serving).collect(),
            group,
            segments: shards.len(),
            ships: Vec::new(),
        }
    }

    /// The flat route: sites `0..n` in one group over one shard, site `i`
    /// staging segment `i`, nothing shipped.
    fn flat(n: usize) -> RouteShape {
        let group: Vec<SiteId> = (0..n as u16).map(SiteId).collect();
        RouteShape {
            shards: vec![0],
            members: group
                .iter()
                .map(|&site| Member { site, segments: vec![site.index()] })
                .collect(),
            group,
            segments: n,
            ships: Vec::new(),
        }
    }
}

/// One plan's row: 16 bytes, whatever the plan holds.
#[derive(Debug, Clone, Copy)]
struct Row {
    id: TxnId,
    /// Index into [`Routed::shapes`].
    shape: u32,
    /// Where the plan's items start in [`Routed::items`].
    items: u32,
    /// Where its segment ends start in [`Routed::ends`].
    ends: u32,
}

/// An arena offset. A table addresses its arenas with 32 bits.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a plan table holds fewer than 2^32 writes")
}

/// Routed plans over items of one kind (writes, or the keys of reads):
/// interned shapes, one arena, id-sorted rows.
#[derive(Debug)]
struct Routed<T> {
    /// One per distinct set of involved shards.
    shapes: Vec<RouteShape>,
    /// Every plan's items, plan after plan; inside a plan, segment after
    /// segment.
    items: Vec<T>,
    /// Every plan's segment ends (as many as its shape has segments),
    /// counted from the plan's first item.
    ends: Vec<u32>,
    /// Sorted by id once a build is over.
    rows: Vec<Row>,
}

impl<T> Routed<T> {
    fn new() -> Routed<T> {
        Routed { shapes: Vec::new(), items: Vec::new(), ends: Vec::new(), rows: Vec::new() }
    }

    /// Opens the row of plan `id`: what is pushed to `items` from here on
    /// is its, segment by segment.
    fn begin(&mut self, id: TxnId, shape: u32) {
        let (items, ends) = (offset(self.items.len()), offset(self.ends.len()));
        self.rows.push(Row { id, shape, items, ends });
    }

    /// Closes the open row's current segment.
    fn end_segment(&mut self) {
        let row = self.rows.last().expect("a row is open");
        self.ends.push(offset(self.items.len()) - row.items);
    }

    /// Routes every `(id, items)` of `specs` by the shard of each item's
    /// `key`: items grouped by shard in shard order, spec order inside a
    /// shard; one shape over each distinct shard set, made on first use.
    fn route<'s>(
        &mut self,
        topology: &ShardTopology,
        specs: impl Iterator<Item = (TxnId, &'s [T])> + Clone,
        key: impl Fn(&T) -> &Key,
        shape_over: impl Fn(&ShardTopology, &[usize]) -> RouteShape,
        what: &str,
    ) where
        T: Clone + 's,
    {
        let (plans, items) =
            specs.clone().fold((0, 0), |(plans, items), (_, spec)| (plans + 1, items + spec.len()));
        self.rows.reserve_exact(plans);
        self.ends.reserve(plans);
        self.items.reserve_exact(items);
        // The interning index: shape indices ordered by shard set.
        let mut by_shards: Vec<u32> = Vec::new();
        // (shard, position in the spec) per item, and the shard set.
        let (mut order, mut shards) = (Vec::new(), Vec::new());
        for (id, spec) in specs {
            assert!(!spec.is_empty(), "{id} has an empty {what}");
            order.clear();
            order.extend(spec.iter().map(|item| topology.shard_of(key(item))).zip(0..));
            order.sort_unstable();
            shards.clear();
            shards.extend(order.iter().map(|&(shard, _)| shard));
            shards.dedup();
            let known =
                by_shards.binary_search_by(|&i| self.shapes[i as usize].shards.cmp(&shards));
            let shape = known.map(|at| by_shards[at]).unwrap_or_else(|at| {
                by_shards.insert(at, offset(self.shapes.len()));
                self.shapes.push(shape_over(topology, &shards));
                by_shards[at]
            });
            self.begin(id, shape);
            for (n, &(shard, i)) in order.iter().enumerate() {
                if n > 0 && order[n - 1].0 != shard {
                    self.end_segment();
                }
                self.items.push(spec[i].clone());
            }
            self.end_segment();
        }
    }

    /// Ends a build: sorts the rows by id. Returns an id two rows share, if
    /// any.
    fn index(&mut self) -> Option<TxnId> {
        self.rows.sort_unstable_by_key(|row| row.id);
        self.rows.windows(2).find(|pair| pair[0].id == pair[1].id).map(|pair| pair[0].id)
    }

    fn view(&self, row: &Row) -> PlanView<'_, T> {
        let shape = &self.shapes[row.shape as usize];
        let ends = &self.ends[row.ends as usize..][..shape.segments];
        let len = ends.last().map_or(0, |&end| end as usize);
        PlanView { shape, items: &self.items[row.items as usize..][..len], ends }
    }

    fn get(&self, id: TxnId) -> Option<PlanView<'_, T>> {
        Some(self.view(&self.rows[self.find(id)?]))
    }

    /// The row of `id`. An id outside `[first, last]` misses at once (the
    /// core asks the write side about every read id first); inside, the row
    /// is guessed as if ids were evenly spread — workloads number their
    /// transactions densely — and a wrong guess binary-searches the side of
    /// it that can still hold `id`.
    fn find(&self, id: TxnId) -> Option<usize> {
        let (first, last) = (self.rows.first()?.id.0, self.rows.last()?.id.0);
        if id.0 < first || id.0 > last {
            return None;
        }
        let span = u64::from(last - first).max(1);
        let guess = (u64::from(id.0 - first) * (self.rows.len() - 1) as u64 / span) as usize;
        let by_id = |row: &Row| row.id;
        match self.rows[guess].id.cmp(&id) {
            Ordering::Equal => Some(guess),
            Ordering::Less => {
                let above = guess + 1;
                self.rows[above..].binary_search_by_key(&id, by_id).ok().map(|at| above + at)
            }
            Ordering::Greater => self.rows[..guess].binary_search_by_key(&id, by_id).ok(),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (TxnId, PlanView<'_, T>)> {
        self.rows.iter().map(|row| (row.id, self.view(row)))
    }
}

/// One plan's compiled routing, as the table hands it out: its shape —
/// which shards it touches, which sites run its commit protocol (and under
/// which virtual identities) — and its own segments: what each member
/// stages ([`TxnView`]: writes) or snapshots ([`ReadView`]: keys).
#[derive(Debug)]
pub struct PlanView<'a, T> {
    shape: &'a RouteShape,
    /// The plan's items, segment after segment.
    items: &'a [T],
    /// Where each segment ends in `items`.
    ends: &'a [u32],
}

/// A write transaction's routing: which replicas get the decided outcome
/// shipped, on top of [`PlanView`]'s group and per-site write sets.
pub type TxnView<'a> = PlanView<'a, WriteOp>;

/// A read-only transaction's routing. Single-shard reads are served at the
/// shard master under shared locks with **no protocol round** (group = the
/// master alone); cross-shard reads run a top-level instance of the commit
/// protocol over the involved masters so the snapshot is atomic across
/// shards.
pub type ReadView<'a> = PlanView<'a, Key>;

impl<T> Clone for PlanView<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for PlanView<'_, T> {}

impl<'a, T> PlanView<'a, T> {
    /// Involved shards, ascending.
    pub fn shards(self) -> &'a [usize] {
        &self.shape.shards
    }

    /// The commit-protocol (serving) group: physical sites,
    /// master/coordinator first. Participants run under *virtual* ids
    /// `0..group.len()` — index in this slice — so the unmodified protocol
    /// machinery coordinates any subset of the cluster.
    pub fn group(self) -> &'a [SiteId] {
        &self.shape.group
    }

    /// The group's master (the top-level coordinator of a cross-shard
    /// transaction).
    pub fn master(self) -> SiteId {
        self.shape.group[0]
    }

    /// `site`'s virtual id within the group, if it participates.
    pub fn virtual_of(self, site: SiteId) -> Option<usize> {
        self.shape.group.iter().position(|&s| s == site)
    }

    fn segment(self, i: usize) -> &'a [T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.items[start..self.ends[i] as usize]
    }

    /// Everything the plan holds — a write plan's whole write set, a read
    /// plan's whole key set — segment after segment: grouped by shard in
    /// shard order, spec order inside a shard (a flat plan: by site).
    pub fn items(self) -> &'a [T] {
        self.items
    }

    /// What `site` holds of this plan, if the plan names it.
    fn at(self, site: SiteId) -> Option<Staged<'a, T>> {
        let member = self.shape.members.iter().find(|member| member.site == site)?;
        Some(Staged { plan: self, segments: member.segments.iter(), current: [].iter() })
    }
}

/// What one site holds of a plan ([`PlanView::writes_at`] /
/// [`PlanView::keys_at`]): the items of its segments, in order. Knows its
/// length, so copying it out allocates exactly once, exactly enough.
#[derive(Debug)]
pub struct Staged<'a, T> {
    plan: PlanView<'a, T>,
    /// The site's segments not yet started.
    segments: std::slice::Iter<'a, usize>,
    /// What is left of the segment being walked.
    current: std::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for Staged<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            if let Some(item) = self.current.next() {
                return Some(item);
            }
            self.current = self.plan.segment(*self.segments.next()?).iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let ahead: usize = self.segments.clone().map(|&i| self.plan.segment(i).len()).sum();
        let len = self.current.len() + ahead;
        (len, Some(len))
    }
}

impl<T> ExactSizeIterator for Staged<'_, T> {}

impl<T: Clone> Staged<'_, T> {
    /// The items, cloned into a vector of exactly their number (`collect`
    /// rounds a short vector up to four slots).
    pub fn to_vec(self) -> Vec<T> {
        let mut items = Vec::with_capacity(self.len());
        items.extend(self.cloned());
        items
    }
}

impl<'a> PlanView<'a, WriteOp> {
    /// True if the transaction spans more than one shard.
    pub fn is_cross_shard(self) -> bool {
        self.shape.shards.len() > 1
    }

    /// The stage-attribution path tag for this plan's write route
    /// (`"write-single"` / `"write-cross"`) — a `&'static str` so span
    /// tables can key on it without allocating.
    pub fn path_tag(self) -> &'static str {
        if self.is_cross_shard() {
            "write-cross"
        } else {
            "write-single"
        }
    }

    /// What `site` stages, in staging order, if the plan names it: as a
    /// group member, the union of the write sets of every involved shard
    /// whose replica group contains it (a flat plan: the spec's write set
    /// for it); as an out-of-group replica, the same union — its **full**
    /// write set, which every ship to it carries.
    pub fn writes_at(self, site: SiteId) -> Option<Staged<'a, WriteOp>> {
        self.at(site)
    }

    /// The out-of-group replicas the decided outcome is shipped to,
    /// ascending.
    pub fn replicas(self) -> impl Iterator<Item = SiteId> + 'a {
        self.shape.members[self.shape.group.len()..].iter().map(|member| member.site)
    }

    /// Outcome shipping: the replicas `site` sends the decision to when it
    /// decides as an involved group's master (none for anyone else).
    pub fn ships_from(self, site: SiteId) -> &'a [SiteId] {
        let ships = self.shape.ships.iter().find(|(master, _)| *master == site);
        ships.map_or(&[], |(_, targets)| targets)
    }
}

impl<'a> PlanView<'a, Key> {
    /// True if the read spans more than one shard master.
    pub fn is_cross_shard(self) -> bool {
        self.shape.group.len() > 1
    }

    /// The stage-attribution path tag for this plan's read route
    /// (`"read-single"` / `"read-cross"`).
    pub fn path_tag(self) -> &'static str {
        if self.is_cross_shard() {
            "read-cross"
        } else {
            "read-single"
        }
    }

    /// The keys `site` snapshots — those of every involved shard it masters
    /// — if it serves this read.
    pub fn keys_at(self, site: SiteId) -> Option<Staged<'a, Key>> {
        self.at(site)
    }
}

/// One write transaction routed on its own (a one-row [`PlanTable`] without
/// the table).
#[derive(Debug)]
pub struct TxnPlan(Routed<WriteOp>);

impl TxnPlan {
    /// Routes `spec` through `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the write set is empty (nothing to route).
    pub fn compile(topology: &ShardTopology, spec: &ShardTxnSpec) -> TxnPlan {
        let mut routed = Routed::new();
        route_writes(&mut routed, topology, std::iter::once(spec));
        TxnPlan(routed)
    }

    /// The routing.
    pub fn view(&self) -> TxnView<'_> {
        self.0.view(&self.0.rows[0])
    }

    /// The protocol group's master (the top-level coordinator for
    /// cross-shard transactions).
    pub fn master(&self) -> SiteId {
        self.view().master()
    }
}

fn route_writes<'s>(
    routed: &mut Routed<WriteOp>,
    topology: &ShardTopology,
    specs: impl Iterator<Item = &'s ShardTxnSpec> + Clone,
) {
    let specs = specs.map(|spec| (spec.id, spec.writes.as_slice()));
    routed.route(topology, specs, |w| &w.key, RouteShape::write, "write set");
}

/// The compiled routing of a whole workload, shared read-only by every
/// site actor of the cluster.
#[derive(Debug)]
pub struct PlanTable {
    /// The shard map the plans were compiled against.
    pub topology: ShardTopology,
    writes: Routed<WriteOp>,
    reads: Routed<Key>,
}

impl PlanTable {
    /// Compiles every spec. Duplicate transaction ids are rejected.
    pub fn compile(topology: ShardTopology, specs: &[ShardTxnSpec]) -> PlanTable {
        PlanTable::route(topology, specs, [])
    }

    /// Compiles a workload of writes and read-only transactions. Ids must
    /// not repeat, nor collide between the two.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate or colliding id, and on an empty write or key
    /// set (nothing to route).
    pub fn route<'s>(
        topology: ShardTopology,
        txns: impl IntoIterator<Item = &'s ShardTxnSpec, IntoIter: Clone>,
        reads: impl IntoIterator<Item = &'s ShardReadSpec, IntoIter: Clone>,
    ) -> PlanTable {
        let mut table = PlanTable { topology, writes: Routed::new(), reads: Routed::new() };
        route_writes(&mut table.writes, &table.topology, txns.into_iter());
        let reads = reads.into_iter().map(|spec| (spec.id, spec.keys.as_slice()));
        table.reads.route(&table.topology, reads, |key| key, RouteShape::read, "key set");
        table.index();
        table
    }

    /// Lowers a flat, fully-replicated workload over `n` sites: one
    /// all-sites group with site 0 master of every transaction, each site's
    /// write set taken from the spec untouched (a site the spec leaves out
    /// still votes, with nothing to stage), no outcome shipping; every read
    /// served by site 0 alone. Duplicate or colliding ids are rejected.
    pub fn flat(
        n: usize,
        txns: impl IntoIterator<Item = TxnSpec>,
        reads: impl IntoIterator<Item = ReadSpec>,
    ) -> PlanTable {
        let topology = ShardTopology::uniform(n, 1, n);
        let mut table = PlanTable { topology, writes: Routed::new(), reads: Routed::new() };
        table.writes.shapes.push(RouteShape::flat(n));
        for TxnSpec { id, mut writes } in txns {
            table.writes.begin(id, 0);
            for site in 0..n as u16 {
                table.writes.items.extend(writes.remove(&site).unwrap_or_default());
                table.writes.end_segment();
            }
        }
        table.reads.shapes.push(RouteShape::flat(1));
        for ReadSpec { id, keys } in reads {
            table.reads.begin(id, 0);
            table.reads.items.extend(keys);
            table.reads.end_segment();
        }
        table.index();
        table
    }

    /// Ends a build: sorts both sides by id and rejects ids used twice.
    fn index(&mut self) {
        if let Some(id) = self.writes.index() {
            panic!("duplicate {id}");
        }
        if let Some(id) = self.reads.index() {
            panic!("duplicate read {id}");
        }
        if let Some(row) = self.reads.rows.iter().find(|row| self.get(row.id).is_some()) {
            panic!("read id collides with write {}", row.id);
        }
    }

    /// The plan of `txn`, if the workload contains it.
    #[inline]
    pub fn get(&self, txn: TxnId) -> Option<TxnView<'_>> {
        self.writes.get(txn)
    }

    /// True if any plan ships its outcome to out-of-group replicas.
    pub fn ships(&self) -> bool {
        self.writes.shapes.iter().any(|shape| !shape.ships.is_empty())
    }

    /// All plans, ascending by transaction id.
    pub fn iter(&self) -> impl Iterator<Item = (TxnId, TxnView<'_>)> {
        self.writes.iter()
    }

    /// The read plan of `txn`, if the read workload contains it.
    #[inline]
    pub fn get_read(&self, txn: TxnId) -> Option<ReadView<'_>> {
        self.reads.get(txn)
    }

    /// The site `txn` is submitted at — its write or read plan's master —
    /// if the workload contains it.
    pub fn master_of(&self, txn: TxnId) -> Option<SiteId> {
        self.get(txn).map(PlanView::master).or_else(|| self.get_read(txn).map(PlanView::master))
    }

    /// All read plans, ascending by transaction id.
    pub fn iter_reads(&self) -> impl Iterator<Item = (TxnId, ReadView<'_>)> {
        self.reads.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Key, Value};
    use proptest::prelude::*;

    fn w(key: &str) -> WriteOp {
        WriteOp { key: Key::from(key), value: Value::from_u64(1) }
    }

    /// A key that routes to `shard` under `topo` (probed deterministically).
    fn key_in(topo: &ShardTopology, shard: usize) -> WriteOp {
        for i in 0..256 {
            let k = format!("probe-{i}");
            if topo.shard_of(&Key::from(k.as_str())) == shard {
                return w(&k);
            }
        }
        panic!("no probe key found for shard {shard}");
    }

    fn write_plan(topo: &ShardTopology, id: u32, shards: &[usize]) -> TxnPlan {
        let writes = shards.iter().map(|&s| key_in(topo, s)).collect();
        TxnPlan::compile(topo, &ShardTxnSpec { id: TxnId(id), writes })
    }

    fn read_table(topo: &ShardTopology, id: u32, shards: &[usize]) -> PlanTable {
        let keys = shards.iter().map(|&s| key_in(topo, s).key).collect();
        PlanTable::route(topo.clone(), [], [&ShardReadSpec { id: TxnId(id), keys }])
    }

    /// What `site` stages under `plan` (`None`: the plan does not name it).
    fn staged(plan: TxnView<'_>, site: u16) -> Option<Vec<WriteOp>> {
        plan.writes_at(SiteId(site)).map(|writes| writes.cloned().collect())
    }

    fn served(plan: ReadView<'_>, site: u16) -> Option<Vec<Key>> {
        plan.keys_at(SiteId(site)).map(|keys| keys.cloned().collect())
    }

    #[test]
    fn a_row_is_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Row>(), 16);
    }

    #[test]
    fn single_shard_txn_runs_in_its_replica_group() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let plan = write_plan(&topo, 1, &[1]);
        let view = plan.view();
        assert!(!view.is_cross_shard());
        assert_eq!(view.group(), [SiteId(2), SiteId(3)]);
        assert_eq!(plan.master(), SiteId(2));
        // Every group member stages the full shard write set; nothing ships.
        assert_eq!(staged(view, 2), Some(vec![key_in(&topo, 1)]));
        assert_eq!(staged(view, 2), staged(view, 3));
        assert_eq!(staged(view, 0), None);
        assert_eq!(view.replicas().count(), 0);
        assert!(view.ships_from(SiteId(2)).is_empty());
        assert_eq!(view.virtual_of(SiteId(3)), Some(1));
        assert_eq!(view.virtual_of(SiteId(0)), None);
        assert_eq!(view.path_tag(), "write-single");
    }

    #[test]
    fn path_tags_follow_the_route_shape() {
        let topo = ShardTopology::uniform(6, 3, 2);
        assert_eq!(write_plan(&topo, 9, &[0, 2]).view().path_tag(), "write-cross");
        let single = read_table(&topo, 10, &[0]);
        assert_eq!(single.get_read(TxnId(10)).unwrap().path_tag(), "read-single");
        let multi = read_table(&topo, 11, &[0, 2]);
        assert_eq!(multi.get_read(TxnId(11)).unwrap().path_tag(), "read-cross");
    }

    #[test]
    fn cross_shard_txn_coordinates_over_masters_and_ships_to_replicas() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let plan = write_plan(&topo, 2, &[0, 2]);
        let view = plan.view();
        assert!(view.is_cross_shard());
        assert_eq!(view.shards(), [0, 2]);
        // Coordinator = master of the lowest involved shard.
        assert_eq!(view.group(), [SiteId(0), SiteId(4)]);
        // Each master stages only its own shard's writes here (disjoint
        // groups), and ships its out-of-group replica that replica's full
        // planned write set.
        assert_eq!(staged(view, 0), Some(vec![key_in(&topo, 0)]));
        assert_eq!(staged(view, 4), Some(vec![key_in(&topo, 2)]));
        assert_eq!(view.ships_from(SiteId(0)), [SiteId(1)]);
        assert_eq!(view.ships_from(SiteId(4)), [SiteId(5)]);
        assert_eq!(view.replicas().collect::<Vec<_>>(), [SiteId(1), SiteId(5)]);
        assert_eq!(staged(view, 1), staged(view, 0));
        assert_eq!(staged(view, 5), staged(view, 4));
    }

    #[test]
    fn writes_are_staged_by_shard_then_in_submission_order() {
        // Site 0 masters shards 0 and 2 (3 shards × 2 replicas over 4
        // sites): it stages shard 0's writes, then shard 2's, each in the
        // order the spec lists them — whatever order the spec mixes them in.
        let topo = ShardTopology::uniform(4, 3, 2);
        let in_shard = |shard, nth| {
            let keys = (0..512).map(|i| Key::from(format!("probe-{i}")));
            let key = keys.filter(|k| topo.shard_of(k) == shard).nth(nth).expect("probe key");
            WriteOp { key, value: Value::from_u64(nth as u64) }
        };
        let (a0, a1, c0, c1) = (in_shard(0, 0), in_shard(0, 1), in_shard(2, 0), in_shard(2, 1));
        let writes = vec![c1.clone(), a1.clone(), c0.clone(), a0.clone()];
        let plan = TxnPlan::compile(&topo, &ShardTxnSpec { id: TxnId(1), writes });
        assert_eq!(
            staged(plan.view(), 0),
            Some(vec![a1.clone(), a0.clone(), c1.clone(), c0.clone()])
        );
        // The arena holds the whole write set in that same order.
        assert_eq!(plan.view().items(), [a1, a0, c1, c0]);
    }

    #[test]
    fn what_a_site_stages_knows_its_length_at_every_step() {
        // Site 0 stages two segments of two writes.
        let topo = ShardTopology::uniform(4, 3, 2);
        let plan = write_plan(&topo, 1, &[0, 0, 2, 2]);
        let mut at_zero = plan.view().writes_at(SiteId(0)).expect("a member");
        for left in (1..=4).rev() {
            assert_eq!(at_zero.len(), left);
            assert!(at_zero.next().is_some());
        }
        assert_eq!((at_zero.len(), at_zero.next()), (0, None));
        // Copied out, a short write set costs its own length, not four slots.
        let single = write_plan(&topo, 2, &[1]);
        let sent = single.view().writes_at(SiteId(3)).expect("shard 1's replica").to_vec();
        assert_eq!((sent.len(), sent.capacity()), (1, 1));
    }

    #[test]
    fn overlapping_groups_deduplicate_masters_and_union_writes() {
        // Shards 0 and 2 share master 0 (3 shards × 2 replicas over 4 sites).
        let topo = ShardTopology::uniform(4, 3, 2);
        assert_eq!(topo.master(0), topo.master(2));
        let plan = write_plan(&topo, 3, &[0, 2]);
        let view = plan.view();
        assert_eq!(view.group(), [SiteId(0)], "shared master listed once");
        // The shared master stages both shards' writes.
        assert_eq!(staged(view, 0).unwrap().len(), 2);
        // Site 1 replicates both shards but sits outside the top-level
        // group: it is listed ONCE as a ship target, and the single ship
        // carries both shards' writes (a per-shard ship would be dropped as
        // a duplicate by the replica after the first one installed).
        assert_eq!(view.ships_from(SiteId(0)), [SiteId(1)]);
        assert_eq!(staged(view, 1).unwrap().len(), 2);
    }

    #[test]
    fn replica_of_two_masters_gets_the_full_union_from_each() {
        // Shards 0 = {0, 3} and 1 = {2, 3}: replica 3 serves both involved
        // shards but masters 0 and 2 differ. Each master lists 3 as a
        // target, and both ships carry the complete two-shard union — so
        // whichever arrives first installs everything and the other is a
        // true duplicate.
        let topo =
            ShardTopology::new(4, vec![vec![SiteId(0), SiteId(3)], vec![SiteId(2), SiteId(3)]]);
        let plan = write_plan(&topo, 5, &[0, 1]);
        let view = plan.view();
        assert_eq!(view.group(), [SiteId(0), SiteId(2)]);
        assert_eq!(view.ships_from(SiteId(0)), [SiteId(3)]);
        assert_eq!(view.ships_from(SiteId(2)), [SiteId(3)]);
        assert_eq!(staged(view, 3).unwrap().len(), 2, "each ship carries both shards");
    }

    #[test]
    fn participant_in_two_involved_groups_is_not_shipped_to() {
        // Shard 1 = {2,3}, shard 2 = {0,1} under this wrap-around layout:
        // make site 0 both shard-2 master and a shard-1 replica by hand.
        let topo =
            ShardTopology::new(4, vec![vec![SiteId(2), SiteId(3)], vec![SiteId(0), SiteId(2)]]);
        let plan = write_plan(&topo, 4, &[0, 1]);
        let view = plan.view();
        assert_eq!(view.group(), [SiteId(2), SiteId(0)]);
        // Site 2 masters shard 0 and replicates shard 1: it stages both
        // write sets as a participant, so shard 1's master must not ship
        // to it — only to site 3 (shard 0's true out-of-group replica).
        assert_eq!(staged(view, 2).unwrap().len(), 2);
        assert!(view.ships_from(SiteId(0)).is_empty(), "no out-of-group replica for shard 1");
        assert_eq!(view.ships_from(SiteId(2)), [SiteId(3)]);
        assert_eq!(staged(view, 3).unwrap().len(), 1, "site 3 serves only shard 0");
    }

    #[test]
    fn plan_table_compiles_and_indexes_whatever_the_spec_order() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let specs = vec![
            ShardTxnSpec { id: TxnId(7), writes: vec![key_in(&topo, 1), key_in(&topo, 2)] },
            ShardTxnSpec { id: TxnId(1), writes: vec![key_in(&topo, 0)] },
            ShardTxnSpec { id: TxnId(4), writes: vec![key_in(&topo, 0)] },
        ];
        let table = PlanTable::compile(topo.clone(), &specs);
        assert!(table.get(TxnId(9)).is_none());
        assert_eq!(table.iter().map(|(id, _)| id.0).collect::<Vec<_>>(), [1, 4, 7]);
        assert!(table.ships());
        assert_eq!(table.master_of(TxnId(7)), Some(SiteId(2)));
        // Two plans over shard 0 share one shape; each keeps its own writes.
        assert_eq!(table.writes.shapes.len(), 2);
        assert_eq!(staged(table.get(TxnId(4)).unwrap(), 1), Some(vec![key_in(&topo, 0)]));
        assert_eq!(staged(table.get(TxnId(7)).unwrap(), 4), Some(vec![key_in(&topo, 2)]));
        assert!(!PlanTable::compile(topo, &specs[1..]).ships());
    }

    #[test]
    fn flat_lowering_keeps_site_addressed_writes_in_one_all_sites_group() {
        // Site 0 is left out of the spec and site 2 has nothing to write:
        // both still sit in the group, with nothing to stage.
        let writes = [(1, vec![w("a"), w("b")]), (2, vec![])].into();
        let spec = TxnSpec { id: TxnId(1), writes };
        let read = ReadSpec { id: TxnId(9), keys: vec![Key::from("a"), Key::from("absent")] };
        let table = PlanTable::flat(3, [spec], [read.clone()]);
        let plan = table.get(TxnId(1)).unwrap();
        assert_eq!(plan.group(), [SiteId(0), SiteId(1), SiteId(2)]);
        assert_eq!(staged(plan, 0), Some(vec![]));
        assert_eq!(staged(plan, 1), Some(vec![w("a"), w("b")]));
        assert_eq!(staged(plan, 2), Some(vec![]));
        assert_eq!(staged(plan, 3), None);
        assert!(!plan.is_cross_shard() && plan.replicas().count() == 0 && !table.ships());
        // The key router reaches the same group over the one-shard topology.
        let routed = ShardTxnSpec { id: TxnId(1), writes: vec![w("a")] };
        assert_eq!(TxnPlan::compile(&table.topology, &routed).view().group(), plan.group());
        // Reads are served by the master alone: no protocol round.
        let reader = table.get_read(TxnId(9)).unwrap();
        assert_eq!(reader.group(), [SiteId(0)]);
        assert_eq!(served(reader, 0), Some(read.keys));
        assert_eq!(table.master_of(TxnId(9)), Some(SiteId(0)));
    }

    #[test]
    fn single_shard_read_is_served_by_its_master_alone() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let table = read_table(&topo, 10, &[1]);
        let plan = table.get_read(TxnId(10)).unwrap();
        assert!(!plan.is_cross_shard());
        assert_eq!(plan.group(), [SiteId(2)], "master only — no protocol round");
        assert_eq!(served(plan, 2), Some(vec![key_in(&topo, 1).key]));
        assert_eq!(served(plan, 3), None, "replicas never serve reads");
    }

    #[test]
    fn cross_shard_read_coordinates_over_involved_masters() {
        let topo = ShardTopology::uniform(6, 3, 2);
        let table = read_table(&topo, 11, &[0, 2]);
        let plan = table.get_read(TxnId(11)).unwrap();
        assert!(plan.is_cross_shard());
        assert_eq!(plan.group(), [SiteId(0), SiteId(4)]);
        assert_eq!(plan.master(), SiteId(0));
        assert_eq!(served(plan, 0), Some(vec![key_in(&topo, 0).key]));
        assert_eq!(served(plan, 4), Some(vec![key_in(&topo, 2).key]));
        assert_eq!(plan.virtual_of(SiteId(4)), Some(1));
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn read_id_colliding_with_write_id_rejected() {
        let topo = ShardTopology::uniform(4, 2, 2);
        let write = ShardTxnSpec { id: TxnId(1), writes: vec![key_in(&topo, 0)] };
        let read = ShardReadSpec { id: TxnId(1), keys: vec![key_in(&topo, 0).key] };
        let _ = PlanTable::route(topo, [&write], [&read]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_txn_ids_rejected() {
        let topo = ShardTopology::uniform(4, 2, 2);
        let specs = vec![
            ShardTxnSpec { id: TxnId(1), writes: vec![w("a")] },
            ShardTxnSpec { id: TxnId(1), writes: vec![w("b")] },
        ];
        let _ = PlanTable::compile(topo, &specs);
    }

    /// The lookup [`Routed::get`] made before it guessed rows, kept
    /// verbatim as the oracle of its replacement.
    fn searched<T>(routed: &Routed<T>, id: TxnId) -> Option<PlanView<'_, T>> {
        let at = routed.rows.binary_search_by_key(&id, |row| row.id).ok()?;
        Some(routed.view(&routed.rows[at]))
    }

    /// Which plan a lookup found: its place in the arena, its length, its
    /// master.
    fn found<T>(view: Option<PlanView<'_, T>>) -> Option<(*const T, usize, SiteId)> {
        view.map(|view| (view.items().as_ptr(), view.items().len(), view.master()))
    }

    /// The ids of one property case, ascending: `shape` 0 dense, 1 gapped,
    /// 2 dense plus one far outlier, 3 gapped up to `u32::MAX`, 4 a single
    /// id.
    fn case_ids(shape: u8, start: u32, gaps: &[u32], far: u32) -> Vec<u32> {
        let mut ids: Vec<u32> = match shape {
            0 => (0..gaps.len() as u32).map(|i| start + i).collect(),
            1 => {
                gaps.iter().scan(start, |at, gap| Some(std::mem::replace(at, *at + gap))).collect()
            }
            2 => {
                let mut ids: Vec<u32> = (0..gaps.len() as u32).map(|i| start + i).collect();
                ids.push(start + gaps.len() as u32 + 1_000_000 + far % 1_000_000_000);
                ids
            }
            3 => gaps
                .iter()
                .scan(u32::MAX, |at, gap| Some(std::mem::replace(at, *at - gap)))
                .collect(),
            _ => vec![start],
        };
        ids.sort_unstable();
        ids
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(debug_assertions) { 256 } else { 10_000 },
            ..ProptestConfig::default()
        })]

        /// `split` deals the ids out: 0 all writes, 1 all reads, 2 reads
        /// wherever a gap is odd (read ids inside the write range), 3 reads
        /// above the writes. Every id, its neighbours and both ends of the
        /// id space are looked up.
        #[test]
        fn plan_lookup_finds_what_the_binary_search_found(
            shape in 0u8..5,
            start in 0u32..5000,
            gaps in prop::collection::vec(1u32..40, 0..160),
            far in any::<u32>(),
            split in 0u8..4,
        ) {
            let topo = ShardTopology::uniform(4, 2, 2);
            let keys = [key_in(&topo, 0), key_in(&topo, 1)];
            let ids = case_ids(shape, start, &gaps, far);
            let read = |i: usize, id: u32| match split {
                0 => false,
                1 => true,
                2 => gaps.get(i).is_some_and(|gap| gap % 2 == 1) || id.is_multiple_of(3),
                _ => i >= ids.len() / 2,
            };
            let (mut txns, mut reads) = (Vec::new(), Vec::new());
            for (i, &id) in ids.iter().enumerate() {
                let key = keys[id as usize % 2].clone();
                match read(i, id) {
                    false => txns.push(ShardTxnSpec { id: TxnId(id), writes: vec![key] }),
                    true => reads.push(ShardReadSpec { id: TxnId(id), keys: vec![key.key] }),
                }
            }
            let table = PlanTable::route(topo, &txns, &reads);
            let around = ids.iter().flat_map(|&id| [id.checked_sub(1), Some(id), id.checked_add(1)]);
            for id in around.flatten().chain([0, u32::MAX]).map(TxnId) {
                let (write, read) = (searched(&table.writes, id), searched(&table.reads, id));
                prop_assert_eq!(found(table.get(id)), found(write));
                prop_assert_eq!(found(table.get_read(id)), found(read));
                let master = write.map(PlanView::master).or_else(|| read.map(PlanView::master));
                prop_assert_eq!(table.master_of(id), master);
            }
        }
    }
}
