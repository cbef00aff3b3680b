//! The four workloads, their set-up, and their output verification. They
//! drive the system through the facade only: `ClusterDatabase::{preprocess_file,
//! open, extract_with_options}`, `IsoServer::bind` and `Client::*`. Whatever
//! reaches below that is in `layers.rs`.

use crate::layers::{self, OpCounts};
use crate::pace::Pacer;
use crate::trace::Tracer;
use oociso::core::{ClusterDatabase, ExtractOptions, LodSpec};
use oociso::march::IndexedMesh;
use oociso::serve::{Client, IsoServer, MeshReply, ServeOptions, ServerReport};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExtractHot,
    ExtractSlowDisk,
    ServeHits,
    ServeScrub,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExtractHot,
        Workload::ExtractSlowDisk,
        Workload::ServeHits,
        Workload::ServeScrub,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExtractHot => "extract_hot",
            Workload::ExtractSlowDisk => "extract_slow_disk",
            Workload::ServeHits => "serve_hits",
            Workload::ServeScrub => "serve_scrub",
        }
    }

    /// Why the workload exists: which layers it loads and which it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ExtractHot => "In-process isovalue sweeps on the page-cache-hot mmap store: march (kernel, weld) and cluster (pipeline, merge) do nearly all the work; exio and serve almost none.",
            Workload::ExtractSlowDisk => "The same sweeps with every node's bricks behind a 500 us/call, 25 MB/s device: retrieval is most of the wall, so exio/itree read planning and cluster's overlap show; kernel gains barely do.",
            Workload::ServeHits => "Two closed-loop clients re-read 8 warmed isovalues from an in-process server (every 8th lod 0, else lod 2): serve does all the work; extraction and decimation are bypassed, so they must not move it.",
            Workload::ServeScrub => "A closed-loop scrub of never-seen isovalues under a cache half its working set, beside a 20 req/s open-loop reader of two hot ones: the whole miss path, with cache writes and evictions beside reads.",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_extract(self) -> bool {
        matches!(self, Workload::ExtractHot | Workload::ExtractSlowDisk)
    }
}

/// The paper's sweep: isovalues 10 … 210 in steps of 20.
pub fn sweep_isovalues() -> Vec<f32> {
    (0..=10).map(|i| 10.0 + 20.0 * i as f32).collect()
}

/// `serve_hits` re-reads these eight.
fn hit_isovalues() -> Vec<f32> {
    (0..8).map(|i| 90.0 + 5.0 * i as f32).collect()
}

/// `serve_scrub`'s reader keeps these two hot.
const HOT_PAIR: [f32; 2] = [60.0, 65.0];
const HOT_READS_PER_S: f64 = 20.0;
/// A `serve_hits` client reconnects (untimed) after this many requests. Each
/// reactor loop accepts from the shared listener, so which loop owns a
/// connection is a race; two clients on one loop read `hit_full_ms` 15 %
/// slower than on two, and a run that kept its first connections would
/// report that coin toss. Reconnecting makes a run average over placements.
const RECONNECT_EVERY: usize = 64;

/// `serve_scrub`'s `i`-th stop; every stop is a miss of similar cost.
fn scrub_isovalue(stop: usize) -> f32 {
    110.0 + 0.5 * stop as f32
}

/// A loop runs until `count` operations are done or, when `seconds` is set,
/// until that much time has passed (but never fewer than [`MIN_OPS`]).
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    pub count: usize,
    pub seconds: Option<f64>,
}

const MIN_OPS: usize = 3;

impl Limit {
    fn more(&self, done: usize, started: Instant) -> bool {
        done < self.count
            && self
                .seconds
                .is_none_or(|s| done < MIN_OPS || started.elapsed().as_secs_f64() < s)
    }
}

/// What one child process is asked to do.
pub struct Job {
    pub workload: Workload,
    /// Seeds the request generators (sweep order, which isovalue each client
    /// reads next). The volume itself is made by the parent.
    pub seed: u64,
    pub volume: PathBuf,
    pub work_dir: PathBuf,
    pub setup_reps: usize,
    pub sweeps: Limit,
    pub stops: Limit,
    /// Per closed-loop client.
    pub requests: Limit,
    /// `serve_scrub`'s cache budget, about half the scrub's working set.
    pub scrub_cache_bytes: u64,
}

impl Job {
    /// How often the workload's one-off preparation is repeated for its
    /// median: as often as the database set-up where it costs milliseconds
    /// (device wrapping), three times where it costs a sweep, once where it
    /// costs seconds and averages over many operations itself (cache warm-up).
    pub fn prepare_reps(&self) -> usize {
        match self.workload {
            Workload::ExtractSlowDisk => self.setup_reps,
            Workload::ExtractHot => 3,
            Workload::ServeHits | Workload::ServeScrub => 1,
        }
    }
}

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// splitmix64
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// What identifies a mesh: counts plus FNV-1a (64-bit, one step per 32-bit
/// word) over the position bit patterns followed by the indices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub triangles: u64,
    pub vertices: u64,
    pub fnv: u64,
}

pub fn digest(mesh: &IndexedMesh) -> Digest {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut step = |word: u32| h = (h ^ word as u64).wrapping_mul(0x0000_0100_0000_01b3);
    for p in mesh.positions() {
        step(p.x.to_bits());
        step(p.y.to_bits());
        step(p.z.to_bits());
    }
    mesh.indices().iter().copied().for_each(&mut step);
    Digest {
        triangles: mesh.len() as u64,
        vertices: mesh.num_vertices() as u64,
        fnv: h,
    }
}

/// One verified output, recorded per seed so two commits can be diffed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DigestRow {
    pub iso: f32,
    pub lod: u16,
    pub digest: Digest,
}

/// Operations attempted and failed (errors, refusals, wrong outputs).
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Count one operation; `Err` carries why it failed.
    fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(note) = outcome {
            self.fail(note);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// The database set-up, repeated: `preprocess_file` into a fresh directory,
/// then `open`. The last directory is kept for the workload.
pub struct SetUp {
    pub dir: PathBuf,
    pub preprocess_s: Vec<f64>,
    pub open_s: Vec<f64>,
}

impl SetUp {
    pub fn run(job: &Job) -> io::Result<SetUp> {
        let mut out = SetUp {
            dir: PathBuf::new(),
            preprocess_s: Vec::new(),
            open_s: Vec::new(),
        };
        for rep in 0..job.setup_reps {
            if rep > 0 {
                std::fs::remove_dir_all(&out.dir)?;
            }
            out.dir = job.work_dir.join(format!("db{rep}"));
            let t = Instant::now();
            let built = ClusterDatabase::<u8>::preprocess_file(
                &job.volume,
                &out.dir,
                &layers::preprocess_options(),
            )?;
            out.preprocess_s.push(t.elapsed().as_secs_f64());
            drop(built);
            let t = Instant::now();
            let opened = ClusterDatabase::<u8>::open(&out.dir, true)?;
            out.open_s.push(t.elapsed().as_secs_f64());
            drop(opened);
        }
        Ok(out)
    }

    /// Per repetition: preprocess plus open.
    pub fn database_s(&self) -> Vec<f64> {
        self.preprocess_s
            .iter()
            .zip(&self.open_s)
            .map(|(p, o)| p + o)
            .collect()
    }
}

/// Named timing samples, in the order the workload defines them.
pub type Samples = Vec<(&'static str, &'static str, Vec<f64>)>;

/// What a measured (or replayed) stretch of a workload produced.
#[derive(Default)]
pub struct Measured {
    /// `(name, unit, samples)`.
    pub samples: Samples,
    pub tally: Tally,
    /// Per traced operation (by request id): the composed extraction's own
    /// report. Only the extract workloads fill it.
    pub ops: BTreeMap<u64, OpCounts>,
}

impl Measured {
    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(&[], |(.., v)| v)
    }
}

/// One sweep-order extraction through the facade, returning digests.
fn reference_sweep(db: &ClusterDatabase<u8>) -> io::Result<Vec<Digest>> {
    sweep_isovalues()
        .into_iter()
        .map(|iso| Ok(digest(&db.extract(iso)?.mesh)))
        .collect()
}

/// `extract_hot` and `extract_slow_disk` once prepared.
pub struct Extractor {
    db: ClusterDatabase<u8>,
    reference: Vec<Digest>,
}

impl Extractor {
    /// Prepare the workload `reps` times (keeping the last), pushing how long
    /// each took onto `prepare_s`. Hot: open, then one warm-up sweep (which
    /// also yields the reference digests). Slow disk: the reference digests
    /// come from the hot store first, untimed, so the throttled sweeps are
    /// checked against `extract_hot`'s meshes; the preparation is open plus
    /// device wrapping.
    pub fn prepare(
        dir: &Path,
        slow_disk: bool,
        reps: usize,
        prepare_s: &mut Vec<f64>,
    ) -> io::Result<Extractor> {
        let hot_reference = match slow_disk {
            true => Some(reference_sweep(&ClusterDatabase::<u8>::open(dir, true)?)?),
            false => None,
        };
        let mut prepared = None;
        for _ in 0..reps.max(1) {
            drop(prepared.take());
            let t = Instant::now();
            let mut db = ClusterDatabase::<u8>::open(dir, true)?;
            let reference = match &hot_reference {
                Some(reference) => {
                    layers::throttle(&mut db, dir)?;
                    reference.clone()
                }
                None => reference_sweep(&db)?,
            };
            prepare_s.push(t.elapsed().as_secs_f64());
            prepared = Some(Extractor { db, reference });
        }
        Ok(prepared.expect("at least one repetition"))
    }

    pub fn digests(&self) -> Vec<DigestRow> {
        sweep_isovalues()
            .into_iter()
            .zip(&self.reference)
            .map(|(iso, &digest)| DigestRow {
                iso,
                lod: 0,
                digest,
            })
            .collect()
    }

    /// Sweeps until `limit`. With tracing on, each query is made through the
    /// two calls the facade's `extract_with_options` is made of, so that the
    /// extraction and the merge get a span each.
    pub fn sweeps(
        &self,
        limit: Limit,
        rng: &mut Rng,
        tr: &mut Tracer,
        first_request: u64,
    ) -> Measured {
        let isovalues = sweep_isovalues();
        let opts = ExtractOptions::default();
        let (mut sweep_s, mut query_max_ms) = (Vec::new(), Vec::new());
        let mut out = Measured::default();
        let started = Instant::now();
        while limit.more(sweep_s.len(), started) {
            let request = first_request + sweep_s.len() as u64;
            let mut order: Vec<usize> = (0..isovalues.len()).collect();
            rng.shuffle(&mut order);
            let (mut total, mut slowest) = (Duration::ZERO, Duration::ZERO);
            let mut counts = OpCounts::default();
            let sp_sweep = tr.root("op.sweep", request);
            for i in order {
                let iso = isovalues[i];
                let sp_query = tr.begin("op.query", sp_sweep, request);
                let t = Instant::now();
                let mesh = if tr.enabled() {
                    let sp = tr.begin("cluster.extract", sp_query, request);
                    let extraction = self.db.cluster().extract_with_options(iso, &opts);
                    tr.end(sp);
                    extraction.map(|e| {
                        let sp = tr.begin("cluster.merge", sp_query, request);
                        let (mesh, report) = e.into_merged();
                        tr.end(sp);
                        counts.absorb_report(&report);
                        mesh
                    })
                } else {
                    self.db.extract_with_options(iso, &opts).map(|r| r.mesh)
                };
                let took = t.elapsed();
                tr.end(sp_query);
                total += took;
                slowest = slowest.max(took);
                let sp = tr.begin("bench.verify", sp_sweep, request);
                out.tally.record(match mesh {
                    Err(e) => Err(format!("iso {iso}: {e}")),
                    Ok(mesh) if digest(&mesh) != self.reference[i] => {
                        Err(format!("iso {iso}: mesh differs from the reference sweep"))
                    }
                    Ok(_) => Ok(()),
                });
                tr.end(sp);
            }
            tr.end(sp_sweep);
            sweep_s.push(total.as_secs_f64());
            query_max_ms.push(slowest.as_secs_f64() * 1e3);
            if tr.enabled() {
                out.ops.insert(request, counts);
            }
        }
        out.samples = vec![
            ("sweep_s", "s", sweep_s),
            ("query_max_ms", "ms", query_max_ms),
        ];
        out
    }
}

/// The `oociso serve` defaults, slow-query log silenced.
fn serve_options(cache_bytes: Option<u64>) -> ServeOptions {
    let defaults = ServeOptions::default();
    ServeOptions {
        cache_bytes: cache_bytes.unwrap_or(defaults.cache_bytes),
        lod_ratios: LodSpec::pyramid().ratios,
        reactor_threads: 2,
        slow_ms: 0,
        ..defaults
    }
}

/// Check one served reply against what it has to be.
fn check_reply(
    reply: io::Result<MeshReply>,
    iso: f32,
    lod: u16,
    want_hit: bool,
    want: Option<Digest>,
) -> Result<Digest, String> {
    let at = format!("iso {iso} lod {lod}");
    let reply = reply.map_err(|e| format!("{at}: {e}"))?;
    let got = digest(&reply.mesh);
    if reply.cache_hit != want_hit {
        Err(format!("{at}: cache_hit is {}", reply.cache_hit))
    } else if reply.served_lod != lod || reply.degraded {
        Err(format!(
            "{at}: served lod {} degraded {}",
            reply.served_lod, reply.degraded
        ))
    } else if want.is_some_and(|w| w != got) {
        Err(format!("{at}: mesh differs from the expected one"))
    } else {
        Ok(got)
    }
}

/// What the load-generator threads share: where the server listens and what
/// its cached replies have to hash to.
#[derive(Clone, Copy)]
struct Target<'a> {
    addr: SocketAddr,
    warmed: &'a [f32],
    expected: &'a BTreeMap<(u32, u16), Digest>,
}

impl Target<'_> {
    fn connect(&self, tally: &mut Tally) -> Option<Client> {
        Client::connect(self.addr)
            .map_err(|e| tally.record(Err(format!("connect: {e}"))))
            .ok()
    }

    /// A seeded pick among the warmed isovalues and its expected digest.
    fn pick(&self, rng: &mut Rng, lod: u16) -> (f32, Option<Digest>) {
        let iso = self.warmed[rng.below(self.warmed.len())];
        (iso, self.expected.get(&(iso.to_bits(), lod)).copied())
    }
}

/// `serve_hits` and `serve_scrub` once prepared: the in-process server, a
/// second handle on the same database for reference extractions, and the
/// digests of everything the warm-up cached.
pub struct Served {
    server: Option<IsoServer>,
    reference: ClusterDatabase<u8>,
    warmed: Vec<f32>,
    /// Expected digest of `(isovalue bits, lod)`.
    expected: BTreeMap<(u32, u16), Digest>,
    pub cache_bytes: u64,
    scrub_digests: Vec<DigestRow>,
    next_stop: usize,
}

impl Served {
    /// Bind, then warm: one `lod = 0` query per warmed isovalue (a miss that
    /// builds and caches the whole pyramid), then one `lod = 2` read. Every
    /// `lod = 0` reply must be bit-identical to `ClusterDatabase::extract`.
    pub fn prepare(
        dir: &Path,
        workload: Workload,
        scrub_cache_bytes: u64,
    ) -> io::Result<(Served, f64, Tally)> {
        let (warmed, cache) = match workload {
            Workload::ServeScrub => (HOT_PAIR.to_vec(), Some(scrub_cache_bytes)),
            _ => (hit_isovalues(), None),
        };
        let reference = ClusterDatabase::<u8>::open(dir, true)?;
        let mut expected = BTreeMap::new();
        for &iso in &warmed {
            expected.insert((iso.to_bits(), 0), digest(&reference.extract(iso)?.mesh));
        }

        let t = Instant::now();
        let db = ClusterDatabase::<u8>::open(dir, true)?;
        let options = serve_options(cache);
        let cache_bytes = options.cache_bytes;
        let server = IsoServer::bind(db, "127.0.0.1:0", options)?;
        let mut client = Client::connect(server.addr())?;
        let mut tally = Tally::default();
        for &iso in &warmed {
            let reply = client.query_mesh(iso, None);
            let want = expected.get(&(iso.to_bits(), 0)).copied();
            tally.record(check_reply(reply, iso, 0, false, want).map(drop));
            match check_reply(client.query_mesh_lod(iso, None, 2), iso, 2, true, None) {
                Ok(coarse) => {
                    expected.insert((iso.to_bits(), 2), coarse);
                    tally.record(Ok(()));
                }
                Err(note) => tally.record(Err(note)),
            }
        }
        let prepared = t.elapsed().as_secs_f64();
        let served = Served {
            server: Some(server),
            reference,
            warmed,
            expected,
            cache_bytes,
            scrub_digests: Vec::new(),
            next_stop: 0,
        };
        Ok((served, prepared, tally))
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until stop").addr()
    }

    pub fn warmed(&self) -> &[f32] {
        &self.warmed
    }

    fn target(&self) -> Target<'_> {
        Target {
            addr: self.addr(),
            warmed: &self.warmed,
            expected: &self.expected,
        }
    }

    pub fn digests(&self) -> Vec<DigestRow> {
        let cached = self
            .expected
            .iter()
            .map(|(&(bits, lod), &digest)| DigestRow {
                iso: f32::from_bits(bits),
                lod,
                digest,
            });
        cached.chain(self.scrub_digests.iter().copied()).collect()
    }

    /// The server's own counters, then a graceful stop.
    pub fn stop(&mut self) -> io::Result<ServerReport> {
        let report = Client::connect(self.addr())?.stats();
        if let Some(server) = self.server.take() {
            server.stop();
        }
        report
    }

    /// `serve_hits`: two closed-loop clients, each drawing the next isovalue
    /// from its own seeded generator; every 8th request asks for `lod = 0`;
    /// a fresh connection every [`RECONNECT_EVERY`] requests.
    pub fn hits(&self, limit: Limit, seed: u64, tr: &mut Tracer, first_request: u64) -> Measured {
        let started = Instant::now();
        let target = self.target();
        let client_loop = |client_no: u64, tr: &mut Tracer| {
            let mut rng = Rng::new(seed ^ (client_no + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let (mut full_ms, mut coarse_ms) = (Vec::new(), Vec::new());
            let mut tally = Tally::default();
            let Some(mut client) = target.connect(&mut tally) else {
                return (full_ms, coarse_ms, tally);
            };
            let mut done = 0usize;
            while limit.more(done, started) {
                if done > 0 && done % RECONNECT_EVERY == 0 {
                    match target.connect(&mut tally) {
                        Some(fresh) => client = fresh,
                        None => break,
                    }
                }
                let full = done % 8 == 7;
                let lod = if full { 0 } else { 2 };
                let (iso, want) = target.pick(&mut rng, lod);
                let request = first_request + client_no * 1_000_000 + done as u64;
                let sp = tr.root(if full { "op.hit_full" } else { "op.hit_coarse" }, request);
                let t = Instant::now();
                let reply = client.query_mesh_lod(iso, None, lod);
                let took = t.elapsed().as_secs_f64() * 1e3;
                tr.end(sp);
                if full { &mut full_ms } else { &mut coarse_ms }.push(took);
                tally.record(check_reply(reply, iso, lod, true, want).map(drop));
                done += 1;
            }
            (full_ms, coarse_ms, tally)
        };
        let mut other = tr.sibling();
        let (a, b) = std::thread::scope(|scope| {
            let second = scope.spawn(|| client_loop(1, &mut other));
            let first = client_loop(0, tr);
            (first, second.join().expect("client thread panicked"))
        });
        tr.absorb(other);
        let mut out = Measured::default();
        let (mut full_ms, mut coarse_ms) = (a.0, a.1);
        full_ms.extend(b.0);
        coarse_ms.extend(b.1);
        out.tally.absorb(a.2);
        out.tally.absorb(b.2);
        out.samples = vec![
            ("hit_full_ms", "ms", full_ms),
            ("hit_coarse_ms", "ms", coarse_ms),
        ];
        out
    }

    /// `serve_scrub`: client A scrubs never-seen isovalues at `lod = 0`, closed
    /// loop, no dwell; client B re-reads the hot pair at `lod = 2` on a fixed
    /// 20 req/s schedule, timed from each request's due time, until A is done.
    /// Each stop's reply is then checked against an in-process extraction.
    pub fn scrub(
        &mut self,
        limit: Limit,
        seed: u64,
        tr: &mut Tracer,
        first_request: u64,
    ) -> Measured {
        let first_stop = self.next_stop;
        let done = AtomicBool::new(false);
        let target = self.target();
        let mut other = tr.sibling();
        let (a, b) = std::thread::scope(|scope| {
            let reader = scope
                .spawn(|| hot_reader(target, seed, &done, &mut other, first_request + 1_000_000));
            let scrubbed = scrubber(target, limit, first_stop, tr, first_request);
            done.store(true, Ordering::SeqCst);
            (scrubbed, reader.join().expect("reader thread panicked"))
        });
        tr.absorb(other);
        let (miss_ms, replies, mut tally) = a;
        let (beside_ms, late_ms, reader_tally) = b;
        tally.absorb(reader_tally);
        for (iso, got) in replies {
            match self.reference.extract(iso) {
                Ok(r) if digest(&r.mesh) == got => {}
                Ok(_) => tally.fail(format!(
                    "iso {iso}: served mesh differs from ClusterDatabase::extract"
                )),
                Err(e) => tally.fail(format!("iso {iso}: reference extraction: {e}")),
            }
            self.scrub_digests.push(DigestRow {
                iso,
                lod: 0,
                digest: got,
            });
        }
        self.next_stop += miss_ms.len();
        Measured {
            samples: vec![
                ("miss_ms", "ms", miss_ms),
                ("hit_beside_miss_ms", "ms", beside_ms),
                ("generator_lateness_ms", "ms", late_ms),
            ],
            tally,
            ops: BTreeMap::new(),
        }
    }

    /// The stops this and earlier calls to [`Served::scrub`] visited since `from`.
    pub fn stops_since(&self, from: usize) -> Vec<f32> {
        (from..self.next_stop).map(scrub_isovalue).collect()
    }

    pub fn next_stop(&self) -> usize {
        self.next_stop
    }
}

fn scrubber(
    target: Target,
    limit: Limit,
    first_stop: usize,
    tr: &mut Tracer,
    first_request: u64,
) -> (Vec<f64>, Vec<(f32, Digest)>, Tally) {
    let (mut miss_ms, mut replies, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    let Some(mut client) = target.connect(&mut tally) else {
        return (miss_ms, replies, tally);
    };
    let started = Instant::now();
    while limit.more(miss_ms.len(), started) {
        let iso = scrub_isovalue(first_stop + miss_ms.len());
        let sp = tr.root("op.miss", first_request + miss_ms.len() as u64);
        let t = Instant::now();
        let reply = client.query_mesh(iso, None);
        miss_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(sp);
        tally.record(check_reply(reply, iso, 0, false, None).map(|got| replies.push((iso, got))));
    }
    (miss_ms, replies, tally)
}

fn hot_reader(
    target: Target,
    seed: u64,
    done: &AtomicBool,
    tr: &mut Tracer,
    first_request: u64,
) -> (Vec<f64>, Vec<f64>, Tally) {
    let (mut beside_ms, mut late_ms, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    let Some(mut client) = target.connect(&mut tally) else {
        return (beside_ms, late_ms, tally);
    };
    let mut rng = Rng::new(seed);
    let pacer = Pacer::per_second(HOT_READS_PER_S);
    let started = Instant::now();
    for k in 0u64.. {
        std::thread::sleep(pacer.wait(k, started.elapsed()));
        if done.load(Ordering::SeqCst) {
            break;
        }
        let (iso, want) = target.pick(&mut rng, 2);
        let sp = tr.root("op.hit_beside_miss", first_request + k);
        let sent = started.elapsed();
        let reply = client.query_mesh_lod(iso, None, 2);
        let sample = pacer.sample(k, sent, started.elapsed());
        tr.end(sp);
        beside_ms.push(sample.latency.as_secs_f64() * 1e3);
        late_ms.push(sample.lateness.as_secs_f64() * 1e3);
        tally.record(check_reply(reply, iso, 2, true, want).map(drop));
    }
    (beside_ms, late_ms, tally)
}

/// `VmHWM` of this process in MB — the out-of-core claim is a memory claim.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
