//! The serving workloads: an open-loop Poisson load against `RagServer`
//! over a 4-shard IVF-PQ pipeline, then (traced runs) a layer pass that
//! replays the same request stream straight through each layer.

use crate::procfs;
use crate::stats::{self, RungOutcome, Zipf};
use crate::{Clock, Metric, Outcome};
use gpu_sim::{DeviceSpec, GpuCluster, LinkKind};
use sagegpu_rag::corpus::Corpus;
use sagegpu_rag::index::{RetrievalIndex, SearchHit};
use sagegpu_rag::pipeline::{build_sharded_pipeline, RagPipeline};
use sagegpu_rag::pq::PqConfig;
use sagegpu_rag::serve::{RagServer, ResponseHandle, ServeError, ServerConfig};
use sagegpu_rag::shard::{Placement, ShardPlan, ShardedIndex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use taskflow::ClusterBuilder;

const DIM: usize = 96;
const SHARDS: usize = 4;
/// Corpus, embedder and index training seed. Fixed, so the index is the
/// same on every run; `--seed` varies only the request stream.
const BUILD_SEED: u64 = 7;
const QUERY_WORDS: usize = 6;
/// Distinct query texts the hot workload's Zipf draws index into.
const HOT_POOL: usize = 2048;
/// The reference rate: every serving metric except the ladder's is taken
/// here, where both serving workloads keep up.
const REF_RATE: f64 = 1000.0;
/// Rungs above the reference rate, climbed until one misses the SLO.
const LADDER_UP: [f64; 4] = [2000.0, 4000.0, 8000.0, 16000.0];
/// Rungs below it, tried only when the reference rung itself misses.
const LADDER_DOWN: [f64; 2] = [500.0, 250.0];
/// Unmeasured traffic at the reference rate before anything is timed, so
/// the retrieval cache and residency tier reach their steady state.
const WARMUP_S: f64 = 1.0;
/// Each rung line also prints the p99 of every window this many ns long
/// (2 000 requests at the reference rate, 20 beyond the p99), which shows
/// whether a run's tail came from one stall or from the whole rung.
const P99_WINDOW_NS: u64 = 2_000_000_000;
/// Builds per untraced run; `setup_s` is their median. The first doubles
/// as the correctness reference, the last is served.
const SETUPS: usize = 3;
/// Micro-batches the traced run's layer pass replays.
const LAYER_BATCHES: usize = 200;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 4 000 docs, fully resident, Zipf draws over a fixed query pool.
    Hot,
    /// 20 000 docs under a 25 % list-code budget, every query text fresh.
    Cold,
}

impl Kind {
    fn docs(self) -> usize {
        match self {
            Kind::Hot => 4_000,
            Kind::Cold => 20_000,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Hot => "rag-hot",
            Kind::Cold => "rag-cold",
        }
    }
}

fn plan() -> ShardPlan {
    ShardPlan {
        nlist: 64,
        nprobe: 8,
        pq: PqConfig::new(16, 6),
        sample: 2048,
        shards: SHARDS,
        refine: 16,
        placement: Placement::SizeBalanced,
        budget_bytes: None,
    }
}

type Pipeline = RagPipeline<ShardedIndex>;

struct Deployment {
    gpus: Arc<GpuCluster>,
    pipeline: Arc<Pipeline>,
    server: RagServer<ShardedIndex>,
    max_batch: usize,
}

/// Builds corpus, embeddings and index on a fresh 4-GPU cluster and starts
/// a server over them with the workload's configuration.
fn deploy(kind: Kind) -> Result<Deployment, String> {
    let gpus = Arc::new(GpuCluster::homogeneous(
        SHARDS,
        DeviceSpec::t4(),
        LinkKind::Pcie,
    ));
    let pipeline = Arc::new(
        build_sharded_pipeline(kind.docs(), DIM, plan(), Arc::clone(&gpus), BUILD_SEED)
            .map_err(|e| format!("pipeline build failed: {e}"))?,
    );
    let mut cfg = ServerConfig::new();
    if kind == Kind::Cold {
        let code_bytes = pipeline
            .index
            .residency_stats()
            .ok_or("a GPU-attached index reports residency")?
            .list_bytes;
        cfg = cfg.residency_budget(code_bytes / 4);
    }
    let max_batch = cfg.max_batch;
    let server = RagServer::start(
        Arc::clone(&pipeline),
        ClusterBuilder::new().workers(1).build(),
        cfg,
    );
    Ok(Deployment {
        gpus,
        pipeline,
        server,
        max_batch,
    })
}

/// Draws each rung's queries from its own seeded stream.
struct QuerySource {
    kind: Kind,
    pool: Vec<String>,
    hot: Zipf,
    topics: Zipf,
}

impl QuerySource {
    fn new(kind: Kind) -> Self {
        let pool = match kind {
            Kind::Hot => (0..HOT_POOL)
                .map(|j| Corpus::topic_query(j % Corpus::num_topics(), QUERY_WORDS, j as u64))
                .collect(),
            Kind::Cold => Vec::new(),
        };
        QuerySource {
            kind,
            pool,
            hot: Zipf::new(HOT_POOL),
            topics: Zipf::new(Corpus::num_topics()),
        }
    }

    fn draw(&self, state: &mut u64) -> String {
        match self.kind {
            Kind::Hot => self.pool[self.hot.sample(state)].clone(),
            Kind::Cold => {
                let topic = self.topics.sample(state);
                Corpus::topic_query(topic, QUERY_WORDS, stats::splitmix64(state))
            }
        }
    }

    /// `(due ns, query)` pairs of a Poisson rung at `rate` lasting
    /// `seconds`, from the rung's own seed.
    fn rung(&self, seed: u64, rung: u64, rate: f64, seconds: f64) -> Vec<(u64, String)> {
        let mut state = seed ^ rung.wrapping_mul(0xa076_1d64_78bd_642f);
        let arrivals = stats::splitmix64(&mut state);
        let due = stats::poisson_schedule(arrivals, rate, (seconds * 1e9) as u64);
        due.into_iter()
            .map(|t| (t, self.draw(&mut state)))
            .collect()
    }
}

enum Reply {
    Served {
        latency_ns: u64,
        hits: Vec<SearchHit>,
        service_ns: u64,
        request_id: u64,
    },
    Shed,
    Failed,
}

/// Raw record of one open-loop rung, before the correctness check.
struct Rung {
    rate: f64,
    due_ns: Vec<u64>,
    queries: Vec<String>,
    replies: Vec<Reply>,
    late_ms: Vec<f64>,
    backlog_at_end: u64,
    cpu_s: f64,
    sim_ns: u64,
}

impl Rung {
    fn served(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.replies.iter().filter_map(|r| match r {
            Reply::Served {
                service_ns,
                request_id,
                ..
            } => Some((service_ns, request_id)),
            _ => None,
        })
    }
}

/// Drives one rung: a submitter thread sends each request at its due time
/// and a completion thread consumes the handles in admission order,
/// stamping each response. Latency runs from the *due* time, so a stall
/// counts against every request queued behind it.
fn run_rung(d: &Deployment, rate: f64, requests: Vec<(u64, String)>) -> Result<Rung, String> {
    let n = requests.len();
    let completed = AtomicU64::new(0);
    let cpu0 = procfs::cpu_seconds()?;
    let sim0 = d.gpus.makespan_ns();
    let (tx, rx) = mpsc::channel::<(usize, Instant, ResponseHandle)>();
    let start = Instant::now();
    let (submitted, answered) = std::thread::scope(|s| {
        let completion = s.spawn(|| {
            let mut out: Vec<(usize, Reply)> = Vec::with_capacity(n);
            for (i, due, handle) in rx {
                let reply = match handle.wait() {
                    Ok(served) => Reply::Served {
                        latency_ns: due.elapsed().as_nanos() as u64,
                        service_ns: served.response.total_ns(),
                        hits: served.response.hits,
                        request_id: served.request_id,
                    },
                    Err(_) => Reply::Failed,
                };
                completed.fetch_add(1, Ordering::Relaxed);
                out.push((i, reply));
            }
            out
        });
        let submitter = s.spawn(|| {
            let mut late_ms = Vec::with_capacity(n);
            let mut refused: Vec<(usize, Reply)> = Vec::new();
            let mut sent = 0u64;
            for (i, (due_ns, query)) in requests.iter().enumerate() {
                let due = start + Duration::from_nanos(*due_ns);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                match d.server.submit(query.clone()) {
                    Ok(handle) => {
                        sent += 1;
                        tx.send((i, due, handle)).expect("completion thread alive");
                    }
                    Err(ServeError::Overloaded { .. }) => refused.push((i, Reply::Shed)),
                    Err(_) => refused.push((i, Reply::Failed)),
                }
            }
            drop(tx);
            let backlog = sent - completed.load(Ordering::Relaxed);
            (late_ms, refused, backlog)
        });
        (
            submitter.join().expect("submitter thread"),
            completion.join().expect("completion thread"),
        )
    });
    let cpu_s = procfs::cpu_seconds()? - cpu0;
    let sim_ns = d.gpus.makespan_ns() - sim0;
    let (late_ms, refused, backlog_at_end) = submitted;
    let mut slots: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
    for (i, r) in answered.into_iter().chain(refused) {
        slots[i] = Some(r);
    }
    let (due_ns, queries) = requests.into_iter().unzip();
    Ok(Rung {
        rate,
        due_ns,
        queries,
        replies: slots
            .into_iter()
            .map(|r| r.expect("every request gets a reply"))
            .collect(),
        late_ms,
        backlog_at_end,
        cpu_s,
        sim_ns,
    })
}

/// Top-k hits of a fully resident reference build, memoised per query.
struct Reference {
    pipeline: Arc<Pipeline>,
    hits: HashMap<String, Vec<SearchHit>>,
}

impl Reference {
    fn hits_of(&mut self, queries: &[String]) -> Vec<&Vec<SearchHit>> {
        let mut seen: HashSet<&String> = HashSet::new();
        let missing: Vec<&String> = queries
            .iter()
            .filter(|q| !self.hits.contains_key(*q) && seen.insert(q))
            .collect();
        for chunk in missing.chunks(64) {
            let embedded: Vec<Vec<f32>> = chunk
                .iter()
                .map(|q| self.pipeline.embedder.embed(q))
                .collect();
            let results = self
                .pipeline
                .index
                .search_batch(&embedded, self.pipeline.top_k);
            for (q, hits) in chunk.iter().zip(results) {
                self.hits.insert((*q).clone(), hits);
            }
        }
        queries.iter().map(|q| &self.hits[q]).collect()
    }

    /// Checks the rung's served hits bit for bit and folds it into the
    /// outcome the SLO verdict reads.
    fn judge(&mut self, rung: &Rung) -> RungOutcome {
        let expected = self.hits_of(&rung.queries);
        let mut out = RungOutcome {
            rate_rps: rung.rate,
            attempted: rung.replies.len() as u64,
            latencies_ms: Vec::with_capacity(rung.replies.len()),
            by_due: Vec::with_capacity(rung.replies.len()),
            shed: 0,
            failed: 0,
            wrong: 0,
            gen_late_p99_ms: 0.0,
            backlog_at_end: rung.backlog_at_end,
        };
        for ((want, reply), due) in expected.into_iter().zip(&rung.replies).zip(&rung.due_ns) {
            match reply {
                Reply::Served {
                    latency_ns, hits, ..
                } if hits == want => out.by_due.push((*due, *latency_ns as f64 / 1e6)),
                Reply::Served { .. } => out.wrong += 1,
                Reply::Shed => out.shed += 1,
                Reply::Failed => out.failed += 1,
            }
        }
        out.latencies_ms = out.by_due.iter().map(|p| p.1).collect();
        out.latencies_ms.sort_by(f64::total_cmp);
        let mut late = rung.late_ms.clone();
        late.sort_by(f64::total_cmp);
        out.gen_late_p99_ms = stats::percentile(&late, 0.99).unwrap_or(0.0);
        out
    }
}

/// Builds `setups` times: returns the build times, the first build as the
/// correctness reference, and the last as the deployment to serve.
fn set_up(kind: Kind, setups: usize) -> Result<(Vec<f64>, Reference, Deployment), String> {
    let mut times = Vec::with_capacity(setups);
    let t = Instant::now();
    let first = deploy(kind)?;
    times.push(t.elapsed().as_secs_f64());
    // The reference serves nothing: stop its server and lift any budget so
    // every list may stay resident.
    first.server.shutdown();
    let full = first
        .pipeline
        .index
        .residency_stats()
        .map_or(0, |t| t.list_bytes);
    first.pipeline.index.set_residency_budget(full);
    let reference = Reference {
        pipeline: first.pipeline,
        hits: HashMap::new(),
    };
    let mut live = None;
    for _ in 1..setups {
        drop(live.take());
        let t = Instant::now();
        live = Some(deploy(kind)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, reference, live.ok_or("no served build")?))
}

fn rung_line(name: &str, o: &RungOutcome) -> String {
    let windows: Vec<String> = stats::window_percentiles(&o.by_due, P99_WINDOW_NS, 0.99, 1000)
        .iter()
        .map(|p| format!("{p:.3}"))
        .collect();
    format!(
        "rung {name}: rate={} rps attempted={} served_ok={} shed={} failed={} wrong={} \
         p50={:.3} ms p99={:.3} ms (n={}) gen_late_p99={:.3} ms backlog_at_end={} meets_slo={} p99_per_window_ms=[{}]",
        o.rate_rps,
        o.attempted,
        o.latencies_ms.len(),
        o.shed,
        o.failed,
        o.wrong,
        stats::percentile(&o.latencies_ms, 0.5).unwrap_or(f64::NAN),
        stats::percentile(&o.latencies_ms, 0.99).unwrap_or(f64::NAN),
        o.latencies_ms.len(),
        o.gen_late_p99_ms,
        o.backlog_at_end,
        o.meets_slo(),
        windows.join(", ")
    )
}

/// The end-to-end serving metrics of one judged rung, names prefixed.
fn rung_metrics(prefix: &str, o: &RungOutcome, rung: &Rung) -> Vec<Metric> {
    let served = rung.served().count();
    let per_req = served.max(1) as f64;
    let mut service_us: Vec<f64> = rung.served().map(|(ns, _)| *ns as f64 / 1e3).collect();
    service_us.sort_by(f64::total_cmp);
    let n = o.latencies_ms.len();
    let pct = |v: &[f64], p: f64| stats::percentile(v, p).unwrap_or(f64::NAN);
    let m = |name: &str, value: f64, unit: &str, clock: Clock, n: usize| {
        Metric::new(&format!("{prefix}{name}"), value, unit, clock, Some(n))
    };
    vec![
        m(
            "latency_p50_wall_ms",
            pct(&o.latencies_ms, 0.5),
            "ms",
            Clock::Wall,
            n,
        ),
        m(
            "latency_p99_wall_ms",
            pct(&o.latencies_ms, 0.99),
            "ms",
            Clock::Wall,
            n,
        ),
        m(
            "cpu_us_per_request",
            rung.cpu_s * 1e6 / per_req,
            "us",
            Clock::Cpu,
            served,
        ),
        m(
            "sim_us_per_request",
            rung.sim_ns as f64 / 1e3 / per_req,
            "us",
            Clock::Sim,
            served,
        ),
        m(
            "sim_service_p99_us",
            pct(&service_us, 0.99),
            "us",
            Clock::Sim,
            served,
        ),
        m(
            "failed_share",
            o.misses() as f64 / o.attempted.max(1) as f64,
            "share",
            Clock::None,
            o.attempted as usize,
        ),
        m(
            "gen_late_ms",
            o.gen_late_p99_ms,
            "ms",
            Clock::Wall,
            rung.late_ms.len(),
        ),
        m(
            "backlog_at_end",
            o.backlog_at_end as f64,
            "count",
            Clock::None,
            1,
        ),
    ]
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (setup_times, mut reference, d) = set_up(kind, if traced { 2 } else { SETUPS })?;
    let source = QuerySource::new(kind);
    let mut out = Outcome::default();
    out.metrics.push(Metric::new(
        "setup_s",
        stats::median(&setup_times),
        "s",
        Clock::Wall,
        Some(setup_times.len()),
    ));

    let warm = run_rung(&d, REF_RATE, source.rung(seed, 0, REF_RATE, WARMUP_S))?;
    let warm = reference.judge(&warm);
    out.lines.push(rung_line("warmup", &warm));
    let mut wrong = warm.wrong;

    let headline = if traced {
        let (o, w) = traced_run(kind, seed, seconds, d, &source, &mut reference, &mut out)?;
        wrong += w;
        o
    } else {
        let rung = run_rung(&d, REF_RATE, source.rung(seed, 1, REF_RATE, seconds * 0.6))?;
        // Memory at the reference rate: the ladder's overload rungs serve
        // a varying number of requests, and the simulator's event log
        // grows with every one.
        out.metrics.push(peak_rss()?);
        let ref_o = reference.judge(&rung);
        out.lines.push(rung_line("reference", &ref_o));
        out.metrics.extend(rung_metrics("", &ref_o, &rung));
        wrong += ref_o.wrong;
        // Climb while rungs hold, or descend until one does.
        let (rates, stop_when) = if ref_o.meets_slo() {
            (&LADDER_UP[..], false)
        } else {
            (&LADDER_DOWN[..], true)
        };
        let mut ladder = vec![ref_o.clone()];
        for (i, &rate) in rates.iter().enumerate() {
            let rung = run_rung(
                &d,
                rate,
                source.rung(seed, 2 + i as u64, rate, seconds * 0.1),
            )?;
            let o = reference.judge(&rung);
            out.lines.push(rung_line(&format!("ladder-{rate}"), &o));
            wrong += o.wrong;
            let met = o.meets_slo();
            ladder.push(o);
            if met == stop_when {
                break;
            }
        }
        out.metrics.push(Metric::new(
            "max_rate_at_slo_rps",
            stats::max_rate_at_slo(&ladder),
            "1/s",
            Clock::Wall,
            Some(ladder.len()),
        ));
        d.server.shutdown();
        ref_o
    };
    out.correct &= wrong == 0;
    out.attempted = headline.attempted;
    out.failed = headline.misses();
    Ok(out)
}

/// The traced run: an untraced rung, the same load with the cluster's
/// trace recorder on, then the layer pass over the traced rung's stream.
fn traced_run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    d: Deployment,
    source: &QuerySource,
    reference: &mut Reference,
    out: &mut Outcome,
) -> Result<(RungOutcome, u64), String> {
    let rung_s = seconds * 0.35;
    let plain = run_rung(&d, REF_RATE, source.rung(seed, 1, REF_RATE, rung_s))?;
    let plain_o = reference.judge(&plain);
    out.lines.push(rung_line("untraced", &plain_o));
    out.metrics
        .extend(rung_metrics("untraced.", &plain_o, &plain));

    let index = &d.pipeline.index;
    let kernels = || -> u64 { d.gpus.devices().map(|g| g.kernels_launched()).sum() };
    let pools = || -> (u64, u64) {
        index
            .pool_stats()
            .iter()
            .fold((0, 0), |(a, r), p| (a + p.allocs, r + p.reuse_hits))
    };
    let (k0, (alloc0, reuse0)) = (kernels(), pools());
    let tier0 = index.residency_stats().ok_or("index reports residency")?;
    let sched0 = d.server.scheduler_metrics();
    d.gpus.record_trace();
    let traced = run_rung(&d, REF_RATE, source.rung(seed, 2, REF_RATE, rung_s))?;
    out.metrics.push(peak_rss()?);
    let trace = d
        .gpus
        .finish_trace(kind.label())
        .ok_or("trace recording was on")?;
    let sched1 = d.server.scheduler_metrics();
    let tier = index
        .residency_stats()
        .ok_or("index reports residency")?
        .since(&tier0);
    let (k1, (alloc1, reuse1)) = (kernels(), pools());
    let traced_o = reference.judge(&traced);
    out.lines.push(rung_line("traced", &traced_o));
    out.metrics.extend(rung_metrics("", &traced_o, &traced));

    let served_n = traced.served().count().max(1) as f64;
    let plain_cpu = plain.cpu_s / plain.served().count().max(1) as f64;
    out.metrics.push(Metric::new(
        "tracing.cpu_overhead_ratio",
        traced.cpu_s / served_n / plain_cpu,
        "ratio",
        Clock::Cpu,
        Some(served_n as usize),
    ));

    // The raw per-request spans of the traced rung.
    let report = d.server.shutdown();
    let ids: HashSet<u64> = traced.served().map(|(_, id)| *id).collect();
    let spans: Vec<_> = report
        .spans
        .iter()
        .filter(|s| ids.contains(&s.request_id))
        .collect();
    let mut waits: Vec<f64> = spans
        .iter()
        .map(|s| s.dispatch_ns.saturating_sub(s.enqueue_ns) as f64 / 1e6)
        .collect();
    waits.sort_by(f64::total_cmp);
    let batches: HashSet<u64> = spans.iter().map(|s| s.batch_id).collect();
    let nb = batches.len().max(1) as f64;
    let cache_hits = spans.iter().filter(|s| s.cache_hit).count();

    let t = Instant::now();
    let replayed = gpu_sim::trace::replay(&trace, &gpu_sim::WhatIf::default())
        .map_err(|e| format!("trace replay failed: {e}"))?;
    let replay_ns = t.elapsed().as_nanos() as f64;
    let subs = trace.submissions();
    // The recorded devices did not start at clock 0, so the replay's sim
    // time and kernel total are not the trace's absolute figures; its
    // kernel count must equal the launches counted during the rung.
    if replayed.submissions != subs || replayed.kernel_launches != k1 - k0 {
        out.correct = false;
        out.lines.push(format!(
            "replay mismatch: {} of {subs} submissions, {} of {} kernels",
            replayed.submissions,
            replayed.kernel_launches,
            k1 - k0
        ));
    }
    let t = Instant::now();
    sagegpu_profiler::ingest::ingest_trace(&trace).map_err(|e| format!("ingest failed: {e}"))?;
    let ingest_ms = t.elapsed().as_secs_f64() * 1e3;

    let tasks = (sched1.total_tasks() - sched0.total_tasks()) as f64;
    let count = |name: &str, value: f64, unit: &str, n: usize| {
        Metric::new(name, value, unit, Clock::None, Some(n))
    };
    out.metrics.extend([
        Metric::new(
            "serve.queue_wait_p50_wall_ms",
            stats::percentile(&waits, 0.5).unwrap_or(f64::NAN),
            "ms",
            Clock::Wall,
            Some(waits.len()),
        ),
        count(
            "serve.batch_size_mean",
            spans.len() as f64 / nb,
            "count",
            batches.len(),
        ),
        count(
            "serve.cache_hit_ratio",
            ratio(cache_hits as u64, spans.len() as u64),
            "ratio",
            spans.len(),
        ),
        count(
            "gpu.submissions_per_request",
            subs as f64 / served_n,
            "count",
            served_n as usize,
        ),
        count(
            "gpu.kernels_per_request",
            (k1 - k0) as f64 / served_n,
            "count",
            served_n as usize,
        ),
        count(
            "gpu.pool_reuse_ratio",
            ratio(reuse1 - reuse0, alloc1 - alloc0),
            "ratio",
            (alloc1 - alloc0) as usize,
        ),
        Metric::new(
            "gpu.wall_ns_per_submission",
            replay_ns / subs.max(1) as f64,
            "ns",
            Clock::Wall,
            Some(subs as usize),
        ),
        Metric::new(
            "profiler.ingest_wall_ms",
            ingest_ms,
            "ms",
            Clock::Wall,
            Some(subs as usize),
        ),
        count(
            "residency.hit_ratio",
            tier.hit_ratio(),
            "ratio",
            (tier.hits + tier.misses) as usize,
        ),
        count(
            "residency.promoted_kb_per_batch",
            tier.promoted_bytes as f64 / 1024.0 / nb,
            "KB",
            batches.len(),
        ),
        count(
            "residency.evictions_per_batch",
            tier.evictions as f64 / nb,
            "count",
            batches.len(),
        ),
        count(
            "taskflow.tasks_per_batch",
            tasks / nb,
            "count",
            batches.len(),
        ),
        count(
            "taskflow.steals",
            (sched1.total_steals() - sched0.total_steals()) as f64,
            "count",
            tasks as usize,
        ),
    ]);

    let wrong = layer_pass(
        &d.gpus,
        &d.pipeline,
        d.max_batch,
        &traced.queries,
        reference,
        out,
    );
    Ok((traced_o.clone(), plain_o.wrong + traced_o.wrong + wrong))
}

/// Replays the traced stream in `max_batch` micro-batches straight through
/// each layer's public function, timing every call in wall time and in sim
/// time (the device-clock delta). Returns the number of batches whose
/// sharded hits differ from the reference.
fn layer_pass(
    gpus: &GpuCluster,
    p: &Pipeline,
    max_batch: usize,
    queries: &[String],
    reference: &mut Reference,
    out: &mut Outcome,
) -> u64 {
    let kprime = plan().refine.max(p.top_k);
    let clocks = || -> Vec<u64> { gpus.devices().map(|g| g.now_ns()).collect() };
    let us = |t: Instant| t.elapsed().as_nanos() as f64 / 1e3;
    let (mut embed, mut shard_wall, mut shard_sim, mut gather) = (vec![], vec![], vec![], vec![]);
    let (mut pq_wall, mut pq_sim, mut gen_wall, mut gen_sim) = (vec![], vec![], vec![], vec![]);
    let mut wrong = 0;
    let take = queries.len().min(LAYER_BATCHES * max_batch);
    for (b, batch) in queries[..take].chunks(max_batch).enumerate() {
        let mut emb = Vec::with_capacity(batch.len());
        for q in batch {
            let t = Instant::now();
            emb.push(p.embedder.embed(q));
            embed.push(us(t));
        }

        let c0 = clocks();
        let t = Instant::now();
        let hits = p.index.search_batch(&emb, p.top_k);
        shard_wall.push(us(t));
        let c1 = clocks();
        let busiest = c0.iter().zip(&c1).map(|(a, b)| b - a).max().unwrap_or(0);
        shard_sim.push(busiest as f64 / 1e3);
        if reference.hits_of(batch).into_iter().ne(hits.iter()) {
            wrong += 1;
        }

        let mut slowest = 0.0f64;
        for (s, shard) in p.index.shards().iter().enumerate() {
            let before = clocks()[s];
            let t = Instant::now();
            shard.search_batch(&emb, kprime);
            let wall = us(t);
            slowest = slowest.max(wall);
            pq_wall.push(wall);
            pq_sim.push((clocks()[s] - before) as f64 / 1e3);
        }
        gather.push(shard_wall.last().copied().unwrap_or(0.0) - slowest);

        let contexts: Vec<String> = hits.iter().map(|h| p.context_of(h)).collect();
        let ctx: Vec<&str> = contexts.iter().map(String::as_str).collect();
        let seeds: Vec<u64> = (0..batch.len() as u64)
            .map(|i| (b * max_batch) as u64 + i)
            .collect();
        let before = p.gpu().gpu().now_ns();
        let t = Instant::now();
        p.generator
            .generate_batch_seeded(p.gpu(), &ctx, p.answer_tokens, &seeds);
        gen_wall.push(us(t));
        gen_sim.push((p.gpu().gpu().now_ns() - before) as f64 / 1e3);
    }
    let wall = |name: &str, v: &[f64]| {
        Metric::new(name, stats::median(v), "us", Clock::Wall, Some(v.len()))
    };
    let sim = |name: &str, v: &[f64]| {
        let mean = v.iter().sum::<f64>() / v.len().max(1) as f64;
        Metric::new(name, mean, "us", Clock::Sim, Some(v.len()))
    };
    out.metrics.extend([
        wall("embed.wall_us_per_query", &embed),
        wall("shard.search_wall_us_per_batch", &shard_wall),
        sim("shard.search_sim_us_per_batch", &shard_sim),
        wall("shard.gather_wall_us_per_batch", &gather),
        wall("pq.search_wall_us_per_batch", &pq_wall),
        sim("pq.search_sim_us_per_batch", &pq_sim),
        wall("generate.wall_us_per_batch", &gen_wall),
        sim("generate.sim_us_per_batch", &gen_sim),
    ]);
    wrong
}

fn peak_rss() -> Result<Metric, String> {
    Ok(Metric::new(
        "peak_rss_mb",
        procfs::peak_rss_mb()?,
        "MB",
        Clock::None,
        None,
    ))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
