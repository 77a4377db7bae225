//! Chrome `about:tracing` JSON export.
//!
//! Both Nsight Systems and the PyTorch profiler export Chrome-trace JSON;
//! it is the lingua franca of timeline viewers (chrome://tracing, Perfetto,
//! TensorBoard's trace viewer). A [`ChromeTrace`] is one such document.
//! Each adder lays one event model out as `"ph": "X"` (complete) slices
//! with microsecond timestamps on named lanes, under a process of its own:
//!
//! | adder | process (`pid`) | lanes (`tid`) | clock |
//! |---|---|---|---|
//! | [`ChromeTrace::gpu`] | `gpu{n} (sim)` (device ordinal) | one per stream | sim, from 0 |
//! | [`ChromeTrace::scheduler`] | `scheduler (wall)` (1000) | one per worker | wall |
//! | [`ChromeTrace::serving`] | `serving (wall)` (1001) | queue, retrieve, generate | see [`RequestSpan`] |
//!
//! The sim clock (what the cost model charges the simulated GPUs) and the
//! wall clock (the host's) share no origin, so every slice names its own
//! in `args.clock`, `"sim"` or `"wall"`. A merged view is more than one
//! adder on the same document.

use gpu_sim::{EventKind, TraceEvent};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use taskflow::metrics::SchedulerMetrics;

/// The synthetic process the scheduler's worker lanes live under, clear
/// of simulated-GPU ordinals.
const SCHEDULER_PID: u32 = 1000;

/// The synthetic process the serving stage lanes live under.
const SERVING_PID: u32 = 1001;

/// One served request's lifecycle timestamps.
///
/// `enqueue_ns` and `dispatch_ns` are wall-clock offsets on the serving
/// cluster's clock (`now_ns`); `retrieve_ns` and `generate_ns` are
/// simulated stage durations, laid out back-to-back from the wall-clock
/// dispatch point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Admission-order request id.
    pub request_id: u64,
    /// Micro-batch this request was coalesced into.
    pub batch_id: u64,
    /// When the request entered the admission queue (wall clock).
    pub enqueue_ns: u64,
    /// When the micro-batcher dispatched its batch to the cluster (wall
    /// clock).
    pub dispatch_ns: u64,
    /// Simulated retrieval duration (0 for cache hits).
    pub retrieve_ns: u64,
    /// Simulated generation duration.
    pub generate_ns: u64,
    /// Whether retrieval was answered from the cache.
    pub cache_hit: bool,
}

impl RequestSpan {
    /// Time spent queued before dispatch (wall clock).
    pub fn queue_wait_ns(&self) -> u64 {
        self.dispatch_ns.saturating_sub(self.enqueue_ns)
    }
}

/// A Chrome-trace document under construction: each adder appends one
/// event model's lane names (`"ph": "M"`) and then its slices.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<Value>,
}

impl ChromeTrace {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds simulated-GPU events on the sim clock: one process per device
    /// and one lane per (device, stream). The default stream is labelled
    /// `(default)`; another stream carrying only peer-link traffic is a
    /// dedicated communication stream (the cluster's chunked collectives)
    /// and is labelled `(comm)`, so its overlap with compute reads at a
    /// glance.
    pub fn gpu(mut self, events: &[TraceEvent]) -> Self {
        let mut lane_all_p2p: BTreeMap<(u32, u32), bool> = BTreeMap::new();
        for ev in events {
            *lane_all_p2p.entry((ev.device, ev.stream)).or_insert(true) &=
                ev.kind == EventKind::MemcpyP2P;
        }
        let mut devices: Vec<u32> = lane_all_p2p.keys().map(|&(d, _)| d).collect();
        devices.dedup();
        for d in devices {
            self.lane_name("process_name", (d, 0), format!("gpu{d} (sim)"));
        }
        for (&(d, s), &all_p2p) in &lane_all_p2p {
            let label = match (s, all_p2p) {
                (0, _) => "stream 0 (default)".to_owned(),
                (_, true) => format!("stream {s} (comm)"),
                _ => format!("stream {s}"),
            };
            self.lane_name("thread_name", (d, s), label);
        }
        for ev in events {
            let args = json!({
                "clock": "sim",
                "bytes": ev.bytes,
                "flops": ev.flops,
                "occupancy": ev.occupancy,
            });
            let lane = (ev.device, ev.stream);
            self.slice(
                &ev.name,
                ev.kind.label(),
                lane,
                (ev.start_ns, ev.dur_ns),
                args,
            );
        }
        self
    }

    /// Adds the taskflow scheduler's per-attempt task spans on the wall
    /// clock: one lane per worker, labelled with its counters, and one
    /// slice per attempt, so a straggling worker shows up as a long lane, a
    /// retry storm as stacked re-attempts, and a steal as a slice whose
    /// `stolen` arg is true.
    pub fn scheduler(mut self, m: &SchedulerMetrics) -> Self {
        self.lane_name(
            "process_name",
            (SCHEDULER_PID, 0),
            "scheduler (wall)".into(),
        );
        for w in &m.workers {
            let label = format!(
                "worker-{} (tasks={}, steals={}, retries={}, depth={})",
                w.worker_id, w.tasks_run, w.steals, w.retries, w.max_queue_depth
            );
            self.lane_name("thread_name", (SCHEDULER_PID, w.worker_id as u32), label);
        }
        for span in &m.spans {
            let args = json!({
                "clock": "wall",
                "task_id": span.task_id,
                "attempt": span.attempt,
                "stolen": span.stolen,
                "queue_delay_us": span.start_ns.saturating_sub(span.queued_ns) as f64 / 1e3,
            });
            let lane = (SCHEDULER_PID, span.worker as u32);
            let time = (span.start_ns, span.dur_ns());
            self.slice(&span.label, span.outcome.label(), lane, time, args);
        }
        self
    }

    /// Adds served-request lifecycles: three slices per request in the
    /// `queue` (wall clock), `retrieve` and `generate` (sim-clock
    /// durations from the wall-clock dispatch point) lanes, so a slow
    /// request shows where it spent its life. Retrieve slices are
    /// categorized `cache-hit`/`cache-miss`, so the lane visibly collapses
    /// once the cache warms.
    pub fn serving(mut self, spans: &[RequestSpan]) -> Self {
        self.lane_name("process_name", (SERVING_PID, 0), "serving (wall)".into());
        for (tid, lane) in [(0, "queue"), (1, "retrieve"), (2, "generate")] {
            self.lane_name("thread_name", (SERVING_PID, tid), format!("serve-{lane}"));
        }
        for span in spans {
            let name = format!("req-{}", span.request_id);
            let retrieve = if span.cache_hit {
                "cache-hit"
            } else {
                "cache-miss"
            };
            let decode_ns = span.dispatch_ns + span.retrieve_ns;
            for (tid, cat, time, clock) in [
                (0, "queued", (span.enqueue_ns, span.queue_wait_ns()), "wall"),
                (1, retrieve, (span.dispatch_ns, span.retrieve_ns), "sim"),
                (2, "decode", (decode_ns, span.generate_ns), "sim"),
            ] {
                let args = json!({
                    "clock": clock,
                    "request_id": span.request_id,
                    "batch_id": span.batch_id,
                    "cache_hit": span.cache_hit,
                });
                self.slice(&name, cat, (SERVING_PID, tid), time, args);
            }
        }
        self
    }

    /// The document as Chrome-trace JSON.
    pub fn to_json(&self) -> String {
        let doc = json!({ "traceEvents": self.events.clone(), "displayTimeUnit": "ns" });
        serde_json::to_string_pretty(&doc).expect("writing a JSON value cannot fail")
    }

    /// A complete slice on lane `(pid, tid)` from `start_ns` for `dur_ns`.
    fn slice(
        &mut self,
        name: &str,
        cat: &str,
        (pid, tid): (u32, u32),
        (start_ns, dur_ns): (u64, u64),
        args: Value,
    ) {
        self.events.push(json!({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": start_ns as f64 / 1e3,
            "dur": dur_ns as f64 / 1e3,
            "pid": pid,
            "tid": tid,
            "args": args,
        }));
    }

    /// A `process_name` or `thread_name` metadata event labelling lane
    /// `(pid, tid)` (a process name ignores `tid`).
    fn lane_name(&mut self, kind: &str, (pid, tid): (u32, u32), label: String) {
        self.events.push(json!({
            "name": kind,
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": json!({ "name": label }),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskflow::metrics::{SpanOutcome, TaskSpan, WorkerMetrics};

    fn ev(name: &str, device: u32, start: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Kernel,
            name: name.into(),
            device,
            stream: 0,
            start_ns: start,
            dur_ns: dur,
            bytes: 64,
            flops: 128,
            occupancy: 0.75,
            graph: false,
        }
    }

    fn metrics() -> SchedulerMetrics {
        let worker = |worker_id, tasks_run, steals, retries, max_queue_depth| WorkerMetrics {
            worker_id,
            tasks_run,
            steals,
            retries,
            max_queue_depth,
            busy_ns: 1_000,
        };
        let span = |task_id, label: &str, worker, attempt, queued_ns, start_ns, end_ns| TaskSpan {
            task_id,
            label: label.into(),
            worker,
            attempt,
            queued_ns,
            start_ns,
            end_ns,
            stolen: worker == 1,
            outcome: if start_ns == 1_000 {
                SpanOutcome::InjectedCrash
            } else {
                SpanOutcome::Completed
            },
        };
        SchedulerMetrics {
            workers: vec![worker(0, 2, 0, 1, 2), worker(1, 1, 1, 0, 1)],
            spans: vec![
                span(0, "epoch \"0\"", 0, 0, 0, 1_000, 2_500),
                span(0, "epoch \"0\"", 0, 1, 0, 2_500, 4_000),
                span(1, "task-1", 1, 0, 500, 1_500, 2_500),
            ],
            wall_ns: 5_000,
        }
    }

    fn spans() -> Vec<RequestSpan> {
        let span = |request_id, enqueue_ns, retrieve_ns, cache_hit| RequestSpan {
            request_id,
            batch_id: 0,
            enqueue_ns,
            dispatch_ns: 3_000,
            retrieve_ns,
            generate_ns: 4_000,
            cache_hit,
        };
        vec![span(0, 1_000, 2_000, false), span(1, 2_000, 0, true)]
    }

    /// The document's events, read back from its JSON.
    fn read_back(trace: &ChromeTrace) -> Vec<Value> {
        let parsed = serde_json::from_str(&trace.to_json()).expect("valid JSON");
        assert_eq!(parsed["displayTimeUnit"], "ns");
        parsed["traceEvents"]
            .as_array()
            .expect("event array")
            .clone()
    }

    fn phase<'a>(events: &'a [Value], ph: &str) -> Vec<&'a Value> {
        events.iter().filter(|e| e["ph"] == ph).collect()
    }

    fn has_name(meta: &[&Value], kind: &str, tid: u32, name: &str) -> bool {
        meta.iter()
            .any(|e| e["name"] == kind && e["tid"] == tid && e["args"]["name"] == name)
    }

    #[test]
    fn produces_valid_json_with_expected_fields() {
        let events = read_back(&ChromeTrace::new().gpu(&[ev("sgemm", 0, 1000, 500)]));
        // One process_name + one thread_name metadata event + one slice.
        assert_eq!(events.len(), 3);
        let e = phase(&events, "X")[0];
        assert_eq!(e["name"], "sgemm");
        assert_eq!(e["cat"], "kernel");
        assert_eq!(e["ts"], 1.0); // 1000 ns = 1 µs
        assert_eq!(e["dur"], 0.5);
        assert_eq!(e["pid"], 0);
        assert_eq!(e["args"]["flops"], 128);
        assert_eq!(e["args"]["occupancy"], 0.75);
        assert_eq!(e["args"]["clock"], "sim");
    }

    #[test]
    fn devices_map_to_pids() {
        let events = read_back(&ChromeTrace::new().gpu(&[ev("a", 0, 0, 1), ev("b", 2, 0, 1)]));
        let slices = phase(&events, "X");
        assert_eq!(slices[0]["pid"], 0);
        assert_eq!(slices[1]["pid"], 2);
        let meta = phase(&events, "M");
        assert!(has_name(&meta, "process_name", 0, "gpu0 (sim)"));
        assert!(has_name(&meta, "process_name", 0, "gpu2 (sim)"));
    }

    #[test]
    fn streams_get_named_thread_lanes() {
        let mut copy = ev("htod", 0, 0, 10);
        copy.stream = 1;
        copy.kind = EventKind::MemcpyH2D;
        let events = read_back(&ChromeTrace::new().gpu(&[ev("k", 0, 0, 10), copy]));
        let meta = phase(&events, "M");
        // One process_name for device 0, thread_name for streams 0 and 1.
        assert_eq!(meta.len(), 3);
        assert!(has_name(&meta, "thread_name", 0, "stream 0 (default)"));
        assert!(has_name(&meta, "thread_name", 1, "stream 1"));
    }

    #[test]
    fn comm_only_streams_get_comm_lane_label() {
        let mut step = ev("grad-bucket0/rs0", 0, 0, 10);
        step.stream = 1;
        step.kind = EventKind::MemcpyP2P;
        let mut copy = ev("htod", 0, 0, 10);
        copy.stream = 2;
        copy.kind = EventKind::MemcpyH2D;
        let events = read_back(&ChromeTrace::new().gpu(&[ev("k", 0, 0, 10), step, copy]));
        let meta = phase(&events, "M");
        assert!(has_name(&meta, "thread_name", 1, "stream 1 (comm)"));
        // Mixed-traffic streams keep the plain label; stream 0 never gets
        // the comm label even when it carries P2P (monolithic all-reduce).
        assert!(has_name(&meta, "thread_name", 2, "stream 2"));
        let mut mono = ev("all-reduce", 0, 0, 10);
        mono.kind = EventKind::MemcpyP2P;
        let events = read_back(&ChromeTrace::new().gpu(&[mono]));
        let meta = phase(&events, "M");
        assert!(has_name(&meta, "thread_name", 0, "stream 0 (default)"));
    }

    #[test]
    fn empty_documents_are_valid() {
        assert!(read_back(&ChromeTrace::new()).is_empty());
        assert!(read_back(&ChromeTrace::new().gpu(&[])).is_empty());
        // The scheduler and serving processes are named even when idle;
        // serving also names its three stage lanes.
        let idle = read_back(&ChromeTrace::new().scheduler(&SchedulerMetrics::default()));
        assert_eq!(idle.len(), 1);
        assert_eq!(read_back(&ChromeTrace::new().serving(&[])).len(), 4);
    }

    #[test]
    fn event_names_are_escaped() {
        let events = read_back(&ChromeTrace::new().gpu(&[ev("memcpy \"H2D\"\n", 1, 10, 10)]));
        assert_eq!(phase(&events, "X")[0]["name"], "memcpy \"H2D\"\n");
    }

    #[test]
    fn scheduler_trace_has_lanes_and_attempt_slices() {
        let events = read_back(&ChromeTrace::new().scheduler(&metrics()));
        // 1 process name + 2 worker lane names + 3 attempt slices.
        assert_eq!(events.len(), 6);
        assert!(events.iter().all(|e| e["pid"] == 1000));
        let meta = phase(&events, "M");
        assert!(has_name(&meta, "process_name", 0, "scheduler (wall)"));
        let lane = meta[1]["args"]["name"].as_str().unwrap();
        assert!(
            lane.contains("worker-0") && lane.contains("retries=1"),
            "{lane}"
        );

        let slices = phase(&events, "X");
        let crash = slices[0];
        assert_eq!(crash["name"], "epoch \"0\"");
        assert_eq!(crash["cat"], "injected-crash");
        assert_eq!(crash["ts"], 1.0);
        assert_eq!(crash["dur"], 1.5);
        assert_eq!(crash["args"]["attempt"], 0);
        assert_eq!(crash["args"]["clock"], "wall");

        let stolen = slices[2];
        assert_eq!(stolen["tid"], 1);
        assert_eq!(stolen["args"]["stolen"], true);
        assert_eq!(stolen["args"]["queue_delay_us"], 1.0);
    }

    #[test]
    fn serving_trace_has_three_lanes_and_three_slices_per_request() {
        let events = read_back(&ChromeTrace::new().serving(&spans()));
        // 1 process name + 3 lane names + 2 requests × 3 slices.
        assert_eq!(events.len(), 10);
        assert!(events.iter().all(|e| e["pid"] == 1001));
        let meta = phase(&events, "M");
        assert!(has_name(&meta, "process_name", 0, "serving (wall)"));
        assert!(has_name(&meta, "thread_name", 1, "serve-retrieve"));
        let slices = phase(&events, "X");
        let queued = slices[0];
        assert_eq!(queued["name"], "req-0");
        assert_eq!(queued["tid"], 0);
        assert_eq!(queued["dur"], 2.0); // 2 µs queued
        assert_eq!(queued["args"]["clock"], "wall");
        let retrieve_hit = slices[4];
        assert_eq!(retrieve_hit["cat"], "cache-hit");
        assert_eq!(retrieve_hit["dur"], 0.0);
        assert_eq!(retrieve_hit["args"]["clock"], "sim");
        let decode = slices[5];
        assert_eq!(decode["tid"], 2);
        assert_eq!(decode["ts"], 3.0);
        assert_eq!(decode["args"]["cache_hit"], true);
        assert_eq!(decode["args"]["clock"], "sim");
    }

    #[test]
    fn merged_document_is_the_union_of_single_source_documents() {
        let gpu = [ev("sgemm", 0, 0, 1_000), ev("sgemm", 1, 500, 1_000)];
        let merged = ChromeTrace::new()
            .gpu(&gpu)
            .scheduler(&metrics())
            .serving(&spans());
        let mut union = read_back(&ChromeTrace::new().gpu(&gpu));
        union.extend(read_back(&ChromeTrace::new().scheduler(&metrics())));
        union.extend(read_back(&ChromeTrace::new().serving(&spans())));
        assert_eq!(read_back(&merged), union);
    }

    #[test]
    fn every_slice_and_process_names_its_clock() {
        let merged = ChromeTrace::new()
            .gpu(&[ev("sgemm", 0, 0, 1_000)])
            .scheduler(&metrics())
            .serving(&spans());
        let events = read_back(&merged);
        for e in phase(&events, "X") {
            assert!(
                e["args"]["clock"] == "sim" || e["args"]["clock"] == "wall",
                "{e:?}"
            );
        }
        for e in phase(&events, "M")
            .into_iter()
            .filter(|e| e["name"] == "process_name")
        {
            let name = e["args"]["name"].as_str().unwrap();
            assert!(
                name.ends_with(" (sim)") || name.ends_with(" (wall)"),
                "{name}"
            );
        }
    }

    #[test]
    fn queue_wait_saturates() {
        let s = RequestSpan {
            request_id: 9,
            batch_id: 1,
            enqueue_ns: 10,
            dispatch_ns: 5,
            retrieve_ns: 0,
            generate_ns: 0,
            cache_hit: false,
        };
        assert_eq!(s.queue_wait_ns(), 0);
    }
}
