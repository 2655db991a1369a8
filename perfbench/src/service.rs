//! The online workload: `service-churn`.
//!
//! The grouping service replays a log from `EventLog::synthesize`: a
//! 1000-device `mobility-churn` fleet over 1000 epochs, with 5 %
//! departures, 5 % arrivals and 10 % handovers per epoch and one `dr-sc`
//! campaign request per epoch, under the `repair` policy. Every 100th
//! epoch's request is followed by a snapshot mark, at which the caller
//! persists `snapshot().to_json_pretty()` in memory. The loop is closed
//! with one caller: each record is applied after the previous one
//! returns, since every record depends on the state the previous one left.
//!
//! Set-up is the cold start to the first served plan: `GroupingService::new`,
//! the epoch-0 registration burst and the first full DR-SC plan. The
//! measured replay is every record after that.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use nbiot_des::SeedSequence;
use nbiot_grouping::{repair_plan, GroupingInput, MechanismKind, MulticastPlan};
use nbiot_phy::DataSize;
use nbiot_service::{
    Applied, EventLog, EventRecord, GroupingService, ServeAction, ServeSummary, ServiceConfig,
    ServiceError, ServiceEvent, ServiceSnapshot,
};
use nbiot_sim::{RegroupPolicy, SimConfig};
use nbiot_traffic::{ChurnModel, TrafficMix};

use crate::grid::{airtime_metrics, coverage_histogram};
use crate::report::{median, percentile, ratio, Outcome};
use crate::trace::Tracer;
use crate::Args;

const DEVICES: usize = 1000;
/// Enough epochs (one serve each) to put at least ten serves beyond p99.
const EPOCHS: u32 = 1000;
const SNAPSHOT_EVERY: u32 = 100;
const MECHANISM: &str = "dr-sc";
/// Cold starts timed for `setup_s` at least.
const SETUP_MIN: usize = 5;

fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        policy: RegroupPolicy::Repair,
        seed,
        ..ServiceConfig::default()
    }
}

/// The seed-derived input: the synthesized log plus snapshot marks.
fn build_log(seed: u64) -> Result<EventLog, ServiceError> {
    let model = ChurnModel {
        epochs: EPOCHS,
        departure_rate: 0.05,
        arrival_rate: 0.05,
        handover_rate: 0.10,
    };
    let mut log = EventLog::synthesize(
        &TrafficMix::mobility_churn(),
        DEVICES,
        &model,
        MECHANISM,
        seed,
    )?;
    let synthesized = std::mem::take(&mut log.records);
    for record in synthesized {
        let epoch = record.epoch;
        let mark = epoch > 0
            && epoch % SNAPSHOT_EVERY == 0
            && matches!(record.event, ServiceEvent::CampaignRequest { .. });
        log.records.push(record);
        if mark {
            log.records.push(EventRecord {
                epoch,
                event: ServiceEvent::Snapshot,
            });
        }
    }
    Ok(log)
}

/// Cold start: a new service fed every record up to and including the
/// first campaign request.
fn cold_start(
    log: &EventLog,
    cfg: ServiceConfig,
    first_serve: usize,
) -> Result<GroupingService, ServiceError> {
    let mut service = GroupingService::new(cfg, log)?;
    for record in &log.records[..=first_serve] {
        service.apply(record)?;
    }
    Ok(service)
}

/// Output checks and plan-quality sums over served plans.
#[derive(Default)]
struct Quality {
    serves: u64,
    transmissions: f64,
    airtime_ms: f64,
}

impl Quality {
    /// Checks the service's current plan against its live fleet and adds
    /// its transmissions and 100 kB airtime.
    fn check(
        &mut self,
        service: &GroupingService,
        summary: Option<&ServeSummary>,
    ) -> Result<(), String> {
        let plan = service.plan().ok_or("no plan after a serve")?;
        let input = GroupingInput::from_population(service.fleet(), service.config().params)
            .map_err(|e| format!("input: {e}"))?;
        plan.validate(&input)
            .map_err(|e| format!("served plan fails validation: {e}"))?;
        if let Some(s) = summary {
            if s.transmissions != plan.transmissions.len() || s.devices != service.fleet().len() {
                return Err(format!("serve {} summary disagrees with its plan", s.serve));
            }
        }
        let sim = SimConfig::default().with_payload(DataSize::from_kb(100));
        let (airtime_ms, _) = airtime_metrics(&coverage_histogram(plan, &input), &sim);
        self.serves += 1;
        self.transmissions += plan.transmissions.len() as f64;
        self.airtime_ms += airtime_ms;
        Ok(())
    }
}

/// Checks that a persisted snapshot parses back to the same text.
fn round_trips(text: &str) -> Result<(), String> {
    let back = ServiceSnapshot::from_json(text).map_err(|e| e.to_string())?;
    if back.to_json_pretty() == text {
        Ok(())
    } else {
        Err("snapshot text changes across a round trip".into())
    }
}

/// What one measured replay (after the cold start) observed.
struct Replay {
    records_per_s: f64,
    serve_ms: Vec<f64>,
    summaries: Vec<ServeSummary>,
    /// Digest of every snapshot taken, in order.
    snapshot_digests: Vec<u64>,
}

/// Applies `records` one after another, timing each record's handling.
/// At a snapshot mark the caller persists the snapshot text in memory,
/// replacing the previous one (a checkpoint file overwritten in place),
/// and that is part of the record's handling. With `quality`, every
/// served plan and every snapshot is checked outside the timed region.
fn replay(
    service: &mut GroupingService,
    records: &[EventRecord],
    mut quality: Option<&mut Quality>,
    out: &mut Outcome,
) -> Replay {
    let mut busy_s = 0.0;
    let mut checkpoint = String::new();
    let mut r = Replay {
        records_per_s: 0.0,
        serve_ms: Vec::new(),
        summaries: Vec::new(),
        snapshot_digests: Vec::new(),
    };
    for record in records {
        let t = Instant::now();
        let applied = service.apply(record);
        if let Ok(Applied::SnapshotRequested) = applied {
            checkpoint = service.snapshot().to_json_pretty();
        }
        let secs = t.elapsed().as_secs_f64();
        busy_s += secs;
        out.count(1, 0);
        match applied {
            Err(e) => out.fail(format!("record at epoch {}: {e}", record.epoch)),
            Ok(Applied::Served(summary)) => {
                r.serve_ms.push(secs * 1000.0);
                if let Some(q) = quality.as_deref_mut() {
                    if let Err(e) = q.check(service, Some(&summary)) {
                        out.fail(e);
                    }
                }
                r.summaries.push(summary);
            }
            Ok(Applied::SnapshotRequested) => {
                let mut hasher = DefaultHasher::new();
                checkpoint.hash(&mut hasher);
                r.snapshot_digests.push(hasher.finish());
                if quality.is_some() {
                    if let Err(e) = round_trips(&checkpoint) {
                        out.fail(format!("snapshot at epoch {}: {e}", record.epoch));
                    }
                }
            }
            Ok(Applied::Fleet) => {}
        }
    }
    r.records_per_s = ratio(records.len() as f64, busy_s);
    r
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(args.seed);
    let log = match build_log(args.seed) {
        Ok(log) => log,
        Err(e) => {
            out.fail(format!("log synthesis: {e}"));
            return out;
        }
    };
    let Some(first_serve) = log
        .records
        .iter()
        .position(|r| matches!(r.event, ServiceEvent::CampaignRequest { .. }))
    else {
        out.fail("the log has no campaign request".into());
        return out;
    };
    let steady = &log.records[first_serve + 1..];

    let mut setup_s = Vec::new();
    let mut rates = Vec::new();
    let mut serve_ms = Vec::new();
    let mut quality = Quality::default();
    let mut reference: Option<Replay> = None;
    let start = Instant::now();
    while rates.is_empty() || start.elapsed() < args.seconds {
        let t = Instant::now();
        let cold = cold_start(&log, cfg, first_serve);
        setup_s.push(t.elapsed().as_secs_f64());
        out.count(first_serve as u64 + 1, 0);
        let mut service = match cold {
            Ok(service) => service,
            Err(e) => {
                out.fail(format!("cold start: {e}"));
                break;
            }
        };
        let checking = reference.is_none();
        if checking {
            if let Err(e) = quality.check(&service, None) {
                out.fail(format!("first serve: {e}"));
            }
        }
        let q = if checking { Some(&mut quality) } else { None };
        let r = replay(&mut service, steady, q, &mut out);
        rates.push(r.records_per_s);
        serve_ms.extend_from_slice(&r.serve_ms);
        match &reference {
            None => reference = Some(r),
            Some(first) => {
                if first.summaries != r.summaries || first.snapshot_digests != r.snapshot_digests {
                    out.fail("a repeated replay served different plans".into());
                }
            }
        }
    }
    while setup_s.len() < SETUP_MIN {
        let t = Instant::now();
        let cold = std::hint::black_box(cold_start(&log, cfg, first_serve));
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = cold {
            out.fail(format!("cold start: {e}"));
        }
    }
    let records_per_s = median(&rates);
    let (p50, p99) = (percentile(&serve_ms, 0.5), percentile(&serve_ms, 0.99));
    let e = &mut out.end_to_end;
    e.insert("items_per_s", records_per_s);
    e.insert("setup_s", median(&setup_s));
    e.insert(
        "tx_per_campaign",
        ratio(quality.transmissions, quality.serves as f64),
    );
    e.insert(
        "airtime_per_campaign_ms",
        ratio(quality.airtime_ms, quality.serves as f64),
    );
    out.notes.push(format!(
        "untraced: {} replays of {} records, median {records_per_s:.1} records/s; \
         serve p50 {p50:.4} ms, p99 {p99:.4} ms over {} serves",
        rates.len(),
        steady.len(),
        serve_ms.len()
    ));
    if args.trace {
        let l = &mut out.per_layer;
        l.insert("service.serve_p50_ms", p50);
        l.insert("service.serve_p99_ms", p99);
        l.insert("service.serve_samples", serve_ms.len() as f64);
        traced(&log, cfg, records_per_s, &mut out);
    }
    out
}

/// Sums and counts of the traced pass's spans, by layer.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    /// Adds one span of `ms` to `layer` and returns `ms`.
    fn add(&mut self, layer: &'static str, ms: f64) -> f64 {
        let entry = self.0.entry(layer).or_insert((0.0, 0));
        entry.0 += ms;
        entry.1 += 1;
        ms
    }

    fn sum(&self, layer: &str) -> f64 {
        self.0.get(layer).map_or(0.0, |e| e.0)
    }

    fn count(&self, layer: &str) -> u64 {
        self.0.get(layer).map_or(0, |e| e.1)
    }

    fn mean(&self, layer: &str) -> f64 {
        ratio(self.sum(layer), self.count(layer) as f64)
    }
}

/// Deterministic counters (and the serve residual) of the traced pass.
#[derive(Default)]
struct Counters {
    residual_ms: f64,
    fallbacks: u64,
    stale_sum: f64,
    transmissions: u64,
    recipients: u64,
    moves: u64,
    budget_spent: u64,
    snapshot_bytes: u64,
}

/// The traced pass: one replay of the whole log with a span around every
/// record's `apply` (fleet and snapshot spans are owned by the record
/// index, serve spans by the serve index).
fn traced(log: &EventLog, cfg: ServiceConfig, untraced_records_per_s: f64, out: &mut Outcome) {
    let mut service = match GroupingService::new(cfg, log) {
        Ok(service) => service,
        Err(e) => {
            out.fail(format!("traced: {e}"));
            return;
        }
    };
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut c = Counters::default();
    let phase = Instant::now();
    for (index, record) in log.records.iter().enumerate() {
        out.count(1, 0);
        let owner = index as u64;
        let result = match &record.event {
            ServiceEvent::Fleet(_) => {
                let (applied, ms) =
                    tracer.span("service.fleet_apply", owner, || service.apply(record));
                layers.add("fleet", ms);
                applied.map(drop).map_err(|e| e.to_string())
            }
            ServiceEvent::Snapshot => {
                let (text, ms) = tracer.span("service.snapshot", owner, || {
                    let applied = service.apply(record);
                    applied.map(|_| service.snapshot().to_json_pretty())
                });
                layers.add("snapshot", ms);
                text.map(|text| c.snapshot_bytes += text.len() as u64)
                    .map_err(|e| e.to_string())
            }
            ServiceEvent::CampaignRequest { .. } => {
                traced_serve(&mut service, record, &mut tracer, &mut layers, &mut c)
            }
        };
        if let Err(e) = result {
            out.fail(format!("traced record {index}: {e}"));
        }
    }
    let phase_s = phase.elapsed().as_secs_f64();
    let serves = layers.count("serve") as f64;
    let traced_records_per_s = log.records.len() as f64 / phase_s;
    let l = &mut out.per_layer;
    l.insert("service.fleet_apply_us", 1000.0 * layers.mean("fleet"));
    for (metric, layer) in [
        ("service.serve_repair_ms", "repair"),
        ("service.serve_full_ms", "full"),
        ("service.serve_cached_ms", "cached"),
        ("service.input_build_ms", "input_build"),
        ("service.repair_plan_ms", "repair_plan"),
        ("service.plan_validate_ms", "plan_validate"),
        ("plan.dr_sc_ms", "plan"),
        ("service.snapshot_ms", "snapshot"),
    ] {
        l.insert(metric, layers.mean(layer));
    }
    l.insert("service.serve_residual_ms", ratio(c.residual_ms, serves));
    l.insert(
        "service.serve_residual_share",
        ratio(c.residual_ms, layers.sum("serve")),
    );
    l.insert(
        "service.snapshot_bytes",
        ratio(c.snapshot_bytes as f64, layers.count("snapshot") as f64),
    );
    l.insert("plan.transmissions", c.transmissions as f64);
    l.insert("validate.recipients", c.recipients as f64);
    l.insert("improve.moves", c.moves as f64);
    l.insert("improve.budget_spent", c.budget_spent as f64);
    l.insert("service.fleet_events", layers.count("fleet") as f64);
    l.insert("service.serves", serves);
    let share = |layer: &str| ratio(layers.count(layer) as f64, serves);
    l.insert("service.repair_share", share("repair"));
    l.insert("service.full_share", share("full"));
    l.insert("service.repair_fallbacks", c.fallbacks as f64);
    l.insert("service.stale_fraction_mean", ratio(c.stale_sum, serves));
    l.insert("trace.items_per_s", traced_records_per_s);
    l.insert(
        "trace.overhead_ratio",
        ratio(untraced_records_per_s, traced_records_per_s),
    );
    let busy = layers.sum("fleet") + layers.sum("serve") + layers.sum("snapshot");
    let pct = |layer: &str| 100.0 * ratio(layers.sum(layer), busy);
    out.notes.push(format!(
        "traced record time: fleet apply {:.1}%, repair serves {:.1}%, full serves {:.1}%, \
         snapshots {:.1}%; serve residual {:.1}% of serve time",
        pct("fleet"),
        pct("repair"),
        pct("full"),
        pct("snapshot"),
        100.0 * ratio(c.residual_ms, layers.sum("serve")),
    ));
    out.spans = tracer.spans;
}

/// One campaign request of the traced pass. The steps the serve is about
/// to take (a repair of the cached plan, or the first full DR-SC plan)
/// are called and timed just before it; the served plan must equal the
/// one timed and validate against the live fleet.
fn traced_serve(
    service: &mut GroupingService,
    record: &EventRecord,
    tracer: &mut Tracer,
    layers: &mut Layers,
    c: &mut Counters,
) -> Result<(), String> {
    let owner = service.serves();
    let cfg = *service.config();
    let (input, input_ms) = tracer.span("service.input_build", owner, || {
        GroupingInput::from_population(service.fleet(), cfg.params)
    });
    let input = input.map_err(|e| e.to_string())?;
    let mut steps_ms = 0.0;
    let mut expected: Option<MulticastPlan> = None;
    if service.events_since_plan() > 0 || service.plan().is_none() {
        steps_ms += layers.add("input_build", input_ms);
        let candidate = match service.plan() {
            Some(cached) => {
                let (repaired, ms) =
                    tracer.span("service.repair_plan", owner, || repair_plan(cached, &input));
                steps_ms += layers.add("repair_plan", ms);
                if repaired.is_none() {
                    c.fallbacks += 1;
                }
                repaired
            }
            None => {
                let mut rng = SeedSequence::new(cfg.seed).child(owner).rng(0);
                let (plan, ms) = tracer.span("plan.dr_sc", owner, || {
                    MechanismKind::DrSc.instantiate().plan(&input, &mut rng)
                });
                steps_ms += layers.add("plan", ms);
                Some(plan)
            }
        };
        if let Some(plan) = candidate {
            let plan = plan.map_err(|e| e.to_string())?;
            let (valid, ms) = tracer.span("service.plan_validate", owner, || plan.validate(&input));
            steps_ms += layers.add("plan_validate", ms);
            valid.map_err(|e| e.to_string())?;
            expected = Some(plan);
        }
    }
    let (applied, ms) = tracer.span("service.serve", owner, || service.apply(record));
    let summary = match applied.map_err(|e| e.to_string())? {
        Applied::Served(summary) => summary,
        other => return Err(format!("campaign request applied as {other:?}")),
    };
    layers.add("serve", ms);
    layers.add(summary.action.as_str(), ms);
    c.residual_ms += ms - steps_ms;
    c.stale_sum += summary.stale_fraction;
    let served = service.plan().ok_or("no plan after a serve")?;
    if expected.as_ref().is_some_and(|plan| plan != served) {
        return Err(format!(
            "serve {owner}: served plan differs from the one timed"
        ));
    }
    served
        .validate(&input)
        .map_err(|e| format!("serve {owner}: {e}"))?;
    c.transmissions += served.transmissions.len() as u64;
    c.recipients += served
        .transmissions
        .iter()
        .map(|tx| tx.recipients.len() as u64)
        .sum::<u64>();
    if summary.action != ServeAction::Cached {
        if let Some(stats) = &served.improvement {
            c.moves += u64::from(stats.moves_accepted);
            c.budget_spent += u64::from(stats.budget_spent);
        }
    }
    Ok(())
}
